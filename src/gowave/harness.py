"""Experiment definition and execution.

Configs are flat ``key = value`` INI files. An experiment is: build the
simulation grid, sample or load an acquisition geometry, synthesize a target
perturbation, simulate clean data once, add band-limited noise, calibrate
the smoothing regularizer, then run one or more budgeted optimizers from
the homogeneous start model. Every run writes a manifest in the same format
as the input config (plus derived values and results) so that a finished
run directory can be re-run or audited; no timestamps or machine state go
into any output.
"""

import configparser
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import fileio
from .ledger import SolveLedger
from .optim import (LinesearchPolicy, curvature_factor_nbytes, run_gncg, run_gogn,
                    run_lbfgs, run_nlcg)
from .problem import (DataSet, FwiProblem, Geometry, make_noisy_data,
                      receiver_weights)
from .regularizer import build as build_regularizer, check_spectrum
from .wave import (ModelGrid, SimGrid, SourceSpec, cfl_substeps,
                   forward_solve)

OPTIMIZER_NAMES = ("gogn", "nlcg", "lbfgs", "gncg")

# Largest kept forward field a config may imply at the start model m = 0:
# gncg holds one per source and every other method one at a time. It also
# bounds the curvature factor that nlcg and lbfgs build.
KEPT_FIELD_LIMIT_BYTES = 10**9


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@contextmanager
def _config_error(prefix=""):
    """Re-raise a ValueError from the block as a ConfigError with its text."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from None


@dataclass
class GeometrySpec:
    kind: str = "uniform"       # uniform | clustered | from-file
    n_sources: int = 4
    n_receivers: int = 50
    seed: int = 1
    augment_to: int = 0         # 0 disables source augmentation
    file: str = ""


@dataclass
class TargetSpec:
    kind: str = "face"          # face | disks | from-file
    cap: float = 0.05
    file: str = ""


@dataclass
class ExperimentConfig:
    nx: int = 64
    ny: int = 64
    h: float = 8000.0
    c0: float = 3150.0
    dt: float = 1.0
    nt: int = 150
    boundary_width: int = 20
    boundary_strength: float = 0.25
    frequency: float = 0.1
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    target: TargetSpec = field(default_factory=TargetSpec)
    lam: str = "auto"           # "auto" or a float literal
    nu: str = "auto"
    sigma: float = 0.1
    noise_seed: int = 11
    optimizers: tuple = OPTIMIZER_NAMES
    budget: int = 100
    threads: int = 1
    ls_step_cap: float = 0.05

    def validate(self):
        for section, keys in _TABLE.items():
            for key, attr in keys.items():
                value = _get(self, attr)
                if isinstance(value, float) and not np.isfinite(value):
                    raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
                if key in ("seed", "sigma") and value < 0:
                    raise ConfigError(f"{section}.{key} must be non-negative")
                if key in ("budget", "threads") and value < 1:
                    raise ConfigError(f"{section}.{key} must be positive")
        grid = self.sim_grid()
        try:
            kept = float(grid.kept_field_bytes())
        except OverflowError:  # the substep or byte count passes the float range
            kept = float("inf")
        if kept > KEPT_FIELD_LIMIT_BYTES:
            raise ConfigError(
                f"one kept forward field would hold {kept / 1e9:.3g} GB, past the "
                f"{KEPT_FIELD_LIMIT_BYTES / 1e9:.3g} GB limit: reduce the grid, "
                "nt or the substeps (dt * c0 / h)")
        with _config_error():
            grid.check_source(SourceSpec((0.0, 0.0), self.frequency))
        five_h = 5.0 * self.h  # nu = auto squares it
        if self.nu == "auto" and not 0.0 < five_h * five_h < np.inf:
            raise ConfigError(f"grid.h = {self.h!r} is out of range: "
                              f"the square of {five_h!r} is {five_h * five_h!r}")
        if self.geometry.kind not in ("uniform", "clustered", "from-file"):
            raise ConfigError(f"unknown geometry kind {self.geometry.kind!r}")
        if self.geometry.kind == "from-file" and not self.geometry.file:
            raise ConfigError("geometry kind from-file needs a file")
        if self.geometry.n_sources < 1:
            raise ConfigError("need at least one source")
        if self.geometry.n_receivers < 1:
            raise ConfigError("need at least one receiver")
        if self.target.kind not in ("face", "disks", "from-file"):
            raise ConfigError(f"unknown target kind {self.target.kind!r}")
        if self.target.kind == "from-file" and not self.target.file:
            raise ConfigError("target kind from-file needs a file")
        if not 0.0 < self.target.cap < 1.0:
            raise ConfigError("target cap must lie in (0, 1)")
        unknown = [n for n in self.optimizers if n not in OPTIMIZER_NAMES]
        if unknown or not self.optimizers:
            raise ConfigError(f"unknown optimizers {unknown}")
        if len(set(self.optimizers)) != len(self.optimizers):
            raise ConfigError(f"repeated optimizers in {list(self.optimizers)}")
        factored = [n for n in self.optimizers if n in ("nlcg", "lbfgs")]
        factor = curvature_factor_nbytes(self.nx, self.ny)
        if factored and factor > KEPT_FIELD_LIMIT_BYTES:
            raise ConfigError(
                f"{' and '.join(factored)} would factor a {factor / 1e9:.3g} GB "
                f"curvature model, past the {KEPT_FIELD_LIMIT_BYTES / 1e9:.3g} GB "
                "limit: reduce the grid or run gogn and gncg only")
        with _config_error("linesearch: "):
            LinesearchPolicy(step_cap=self.ls_step_cap)
        for key in ("lam", "nu"):
            raw = getattr(self, key)
            try:
                if raw != "auto" and not 0.0 < float(raw) < np.inf:
                    raise ConfigError(f"regularizer.{key} must be positive and finite")
            except ValueError:
                raise ConfigError(f"regularizer.{key} must be 'auto' or a "
                                  "number") from None
        if self.lam != "auto":
            with _config_error(f"regularizer.lam = {self.lam} and nu = {self.nu} "
                               "are out of range: "):
                check_spectrum(float(self.lam), self.nu_value(), self.h)
        return self

    def nu_value(self) -> float:
        """nu, whose auto value is 1 / (5 h)^2."""
        return 1.0 / (5.0 * self.h) ** 2 if self.nu == "auto" else float(self.nu)

    def sim_grid(self) -> SimGrid:
        with _config_error():
            return SimGrid(self.nx, self.ny, self.h, self.c0, self.dt, self.nt,
                           self.boundary_width, self.boundary_strength)


# Every config key: {section: {key: ExperimentConfig attribute}}, in manifest
# order; "spec.field" names a field of a nested spec. A key is parsed as the
# type of its dataclass default, and a tuple is a comma-separated list.
_TABLE = {
    "grid": {"nx": "nx", "ny": "ny", "h": "h", "c0": "c0", "dt": "dt",
             "nt": "nt", "boundary_width": "boundary_width",
             "boundary_strength": "boundary_strength"},
    "source": {"frequency": "frequency"},
    "geometry": {"kind": "geometry.kind", "n_sources": "geometry.n_sources",
                 "n_receivers": "geometry.n_receivers",
                 "seed": "geometry.seed", "augment_to": "geometry.augment_to",
                 "file": "geometry.file"},
    "target": {"kind": "target.kind", "cap": "target.cap",
               "file": "target.file"},
    "regularizer": {"lam": "lam", "nu": "nu"},
    "data": {"sigma": "sigma", "seed": "noise_seed"},
    "run": {"optimizers": "optimizers", "budget": "budget",
            "threads": "threads"},
    "linesearch": {"step_cap": "ls_step_cap"},
}

# Keys that older configs and manifests carry, with their old default and
# why they are gone; one loads, and is ignored, only at exactly that default.
_RETIRED = {
    ("source", "amplitude"): (1.0, "each trace is divided by its own norm, so "
                              "the source scale cancels out of the misfit"),
    ("linesearch", "max_iters"): (10, "every linesearch makes at most 10 trials"),
    ("linesearch", "quad_interp_phase"): (5, "every linesearch interpolates 5 trials"),
    ("linesearch", "armijo_c1"): (0.0, "every linesearch accepts strict decrease"),
}


def _get(cfg, attr):
    spec, _, name = attr.rpartition(".")
    return getattr(getattr(cfg, spec) if spec else cfg, name)


def _set(cfg, attr, value):
    spec, _, name = attr.rpartition(".")
    if spec:
        value, name = replace(getattr(cfg, spec), **{name: value}), spec
    return replace(cfg, **{name: value})


def load_config(path) -> ExperimentConfig:
    """Parse a config (or manifest) file; unknown keys are errors, the
    derived/results sections written into manifests are ignored."""
    parser = configparser.RawConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    cfg = defaults = ExperimentConfig()
    for section in parser.sections():
        if section in ("derived", "results"):
            continue
        if section not in _TABLE:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) in _RETIRED:
                old, reason = _RETIRED[section, key]
                try:
                    if type(old)(raw) == old:
                        continue
                except ValueError:
                    pass
                raise ConfigError(f"{path}: {section}.{key} = {raw} is retired: "
                                  f"{reason}; only {old!r} loads")
            if key not in _TABLE[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            attr = _TABLE[section][key]
            kind = type(_get(defaults, attr))
            try:
                value = (tuple(t.strip() for t in raw.split(",") if t.strip())
                         if kind is tuple else kind(raw))
            except ValueError:
                raise ConfigError(
                    f"{path}: bad value {raw!r} for {section}.{key}") from None
            cfg = _set(cfg, attr, value)
    return cfg.validate()


def config_lines(cfg: ExperimentConfig) -> list:
    """Canonical config serialization (manifest front half): floats by
    repr, the optimizers comma-joined, everything else plain."""
    lines, defaults = [], ExperimentConfig()
    for section, keys in _TABLE.items():
        lines += ["", f"[{section}]"]
        for key, attr in keys.items():
            value, kind = _get(cfg, attr), type(_get(defaults, attr))
            text = (",".join(value) if kind is tuple else
                    repr(value) if kind is float else value)
            lines.append(f"{key} = {text}")
    return lines[1:]


def _parse_layout(text, origin):
    sources, receivers = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"{origin}:{lineno}: expected 'kind x y'")
        kind, xs, ys = parts
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: bad coordinates") from None
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigError(f"{origin}:{lineno}: coordinates must be in [0, 1]")
        if kind == "source":
            sources.append((x, y))
        elif kind == "receiver":
            receivers.append((x, y))
        else:
            raise ConfigError(f"{origin}:{lineno}: unknown kind {kind!r}")
    return np.array(sources), np.array(receivers)


def _bundled_layout():
    text = resources.files("gowave").joinpath("data/clustered_layout.txt").read_text()
    return _parse_layout(text, "clustered_layout.txt")


def gen_geometry(spec: GeometrySpec, extent: tuple, frequency: float) -> Geometry:
    """Sample or load an acquisition geometry, drawing from spec.seed.

    uniform: sources then receivers i.i.d. over the inner square spanning
    [0.2, 0.8] of each domain side. clustered / from-file: take the first
    n_sources and n_receivers positions from the (bundled) layout file.
    If augment_to exceeds n_sources, extra sources are spawned by Gaussian
    jitter (std 5% of domain width) of the existing ones, cycling through
    them; jittered positions falling outside the domain are re-drawn.
    """
    rng = np.random.default_rng(spec.seed)
    lx, ly = extent
    if spec.kind == "uniform":
        src = np.column_stack([rng.uniform(0.2 * lx, 0.8 * lx, spec.n_sources),
                               rng.uniform(0.2 * ly, 0.8 * ly, spec.n_sources)])
        rec = np.column_stack([rng.uniform(0.2 * lx, 0.8 * lx, spec.n_receivers),
                               rng.uniform(0.2 * ly, 0.8 * ly, spec.n_receivers)])
    else:
        if spec.kind == "clustered":
            src_n, rec_n = _bundled_layout()
        else:
            src_n, rec_n = _parse_layout(Path(spec.file).read_text(), spec.file)
        if len(src_n) < spec.n_sources:
            raise ConfigError(f"layout has {len(src_n)} sources, "
                              f"{spec.n_sources} requested")
        if len(rec_n) < spec.n_receivers:
            raise ConfigError(f"layout has {len(rec_n)} receivers, "
                              f"{spec.n_receivers} requested")
        src = src_n[:spec.n_sources] * np.array([lx, ly])
        rec = rec_n[:spec.n_receivers] * np.array([lx, ly])
    if spec.augment_to > len(src):
        std = 0.05 * lx
        extra = []
        for i in range(spec.augment_to - len(src)):
            parent = src[i % len(src)]
            for attempt in range(100):
                cand = parent + rng.normal(0.0, std, 2)
                if 0.0 <= cand[0] <= lx and 0.0 <= cand[1] <= ly:
                    extra.append(cand)
                    break
            else:
                raise RuntimeError("could not place a jittered source inside "
                                   "the domain after 100 attempts")
        src = np.vstack([src, extra])
    sources = [SourceSpec(position=(float(p[0]), float(p[1])), frequency=frequency)
               for p in src]
    return Geometry(sources=sources, receivers=rec)


def _soft_mask(excess):
    """1 inside a feature, a 2-cell Gaussian falloff outside, 0 far away."""
    s = np.exp(-np.maximum(0.0, excess) ** 2 / (2.0 * 2.0 ** 2))
    s[s < 1e-12] = 0.0
    return s


def gen_target(spec: TargetSpec, nx: int, ny: int) -> ModelGrid:
    """Synthesize the true perturbation: low-velocity features of amplitude
    -cap on a zero background with a 2-cell Gaussian edge taper. A target
    read from file must lie in [-cap, 0]; a synthetic one does by
    construction."""
    if not 0.0 < spec.cap < 1.0:
        raise ValueError("cap must lie in (0, 1)")
    if spec.kind == "from-file":
        model = fileio.read_model(spec.file)
        if (model.nx, model.ny) != (nx, ny):
            raise ConfigError(f"target file is {model.nx}x{model.ny}, "
                              f"grid is {nx}x{ny}")
        v = model.values
        if v.min() < -spec.cap * (1 + 1e-12) or v.max() > 0.0:
            raise ValueError("target values must lie in [-cap, 0]")
        return model
    if min(nx, ny) < 16:
        raise ConfigError("synthetic targets need a grid of at least 16x16")
    x = np.arange(nx, dtype=np.float64)[:, None]
    y = np.arange(ny, dtype=np.float64)[None, :]
    cx = (nx - 1) / 2.0
    # |x - cx| makes every feature bitwise mirror-symmetric in x
    ax = np.abs(x - cx)
    scale = min(nx - 1, ny - 1)
    if spec.kind == "face":
        eye_dx, eye_y, eye_r = 0.16 * scale, 0.32 * (ny - 1), 0.07 * scale
        eyes = _soft_mask(np.hypot(ax - eye_dx, y - eye_y) - eye_r)
        my, mr, mw = 0.45 * (ny - 1), 0.28 * scale, 0.045 * scale
        ring = np.abs(np.hypot(ax, y - my) - mr) - mw
        mouth = _soft_mask(ring) * _soft_mask(0.62 * (ny - 1) - y)
        shape = np.maximum(eyes, mouth)
    else:  # disks
        centers = ((0.30, 0.30, 0.09), (0.68, 0.42, 0.11), (0.45, 0.74, 0.07))
        disks = [_soft_mask(np.hypot(x - fx * (nx - 1), y - fy * (ny - 1))
                            - fr * scale)
                 for fx, fy, fr in centers]
        shape = np.maximum.reduce(disks)
    values = -spec.cap * shape
    values += 0.0  # normalize -0.0 so untouched background is exactly +0.0
    return ModelGrid(values.ravel(), nx, ny)


@dataclass
class Experiment:
    """Everything shared by the optimizer runs of one comparison."""

    cfg: ExperimentConfig
    grid: SimGrid
    geom: Geometry
    target: ModelGrid
    data: DataSet
    h0_diag: np.ndarray
    lam: float
    setup_solves: int

    def regularizer(self):
        p = self.grid.nx * self.grid.ny
        return build_regularizer(self.grid.nx, self.grid.ny, self.grid.h,
                                 self.lam, self.cfg.nu_value(), np.zeros(p))

    def problem(self) -> FwiProblem:
        """Fresh problem instance with its own ledger."""
        return FwiProblem(self.grid, self.geom, self.data,
                          ledger=SolveLedger(), m_true=self.target)


def prepare_experiment(cfg: ExperimentConfig) -> Experiment:
    """Build grid, geometry, target, and data; calibrate the regularizer.

    Shared setup work (clean-data simulation and the diagonal curvature
    probe) runs on its own ledger and is not charged to any optimizer's
    budget; its cost is reported in the manifest.
    """
    cfg.validate()
    grid = cfg.sim_grid()
    with _config_error():
        geom = gen_geometry(cfg.geometry, grid.extent, cfg.frequency)
        target = gen_target(cfg.target, cfg.nx, cfg.ny)

    setup_ledger = SolveLedger()
    clean = [forward_solve(target, src, geom.receivers, grid,
                           setup_ledger)[0]
             for src in geom.sources]
    weights = receiver_weights(geom, clean)
    data = make_noisy_data(clean, cfg.sigma, cfg.noise_seed, weights)
    del clean

    setup_problem = FwiProblem(grid, geom, data, ledger=setup_ledger)
    m0 = ModelGrid(np.zeros(cfg.nx * cfg.ny), cfg.nx, cfg.ny)
    h0_diag = setup_problem.diag_gn_estimate(m0)

    nu = cfg.nu_value()
    if cfg.lam == "auto":
        # 0.3 balances smoothing against the peak misfit curvature so that
        # desk-scale budgets run out mid-descent, not at an over-smoothed
        # stationary point.
        lam = float(0.3 * np.sqrt(np.max(h0_diag)) / (nu + 8.0 / cfg.h**2))
        with _config_error(f"[regularizer] lam = auto calibrated to {lam!r}, "
                           "which is out of range: "):
            check_spectrum(lam, nu, cfg.h)
    else:
        lam = float(cfg.lam)
    return Experiment(cfg=cfg, grid=grid, geom=geom, target=target, data=data,
                      h0_diag=h0_diag, lam=lam, setup_solves=setup_ledger.total)


def run_one(exp: Experiment, name: str):
    """Run a single optimizer on a fresh problem; returns (result, ledger)."""
    if name not in OPTIMIZER_NAMES:
        raise ConfigError(f"unknown optimizer {name!r}")
    problem = exp.problem()
    reg = exp.regularizer()
    budget = exp.cfg.budget
    if name == "gogn":
        result = run_gogn(problem, reg, budget, exp.cfg.ls_step_cap)
    elif name == "nlcg":
        result = run_nlcg(problem, reg, exp.h0_diag, budget, exp.cfg.ls_step_cap)
    elif name == "lbfgs":
        result = run_lbfgs(problem, reg, exp.h0_diag, budget, exp.cfg.ls_step_cap)
    else:
        result = run_gncg(problem, reg, exp.h0_diag, budget)
    _check_gradient_only_accounting(result, problem.n_sources)
    return result, problem.ledger


def _check_gradient_only_accounting(result, n: int):
    """Every run must spend exactly 2N solves per gradient, N per linesearch
    trial and, for gncg, 2N per Hessian product (its ``extra``), and nothing
    else: gogn builds its step from the gradient alone. Checked on every
    harness run."""
    what = "gradient-only" if result.name == "gogn" else result.name
    recs = result.records
    if recs and recs[0].solves != 2 * n:
        raise RuntimeError(f"{what} accounting violated at startup: "
                           f"{recs[0].solves} != {2 * n}")
    for a, b in zip(recs, recs[1:]):
        inner = int(b.extra) if result.name == "gncg" else 0
        expected = 2 * n + b.ls_evals * n + 2 * n * inner
        if b.solves - a.solves != expected:
            raise RuntimeError(
                f"{what} accounting violated at iteration {b.iter}: "
                f"{b.solves - a.solves} != {expected}")


def _geometry_lines(geom: Geometry, extent: tuple) -> list:
    lx, ly = extent
    lines = ["# acquisition geometry (normalized coordinates)",
             "# columns: kind x y"]
    for src in geom.sources:
        lines.append(f"source {src.position[0] / lx:.9f} "
                     f"{src.position[1] / ly:.9f}")
    for pos in np.asarray(geom.receivers):
        lines.append(f"receiver {pos[0] / lx:.9f} {pos[1] / ly:.9f}")
    return lines


def _derived_lines(exp: Experiment) -> list:
    return [
        "[derived]",
        f"extent_x = {exp.grid.extent[0]!r}",
        f"extent_y = {exp.grid.extent[1]!r}",
        f"substeps = {cfl_substeps(exp.target, exp.grid)}",
        f"lam = {exp.lam!r}",
        f"nu = {exp.cfg.nu_value()!r}",
        f"h0_inf_norm = {float(np.max(exp.h0_diag))!r}",
        f"m_true_norm = {float(np.linalg.norm(exp.target.values))!r}",
        f"setup_solves = {exp.setup_solves}",
    ]


def _clear_run_dir(out: Path) -> None:
    """Delete every file a run writes, the manifest first, so that a
    directory never shows another run's artifacts; other files stay."""
    (out / "manifest.cfg").unlink(missing_ok=True)
    names = ["target.modl", "target.pgm", "geometry.txt"] + [
        f"{name}_{suffix}" for name in OPTIMIZER_NAMES
        for suffix in ("trace.csv", "final.modl", "final.pgm")]
    for path in [out / name for name in names] + list(out.glob("obs_src*.seis")):
        path.unlink(missing_ok=True)


def _write_inputs(out: Path, exp: Experiment, tail: list) -> None:
    """Write the target, the geometry and, last, a manifest of the config,
    the derived values and `tail`; the manifest appears only complete."""
    fileio.write_model(out / "target.modl", exp.target)
    fileio.write_pgm(out / "target.pgm", exp.target.as_2d(), exp.cfg.target.cap)
    (out / "geometry.txt").write_text(
        "\n".join(_geometry_lines(exp.geom, exp.grid.extent)) + "\n")
    lines = config_lines(exp.cfg) + [""] + _derived_lines(exp) + tail
    partial = out / "manifest.cfg.partial"
    partial.write_text("\n".join(lines) + "\n")
    os.replace(partial, out / "manifest.cfg")


def write_data_dir(cfg: ExperimentConfig, out_dir) -> Experiment:
    """Persist target, geometry, and observed data for external use."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp = prepare_experiment(cfg)
    _clear_run_dir(out)
    for i, traces in enumerate(exp.data.observed):
        fileio.write_traces(out / f"obs_src{i:03d}.seis", traces)
    _write_inputs(out, exp, [])
    return exp


def run_comparison(cfg: ExperimentConfig, out_dir):
    """Generate data once, run every configured optimizer on it, and write
    traces, reconstructions, renders, and a re-runnable manifest.

    A failing optimizer is recorded in the manifest and does not stop the
    others. Returns {optimizer: RunResult | None}.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp = prepare_experiment(cfg)
    _clear_run_dir(out)

    def attempt(name):
        try:
            return run_one(exp, name)[0], None
        except (RuntimeError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    names = list(cfg.optimizers)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(attempt, names))
    else:
        outcomes = [attempt(n) for n in names]

    results = {}
    result_lines = ["[results]"]
    for name, (result, error) in zip(names, outcomes):
        results[name] = result
        if result is None:
            result_lines.append(f"{name}_status = failed ({error})")
            continue
        fileio.write_trace_csv(out / f"{name}_trace.csv", result.records)
        final = ModelGrid(result.m_final, cfg.nx, cfg.ny)
        fileio.write_model(out / f"{name}_final.modl", final)
        fileio.write_pgm(out / f"{name}_final.pgm", final.as_2d(), cfg.target.cap)
        last = result.records[-1]
        result_lines += [
            f"{name}_status = {result.status}",
            f"{name}_solves = {result.solves}",
            f"{name}_iterations = {last.iter}",
            f"{name}_objective = {last.objective!r}",
            f"{name}_model_error = {last.model_error!r}",
        ]

    _write_inputs(out, exp, [""] + result_lines)
    return results
