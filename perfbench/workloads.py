"""Benchmark workloads: one generated `gowave compare` config per seed.

Each workload overrides a few keys of the built-in desk defaults. The
benchmark seed is the only input that varies between runs of a workload:
it sets `geometry.seed` and `data.seed`, and the program sees nothing but
the generated config file.
"""

import math

DEFAULT_SEED = 1

# Every key of the config schema, with the built-in defaults except that
# `threads = 1` is written out: the benchmark measures the plain
# single-threaded baseline.
_BASE = (
    ("grid", (("nx", "64"), ("ny", "64"), ("h", "8000.0"), ("c0", "3150.0"),
              ("dt", "1.0"), ("nt", "150"), ("boundary_width", "20"),
              ("boundary_strength", "0.25"))),
    ("source", (("frequency", "0.1"), ("amplitude", "1.0"))),
    ("geometry", (("kind", "uniform"), ("n_sources", "4"),
                  ("n_receivers", "50"), ("seed", "1"), ("augment_to", "0"),
                  ("file", ""))),
    ("target", (("kind", "face"), ("cap", "0.05"), ("file", ""))),
    ("regularizer", (("lam", "auto"), ("nu", "auto"))),
    ("data", (("sigma", "0.1"), ("seed", "11"))),
    ("run", (("optimizers", "gogn,nlcg,lbfgs,gncg"), ("budget", "100"),
             ("threads", "1"))),
    ("linesearch", (("max_iters", "10"), ("quad_interp_phase", "5"),
                    ("armijo_c1", "0.0"), ("step_cap", "0.05"))),
)

WORKLOADS = {
    "desk": {
        "why": "the paper's headline four-optimizer comparison at the "
               "built-in defaults; touches every module",
        "overrides": {},
    },
    "wide-gogn": {
        "why": "16 clustered sources and 400 receivers, gogn only: per-source "
               "loops and per-solve setup run 16 times per sweep, and no "
               "Born solve runs in the optimizer",
        "overrides": {("geometry", "kind"): "clustered",
                      ("geometry", "n_sources"): "16",
                      ("geometry", "n_receivers"): "400",
                      ("run", "optimizers"): "gogn",
                      ("run", "budget"): "200"},
    },
    "fine-gncg": {
        "why": "128x128 grid, gncg only: Born and cached-field adjoint "
               "solves dominate, and each padded field spills the per-core L2",
        "overrides": {("grid", "nx"): "128", ("grid", "ny"): "128",
                      ("run", "optimizers"): "gncg"},
    },
}

# gncg's inner CG limit (`cg_maxiter` of optim.run_gncg); no config key
# reaches it.
GNCG_CG_MAXITER = 5
# wave.CFL_SAFETY
CFL_SAFETY = 0.5


def derived_seeds(seed: int) -> tuple:
    """(geometry.seed, data.seed) for a benchmark seed; seed 1 gives the
    built-in defaults (1, 11)."""
    seed %= 2**31
    return seed, seed + 10


def values(workload: str, seed: int) -> dict:
    """{(section, key): raw string} of the config for one run."""
    vals = {(sec, key): raw for sec, items in _BASE for key, raw in items}
    vals.update(WORKLOADS[workload]["overrides"])
    gseed, dseed = derived_seeds(seed)
    vals[("geometry", "seed")] = str(gseed)
    vals[("data", "seed")] = str(dseed)
    return vals


def config_text(workload: str, seed: int) -> str:
    vals = values(workload, seed)
    lines = []
    for sec, items in _BASE:
        lines.append(f"[{sec}]")
        lines += [f"{key} = {vals[(sec, key)]}".rstrip() for key, _ in items]
        lines.append("")
    return "\n".join(lines)


def optimizers(workload: str) -> list:
    return values(workload, DEFAULT_SEED)[("run", "optimizers")].split(",")


def max_iteration_cost(workload: str, optimizer: str) -> int:
    """Most solves one optimizer iteration can charge: a full linesearch
    and the next gradient, plus gncg's inner Hessian-vector products."""
    vals = values(workload, DEFAULT_SEED)
    n = int(vals[("geometry", "n_sources")])
    per_sweep = int(vals[("linesearch", "max_iters")]) + 2
    if optimizer == "gncg":
        per_sweep += 2 * GNCG_CG_MAXITER
    return per_sweep * n


def computed_sizes(workload: str) -> dict:
    """Array sizes computed from the config (not measured) at the start
    model m = 0, next to which the cache sizes are reported."""
    vals = values(workload, DEFAULT_SEED)
    nx, ny = int(vals[("grid", "nx")]), int(vals[("grid", "ny")])
    bw = int(vals[("grid", "boundary_width")])
    c0, h = float(vals[("grid", "c0")]), float(vals[("grid", "h")])
    dt, nt = float(vals[("grid", "dt")]), int(vals[("grid", "nt")])
    substeps = max(1, math.ceil(c0 * dt / (h * CFL_SAFETY)))
    steps = substeps * (nt - 1)
    field_bytes = (nx + 2 * bw) * (ny + 2 * bw) * 8
    return {"padded_field_bytes": field_bytes,
            "internal_steps": steps,
            "snapshot_bytes_per_source": (steps + 1) * field_bytes,
            "model_cells": nx * ny}
