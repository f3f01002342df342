"""Time-domain finite-difference solver for the 2D acoustic wave equation.

Solves ``laplacian(u) - u_tt / c**2 = f`` on a rectangular grid with a
damping sponge layer emulating an unbounded domain, and provides the exact
discrete adjoint and Born (linearized) solves of the same time-stepping
scheme. Space is discretized with a 4th-order stencil, time with 2nd-order
leapfrog; the recording step is subdivided as needed for CFL stability.

The model parameter is the dimensionless speed perturbation m = dc/c0, so
the local speed is c = c0 * (1 + m). Gradients returned by the adjoint are
derivatives of the *discrete* misfit with respect to m (discretize then
optimize): Born and adjoint form an exact transpose pair, and the adjoint
gradient matches finite differences of the discrete objective to near
machine precision.

All three sweeps run one leapfrog loop, ``_Workspace.march``; the adjoint
marches the scaled field psi = a v lambda backward in time, because in psi
the transpose of the time step is the forward step itself. The loop works
in units of sigma = 12 h^2 lap(u), where the stencil's weights are the
integers -60, 16 and -1; the weights, 1/h^2 and the sponge are folded into
three coefficient bands built once per solve.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

# CFL safety factor for the 2D 4th-order stencil (stability limit ~0.61).
CFL_SAFETY = 0.5

# Zero halo around every field so the 4th-order stencil sees a Dirichlet
# exterior. Sweeps keep their fields inside it, as flat arrays.
_HALO = 2


class SolverBlowupError(RuntimeError):
    """Raised when the time stepping produces a non-finite field."""


@dataclass
class SimGrid:
    """Discretization of the square domain and the recording clock.

    nx, ny
        interior cell counts (the model lives on nx * ny cells)
    h
        cell spacing in meters
    c0
        reference speed in m/s
    dt_record
        seismogram sampling interval in seconds
    nt
        number of recorded samples per trace
    boundary_width
        sponge layer thickness in cells, added on every side
    boundary_strength
        peak damping coefficient of the sponge, 1/s
    """

    nx: int
    ny: int
    h: float
    c0: float
    dt_record: float
    nt: int
    boundary_width: int = 20
    boundary_strength: float = 0.25

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if self.h <= 0:
            raise ValueError("cell spacing h must be positive")
        if self.c0 <= 0:
            raise ValueError("reference speed c0 must be positive")
        if self.dt_record <= 0:
            raise ValueError("recording interval must be positive")
        if self.nt < 2:
            raise ValueError("need at least 2 recorded samples")
        if self.boundary_width < 0:
            raise ValueError("boundary width must be non-negative")
        if not self.boundary_strength >= 0:
            raise ValueError("boundary strength must be non-negative: a negative "
                             "sponge amplifies instead of damping")

    def check_source(self, source: SourceSpec):
        """Raise ValueError unless a solve of ``source`` on this grid is
        meaningful. Messages name the config keys that set each value."""
        # the solves square h, dt and c0 (in v = (c0 (1 + m))^2) and divide
        # by the squares
        for key, value in (("h", self.h), ("dt", self.dt_record), ("c0", self.c0)):
            if not 0.0 < value * value < np.inf:
                raise ValueError(f"grid.{key} = {value!r} is out of range: "
                                 f"the square of {value!r} is {value * value!r}")
        if not source.frequency < 0.5 / self.dt_record:
            raise ValueError(f"source.frequency = {source.frequency!r} must lie below "
                             f"the Nyquist frequency 0.5 / dt = {0.5 / self.dt_record!r}")
        window = (self.nt - 1) * self.dt_record
        if not window > source.t0:
            raise ValueError(
                f"grid.nt and grid.dt record (nt - 1) * dt = {window!r} s, which ends "
                f"before the source wavelet peaks at 1.5 / frequency = {source.t0!r} s")

    def kept_field_bytes(self) -> int:
        """Bytes of one kept forward field (``Wavefield.scatter``) at the
        start model m = 0."""
        nxp = self.nx + 2 * self.boundary_width
        nyp = self.ny + 2 * self.boundary_width
        return _substeps(self, self.c0) * (self.nt - 1) * nxp * (nyp + 2 * _HALO) * 8

    @property
    def extent(self) -> tuple[float, float]:
        """Physical size (Lx, Ly) of the interior domain in meters."""
        return ((self.nx - 1) * self.h, (self.ny - 1) * self.h)

    def snap_all(self, positions) -> np.ndarray:
        """Snap a sequence of (x, y) positions to their nearest interior cells
        (round half to even), as an (n, 2) array."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        lx, ly = self.extent
        x, y = pos[:, 0], pos[:, 1]
        outside = np.flatnonzero(~((0.0 <= x) & (x <= lx) & (0.0 <= y) & (y <= ly)))
        if outside.size:
            raise ValueError(f"position {positions[outside[0]]} outside domain "
                             f"[0,{lx}]x[0,{ly}]")
        cells = np.rint(pos / self.h)
        np.clip(cells, 0, (self.nx - 1, self.ny - 1), out=cells)
        return cells.astype(np.intp)


@dataclass
class ModelGrid:
    """Dimensionless speed perturbation dc/c0, flattened row-major over (nx, ny)."""

    values: np.ndarray
    nx: int
    ny: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.nx * self.ny:
            raise ValueError(
                f"model has {self.values.size} entries, expected {self.nx * self.ny}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("model contains non-finite entries")
        if np.any(self.values <= -1.0):
            raise ValueError("model perturbation <= -1 makes the speed non-positive")

    @classmethod
    def zeros(cls, nx: int, ny: int) -> "ModelGrid":
        return cls(np.zeros(nx * ny), nx, ny)

    @property
    def p(self) -> int:
        return self.values.size

    def as_2d(self) -> np.ndarray:
        return self.values.reshape(self.nx, self.ny)


@dataclass
class SourceSpec:
    """Point source with a Ricker source-time function."""

    position: tuple[float, float]
    frequency: float

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError(f"source.frequency = {self.frequency!r} must be positive")

    @property
    def t0(self) -> float:
        """Wavelet delay, 1.5 / frequency, so the wavelet switches on near
        zero amplitude at t = 0."""
        return 1.5 / self.frequency


@dataclass
class Wavefield:
    """The forward sweep's scattering source, kept for the adjoint and Born.

    ``scatter[n]`` is ``sigma^n = 12 h^2 (lap(u^n) - f^n)`` on the padded
    grid (interior + sponge): the Laplacian of the field at internal time
    n * dt, with the point source already subtracted, in the march's units,
    exactly as the forward step formed it on ``model`` (dt = dt_record /
    substeps, so there are substeps * (nt - 1) rows). A model perturbation
    dv scatters the wave through ``dv * scatter[n] / (12 h^2)``, so the
    adjoint correlates against it and the Born sweep is driven by it
    without touching the forward field again.

    Each ``scatter[n]`` is stored in the march's band layout: the padded
    rows at full width, with _HALO columns on either side. The halo columns
    carry no meaning; the sweeps multiply them by a zero and discard the
    product.
    """

    scatter: np.ndarray            # (n_steps, nxp, nyp + 2 * _HALO)
    model: ModelGrid
    receiver_cells: np.ndarray     # (n_r, 2) padded-array indices


def ricker(t, f: float, t0: float = 0.0):
    """Ricker wavelet (1 - 2 pi^2 f^2 tau^2) exp(-pi^2 f^2 tau^2), tau = t - t0."""
    if f <= 0:
        raise ValueError("Ricker frequency must be positive")
    tau = np.asarray(t, dtype=np.float64) - t0
    arg = (np.pi * f * tau) ** 2
    out = (1.0 - 2.0 * arg) * np.exp(-arg)
    return out if out.ndim else float(out)


def cfl_substeps(model: ModelGrid, grid: SimGrid) -> int:
    """Number of internal substeps per recording interval required for stability.

    Returns the smallest k with c_max * (dt_record / k) / h <= CFL_SAFETY.
    """
    return _substeps(grid, grid.c0 * (1.0 + float(np.max(model.values))))


def _substeps(grid: SimGrid, c_max: float) -> int:
    return max(1, math.ceil(c_max * grid.dt_record / (grid.h * CFL_SAFETY)))


# ---------------------------------------------------------------------------
# internal machinery shared by forward / adjoint / Born sweeps


def _stencil(ops, out: np.ndarray) -> np.ndarray:
    """P = 16 (N + S + W + E) - (NN + SS + WW + EE): the off-centre part of
    the 4th-order stencil in sigma units, so that 12 h^2 lap(u) = P - 60 u.

    ``ops`` are a field's operand views (``_Workspace.operands``): its band,
    then the band shifted one row up and down and one column left and
    right, then two. In the halo columns the column shifts wrap into the
    next row and ``out`` is meaningless; elsewhere the zero halo gives the
    stencil a zero-Dirichlet exterior.
    """
    _, n, s, w, e, nn, ss, ww, ee = ops
    np.add(n, s, out=out)
    out += w
    out += e
    out *= 16.0
    out -= nn
    out -= ss
    out -= ww
    out -= ee
    return out


def _sigma(ops, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma = P - 60 u, with P from ``_stencil`` (and any source in it)."""
    np.multiply(ops[0], -60.0, out=out)
    out += p
    return out


if hasattr(mmap, "MAP_ANONYMOUS"):
    def mapped_zeros(shape) -> np.ndarray:
        """A zero float64 array in an anonymous mapping of its own.

        Dropping the array unmaps it, so a kept field's or a curvature
        factor's pages go back to the system at once instead of staying in
        malloc's heap. Huge pages are asked for, as numpy does for its own
        arrays of 4 MB and more.
        """
        mm = mmap.mmap(-1, 8 * math.prod(shape),
                       flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            mm.madvise(mmap.MADV_HUGEPAGE)
        return np.frombuffer(mm, dtype=np.float64).reshape(shape)
else:
    mapped_zeros = np.zeros


def _fold_edge(padded: np.ndarray, pad: int) -> np.ndarray:
    """Exact transpose of edge-replication padding: sum strips onto the rim."""
    if pad == 0:
        return padded.copy()
    rows = padded[pad:-pad].copy()
    rows[0] += padded[:pad].sum(axis=0)
    rows[-1] += padded[-pad:].sum(axis=0)
    out = rows[:, pad:-pad].copy()
    out[:, 0] += rows[:, :pad].sum(axis=1)
    out[:, -1] += rows[:, -pad:].sum(axis=1)
    return out


def _damping_profile(grid: SimGrid) -> np.ndarray:
    """Quadratic sponge ramp gamma(x) on the padded grid, zero in the interior."""
    bw = grid.boundary_width
    nxp, nyp = grid.nx + 2 * bw, grid.ny + 2 * bw
    if bw == 0:
        return np.zeros((nxp, nyp))
    # depth/bw runs from 1 at the outermost padded cell to 1/bw just outside
    # the interior; corners take the deeper of the two directions.
    ramp = grid.boundary_strength * (np.arange(bw, 0, -1) / bw) ** 2
    depth_x, depth_y = np.zeros(nxp), np.zeros(nyp)
    for depth in (depth_x, depth_y):
        depth[:bw] = ramp
        depth[-bw:] = ramp[::-1]
    return np.maximum.outer(depth_x, depth_y)


class _Workspace:
    """Per-call precomputation and the time loop shared by the sweeps.

    Sweeps step flat fields of ``size`` entries: the padded grid (interior
    plus sponge) inside a zero halo of _HALO rows and columns. Only the
    ``band`` (the rows inside the halo, at full width) is ever written. Its
    halo columns stay +0.0 while the stencil's P is finite: the coefficient
    bands are +0.0 there and the fields start at +0.0, so each step writes
    +0 - +0 + (+-0) = +0.0 into them.
    """

    def __init__(self, model: ModelGrid, grid: SimGrid, receivers=()):
        if model.nx != grid.nx or model.ny != grid.ny:
            raise ValueError("model shape does not match the simulation grid")
        self.model, self.grid = model, grid
        self.bw = grid.boundary_width
        self.k = cfl_substeps(model, grid)
        self.dt = grid.dt_record / self.k
        self.n_steps = self.k * (grid.nt - 1)

        self.receiver_cells = grid.snap_all(receivers) + self.bw
        self.shape = (grid.nx + 2 * self.bw, grid.ny + 2 * self.bw)
        self.width = self.shape[1] + 2 * _HALO
        self.size = (self.shape[0] + 2 * _HALO) * self.width
        self._band = slice(_HALO * self.width, (_HALO + self.shape[0]) * self.width)

        # Squared speed on the padded grid, and the step's coefficient bands.
        # The sponge step u^{n+1} = a (2 u^n - b u^{n-1} + dt^2 v lap(u^n)),
        # a = 1 / (1 + gamma dt), b = 1 - gamma dt, with 12 h^2 lap(u) =
        # P - 60 u, is u^{n+1} = E u^n - AB u^{n-1} + C P.
        c_int = grid.c0 * (1.0 + model.as_2d())
        self.v = np.pad(c_int * c_int, self.bw, mode="edge")
        gamma_dt = _damping_profile(grid) * self.dt
        a = 1.0 / (1.0 + gamma_dt)
        self.c_per_v = a * self.dt**2 / (12.0 * grid.h**2)
        self.C = self.coef(self.c_per_v * self.v)
        self.AB = self.coef(a * (1.0 - gamma_dt))
        self.E = self.coef(2.0 * a - 60.0 * self.inside(self.C))

    def field(self) -> np.ndarray:
        return np.zeros(self.size)

    def band(self, f: np.ndarray) -> np.ndarray:
        return f[self._band]

    def operands(self, f: np.ndarray) -> tuple:
        """The views of flat field ``f`` that one step reads: its band, then
        the band shifted by one row up and down and one column left and
        right (N, S, W, E), then by two (NN, SS, WW, EE). Each is one
        contiguous slice of ``f``."""
        lo, n, w = self._band.start, self._band.stop - self._band.start, self.width
        return tuple(f[lo + o:lo + o + n]
                     for o in (0, -w, w, -1, 1, -2 * w, 2 * w, -2, 2))

    def inside(self, band: np.ndarray) -> np.ndarray:
        """The (nxp, nyp) view of a band inside its halo columns."""
        return band.reshape(self.shape[0], self.width)[:, _HALO:-_HALO]

    def coef(self, x) -> np.ndarray:
        """A band holding x, an (nxp, nyp) array or a scalar, zero in the halo
        columns."""
        band = np.zeros(self._band.stop - self._band.start)
        self.inside(band)[...] = x
        return band

    def model_chain(self) -> np.ndarray:
        """d(v_padded)/dm diagonal factor on the interior: 2 c0^2 (1 + m)."""
        return 2.0 * self.grid.c0**2 * (1.0 + self.model.as_2d())

    def band_offsets(self, cells: np.ndarray) -> np.ndarray:
        """Offsets of (n, 2) padded-grid cells within a band."""
        return cells[:, 0] * self.width + cells[:, 1] + _HALO

    def check_field(self, field: Wavefield) -> np.ndarray:
        """Check that ``field`` was kept on this model and fits this grid;
        return its scattering source as (n_steps, band size) rows."""
        if not np.array_equal(field.model.values, self.model.values) or \
                field.scatter.shape != (self.n_steps, self.shape[0], self.width):
            raise ValueError("forward field was produced with a different model or grid")
        return field.scatter.reshape(self.n_steps, -1)

    def guard(self, field: np.ndarray, n: int, what: str):
        """Raise SolverBlowupError if ``field`` at internal step n is not
        finite or has grown past 1e100.

        The sweeps pass a field's band, whose halo columns stay +0.0 while
        the steps are finite, so the verdict and magnitude are the
        interior's.
        """
        # Every partial sum of squares is at least each x^2, so a sum below
        # 1e199 bounds every |x| below 1e100 and rules out NaN in one pass.
        # Otherwise the exact test decides; NaN fails both its comparisons.
        if np.dot(field, field) < 1e199:
            return
        if not (field.max() <= 1e100 and field.min() >= -1e100):
            amax = float(np.abs(field).max())
            raise SolverBlowupError(
                f"{what} magnitude {amax:.3g} at t={n * self.dt:.3f}s "
                f"(substeps={self.k}, dt={self.dt:.4g}s): time stepping is unstable"
            )

    def march(self, excite, what: str, kept=None):
        """Leapfrog from rest; return the (n_r, nt) traces sampled at
        ``receiver_cells`` and the final flat field.

        Step n forms u^{n+1} = E u^n - AB u^{n-1} + C P from the stencil's
        P = 16 (N + S + W + E) - (NN + SS + WW + EE) of u^n, in the units of
        sigma = P - 60 u^n = 12 h^2 lap(u^n). Before the update,
        ``excite(n, p, u)`` sees P as a band, which it may edit in place,
        and the flat field ``u = u^n``, which it must not; a non-None return
        value, a band, is added to u^{n+1} as it stands. Given ``kept``, an
        (n_steps, band size) array, step n writes sigma, formed from the
        edited P, into ``kept[n]``; the update does not read it.
        """
        k = self.k
        cells = _HALO * self.width + self.band_offsets(self.receiver_cells)
        traces = np.zeros((len(cells), self.grid.nt))
        C, AB, E = self.C, self.AB, self.E
        u_prev, u = self.field(), self.field()
        ops_prev, ops = self.operands(u_prev), self.operands(u)
        p, tmp = np.empty(C.size), np.empty(C.size)

        with np.errstate(over="ignore", invalid="ignore"):  # guard reports a blow-up
            for n in range(self.n_steps):
                _stencil(ops, p)
                extra = excite(n, p, u)
                if kept is not None:
                    _sigma(ops, p, kept[n])
                # u^{n+1} in u^{n-1}'s buffer
                nxt = ops_prev[0]
                nxt *= AB
                np.multiply(E, ops[0], out=tmp)
                np.subtract(tmp, nxt, out=nxt)
                p *= C
                nxt += p
                if extra is not None:
                    nxt += extra
                u_prev, u, ops_prev, ops = u, u_prev, ops, ops_prev
                if (n + 1) % k == 0:
                    self.guard(ops[0], n + 1, what)
                    traces[:, (n + 1) // k] = u[cells]
        return traces, u


def forward_solve(model: ModelGrid, source: SourceSpec, receivers, grid: SimGrid,
                  ledger, keep_field: bool = False):
    """Run one forward wave simulation and sample it at the receivers.

    Returns (traces, wavefield); traces has shape (n_r, nt) and wavefield is
    None unless keep_field is set. Counts one forward solve on the ledger,
    once ``grid.check_source(source)`` has passed.
    """
    grid.check_source(source)
    ws = _Workspace(model, grid, receivers)
    cell = ws.band_offsets(grid.snap_all([source.position]) + ws.bw)[0]
    # 12 h^2 f: the point source f = ricker / h^2 in sigma units
    f = 12.0 * ricker(ws.dt * np.arange(ws.n_steps), source.frequency, source.t0)
    scatter = mapped_zeros((ws.n_steps, ws.shape[0], ws.width)) if keep_field else None

    def excite(n, p, u):
        p[cell] -= f[n]

    traces, _ = ws.march(excite, "field",
                         None if scatter is None else scatter.reshape(ws.n_steps, -1))
    ledger.count_forward()
    if not keep_field:
        return traces, None
    # a copy: an in-place edit of the caller's model must not pass check_field
    own = ModelGrid(model.values.copy(), model.nx, model.ny)
    return traces, Wavefield(scatter=scatter, model=own, receiver_cells=ws.receiver_cells)


def adjoint_solve(model: ModelGrid, weighted_residual_traces: np.ndarray,
                  forward_field: Wavefield, grid: SimGrid, ledger) -> np.ndarray:
    """Back-propagate receiver-space data and return the model-space gradient.

    Computes J(m)^T q for the trace Jacobian J of forward_solve, by running
    the transpose of the discrete time-stepping scheme and correlating it
    with the stored forward scattering source. With q = w^2 * (synthetic -
    observed) this is the gradient of the weighted half-squared misfit.
    Counts one adjoint solve.

    In psi^n = a v lambda^n the transpose scheme lambda^n = 2 a lambda^{n+1}
    + dt^2 lap(a v lambda^{n+1}) - a b lambda^{n+2} is the forward step
    psi^n = a (2 psi^{n+1} - b psi^{n+2} + dt^2 v lap(psi^{n+1})): march
    step j yields psi^{N-j}, and the receivers inject q / dt^2 into its
    Laplacian, that is 12 h^2 q / dt^2 into its P. The kept rows hold
    sigma^n = 12 h^2 (lap(u^n) - f^n), so the gradient on v is
    dt^2 sum_n psi^n sigma^{n-1} / (12 h^2 v), divided once, at the end.
    """
    q = np.asarray(weighted_residual_traces, dtype=np.float64)
    n_rec = len(forward_field.receiver_cells)
    if q.shape != (n_rec, grid.nt):
        raise ValueError(
            f"residual traces have shape {q.shape}, expected ({n_rec}, {grid.nt})"
        )
    ws = _Workspace(model, grid)
    scatter = ws.check_field(forward_field)

    n_steps, k = ws.n_steps, ws.k
    receivers = ws.band_offsets(forward_field.receiver_cells)
    with np.errstate(over="ignore", invalid="ignore"):  # the march's guard reports it
        injected = 12.0 * grid.h**2 * q / ws.dt**2
    gv = ws.coef(0.0)  # sum_n psi^n sigma[n-1], as a band
    corr = np.empty(gv.size)

    def image(psi, n):
        np.multiply(ws.band(psi), scatter[n - 1], out=corr)
        np.add(gv, corr, out=gv)

    def excite(j, p, u):
        if j:
            image(u, n_steps + 1 - j)
        if j % k == 0:
            # duplicate receivers add up
            np.add.at(p, receivers, injected[:, (n_steps - j) // k])

    _, last = ws.march(excite, "time-reversed adjoint field")
    image(last, 1)
    scale = ws.dt**2 / (12.0 * grid.h**2)
    grad = ws.model_chain() * _fold_edge(scale * ws.inside(gv) / ws.v, ws.bw)
    ledger.count_adjoint()
    return grad.ravel()


def born_solve(model: ModelGrid, direction: np.ndarray, source: SourceSpec,
               receivers, grid: SimGrid, forward_field: Wavefield, ledger) -> np.ndarray:
    """Linearized (Born) solve: the Jacobian-vector product J(m) @ direction.

    Propagates the single-scattered field that the model perturbation
    generates from the stored forward scattering source, and samples it at
    the receivers. ``source`` and ``receivers`` are those the forward field
    was computed for: the wavelet is already part of ``forward_field.scatter``,
    and other receivers are refused. Counts one Born solve.
    """
    direction = np.asarray(direction, dtype=np.float64).ravel()
    if direction.size != model.p:
        raise ValueError(f"direction has {direction.size} entries, expected {model.p}")
    ws = _Workspace(model, grid, receivers)
    if not np.array_equal(ws.receiver_cells, forward_field.receiver_cells):
        raise ValueError("receivers differ from those the forward field was kept for")
    scatter = ws.check_field(forward_field)

    dv = np.pad(ws.model_chain() * direction.reshape(model.nx, model.ny),
                ws.bw, mode="edge")
    # E u^n + C P differentiated along dv, with C = c_per_v v: c_per_v dv sigma^n
    kick = ws.coef(ws.c_per_v * dv)
    extra = np.empty(kick.size)

    def excite(n, p, u):
        np.multiply(kick, scatter[n], out=extra)
        return extra

    traces, _ = ws.march(excite, "scattered field")
    ledger.count_born()
    return traces
