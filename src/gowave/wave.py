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
"""

from __future__ import annotations

import math
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
        if self.dt_record <= 0:
            raise ValueError("recording interval must be positive")
        if self.nt < 2:
            raise ValueError("need at least 2 recorded samples")
        if self.boundary_width < 0:
            raise ValueError("boundary width must be non-negative")

    @property
    def extent(self) -> tuple[float, float]:
        """Physical size (Lx, Ly) of the interior domain in meters."""
        return ((self.nx - 1) * self.h, (self.ny - 1) * self.h)

    def snap(self, position) -> tuple[int, int]:
        """Snap a physical (x, y) position to the nearest interior cell."""
        ix, iy = self.snap_all([position])[0]
        return int(ix), int(iy)

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
    """Point source with a Ricker source-time function.

    The delay defaults to 1.5 / frequency so the wavelet switches on near
    zero amplitude at t = 0.
    """

    position: tuple[float, float]
    frequency: float
    t0: float | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("source frequency must be positive")
        if self.t0 is None:
            self.t0 = 1.5 / self.frequency


@dataclass
class Wavefield:
    """The forward sweep's scattering source, kept for the adjoint and Born.

    ``scatter[n]`` is ``lap(u^n) - f^n`` on the padded grid (interior +
    sponge): the Laplacian of the field at internal time n * dt, with the
    point source already subtracted, exactly as the forward step formed it
    (dt = dt_record / substeps). A model perturbation dv scatters the wave
    through ``dv * scatter[n]``, so the adjoint correlates against it and
    the Born sweep is driven by it without touching the forward field again.
    """

    scatter: np.ndarray            # (n_steps, nxp, nyp)
    substeps: int
    receiver_cells: np.ndarray     # (n_r, 2) padded-array indices
    nt: int

    def __post_init__(self):
        expected = self.substeps * (self.nt - 1)
        if self.scatter.shape[0] != expected:
            raise ValueError(
                f"scatter count {self.scatter.shape[0]} inconsistent with "
                f"nt={self.nt}, substeps={self.substeps} (expected {expected})"
            )


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
    c_max = grid.c0 * (1.0 + float(np.max(model.values)))
    ratio = c_max * grid.dt_record / (grid.h * CFL_SAFETY)
    return max(1, math.ceil(ratio))


# ---------------------------------------------------------------------------
# internal machinery shared by forward / adjoint / Born sweeps


def _laplacian_band(u: np.ndarray, width: int, h2: float, out: np.ndarray,
                    tmp: np.ndarray) -> np.ndarray:
    """4th-order Laplacian with a zero-Dirichlet exterior (symmetric operator).

    ``u`` is a flat field of ``width``-long rows inside a zero halo of
    _HALO rows and columns. ``out`` (and the scratch ``tmp``) hold the
    rows inside the halo at full width, so each of the stencil's operands
    is one contiguous slice of ``u``. In the halo columns the column shifts
    wrap into the next row and ``out`` is meaningless; everywhere else it is
    the 2-D stencil's value, bit for bit.
    """
    n = out.size
    s = _HALO * width

    def at(offset):
        return u[s + offset:s + offset + n]

    np.multiply(at(0), -5.0, out=out)
    np.add(at(-width), at(width), out=tmp)
    tmp += at(-1)
    tmp += at(1)
    tmp *= 4.0 / 3.0
    out += tmp
    np.add(at(-2 * width), at(2 * width), out=tmp)
    tmp += at(-2)
    tmp += at(2)
    tmp *= -1.0 / 12.0
    out += tmp
    out /= h2
    return out


def _pad_edge(interior: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return interior.copy()
    return np.pad(interior, pad, mode="edge")


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
    depth_x = np.zeros(nxp)
    depth_x[:bw] = ramp
    depth_x[-bw:] = ramp[::-1]
    depth_y = np.zeros(nyp)
    depth_y[:bw] = ramp
    depth_y[-bw:] = ramp[::-1]
    return np.maximum.outer(depth_x, depth_y)


class _Workspace:
    """Per-call precomputation and the time loop shared by the sweeps.

    Sweeps step flat fields of ``size`` entries: the padded grid (interior
    plus sponge) inside a zero halo of _HALO rows and columns. Only the
    ``band`` (the rows inside the halo, at full width) is ever written, and
    its halo columns are reset to +0.0 after every step.
    """

    def __init__(self, model: ModelGrid, grid: SimGrid, receivers=None):
        if model.nx != grid.nx or model.ny != grid.ny:
            raise ValueError("model shape does not match the simulation grid")
        self.grid = grid
        self.bw = grid.boundary_width
        self.k = cfl_substeps(model, grid)
        self.dt = grid.dt_record / self.k
        self.n_steps = self.k * (grid.nt - 1)

        if receivers is not None:
            self.receiver_cells = grid.snap_all(receivers) + self.bw
        self.shape = (grid.nx + 2 * self.bw, grid.ny + 2 * self.bw)
        self.width = self.shape[1] + 2 * _HALO
        self.size = (self.shape[0] + 2 * _HALO) * self.width
        self._band = slice(_HALO * self.width, (_HALO + self.shape[0]) * self.width)

        # coefficient bands: squared speed and the sponge factors
        c_int = grid.c0 * (1.0 + model.as_2d())
        self.v = self.coef(_pad_edge(c_int * c_int, self.bw))
        gamma = _damping_profile(grid)
        self.a = self.coef(1.0 / (1.0 + gamma * self.dt))
        self.b = self.coef(1.0 - gamma * self.dt)

    def field(self) -> np.ndarray:
        return np.zeros(self.size)

    def band(self, f: np.ndarray) -> np.ndarray:
        return f[self._band]

    def inside(self, band: np.ndarray) -> np.ndarray:
        """The (nxp, nyp) view of a band inside its halo columns."""
        return band.reshape(self.shape[0], self.width)[:, _HALO:-_HALO]

    def coef(self, x) -> np.ndarray:
        """A band holding x, an (nxp, nyp) array or a scalar, zero in the halo
        columns."""
        band = np.zeros(self._band.stop - self._band.start)
        self.inside(band)[...] = x
        return band

    def flat_cells(self, cells: np.ndarray) -> np.ndarray:
        """Flat field indices of (n, 2) padded-grid cells."""
        return (cells[:, 0] + _HALO) * self.width + cells[:, 1] + _HALO

    def rezero_halo(self, f: np.ndarray):
        """Reset the band's halo columns to +0.0 after a step wrote them.

        A row's right halo and the next row's left halo are adjacent, so one
        strided view covers them all.
        """
        lo = self._band.start - _HALO
        seams = f[lo:lo + (self.shape[0] + 1) * self.width].reshape(-1, self.width)
        seams[:, :2 * _HALO] = 0.0

    def lap(self, u: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        return _laplacian_band(u, self.width, self.grid.h**2, out, tmp)

    def model_chain(self, model: ModelGrid) -> np.ndarray:
        """d(v_padded)/dm diagonal factor on the interior: 2 c0^2 (1 + m)."""
        return 2.0 * self.grid.c0**2 * (1.0 + model.as_2d())

    def check_field(self, field: Wavefield):
        if field.substeps != self.k or field.scatter.shape != (self.n_steps,) + self.shape:
            raise ValueError("forward field was produced with a different model or grid")

    def guard(self, field: np.ndarray, n: int, what: str):
        """Raise SolverBlowupError if ``field`` at internal step n is not
        finite or has grown past 1e100.

        The sweeps pass a field's band once its halo columns are +0.0, which
        gives the same verdict and magnitude as the interior alone.
        """
        # NaN fails both comparisons
        if not (field.max() <= 1e100 and field.min() >= -1e100):
            amax = float(np.abs(field).max())
            raise SolverBlowupError(
                f"{what} magnitude {amax:.3g} at t={n * self.dt:.3f}s "
                f"(substeps={self.k}, dt={self.dt:.4g}s): time stepping is unstable"
            )

    def march(self, excite, what: str) -> np.ndarray:
        """Leapfrog from rest and return the (n_r, nt) receiver traces.

        ``excite(n, rhs)`` sees the step-n right-hand side ``lap(u^n)`` as an
        (nxp, nyp) view and may edit it in place; a non-None return value, a
        band, is added to the step before the sponge factor is applied.
        """
        k = self.k
        cells = self.flat_cells(self.receiver_cells)
        traces = np.zeros((len(cells), self.grid.nt))
        dt2v, a, b = self.dt**2 * self.v, self.a, self.b
        u_prev, u = self.field(), self.field()
        rhs, tmp = np.empty(dt2v.size), np.empty(dt2v.size)
        rhs_in = self.inside(rhs)

        for n in range(self.n_steps):
            self.lap(u, rhs, tmp)
            extra = excite(n, rhs_in)
            # u^{n+1} = a * (2 u^n - b u^{n-1} + dt^2 v rhs), in u^{n-1}'s buffer
            nxt = self.band(u_prev)
            np.multiply(b, nxt, out=tmp)
            np.multiply(self.band(u), 2.0, out=nxt)
            nxt -= tmp
            np.multiply(dt2v, rhs, out=tmp)
            nxt += tmp
            if extra is not None:
                nxt += extra
            nxt *= a
            self.rezero_halo(u_prev)
            u_prev, u = u, u_prev
            if (n + 1) % k == 0:
                self.guard(self.band(u), n + 1, what)
                traces[:, (n + 1) // k] = u[cells]
        return traces


def forward_solve(model: ModelGrid, source: SourceSpec, receivers, grid: SimGrid,
                  ledger, keep_field: bool = False):
    """Run one forward wave simulation and sample it at the receivers.

    Returns (traces, wavefield); traces has shape (n_r, nt) and wavefield is
    None unless keep_field is set. Counts one forward solve on the ledger.
    """
    ws = _Workspace(model, grid, receivers)
    sx, sy = grid.snap(source.position)
    cell = (sx + ws.bw, sy + ws.bw)
    f = (source.amplitude * ricker(ws.dt * np.arange(ws.n_steps), source.frequency,
                                   source.t0) / grid.h**2)
    scatter = np.zeros((ws.n_steps,) + ws.shape) if keep_field else None

    def excite(n, rhs):
        rhs[cell] -= f[n]
        if scatter is not None:
            scatter[n] = rhs

    traces = ws.march(excite, "field")
    ledger.count_forward()
    wavefield = None
    if keep_field:
        wavefield = Wavefield(scatter=scatter, substeps=ws.k,
                              receiver_cells=ws.receiver_cells, nt=grid.nt)
    return traces, wavefield


def adjoint_solve(model: ModelGrid, weighted_residual_traces: np.ndarray,
                  forward_field: Wavefield, grid: SimGrid, ledger) -> np.ndarray:
    """Back-propagate receiver-space data and return the model-space gradient.

    Computes J(m)^T q for the trace Jacobian J of forward_solve, by running
    the transpose of the discrete time-stepping scheme and correlating it
    with the stored forward scattering source. With q = w^2 * (synthetic -
    observed) this is the gradient of the weighted half-squared misfit.
    Counts one adjoint solve.
    """
    q = np.asarray(weighted_residual_traces, dtype=np.float64)
    n_rec = len(forward_field.receiver_cells)
    if q.shape != (n_rec, grid.nt):
        raise ValueError(
            f"residual traces have shape {q.shape}, expected ({n_rec}, {grid.nt})"
        )
    ws = _Workspace(model, grid)
    ws.check_field(forward_field)

    k = ws.k
    cells = ws.flat_cells(forward_field.receiver_cells)
    dt2 = ws.dt**2
    # a v and a b are formed in place of v and b, which the adjoint does not
    # read again
    av, ab = ws.v, ws.b
    av *= ws.a
    ab *= ws.a
    dt2a = dt2 * ws.a
    two_a = 2.0 * ws.a

    lam_next = ws.field()   # lambda^{n+1}
    lam_next2 = ws.field()  # lambda^{n+2}, overwritten by lambda^n
    scaled = ws.field()     # a v lambda^{n+1}, the Laplacian's operand
    lap, tmp = np.empty(two_a.size), np.empty(two_a.size)
    gv = np.zeros(ws.shape)  # gradient w.r.t. squared-speed field

    for n in range(ws.n_steps, 0, -1):
        # lambda^n = 2 a lambda^{n+1} + dt^2 lap(a v lambda^{n+1}) - a b lambda^{n+2}
        nb, lam = ws.band(lam_next), ws.band(lam_next2)
        np.multiply(av, nb, out=ws.band(scaled))
        ws.lap(scaled, lap, tmp)
        lap *= dt2
        np.multiply(ab, lam, out=tmp)
        np.multiply(two_a, nb, out=lam)
        lam += lap
        lam -= tmp
        ws.rezero_halo(lam_next2)
        if n % k == 0:
            np.add.at(lam_next2, cells, q[:, n // k])
            ws.guard(lam, n, "adjoint field")
        np.multiply(dt2a, lam, out=tmp)
        corr = ws.inside(tmp)
        corr *= forward_field.scatter[n - 1]
        gv += corr
        lam_next2, lam_next = lam_next, lam_next2

    grad = ws.model_chain(model) * _fold_edge(gv, ws.bw)
    ledger.count_adjoint()
    return grad.ravel()


def born_solve(model: ModelGrid, direction: np.ndarray, source: SourceSpec,
               receivers, grid: SimGrid, forward_field: Wavefield, ledger) -> np.ndarray:
    """Linearized (Born) solve: the Jacobian-vector product J(m) @ direction.

    Propagates the single-scattered field that the model perturbation
    generates from the stored forward scattering source, and samples it at
    the receivers. ``source`` is the source the forward field was computed
    for; its wavelet is already part of ``forward_field.scatter``, so it is
    not read here. Counts one Born solve.
    """
    direction = np.asarray(direction, dtype=np.float64).ravel()
    if direction.size != model.p:
        raise ValueError(f"direction has {direction.size} entries, expected {model.p}")
    ws = _Workspace(model, grid, receivers)
    ws.check_field(forward_field)

    dv = _pad_edge(ws.model_chain(model) * direction.reshape(model.nx, model.ny), ws.bw)
    kick = ws.dt**2 * dv
    extra = ws.coef(0.0)
    extra_in = ws.inside(extra)

    def excite(n, rhs):
        np.multiply(kick, forward_field.scatter[n], out=extra_in)
        return extra

    traces = ws.march(excite, "scattered field")
    ledger.count_born()
    return traces
