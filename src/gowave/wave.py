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

# Extra zero halo so the 4th-order stencil sees a Dirichlet exterior.
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
        x, y = position
        lx, ly = self.extent
        if not (0.0 <= x <= lx and 0.0 <= y <= ly):
            raise ValueError(f"position {position} outside domain [0,{lx}]x[0,{ly}]")
        ix = min(self.nx - 1, max(0, int(round(x / self.h))))
        iy = min(self.ny - 1, max(0, int(round(y / self.h))))
        return ix, iy


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


def _laplacian(u: np.ndarray, h2: float, buf: np.ndarray) -> np.ndarray:
    """4th-order Laplacian with a zero-Dirichlet exterior (symmetric operator)."""
    buf[...] = 0.0
    buf[_HALO:-_HALO, _HALO:-_HALO] = u
    c1 = 4.0 / 3.0
    c2 = -1.0 / 12.0
    out = (
        -5.0 * u
        + c1 * (buf[1:-3, 2:-2] + buf[3:-1, 2:-2] + buf[2:-2, 1:-3] + buf[2:-2, 3:-1])
        + c2 * (buf[:-4, 2:-2] + buf[4:, 2:-2] + buf[2:-2, :-4] + buf[2:-2, 4:])
    )
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
    """Per-call precomputation and the time loop shared by the sweeps."""

    def __init__(self, model: ModelGrid, grid: SimGrid, receivers=None):
        if model.nx != grid.nx or model.ny != grid.ny:
            raise ValueError("model shape does not match the simulation grid")
        self.grid = grid
        self.bw = grid.boundary_width
        self.k = cfl_substeps(model, grid)
        self.dt = grid.dt_record / self.k
        self.n_steps = self.k * (grid.nt - 1)

        c_int = grid.c0 * (1.0 + model.as_2d())
        self.v = _pad_edge(c_int * c_int, self.bw)  # squared speed, padded
        gamma = _damping_profile(grid)
        self.a = 1.0 / (1.0 + gamma * self.dt)
        self.b = 1.0 - gamma * self.dt

        if receivers is not None:
            cells = [grid.snap(r) for r in receivers]
            self.receiver_cells = np.array(
                [(ix + self.bw, iy + self.bw) for ix, iy in cells], dtype=np.intp
            ).reshape(-1, 2)
        self.shape = self.v.shape
        self._lap_buf = np.zeros((self.shape[0] + 2 * _HALO, self.shape[1] + 2 * _HALO))

    def lap(self, u: np.ndarray) -> np.ndarray:
        return _laplacian(u, self.grid.h**2, self._lap_buf)

    def model_chain(self, model: ModelGrid) -> np.ndarray:
        """d(v_padded)/dm diagonal factor on the interior: 2 c0^2 (1 + m)."""
        return 2.0 * self.grid.c0**2 * (1.0 + model.as_2d())

    def check_field(self, field: Wavefield):
        if field.substeps != self.k or field.scatter.shape != (self.n_steps,) + self.shape:
            raise ValueError("forward field was produced with a different model or grid")

    def guard(self, field: np.ndarray, n: int, what: str):
        """Raise SolverBlowupError if ``field`` at internal step n is not
        finite or has grown past 1e100."""
        amax = float(np.abs(field).max())
        if not np.isfinite(amax) or amax > 1e100:
            raise SolverBlowupError(
                f"{what} magnitude {amax:.3g} at t={n * self.dt:.3f}s "
                f"(substeps={self.k}, dt={self.dt:.4g}s): time stepping is unstable"
            )

    def march(self, excite, what: str) -> np.ndarray:
        """Leapfrog from rest and return the (n_r, nt) receiver traces.

        ``excite(n, rhs)`` sees the step-n right-hand side ``lap(u^n)`` and
        may edit it in place; a non-None return value is added to the step
        before the sponge factor is applied.
        """
        k = self.k
        rx, ry = self.receiver_cells[:, 0], self.receiver_cells[:, 1]
        traces = np.zeros((len(self.receiver_cells), self.grid.nt))
        u_prev = np.zeros(self.shape)
        u = np.zeros(self.shape)
        dt2 = self.dt**2

        for n in range(self.n_steps):
            rhs = self.lap(u)
            extra = excite(n, rhs)
            acc = 2.0 * u - self.b * u_prev + dt2 * self.v * rhs
            if extra is not None:
                acc += extra
            u_prev, u = u, self.a * acc
            if (n + 1) % k == 0:
                self.guard(u, n + 1, what)
                traces[:, (n + 1) // k] = u[rx, ry]
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
    rx = forward_field.receiver_cells[:, 0]
    ry = forward_field.receiver_cells[:, 1]
    dt2 = ws.dt**2
    av = ws.a * ws.v
    ab = ws.a * ws.b

    lam_next = np.zeros(ws.shape)   # lambda^{n+1}
    lam_next2 = np.zeros(ws.shape)  # lambda^{n+2}
    gv = np.zeros(ws.shape)         # gradient w.r.t. squared-speed field

    for n in range(ws.n_steps, 0, -1):
        lam = 2.0 * ws.a * lam_next + dt2 * ws.lap(av * lam_next) - ab * lam_next2
        if n % k == 0:
            np.add.at(lam, (rx, ry), q[:, n // k])
            ws.guard(lam, n, "adjoint field")
        gv += (dt2 * ws.a * lam) * forward_field.scatter[n - 1]
        lam_next2 = lam_next
        lam_next = lam

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
    traces = ws.march(lambda n, rhs: kick * forward_field.scatter[n], "scattered field")
    ledger.count_born()
    return traces
