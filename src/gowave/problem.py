"""Waveform-inversion problem definition: parameter-to-observable maps, the
weighted least-squares misfits and their adjoint gradients, receiver
weighting, band-limited synthetic noise, and matrix-free Gauss-Newton
Hessian products.

The misfit decomposes over sources: phi_i(m) = 0.5 * sum_j w_ij^2 *
||s_ij(m) - s_ij^obs||^2, one term per source i with per-receiver weights
w_ij. One gradient evaluation costs exactly one forward and one adjoint
solve per source, which the solve ledger verifies.

Synthetic data are generated with the same discrete solver used for
inversion (the usual inverse-crime caveat applies: there is no
discretization mismatch between observed and modeled data).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ledger import SolveLedger
from .wave import ModelGrid, SimGrid, SourceSpec, adjoint_solve, born_solve, forward_solve

SIGMA_K = 100e3  # receiver-density kernel width in meters


@dataclass
class Geometry:
    """Acquisition layout: N sources and n_r shared receivers."""

    sources: list
    receivers: list

    def __post_init__(self):
        if len(self.sources) < 1:
            raise ValueError("need at least one source")
        if len(self.receivers) < 1:
            raise ValueError("need at least one receiver")

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)


@dataclass
class DataSet:
    """Observed seismograms with per-(receiver, source) weights.

    observed[i] is the (n_r, n_t) seismogram of source i; weights[j, i] is
    the weight of receiver j under source i, applied squared inside the
    misfit quadratic.
    """

    observed: list
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n_r = self.observed[0].shape[0]
        if self.weights.shape != (n_r, len(self.observed)):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"({n_r}, {len(self.observed)})"
            )
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and non-negative")


@dataclass
class MisfitReport:
    """Per-source misfit values and gradients from one evaluation sweep.

    ``fields`` optionally carries the forward wavefields so that follow-up
    Hessian-vector products can reuse them instead of re-simulating. It is
    the only place that keeps all N at once; without it a sweep holds one.
    """

    phi: np.ndarray
    gradients: np.ndarray
    total: float
    fields: list = field(default=None, repr=False)


def receiver_weights(geom: Geometry, clean: list) -> np.ndarray:
    """Per-trace weights combining amplitude and receiver-density corrections.

    w_ij = 1 / (||s_ij|| * sqrt(mean_l k(||x_j - x_l||))) with a Gaussian
    kernel k of width SIGMA_K (meters). Dense receiver patches are
    down-weighted so they do not dominate the misfit; the amplitude factor
    whitens across offsets. Zero-norm traces get weight 0 with a warning.
    """
    pos = np.asarray(geom.receivers, dtype=np.float64)
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.sum(diff * diff, axis=2)
    kernel = np.exp(-dist2 / (2.0 * SIGMA_K**2)) / (np.sqrt(2.0 * np.pi) * SIGMA_K)
    density = kernel.mean(axis=1)  # (n_r,), strictly positive (k(0) term)

    w = np.zeros((geom.n_receivers, geom.n_sources))
    for i, traces in enumerate(clean):
        norms = np.linalg.norm(traces, axis=1)
        dead = norms == 0.0
        if np.any(dead):
            warnings.warn(
                f"{int(dead.sum())} zero-amplitude trace(s) for source {i}; "
                "their weights are set to 0", stacklevel=2,
            )
        with np.errstate(divide="ignore"):
            w[:, i] = np.where(dead, 0.0, 1.0 / (norms * np.sqrt(density)))
    return w


def make_noisy_data(clean: list, sigma: float, seed: int,
                    weights: np.ndarray = None) -> DataSet:
    """Add band-limited noise: eps = sigma * Re(ifft(z * fft(s))) per trace.

    z is i.i.d. standard normal, real, one draw per frequency bin, so the
    noise spectrum is exactly contained in the bins where the clean trace
    has energy. Deterministic given the seed. Weights default to 1.
    """
    if sigma < 0:
        raise ValueError("noise level must be non-negative")
    rng = np.random.default_rng(seed)
    observed = []
    for traces in clean:
        noisy = traces.copy()
        if sigma > 0:
            # row j draws the j-th block of the stream, as one draw per trace
            z = rng.standard_normal(traces.shape)
            spectrum = np.fft.fft(traces, axis=1)
            noisy += sigma * np.real(np.fft.ifft(z * spectrum, axis=1))
        observed.append(noisy)
    if weights is None:
        weights = np.ones((clean[0].shape[0], len(clean)))
    return DataSet(observed=observed, weights=weights)


class FwiProblem:
    """One inversion instance: grid + acquisition + data + solve ledger.

    All PDE work flows through the attached ledger, so optimizer budgets
    and accounting claims can be checked externally. ``m_true`` is optional
    and only used for reporting model error in benchmark traces.
    """

    def __init__(self, grid: SimGrid, geom: Geometry, data: DataSet,
                 ledger: SolveLedger = None, m_true: ModelGrid = None):
        if len(data.observed) != geom.n_sources:
            raise ValueError("one seismogram per source required")
        expected = (geom.n_receivers, grid.nt)
        for i, obs in enumerate(data.observed):
            if obs.shape != expected:
                raise ValueError(f"seismogram of source {i} has shape {obs.shape}, "
                                 f"expected (receivers, samples) = {expected}")
        self.grid = grid
        self.geom = geom
        self.data = data
        self.ledger = ledger if ledger is not None else SolveLedger()
        self.m_true = m_true

    @property
    def n_sources(self) -> int:
        return self.geom.n_sources

    @property
    def p(self) -> int:
        return self.grid.nx * self.grid.ny

    def simulate(self, m: ModelGrid) -> list:
        """Forward-model all sources; N forward solves."""
        return [
            forward_solve(m, src, self.geom.receivers, self.grid, self.ledger)[0]
            for src in self.geom.sources
        ]

    def _sweep(self, m: ModelGrid, want_gradients: bool, keep_fields: bool):
        n = self.n_sources
        phi = np.zeros(n)
        grads = np.zeros((n, self.p)) if want_gradients else None
        fields = [] if keep_fields else None
        for i, src in enumerate(self.geom.sources):
            traces, fld = forward_solve(
                m, src, self.geom.receivers, self.grid, self.ledger,
                keep_field=want_gradients or keep_fields,
            )
            resid = traces - self.data.observed[i]
            with np.errstate(over="ignore", invalid="ignore"):  # the adjoint's guard reports it
                wsq_resid = (self.data.weights[:, i] ** 2)[:, None] * resid
                phi[i] = 0.5 * float(np.sum(wsq_resid * resid))
            if want_gradients:
                grads[i] = adjoint_solve(m, wsq_resid, fld, self.grid, self.ledger)
            if keep_fields:
                fields.append(fld)
            del fld  # unless kept, free this field before the next forward solve
        return phi, grads, fields

    def misfit_only(self, m: ModelGrid):
        """Objective sweep without gradients; N forward solves."""
        phi, _, _ = self._sweep(m, want_gradients=False, keep_fields=False)
        return float(phi.sum()), phi

    def misfit_and_gradients(self, m: ModelGrid, keep_fields: bool = False) -> MisfitReport:
        """Per-source misfits and gradients; N forward + N adjoint solves."""
        phi, grads, fields = self._sweep(m, want_gradients=True,
                                         keep_fields=keep_fields)
        return MisfitReport(phi=phi, gradients=grads, total=float(phi.sum()),
                            fields=fields)

    def gn_hessian_vec(self, m: ModelGrid, v: np.ndarray, fields: list = None) -> np.ndarray:
        """Gauss-Newton Hessian action sum_i J_i^T W_i^2 J_i v, matrix-free.

        One Born + one adjoint solve per source, plus one forward solve per
        source when no cached wavefields are supplied. Sources are taken one
        at a time, so without cached wavefields at most one is alive.
        """
        v = np.asarray(v, dtype=np.float64).ravel()
        out = np.zeros(self.p)
        for i, src in enumerate(self.geom.sources):
            if fields is None:
                fld = forward_solve(m, src, self.geom.receivers, self.grid,
                                    self.ledger, keep_field=True)[1]
            else:
                fld = fields[i]
            d_traces = born_solve(m, v, src, self.geom.receivers, self.grid,
                                  fld, self.ledger)
            wsq = (self.data.weights[:, i] ** 2)[:, None] * d_traces
            out += adjoint_solve(m, wsq, fld, self.grid, self.ledger)
            del fld  # free a field solved here before the next forward solve
        return out

    def diag_gn_estimate(self, m0: ModelGrid) -> np.ndarray:
        """Diagonal curvature estimate: GN Hessian applied to the ones vector,
        clamped below at 1e-6 of its maximum so it stays strictly positive."""
        raw = self.gn_hessian_vec(m0, np.ones(self.p))
        top = float(raw.max())
        if top <= 0.0:
            warnings.warn("degenerate curvature estimate; falling back to identity",
                          stacklevel=2)
            return np.ones(self.p)
        return np.maximum(raw, 1e-6 * top)
