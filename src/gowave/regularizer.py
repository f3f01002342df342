"""Smoothing regularizer R(m) = 0.5 * ||D (m - m0)||^2 with D = lam * (nu I - lap).

The Laplacian is the 5-point stencil with homogeneous Neumann closure, which
makes D symmetric and gives the constant vector the exact eigenvalue lam * nu.
The smallest eigenvalue of D^T D is therefore exactly (lam * nu)^2, the
curvature floor that the step-quality bounds of the gradient-only Gauss-Newton
method are built on.

D is factorized on the first normal solve, so a run that never solves with
it never pays for the factor; because D is symmetric, solving D^T D x = b
costs two triangular-solve passes with the same factorization, which is also
better conditioned than factoring D^T D itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def _neumann_laplacian_1d(n: int) -> sp.csr_matrix:
    """1D second-difference matrix with reflecting (Neumann) end closure."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")


class SmoothingOperator:
    """Quadratic smoothing penalty around a reference model.

    The sparse LU of D is built, and checked by one round trip through
    D^T D, on the first ``solve_normal``; nothing else changes after
    construction. ``harness.run_one`` builds a fresh operator for each run,
    so one run owns it, also when runs execute on several threads. Use
    ``build`` to construct one.
    """

    def __init__(self, D: sp.spmatrix, lam: float, nu: float, h: float,
                 m0: np.ndarray, nx: int, ny: int):
        self.D = D.tocsr()
        self.lam = float(lam)
        self.nu = float(nu)
        self.h = float(h)
        self.m0 = np.asarray(m0, dtype=np.float64).ravel().copy()
        self.nx = nx
        self.ny = ny
        self.p = nx * ny
        self._factor = None

    @property
    def mu(self) -> float:
        """Sharp lower bound (lam * nu)^2 on the spectrum of D^T D."""
        return (self.lam * self.nu) ** 2

    def _delta(self, m) -> np.ndarray:
        values = m.values if hasattr(m, "values") else np.asarray(m, dtype=np.float64)
        values = values.ravel()
        if values.size != self.p:
            raise ValueError(f"model has {values.size} entries, expected {self.p}")
        return values - self.m0

    def value(self, m) -> float:
        Dd = self.D @ self._delta(m)
        return 0.5 * float(np.dot(Dd, Dd))

    # D is exactly symmetric, so grad and hess_vec apply D^T D as D @ D and
    # never form D.T; the CSR rows of D sum in the order of D.T's CSC columns
    def grad(self, m) -> np.ndarray:
        return self.D @ (self.D @ self._delta(m))

    def hess_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != self.p:
            raise ValueError(f"vector has {v.size} entries, expected {self.p}")
        return self.D @ (self.D @ v)

    def solve_normal(self, b: np.ndarray) -> np.ndarray:
        """Solve D^T D x = b; D is symmetric so this is two solves with D."""
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.size != self.p:
            raise ValueError(f"vector has {b.size} entries, expected {self.p}")
        if self._factor is None:
            factor = splu(self.D.tocsc())
            # factorization sanity: round trip one probe vector through D^T D
            probe = np.random.default_rng(0).standard_normal(self.p)
            resid = np.linalg.norm(
                self.hess_vec(factor.solve(factor.solve(probe))) - probe)
            if resid > 1e-10 * np.linalg.norm(probe):
                raise RuntimeError(
                    f"smoothing factorization residual {resid:.3e} exceeds contract"
                )
            self._factor = factor
        return self._factor.solve(self._factor.solve(b))


def build(nx: int, ny: int, h: float, lam: float, nu: float, m0) -> SmoothingOperator:
    """Assemble D = lam * (nu I - lap_h) on an nx x ny grid.

    m0 is the reference model (array-like of nx * ny entries, or anything with
    a .values attribute of that length). The Neumann boundary closure pins the
    constant-mode eigenvalue of D at exactly lam * nu.
    """
    if lam <= 0 or nu <= 0:
        raise ValueError("smoothing parameters lam and nu must be positive")
    m0 = m0.values if hasattr(m0, "values") else np.asarray(m0, dtype=np.float64)
    if m0.size != nx * ny:
        raise ValueError(f"reference model has {m0.size} entries, expected {nx * ny}")

    tx = _neumann_laplacian_1d(nx)
    ty = _neumann_laplacian_1d(ny)
    lap = (sp.kron(tx, sp.identity(ny)) + sp.kron(sp.identity(nx), ty)) / h**2
    D = lam * (nu * sp.identity(nx * ny) - lap)
    return SmoothingOperator(D.tocsr(), lam, nu, h, m0, nx, ny)
