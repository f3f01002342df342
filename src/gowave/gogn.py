"""Gradient-only Gauss-Newton step construction.

The misfit is recast as Phi = 0.5 * sum_i rho_i^2 with rho_i = sqrt(2 phi_i),
so the N x p Jacobian of the vector rho has rows grad(phi_i) / sqrt(2 phi_i).
Those rows come straight from the per-source gradients that any gradient
method already computes, so building the Gauss-Newton model costs zero
additional PDE solves. The step solves

    (J^T J + D^T D) p = -(J^T rho + D^T D (m - m0))

via the Woodbury identity: only N smoothing solves, which the regularizer
does in D's cosine eigenbasis, and one N x N Cholesky solve are needed.
Nothing of size p is factorized, and scipy is not imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularizer import SmoothingOperator


@dataclass
class GoJacobian:
    """Rows grad(phi_i) / rho_i for the active sources, zero rows otherwise."""

    rows: np.ndarray     # (N, p)
    rho: np.ndarray      # (N,)

    @property
    def active(self) -> np.ndarray:  # exactly fit sources have rho_i = 0
        return self.rho > 0.0

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))


@dataclass
class GognStep:
    """A computed step direction with its small-system diagnostics."""

    p: np.ndarray
    n_small: int         # active rows; 0: the pure regularization pull p = -delta
    cond_estimate: float


def assemble(report) -> GoJacobian:
    """Build the gradient-only Jacobian from a misfit report.

    Sources with phi_i > 0 contribute row grad(phi_i) / sqrt(2 phi_i), which
    is finite (if large) for any phi_i > 0; exactly fit sources get a zero
    row and rho_i = 0. Consumes no PDE solves.
    """
    phi = np.asarray(report.phi, dtype=np.float64)
    grads = np.asarray(report.gradients, dtype=np.float64)
    active = phi > 0.0
    rho = np.where(active, np.sqrt(2.0 * phi), 0.0)
    rows = np.zeros_like(grads)
    rows[active] = grads[active] / rho[active, None]
    return GoJacobian(rows=rows, rho=rho)


def step_woodbury(J: GoJacobian, m_k, reg: SmoothingOperator) -> GognStep:
    """Solve the Gauss-Newton system through the low-rank update formula.

    p = A J^T S (J delta - rho) - delta with A = (D^T D)^{-1} applied by
    the regularizer's spectral solve and S = (I + J A J^T)^{-1} solved
    densely (N x N Cholesky). An exactly fit source's zero row adds an
    identity row and column to S^{-1} and a zero to J delta - rho, so it
    leaves p as it is; with every row zero, p = -delta, the pure
    regularization pull, and cond(S^{-1}) = cond(I) = 1. No PDE solves.
    """
    delta = np.asarray(m_k, dtype=np.float64).ravel() - reg.m0

    ajt = np.column_stack([reg.solve_normal(row) for row in J.rows])
    small = np.eye(len(J.rows)) + J.rows @ ajt  # I + J A J^T, SPD by construction
    try:
        chol = np.linalg.cholesky(small)  # small = chol chol^T
    except np.linalg.LinAlgError as exc:
        # cond(D^T D) = ((nu + 8 / h^2) / nu)^2 grows as h^2 nu shrinks
        cond_dtd = (1.0 + 8.0 / (reg.h**2 * reg.nu)) ** 2
        raise RuntimeError(
            f"low-rank system not SPD (cond ~ {np.linalg.cond(small):.3e}): "
            f"cond(D^T D) ~ {cond_dtd:.3e} at h^2 nu = {reg.h**2 * reg.nu:.3e} "
            "is too large for float64; raise [regularizer] nu"
        ) from exc
    y = np.linalg.solve(chol.T, np.linalg.solve(chol, J.rows @ delta - J.rho))
    return GognStep(p=ajt @ y - delta, n_small=J.n_active,
                    cond_estimate=float(np.linalg.cond(small)))
