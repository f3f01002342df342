"""Reference implementations that the tests check the package against."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from gowave.gogn import GoJacobian, GognStep
from gowave.regularizer import SmoothingOperator


def step_dense_oracle(J: GoJacobian, m_k, reg: SmoothingOperator) -> GognStep:
    """Reference path: explicitly assemble J^T J + D^T D and solve.

    Only for small problems; guarded to p <= 2000.
    """
    values = m_k.values if hasattr(m_k, "values") else np.asarray(m_k, dtype=np.float64)
    values = values.ravel()
    if values.size > 2000:
        raise ValueError(f"dense oracle limited to 2000 parameters, got {values.size}")
    delta = values - reg.m0

    rows = J.rows[J.active]
    dtd = (reg.D.T @ reg.D).toarray()
    hess = rows.T @ rows + dtd
    grad = J.rows.T @ J.rho + reg.hess_vec(delta)
    p = np.linalg.solve(hess, -grad)

    if rows.shape[0] > 0:
        small = np.eye(rows.shape[0]) + rows @ np.linalg.solve(dtd, rows.T)
        cond = float(np.linalg.cond(small))
    else:
        cond = 1.0
    return GognStep(
        p=p,
        n_small=rows.shape[0],
        cond_estimate=cond,
        fallback=J.n_active == 0,
    )


def solve_normal_oracle(reg: SmoothingOperator, b: np.ndarray) -> np.ndarray:
    """Reference path: solve D^T D x = b as two solves with a sparse LU of D,
    which is symmetric."""
    factor = splu(reg.D.tocsc())
    return factor.solve(factor.solve(np.asarray(b, dtype=np.float64)))


def curvature_solve_oracle(h0: np.ndarray, reg: SmoothingOperator,
                           b: np.ndarray) -> np.ndarray:
    """Reference path: solve (diag(h0) + D^T D) x = b with a sparse LU."""
    matrix = sp.diags(np.asarray(h0, dtype=np.float64)) + reg.D.T @ reg.D
    return splu(matrix.tocsc()).solve(np.asarray(b, dtype=np.float64))


def _neumann_laplacian_1d(n: int) -> sp.csr_matrix:
    """1D second-difference matrix with reflecting (Neumann) end closure."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")


def smoothing_matrix_oracle(nx: int, ny: int, h: float, lam: float,
                            nu: float) -> sp.csr_matrix:
    """Reference path: D = lam * (nu I - lap_h) assembled from sparse
    Kronecker products of the 1D Neumann Laplacians."""
    tx = _neumann_laplacian_1d(nx)
    ty = _neumann_laplacian_1d(ny)
    lap = (sp.kron(tx, sp.identity(ny)) + sp.kron(sp.identity(nx), ty)) / h**2
    return (lam * (nu * sp.identity(nx * ny) - lap)).tocsr()
