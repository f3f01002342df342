"""Reference implementations that the tests check the package against."""

import numpy as np

from gowave.gogn import GoJacobian, GognStep, _gradient
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
    grad = _gradient(J, delta, reg)
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
        directional_derivative=float(np.dot(grad, p)),
        fallback=J.n_active == 0,
    )
