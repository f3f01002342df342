"""Tests for the gradient-only Gauss-Newton step against dense oracles."""

import numpy as np
import pytest

from gowave.gogn import GoJacobian, assemble, step_woodbury
from gowave.problem import MisfitReport
from gowave.regularizer import build

from oracles import step_dense_oracle


def report_of(phi, grads):
    phi = np.asarray(phi, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    return MisfitReport(phi=phi, gradients=grads, total=float(phi.sum()))


def synthetic_instance(seed, nx=10, ny=20, n=6, inactive=0):
    """Random well-scaled instance on a unit-spacing grid (no PDEs involved)."""
    rng = np.random.default_rng(seed)
    p = nx * ny
    reg = build(nx, ny, 1.0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                rng.standard_normal(p))
    phi = rng.uniform(0.1, 3.0, size=n)
    phi[:inactive] = 0.0
    grads = rng.standard_normal((n, p))
    grads[:inactive] = 0.0
    m_k = reg.m0 + 0.3 * rng.standard_normal(p)
    return reg, report_of(phi, grads), m_k


# -- assembly ----------------------------------------------------------------


def test_assemble_row_formula_simple_values():
    grads = np.zeros((2, 4))
    grads[0, 0] = 4.0
    grads[1] = (1.0, 2.0, 3.0, 4.0)
    J = assemble(report_of([2.0, 0.5], grads))
    np.testing.assert_allclose(J.rows[0], (2.0, 0.0, 0.0, 0.0))  # sqrt(2*2) = 2
    np.testing.assert_allclose(J.rows[1], grads[1])              # sqrt(2*0.5) = 1
    np.testing.assert_allclose(J.rho, (2.0, 1.0))
    assert J.active.all()


def test_assemble_reconstructs_total_gradient():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((5, 30))
    phi = rng.uniform(0.01, 5.0, size=5)
    J = assemble(report_of(phi, grads))
    total = J.rows.T @ J.rho
    expect = grads.sum(axis=0)
    np.testing.assert_allclose(total, expect, rtol=1e-12)
    # and row-wise: rho_i * row_i recovers each gradient
    for i in range(5):
        np.testing.assert_allclose(J.rho[i] * J.rows[i], grads[i], rtol=1e-12)


def test_assemble_zero_misfit_rows_inactive():
    grads = np.ones((3, 8))
    J = assemble(report_of([0.0, 1.0, 0.0], grads))
    assert list(J.active) == [False, True, False]
    assert np.all(J.rows[0] == 0.0) and np.all(J.rows[2] == 0.0)
    assert J.rho[0] == 0.0 and J.n_active == 1
    # activity is read from rho, not held beside it
    with pytest.raises(AttributeError):
        J.active = np.ones(3, bool)


# -- step correctness --------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_woodbury_matches_dense_solve(seed):
    reg, report, m_k = synthetic_instance(seed, n=1 + seed)
    J = assemble(report)
    pw = step_woodbury(J, m_k, reg)
    pd = step_dense_oracle(J, m_k, reg)
    rel = np.linalg.norm(pw.p - pd.p) / np.linalg.norm(pd.p)
    assert rel <= 1e-8
    assert pw.n_small == pd.n_small == J.n_active


def test_woodbury_matches_dense_with_inactive_rows():
    reg, report, m_k = synthetic_instance(3, n=5, inactive=2)
    J = assemble(report)
    pw = step_woodbury(J, m_k, reg)
    pd = step_dense_oracle(J, m_k, reg)
    assert pw.n_small == 3
    np.testing.assert_allclose(pw.p, pd.p, rtol=1e-8)
    # the zero rows stay in the N x N system whose condition is reported
    assert pw.cond_estimate == pytest.approx(pd.cond_estimate, rel=1e-8)


def test_single_row_matches_sherman_morrison():
    reg, report, m_k = synthetic_instance(7, nx=8, ny=8, n=1)
    J = assemble(report)
    step = step_woodbury(J, m_k, reg)

    dtd = (reg.D.T @ reg.D).toarray()
    a = np.linalg.inv(dtd)
    j = J.rows[0]
    delta = m_k - reg.m0
    grad = j * J.rho[0] + dtd @ delta
    aj = a @ j
    hinv = a - np.outer(aj, aj) / (1.0 + float(j @ aj))
    expect = -hinv @ grad
    assert np.linalg.norm(step.p - expect) / np.linalg.norm(expect) <= 1e-10


def test_non_spd_low_rank_system_is_reported():
    reg, report, m_k = synthetic_instance(5, n=3)
    reg.solve_normal = lambda b: -1e6 * b  # a negative definite stand-in for A
    with pytest.raises(RuntimeError, match=r"not SPD .* raise \[regularizer\] nu"):
        step_woodbury(assemble(report), m_k, reg)


def test_all_inactive_falls_back_to_regularization_pull():
    reg, report, m_k = synthetic_instance(1, n=4, inactive=4)
    J = assemble(report)
    step = step_woodbury(J, m_k, reg)
    assert step.n_small == 0
    assert step.cond_estimate == 1.0  # cond(I)
    np.testing.assert_array_equal(step.p, -(m_k - reg.m0))
    grad = J.rows.T @ J.rho + reg.hess_vec(m_k - reg.m0)
    assert float(grad @ step.p) < 0


def test_all_inactive_at_reference_model_gives_zero_step():
    reg, report, _ = synthetic_instance(2, n=3, inactive=3)
    J = assemble(report)
    step = step_woodbury(J, reg.m0.copy(), reg)
    assert step.n_small == 0
    np.testing.assert_array_equal(step.p, np.zeros(reg.p))
    grad = J.rows.T @ J.rho + reg.hess_vec(np.zeros(reg.p))
    assert float(grad @ step.p) == 0.0


# -- step-quality bounds (verified against dense spectra) ---------------------


@pytest.mark.parametrize("seed", range(4))
def test_descent_and_angle_bounds_from_dense_spectra(seed):
    reg, report, m_k = synthetic_instance(seed + 20, nx=8, ny=10, n=5)
    J = assemble(report)
    step = step_woodbury(J, m_k, reg)

    rows = J.rows[J.active]
    dtd = (reg.D.T @ reg.D).toarray()
    hess = rows.T @ rows + dtd
    ev = np.linalg.eigvalsh(hess)
    mu = reg.mu
    big_m = float(np.linalg.eigvalsh(dtd)[-1])
    m_j = float(np.linalg.norm(rows @ rows.T, 2))  # ||J J^T|| = ||J^T J||

    # spectrum containment
    assert ev[0] >= mu * (1.0 - 1e-9)
    assert ev[-1] <= (big_m + m_j) * (1.0 + 1e-9)

    grad = J.rows.T @ J.rho + reg.hess_vec(m_k - reg.m0)
    gnorm = float(np.linalg.norm(grad))
    dd = float(grad @ step.p)
    assert dd < 0
    assert dd <= -gnorm**2 / (big_m + m_j) * (1.0 - 1e-9)
    cos_theta = -dd / (np.linalg.norm(step.p) * gnorm)
    assert cos_theta >= mu / (big_m + m_j) * (1.0 - 1e-9)


# -- accounting and guards ----------------------------------------------------


def test_assembly_and_step_consume_no_solves():
    from gowave.ledger import SolveLedger
    from gowave.problem import DataSet, FwiProblem, Geometry
    from gowave.wave import ModelGrid, SimGrid, SourceSpec

    grid = SimGrid(nx=16, ny=16, h=2400.0, c0=3000.0, dt_record=1.0, nt=25,
                   boundary_width=6, boundary_strength=0.25)
    geom = Geometry(
        sources=[SourceSpec((5 * grid.h, 8 * grid.h), 0.1),
                 SourceSpec((11 * grid.h, 8 * grid.h), 0.1)],
        receivers=[(2 * grid.h, 2 * grid.h), (13 * grid.h, 12 * grid.h)],
    )
    rng = np.random.default_rng(5)
    obs = [rng.standard_normal((2, grid.nt)) for _ in range(2)]
    prob = FwiProblem(grid, geom, DataSet(observed=obs, weights=np.ones((2, 2))))
    reg = build(grid.nx, grid.ny, grid.h, 1.0, 1.0 / (5 * grid.h) ** 2,
                np.zeros(prob.p))

    m = ModelGrid.zeros(grid.nx, grid.ny)
    report = prob.misfit_and_gradients(m)
    before = prob.ledger.snapshot()
    J = assemble(report)
    step_woodbury(J, m.values, reg)
    assert prob.ledger.delta(before).total == 0


def test_dense_oracle_size_guard():
    reg, _, _ = synthetic_instance(0, nx=10, ny=20)
    with pytest.raises(ValueError, match="2000"):
        step_dense_oracle(GoJacobian(rows=np.zeros((1, 4000)), rho=np.ones(1)),
                          np.zeros(4000), reg)