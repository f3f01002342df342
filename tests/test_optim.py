"""Linesearch, budget, and optimizer driver tests on closed-form toys."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gowave import optim
from gowave.ledger import SolveLedger
from gowave.optim import (GNCG_RICHARDSON_ITERS, CurvatureModel,
                          LinesearchPolicy, admit_curvature_pair, linesearch,
                          run_gncg, run_gogn, run_lbfgs, run_nlcg,
                          two_loop_apply)
from gowave.problem import MisfitReport
from gowave.regularizer import build
from gowave.wave import ModelGrid

from oracles import curvature_solve_oracle

NX, NY = 10, 5
P = NX * NY


def make_reg(m0=None):
    return build(NX, NY, h=1.0, lam=1.0, nu=1.0,
                 m0=np.zeros(P) if m0 is None else m0)


class QuadraticProblem:
    """Stand-in problem with per-source misfits phi_i = ||A_i (m - t)||^2 / 2.

    Mirrors the waveform problem's interface and its ledger accounting so
    optimizer drivers can be exercised against closed-form answers.
    """

    def __init__(self, mats, target):
        self.mats = mats
        self.target = np.asarray(target, dtype=np.float64)
        self.ledger = SolveLedger()
        self.grid = SimpleNamespace(nx=NX, ny=NY)
        self.m_true = ModelGrid(self.target, NX, NY)
        self.n_sources = len(mats)

    def _phi(self, values):
        d = values - self.target
        return np.array([0.5 * np.dot(A @ d, A @ d) for A in self.mats])

    def misfit_only(self, model):
        self.ledger.count_forward(self.n_sources)
        phi = self._phi(model.values)
        return float(phi.sum()), phi

    def misfit_and_gradients(self, model, keep_fields=False):
        self.ledger.count_forward(self.n_sources)
        self.ledger.count_adjoint(self.n_sources)
        d = model.values - self.target
        phi = self._phi(model.values)
        grads = np.stack([A.T @ (A @ d) for A in self.mats])
        fields = [object()] * self.n_sources if keep_fields else None
        return MisfitReport(phi=phi, gradients=grads, total=float(phi.sum()),
                            fields=fields)

    def gn_hessian_vec(self, model, v, fields=None):
        if fields is None:
            self.ledger.count_forward(self.n_sources)
        self.ledger.count_born(self.n_sources)
        self.ledger.count_adjoint(self.n_sources)
        return sum(A.T @ (A @ v) for A in self.mats)


def make_generic(seed=0, n_sources=3):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((P, P)) for _ in range(n_sources)]
    return QuadraticProblem(mats, rng.standard_normal(P) * 0.01)


def make_diagonal(seed=1, n_sources=2):
    rng = np.random.default_rng(seed)
    mats = [np.diag(rng.uniform(0.5, 2.0, P)) for _ in range(n_sources)]
    return QuadraticProblem(mats, rng.standard_normal(P) * 0.01)


def h0_of(prob):
    return sum(np.einsum("ij,ij->j", A, A) for A in prob.mats)


def closed_form(prob, reg):
    """Exact minimizer of the regularized quadratic and its objective."""
    h_phi = sum(A.T @ A for A in prob.mats)
    dtd = (reg.D.T @ reg.D).toarray()
    m_star = np.linalg.solve(h_phi + dtd,
                             h_phi @ prob.target + dtd @ reg.m0)
    phi = prob._phi(m_star)
    return m_star, float(phi.sum()) + reg.value(m_star)


STEP_CAP = 0.05


def run_any(name, prob, reg, budget):
    if name == "gogn":
        return run_gogn(prob, reg, budget, STEP_CAP)
    if name == "gncg":
        return run_gncg(prob, reg, h0_of(prob), budget)
    runner = {"nlcg": run_nlcg, "lbfgs": run_lbfgs}[name]
    return runner(prob, reg, h0_of(prob), budget, STEP_CAP)


CAP = LinesearchPolicy(initial_step_rule="cap", step_cap=STEP_CAP)
UNIT = LinesearchPolicy(initial_step_rule="unit")


class TestLinesearch:
    def test_unit_step_accepted_at_quadratic_minimizer(self):
        obj = lambda x: float((x[0] - 1.0) ** 2)
        alpha, x_new, f_new, evals = linesearch(
            obj, np.array([0.0]), np.array([1.0]), 1.0, -2.0, UNIT)
        assert alpha == 1.0
        assert evals == 1
        assert f_new == 0.0
        assert x_new[0] == 1.0

    def test_interpolation_lands_on_exact_minimizer_in_one_step(self):
        # first trial at alpha = 3 fails; the parabola through (0, 1, -2)
        # and (3, 4) has its minimum exactly at alpha = 1
        obj = lambda x: float((x[0] - 1.0) ** 2)
        policy = LinesearchPolicy(initial_step_rule="cap", step_cap=3.0)
        alpha, x_new, f_new, evals = linesearch(
            obj, np.array([0.0]), np.array([1.0]), 1.0, -2.0, policy)
        assert alpha == 1.0
        assert evals == 2
        assert f_new == 0.0

    def test_interpolation_formula_reference_value(self):
        # with F0 = 0, g0 = -1 and a failed unit trial at F = 1 the next
        # trial must sit at 1/(2 (1 - 0 + 1)) = 0.25
        seen = []

        def obj(x):
            seen.append(float(x[0]))
            return float(x[0] ** 2)

        linesearch(obj, np.array([0.0]), np.array([1.0]), 0.0, -1.0, UNIT)
        assert seen[0] == 1.0
        assert seen[1] == 0.25

    def test_interpolation_clamped_below_at_tenth(self):
        # enormous trial value pushes the parabola minimum to ~5e-7,
        # which must be clamped to 0.1 * alpha
        seen = []

        def obj(x):
            seen.append(float(x[0]))
            return 1e6 * float(x[0] ** 2)

        linesearch(obj, np.array([0.0]), np.array([1.0]), 0.0, -1.0, UNIT)
        assert seen[1] == pytest.approx(0.1, abs=0.0)

    def test_phase_layout_and_trial_cap(self):
        # a never-accepting objective: one initial trial, five interpolated
        # trials, four halvings, then give up
        seen = []

        def obj(x):
            seen.append(float(x[0]))
            return 1.0

        alpha, x_new, f_new, evals = linesearch(
            obj, np.array([0.0]), np.array([1.0]), 0.0, -1.0, UNIT)
        assert alpha == 0.0
        assert x_new is None
        assert evals == 10
        assert len(seen) == 10
        for i in (6, 7, 8):
            assert seen[i + 1] == pytest.approx(0.5 * seen[i], rel=1e-15)
        for i in range(1, 6):  # interpolation phase respects the clamp window
            assert 0.1 * seen[i - 1] <= seen[i] <= 0.9 * seen[i - 1]

    def test_rejects_uphill_direction(self):
        with pytest.raises(ValueError, match="descent"):
            linesearch(lambda x: 0.0, np.zeros(2), np.ones(2), 1.0, 0.0, UNIT)

    def test_cap_rule_uses_infinity_norm(self):
        assert CAP.initial_alpha(np.array([0.5, -2.0, 1.0])) == 0.025
        with pytest.raises(ValueError, match="zero direction"):
            CAP.initial_alpha(np.zeros(3))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="initial step rule"):
            LinesearchPolicy(initial_step_rule="bold")


class TestBudget:
    def test_counts_only_after_creation(self):
        prob = make_generic(seed=3)
        prob.ledger.count_forward(7)
        res = run_gogn(prob, make_reg(), 4, STEP_CAP)
        assert res.records[0].solves == 2 * prob.n_sources
        assert res.solves == prob.ledger.total - 7

    def test_validation(self):
        prob = make_generic(seed=3)
        with pytest.raises(ValueError, match="at least one"):
            run_gogn(prob, make_reg(), 0, STEP_CAP)


class TestCurvatureModel:
    def setup_method(self):
        self.reg = make_reg()
        rng = np.random.default_rng(5)
        self.h0 = rng.uniform(0.5, 3.0, P)
        self.curv = CurvatureModel(self.h0, self.reg)
        self.dense = np.diag(self.h0) + (self.reg.D.T @ self.reg.D).toarray()

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(P)
        np.testing.assert_allclose(self.curv.apply(v), self.dense @ v,
                                   rtol=1e-12)

    def test_solve_inverts_apply(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(P)
        x = self.curv.solve(b)
        assert np.linalg.norm(self.curv.apply(x) - b) <= 1e-10 * np.linalg.norm(b)

    def test_lambda_max_estimate_brackets_true_value(self):
        lam_true = np.linalg.eigvalsh(self.dense)[-1]
        est = self.curv.lambda_max()
        assert est <= lam_true * (1 + 1e-10)
        assert est >= 0.5 * lam_true

    def test_richardson_matches_eigenvector_closed_form(self):
        # on an eigenvector v with eigenvalue lam, n Richardson sweeps with
        # relaxation w give exactly (1 - (1 - w lam)^n) / lam * v
        lams, vecs = np.linalg.eigh(self.dense)
        omega = 1.0 / self.curv.lambda_max()
        n = GNCG_RICHARDSON_ITERS
        for idx in (0, P // 2, P - 1):
            lam, v = lams[idx], vecs[:, idx]
            expect = (1.0 - (1.0 - omega * lam) ** n) / lam * v
            got = self.curv.richardson(v)
            np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-13)

    def test_richardson_is_linear(self):
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(P), rng.standard_normal(P)
        combo = self.curv.richardson(2.5 * u - 0.5 * v)
        parts = 2.5 * self.curv.richardson(u) - 0.5 * self.curv.richardson(v)
        np.testing.assert_allclose(combo, parts, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_requires_positive_diagonal(self, value):
        with pytest.raises(ValueError, match="positive"):
            CurvatureModel(np.full(P, value), self.reg)


def desk_like_curvature(nx, ny, seed=0):
    """h0 spread over six decades below its peak and the auto regularizer
    weights, which put D^T D's top eigenvalue near 0.09 max(h0)."""
    h = 2400.0
    nu = 1.0 / (5.0 * h) ** 2
    reg = build(nx, ny, h, 0.3 / (nu + 8.0 / h**2), nu, np.zeros(nx * ny))
    h0 = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 0.0, nx * ny)
    return h0, reg


@pytest.mark.parametrize("nx, ny", [(64, 64), (13, 7), (8, 12)])
def test_curvature_solve_matches_lu_reference(nx, ny):
    h0, reg = desk_like_curvature(nx, ny)
    curv = CurvatureModel(h0, reg)
    rng = np.random.default_rng(17)
    for _ in range(3):
        b = rng.standard_normal(nx * ny)
        ref = curvature_solve_oracle(h0, reg, b)
        assert np.linalg.norm(curv.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("nx, ny", [(9, 8), (8, 9)])
def test_factor_bytes_are_counted_before_the_factor(nx, ny):
    h0, reg = desk_like_curvature(nx, ny)
    curv = CurvatureModel(h0, reg)
    curv.solve(np.ones(nx * ny))
    held = sum(inv.nbytes + (below.nbytes if below is not None else 0)
               for inv, below in curv._factor)
    assert optim.curvature_factor_nbytes(nx, ny) == held
    # desk's factor, 32 ny^2 (nx - 1) bytes for even nx
    assert optim.curvature_factor_nbytes(64, 64) == 8_257_536
    assert optim.curvature_factor_nbytes(1024, 64) == 134_086_656


def test_dropped_factor_returns_its_memory():
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm")
    page = os.sysconf("SC_PAGE_SIZE")

    def rss():
        return int(statm.read_text().split()[1]) * page

    # desk's factor is 125 blocks of 128 KiB, glibc's first mmap threshold.
    # Once a larger free has raised the threshold, blocks from malloc's
    # heap would stay resident under a later allocation.
    h0, reg = desk_like_curvature(64, 64)
    np.zeros(1 << 16)  # freed at once: 512 KiB
    curv = CurvatureModel(h0, reg)
    curv.solve(np.ones(h0.size))
    later = np.ones(25_000)
    held = rss()
    del curv
    assert held - rss() >= 0.9 * optim.curvature_factor_nbytes(64, 64)
    assert later.sum() == 25_000.0


def test_indefinite_matrix_fails_the_factor():
    # D^T D - 2 mu I has one negative eigenvalue, the constant mode's, so
    # every leading block is definite and a late pivot turns negative
    reg = build(13, 7, 2400.0, 0.37, 4.2e-9, np.zeros(91))
    bands = reg.normal_bands()
    bands[0] = bands[0] - 2.0 * reg.mu
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        optim.block_cholesky(bands, 2 * reg.ny)


def test_curvature_solve_bits_do_not_depend_on_blas_threads():
    script = """
import hashlib
import numpy as np
from gowave.optim import CurvatureModel
from gowave.regularizer import build
for n in (64, 128):
    h = 2400.0
    nu = 1.0 / (5.0 * h) ** 2
    reg = build(n, n, h, 0.3 / (nu + 8.0 / h**2), nu, np.zeros(n * n))
    rng = np.random.default_rng(18)
    curv = CurvatureModel(10.0 ** rng.uniform(-6.0, 0.0, n * n), reg)
    print(hashlib.sha256(curv.solve(rng.standard_normal(n * n)).tobytes()).hexdigest())
"""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        digests.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      check=True, capture_output=True,
                                      text=True).stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name, factored", [
    ("gncg", {}), ("nlcg", {"block_cholesky": 1}), ("gogn", {}),
    ("lbfgs", {"block_cholesky": 1})])
def test_runs_factor_only_what_they_solve_with(monkeypatch, name, factored):
    # gncg only applies the curvature model, and the regularizer solves in
    # its eigenbasis; nlcg and lbfgs factor the curvature model once, on
    # first use
    built = {}
    real = optim.block_cholesky

    def block_cholesky(*args):
        built["block_cholesky"] = built.get("block_cholesky", 0) + 1
        return real(*args)
    monkeypatch.setattr(optim, "block_cholesky", block_cholesky)
    prob = make_generic(seed=13)
    res = run_any(name, prob, make_reg(), 60)
    assert len(res.records) >= 3
    assert built == factored


class TestTwoLoop:
    def test_empty_memory_is_base_application(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal(P)
        out = two_loop_apply([], lambda q: 3.0 * q, g)
        np.testing.assert_allclose(out, 3.0 * g, rtol=1e-15)

    def test_secant_condition_on_latest_pair(self):
        # the quasi-Newton inverse must map the newest y exactly to its s
        rng = np.random.default_rng(10)
        A = rng.standard_normal((P, P))
        H = A @ A.T + np.eye(P)
        pairs = []
        for _ in range(6):
            s = rng.standard_normal(P)
            assert admit_curvature_pair(pairs, s, H @ s)
        s_last, y_last, _ = pairs[-1]
        out = two_loop_apply(pairs, lambda q: q.copy(), y_last)
        np.testing.assert_allclose(out, s_last, rtol=1e-11, atol=1e-13)

    def test_pair_admission_rules(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(P)
        pairs = []
        assert not admit_curvature_pair(pairs, s, -s)
        t = rng.standard_normal(P)
        y_perp = t - s * (np.dot(s, t) / np.dot(s, s))
        assert not admit_curvature_pair(pairs, s, y_perp)
        assert pairs == []
        y = 2.0 * s
        assert admit_curvature_pair(pairs, s, y)
        assert pairs[0][2] == pytest.approx(1.0 / (2.0 * np.dot(s, s)), rel=1e-15)


def assert_monotone(records):
    for a, b in zip(records, records[1:]):
        assert b.objective < a.objective


class TestConvergence:
    def test_nlcg_reaches_regularized_minimizer(self):
        prob = make_generic()
        reg = make_reg()
        m_star, f_star = closed_form(prob, reg)
        res = run_nlcg(prob, reg, h0_of(prob), 10**6, STEP_CAP)
        assert_monotone(res.records)
        assert res.records[-1].iter <= 60
        f0 = res.records[0].objective
        assert abs(res.records[-1].objective - f_star) <= 1e-9 * (f0 - f_star)
        assert np.linalg.norm(res.m_final - m_star) <= 1e-5

    def test_nlcg_first_step_is_exact_newton_when_curvature_model_is_exact(
            self, monkeypatch):
        # with a diagonal misfit Hessian the preconditioner equals the true
        # Hessian, so the first direction is the Newton step: m0 + p is the
        # minimizer
        prob = make_diagonal()
        twin = QuadraticProblem(prob.mats, prob.target)  # charges its own ledger
        reg = make_reg()
        seen = []

        def recording(objective, m, p, f0, g0, policy):
            seen.append((m.copy(), p.copy()))
            return linesearch(objective, m, p, f0, g0, policy)
        monkeypatch.setattr(optim, "linesearch", recording)
        run_nlcg(prob, reg, h0_of(prob), 60, STEP_CAP)

        def grad_norm(values):
            report = twin.misfit_and_gradients(ModelGrid(values, NX, NY))
            return np.linalg.norm(report.gradients.sum(axis=0) + reg.grad(values))
        m0, p = seen[0]
        assert grad_norm(m0 + p) <= 1e-12 * grad_norm(m0)

    def test_lbfgs_reaches_regularized_minimizer(self):
        prob = make_generic()
        reg = make_reg()
        m_star, f_star = closed_form(prob, reg)
        res = run_lbfgs(prob, reg, h0_of(prob), 10**6, STEP_CAP)
        assert_monotone(res.records)
        f0 = res.records[0].objective
        assert abs(res.records[-1].objective - f_star) <= 1e-8 * (f0 - f_star)
        assert np.linalg.norm(res.m_final - m_star) <= 1e-4

    def test_gncg_reaches_regularized_minimizer(self):
        prob = make_generic()
        reg = make_reg()
        m_star, f_star = closed_form(prob, reg)
        res = run_gncg(prob, reg, h0_of(prob), 10**6)
        assert_monotone(res.records)
        assert res.records[-1].iter <= 30
        f0 = res.records[0].objective
        assert abs(res.records[-1].objective - f_star) <= 1e-9 * (f0 - f_star)
        assert np.linalg.norm(res.m_final - m_star) <= 1e-8
        for rec in res.records[1:]:
            assert 0 <= int(rec.extra) <= 5

    def test_gncg_first_step_nearly_newton_on_diagonal_toy(self):
        prob = make_diagonal()
        res = run_gncg(prob, make_reg(), h0_of(prob), 60)
        r0, r1 = res.records[0], res.records[1]
        assert r1.grad_norm <= 1e-6 * r0.grad_norm
        assert r1.extra == "1"
        assert r1.step == 1.0

    def test_gogn_reaches_regularized_minimizer(self):
        prob = make_generic()
        reg = make_reg()
        m_star, f_star = closed_form(prob, reg)
        res = run_gogn(prob, reg, 10**6, STEP_CAP)
        assert_monotone(res.records)
        f0 = res.records[0].objective
        assert abs(res.records[-1].objective - f_star) <= 1e-8 * (f0 - f_star)
        assert np.linalg.norm(res.m_final - m_star) <= 1e-4
        for rec in res.records[1:]:
            assert float(rec.extra) > 0.0


    def test_gogn_measures_descent_with_the_total_gradient(self, monkeypatch):
        # g0 is the gradient the loop evaluated, dotted with the step
        prob = make_generic(seed=21)
        twin = QuadraticProblem(prob.mats, prob.target)  # charges its own ledger
        reg = make_reg()
        seen = []

        def recording(objective, m, p, f0, g0, policy):
            report = twin.misfit_and_gradients(ModelGrid(m, NX, NY))
            g = report.gradients.sum(axis=0) + reg.grad(m)
            seen.append((g0, float(np.dot(g, p))))
            return linesearch(objective, m, p, f0, g0, policy)
        monkeypatch.setattr(optim, "linesearch", recording)
        res = run_gogn(prob, reg, 100, STEP_CAP)
        assert len(seen) == len(res.records) - 1 >= 5
        for g0, expect in seen:
            assert g0 == expect


class TestAccountingAndBudget:
    def test_gogn_charges_two_solves_per_source_per_iteration(self):
        prob = make_generic(seed=3)
        res = run_gogn(prob, make_reg(), 200, STEP_CAP)
        n = prob.n_sources
        assert res.records[0].solves == 2 * n
        for a, b in zip(res.records, res.records[1:]):
            assert b.solves - a.solves == 2 * n + b.ls_evals * n

    def test_nlcg_charges_gradient_plus_linesearch(self):
        prob = make_generic(seed=4)
        res = run_nlcg(prob, make_reg(), h0_of(prob),
                       150, STEP_CAP)
        n = prob.n_sources
        assert res.records[0].solves == 2 * n
        for a, b in zip(res.records, res.records[1:]):
            assert b.solves - a.solves == 2 * n + b.ls_evals * n

    def test_lbfgs_charges_gradient_plus_linesearch(self):
        prob = make_generic(seed=5)
        res = run_lbfgs(prob, make_reg(), h0_of(prob),
                        150, STEP_CAP)
        n = prob.n_sources
        for a, b in zip(res.records, res.records[1:]):
            assert b.solves - a.solves == 2 * n + b.ls_evals * n

    def test_gncg_charges_hessian_products_too(self):
        prob = make_generic(seed=6)
        res = run_gncg(prob, make_reg(), h0_of(prob), 300)
        n = prob.n_sources
        assert res.records[0].solves == 2 * n
        for a, b in zip(res.records, res.records[1:]):
            inner = int(b.extra)
            assert b.solves - a.solves == 2 * n + 2 * n * inner + b.ls_evals * n

    @pytest.mark.parametrize("name", ["nlcg", "lbfgs", "gncg", "gogn"])
    def test_no_iteration_starts_past_budget(self, name):
        prob = make_generic(seed=7)
        budget = 25
        res = run_any(name, prob, make_reg(), budget)
        assert res.status == "budget"
        recs = res.records
        assert len(recs) >= 2
        for rec in recs[:-1]:  # state at the start of every launched iteration
            assert rec.solves < budget
        overshoot = recs[-1].solves - budget
        assert overshoot <= recs[-1].solves - recs[-2].solves

    @pytest.mark.parametrize("name", ["nlcg", "lbfgs", "gncg", "gogn"])
    def test_converges_immediately_at_exact_minimum(self, name):
        # target at the start point with matching regularizer reference:
        # the gradient is exactly zero and no solves are wasted on trials
        prob = QuadraticProblem(
            [np.eye(P)], np.zeros(P))
        res = run_any(name, prob, make_reg(), 100)
        assert res.status == "converged"
        assert len(res.records) == 1
        assert res.records[0].grad_norm == 0.0
        assert prob.ledger.total == 2 * prob.n_sources

    @pytest.mark.parametrize("name", ["nlcg", "lbfgs", "gncg", "gogn"])
    def test_stalls_when_no_decrease_exists(self, name):
        class FlatProblem(QuadraticProblem):
            def misfit_only(self, model):
                self.ledger.count_forward(self.n_sources)
                return 5.0, np.full(self.n_sources, 5.0 / self.n_sources)

            def misfit_and_gradients(self, model, keep_fields=False):
                self.ledger.count_forward(self.n_sources)
                self.ledger.count_adjoint(self.n_sources)
                grads = np.ones((self.n_sources, P))
                return MisfitReport(
                    phi=np.full(self.n_sources, 5.0 / self.n_sources),
                    gradients=grads, total=5.0,
                    fields=[object()] * self.n_sources if keep_fields else None)

        prob = FlatProblem([np.eye(P)] * 2, np.zeros(P))
        res = run_any(name, prob, make_reg(), 500)
        assert res.status == "stalled"
        assert len(res.records) == 1
        n = prob.n_sources
        assert prob.ledger.forward == n + 10 * n  # one gradient, ten trials
        # gncg also pays for its one Hessian product on the kept fields
        hessvecs = 1 if name == "gncg" else 0
        assert prob.ledger.born == hessvecs * n
        assert prob.ledger.adjoint == n + hessvecs * n

    @pytest.mark.parametrize("name", ["nlcg", "lbfgs", "gncg", "gogn"])
    def test_ascent_direction_stalls_before_any_trial(self, monkeypatch, name):
        # the solve each rule ends with is negated, so its first direction
        # points uphill; the loop stops before the linesearch spends a solve
        class IndefiniteHvp(QuadraticProblem):
            def gn_hessian_vec(self, model, v, fields=None):
                super().gn_hessian_vec(model, v, fields)
                return -1000.0 * v

        base = make_generic(seed=14)
        prob = (IndefiniteHvp if name == "gncg" else QuadraticProblem)(
            base.mats, base.target)
        reg = make_reg()

        def negated(solve):
            return lambda *args: -solve(*args)
        if name == "gogn":
            real = optim.step_woodbury

            def step_woodbury(*args):
                step = real(*args)
                return replace(step, p=-step.p)
            monkeypatch.setattr(optim, "step_woodbury", step_woodbury)
        elif name == "nlcg":
            monkeypatch.setattr(CurvatureModel, "solve", negated(CurvatureModel.solve))
        elif name == "lbfgs":
            # the smoothed gradient is ascent, and so is the fallback
            monkeypatch.setattr(optim, "two_loop_apply", lambda pairs, base, g: g)
            monkeypatch.setattr(reg, "solve_normal", negated(reg.solve_normal))
        else:
            monkeypatch.setattr(CurvatureModel, "richardson",
                                negated(CurvatureModel.richardson))
        res = run_any(name, prob, reg, 100)
        assert res.status == "stalled"
        assert len(res.records) == 1
        n = prob.n_sources
        # the gradient, and gncg's one Hessian product, which meets negative
        # curvature and falls back to the preconditioned gradient
        products = 1 if name == "gncg" else 0
        assert prob.ledger.forward == n
        assert prob.ledger.adjoint == n + products * n
        assert prob.ledger.born == products * n

    def test_gncg_negative_curvature_falls_back_to_preconditioned_gradient(self):
        class IndefiniteHvp(QuadraticProblem):
            def misfit_and_gradients(self, model, keep_fields=False):
                report = super().misfit_and_gradients(model, keep_fields)
                self.snapshots.append(self.ledger.snapshot())
                return report

            def gn_hessian_vec(self, model, v, fields=None):
                if fields is None:
                    self.ledger.count_forward(self.n_sources)
                self.ledger.count_born(self.n_sources)
                self.ledger.count_adjoint(self.n_sources)
                return -1000.0 * v

        prob = IndefiniteHvp(make_generic(seed=8).mats,
                             make_generic(seed=8).target)
        prob.snapshots = []
        res = run_gncg(prob, make_reg(), h0_of(prob), 40)
        assert len(res.records) >= 2
        # the first product has d^T H d <= 0; its solves are spent, so it counts
        assert res.records[1].extra == "1"
        assert res.records[1].objective < res.records[0].objective
        n = prob.n_sources
        # snapshots follow each gradient sweep, as the records do
        for rec, a, b in zip(res.records[1:], prob.snapshots, prob.snapshots[1:]):
            products = int(rec.extra)
            assert b.forward - a.forward == n * (1 + rec.ls_evals)
            assert b.adjoint - a.adjoint == n * (1 + products)
            assert b.born - a.born == n * products

    def test_model_error_is_nan_without_reference_model(self):
        prob = make_generic(seed=12)
        prob.m_true = None
        res = run_gogn(prob, make_reg(), 20, STEP_CAP)
        assert all(np.isnan(r.model_error) for r in res.records)
