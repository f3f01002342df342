"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``acceptance criterion NN (...): PASS`` line per criterion as it
completes. Each test accumulates failure messages instead of asserting
mid-flight so the verdict line always prints.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gowave.harness as harness
from gowave.gogn import assemble, step_woodbury
from gowave.harness import ExperimentConfig, GeometrySpec, load_config, run_comparison
from gowave.ledger import SolveLedger
from gowave.optim import LinesearchPolicy, linesearch
from gowave.problem import (
    DataSet,
    FwiProblem,
    Geometry,
    MisfitReport,
    make_noisy_data,
    receiver_weights,
)
from gowave.regularizer import build
from gowave.wave import (
    ModelGrid,
    SimGrid,
    SourceSpec,
    adjoint_solve,
    born_solve,
    forward_solve,
)

from oracles import step_dense_oracle


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nacceptance criterion {num:02d} ({label}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# -- shared instances ----------------------------------------------------------


@pytest.fixture(scope="module")
def fwi32():
    """32x32 / 2 sources / 20 receivers / 100 samples, noisy data."""
    grid = SimGrid(nx=32, ny=32, h=2400.0, c0=3000.0, dt_record=1.0, nt=100,
                   boundary_width=10, boundary_strength=0.25)
    h = grid.h
    rng = np.random.default_rng(42)
    srcs = [SourceSpec((8 * h, 9 * h), 0.1), SourceSpec((23 * h, 21 * h), 0.1)]
    recv = [(float(ix * h), float(iy * h))
            for ix, iy in zip(rng.integers(2, 30, 20), rng.integers(2, 30, 20))]
    geom = Geometry(sources=srcs, receivers=recv)

    m_true = ModelGrid(0.03 * rng.standard_normal(grid.nx * grid.ny),
                       grid.nx, grid.ny)
    gen = FwiProblem(grid, geom,
                     DataSet(observed=[np.zeros((20, grid.nt))] * 2,
                             weights=np.ones((20, 2))), SolveLedger())
    clean = gen.simulate(m_true)
    data = make_noisy_data(clean, 0.05, seed=7, weights=receiver_weights(geom, clean))
    prob = FwiProblem(grid, geom, data, SolveLedger())
    m_eval = ModelGrid(0.02 * rng.standard_normal(grid.nx * grid.ny),
                       grid.nx, grid.ny)
    return SimpleNamespace(grid=grid, geom=geom, prob=prob, m_eval=m_eval)


def mini_cfg(**kw):
    """Small complete experiment, fast enough for boundary checks."""
    base = dict(nx=24, ny=24, nt=60, boundary_width=8,
                geometry=GeometrySpec(n_sources=2, n_receivers=12, seed=3),
                sigma=0.05, noise_seed=5, budget=100)
    base.update(kw)
    return ExperimentConfig(**base)


def synthetic_step_instance(seed, n, nx=10, ny=20):
    """Random well-scaled low-rank-plus-smoother instance (no PDEs)."""
    rng = np.random.default_rng(seed)
    p = nx * ny
    reg = build(nx, ny, 1.0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                rng.standard_normal(p))
    phi = rng.uniform(0.1, 3.0, size=n)
    grads = rng.standard_normal((n, p))
    m_k = reg.m0 + 0.3 * rng.standard_normal(p)
    report = MisfitReport(phi=phi, gradients=grads, total=float(phi.sum()))
    return reg, report, m_k


# -- 1, 2: solver correctness --------------------------------------------------


def test_criterion_01_gradient_matches_central_differences(fwi32):
    t0 = time.monotonic()
    prob, m_eval = fwi32.prob, fwi32.m_eval
    g = prob.misfit_and_gradients(m_eval).gradients.sum(axis=0)

    def f(values):
        return prob.misfit_only(ModelGrid(values, fwi32.grid.nx, fwi32.grid.ny))[0]

    eps = 1e-5
    rng = np.random.default_rng(5)
    failures = []
    for c in rng.choice(m_eval.p, size=10, replace=False):
        e = np.zeros(m_eval.p)
        e[c] = eps
        fd = (f(m_eval.values + e) - f(m_eval.values - e)) / (2 * eps)
        rel = abs(fd - g[c]) / max(abs(fd), abs(g[c]))
        if rel > 1e-5:
            failures.append(f"coordinate {c}: rel err {rel:.3e}")
    for k in range(3):
        v = rng.standard_normal(m_eval.p)
        v /= np.linalg.norm(v)
        fd = (f(m_eval.values + eps * v) - f(m_eval.values - eps * v)) / (2 * eps)
        rel = abs(fd - float(g @ v)) / abs(fd)
        if rel > 1e-5:
            failures.append(f"direction {k}: rel err {rel:.3e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(1, "adjoint gradient vs central differences", failures)


def test_criterion_02_born_adjoint_transpose_pair(fwi32):
    t0 = time.monotonic()
    grid, geom, m = fwi32.grid, fwi32.geom, fwi32.m_eval
    led = SolveLedger()
    fields = [forward_solve(m, src, geom.receivers, grid, led, keep_field=True)[1]
              for src in geom.sources]
    rng = np.random.default_rng(17)
    failures = []
    for i in range(20):
        src, fld = geom.sources[i % 2], fields[i % 2]
        v = rng.standard_normal(m.p)
        w = rng.standard_normal((geom.n_receivers, grid.nt))
        lhs = float(np.sum(born_solve(m, v, src, geom.receivers, grid, fld, led) * w))
        rhs = float(np.dot(v, adjoint_solve(m, w, fld, grid, led)))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        if rel > 1e-10:
            failures.append(f"probe {i}: rel mismatch {rel:.3e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(2, "linearized/adjoint transpose pair", failures)


# -- 3, 4, 5: gradient-only step -----------------------------------------------


def test_criterion_03_step_matches_dense_oracle_and_sherman_morrison():
    t0 = time.monotonic()
    failures = []
    for i in range(100):
        n = i % 8 + 1
        reg, report, m_k = synthetic_step_instance(1000 + i, n)
        J = assemble(report)
        pw = step_woodbury(J, m_k, reg)
        pd = step_dense_oracle(J, m_k, reg)
        rel = np.linalg.norm(pw.p - pd.p) / np.linalg.norm(pd.p)
        if rel > 1e-8:
            failures.append(f"instance {i} (n={n}): dense mismatch {rel:.3e}")
        if n == 1:
            dtd = (reg.D.T @ reg.D).toarray()
            a = np.linalg.inv(dtd)
            j = J.rows[0]
            grad = j * J.rho[0] + dtd @ (m_k - reg.m0)
            aj = a @ j
            hinv = a - np.outer(aj, aj) / (1.0 + float(j @ aj))
            expect = -hinv @ grad
            rel = np.linalg.norm(pw.p - expect) / np.linalg.norm(expect)
            if rel > 1e-10:
                failures.append(f"instance {i}: rank-one mismatch {rel:.3e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    _verdict(3, "low-rank step vs dense oracle", failures)


def test_criterion_04_step_construction_costs_zero_solves(monkeypatch):
    failures = []
    exp = harness.prepare_experiment(mini_cfg())
    prob = exp.problem()
    reg = exp.regularizer()
    n = prob.n_sources
    m = ModelGrid.zeros(exp.cfg.nx, exp.cfg.ny)

    before = prob.ledger.snapshot()
    report = prob.misfit_and_gradients(m)
    grad_delta = prob.ledger.delta(before)
    if grad_delta.total != 2 * n:
        failures.append(f"gradient sweep cost {grad_delta.total}, expected {2 * n}")
    if grad_delta.forward != n or grad_delta.adjoint != n or grad_delta.born != 0:
        failures.append(f"gradient sweep mix {grad_delta}, expected {n}F+{n}A+0B")

    before = prob.ledger.snapshot()
    step_woodbury(assemble(report), m.values, reg)
    step_delta = prob.ledger.delta(before).total
    if step_delta != 0:
        failures.append(f"assemble+step consumed {step_delta} solves, expected 0")

    # the same accounting is enforced on every harness run
    calls = []
    guard = harness._check_gradient_only_accounting
    monkeypatch.setattr(harness, "_check_gradient_only_accounting",
                        lambda result, ns: calls.append(ns) or guard(result, ns))
    harness.run_one(exp, "gogn")
    if not calls:
        failures.append("harness run did not invoke the accounting guard")
    _verdict(4, "zero extra solves per step, 2N per gradient", failures)


def test_criterion_05_direction_quality_bounds():
    t0 = time.monotonic()
    failures = []
    tol = 1e-9
    for seed in range(30, 38):
        n = 5 + seed % 4
        reg, report, m_k = synthetic_step_instance(seed, n, nx=8, ny=10)
        lam_nu_sq = reg.mu
        J = assemble(report)
        step = step_woodbury(J, m_k, reg)

        rows = J.rows[J.active]
        dtd = (reg.D.T @ reg.D).toarray()
        ev = np.linalg.eigvalsh(rows.T @ rows + dtd)
        big_m = float(np.linalg.eigvalsh(dtd)[-1])
        m_j = float(np.linalg.norm(rows @ rows.T, 2))
        if ev[0] < lam_nu_sq * (1.0 - tol):
            failures.append(f"seed {seed}: spectrum floor {ev[0]:.6e} < mu")
        if ev[-1] > (big_m + m_j) * (1.0 + tol):
            failures.append(f"seed {seed}: spectrum cap {ev[-1]:.6e} > M+M_J")

        grad = J.rows.T @ J.rho + reg.hess_vec(m_k - reg.m0)
        gnorm = float(np.linalg.norm(grad))
        dd = float(grad @ step.p)
        if not dd <= -gnorm**2 / (big_m + m_j) * (1.0 - tol):
            failures.append(f"seed {seed}: descent bound violated ({dd:.6e})")
        cos_theta = -dd / (np.linalg.norm(step.p) * gnorm)
        if cos_theta < lam_nu_sq / (big_m + m_j) * (1.0 - tol):
            failures.append(f"seed {seed}: angle bound violated ({cos_theta:.6e})")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    _verdict(5, "descent and angle bounds from dense spectra", failures)


# -- 6, 7: regularizer and noise -----------------------------------------------


def test_criterion_06_smoother_spd_floor_and_solve_round_trip():
    failures = []
    rng = np.random.default_rng(8)
    for lam, nu, h in ((1.3, 0.7, 1.0), (2.0, 0.05, 1.0), (0.4, 0.9, 2.5)):
        reg = build(8, 8, h, lam, nu, np.zeros(64))
        dense = (reg.D.T @ reg.D).toarray()
        asym = np.abs(dense - dense.T).max()
        if asym > 1e-12 * np.abs(dense).max():
            failures.append(f"(lam={lam},nu={nu}): not symmetric ({asym:.2e})")
        ev = np.linalg.eigvalsh(dense)
        if ev[0] <= 0:
            failures.append(f"(lam={lam},nu={nu}): not positive definite")
        if ev[0] < (lam * nu) ** 2 * (1.0 - 1e-9):
            failures.append(
                f"(lam={lam},nu={nu}): floor {ev[0]:.6e} < {(lam * nu) ** 2:.6e}")
        x = rng.standard_normal(64)
        rel = np.linalg.norm(reg.solve_normal(reg.hess_vec(x)) - x) / np.linalg.norm(x)
        if rel > 1e-9:
            failures.append(f"(lam={lam},nu={nu}): round trip rel {rel:.3e}")
        b = rng.standard_normal(64)
        rel = np.linalg.norm(reg.hess_vec(reg.solve_normal(b)) - b) / np.linalg.norm(b)
        if rel > 1e-9:
            failures.append(f"(lam={lam},nu={nu}): reverse round trip rel {rel:.3e}")
    _verdict(6, "smoother SPD floor and normal-equation solve", failures)


def test_criterion_07_noise_confined_to_clean_band():
    failures = []
    n_t = 128
    t = np.arange(n_t)
    tones = np.cos(2 * np.pi * 3 * t / n_t) + 0.5 * np.sin(2 * np.pi * 17 * t / n_t)

    rng = np.random.default_rng(23)
    spec = np.fft.fft(rng.standard_normal(n_t))
    keep = np.zeros(n_t, dtype=bool)
    keep[[2, 5, 9, n_t - 2, n_t - 5, n_t - 9]] = True  # conjugate-symmetric band
    bandlimited = np.real(np.fft.ifft(np.where(keep, spec, 0.0)))

    for sigma in (0.1, 0.3):
        for seed in (9, 77):
            clean = [np.vstack([tones, 2.0 * tones, bandlimited])]
            data = make_noisy_data(clean, sigma, seed=seed)
            for j in range(3):
                eps = data.observed[0][j] - clean[0][j]
                spec_eps = np.abs(np.fft.fft(eps))
                spec_clean = np.abs(np.fft.fft(clean[0][j]))
                dead = spec_clean < 1e-9 * spec_clean.max()
                if spec_eps[dead].max() > 1e-12 * spec_eps.max():
                    failures.append(
                        f"sigma={sigma} seed={seed} trace {j}: leakage "
                        f"{spec_eps[dead].max():.3e} vs max {spec_eps.max():.3e}")
    _verdict(7, "noise confined to the clean spectral band", failures)


# -- 8, 9: linesearch and budget protocol ----------------------------------------


def test_criterion_08_linesearch_protocol():
    failures = []

    # quadratic interpolation lands exactly on the minimizer in one step
    quad = lambda x: (x[0] - 1.0) ** 2
    policy = LinesearchPolicy(initial_step_rule="cap", step_cap=3.0)
    alpha, m_new, f_new, evals = linesearch(
        quad, np.zeros(1), np.ones(1), f0=1.0, g0=-2.0, policy=policy)
    if alpha != 1.0 or evals != 2:
        failures.append(f"interpolation gave alpha={alpha} in {evals} evals, "
                        "expected exactly 1.0 in 2")
    if f_new != 0.0 or m_new[0] != 1.0:
        failures.append(f"accepted point ({m_new}, {f_new}) is not the minimizer")

    # past the interpolation phase every rejection halves the step
    tried = []

    def never_accepts(x):
        tried.append(float(x[0]))
        return 2.0

    alpha, m_new, f_new, evals = linesearch(
        never_accepts, np.zeros(1), np.ones(1), f0=1.0, g0=-2.0,
        policy=LinesearchPolicy(initial_step_rule="cap", step_cap=3.0))
    if evals != 10 or len(tried) != 10:
        failures.append(f"stalled search used {evals} evals, expected exactly 10")
    if alpha != 0.0 or m_new is not None or f_new != 1.0:
        failures.append("stalled search did not return the no-step sentinel")
    for a, b in zip(tried[5:], tried[6:]):
        if b != 0.5 * a:
            failures.append(f"halving phase stepped {a} -> {b}, expected exact 0.5x")
    for a, b in zip(tried[:5], tried[1:6]):
        if not (0.1 * a <= b <= 0.9 * a):
            failures.append(f"interpolation phase left clamp window: {a} -> {b}")
    _verdict(8, "linesearch interpolation, halving, eval cap", failures)


def test_criterion_09_budget_iteration_boundaries(tmp_path):
    failures = []
    cfg = mini_cfg()  # budget = 100
    results = run_comparison(cfg, tmp_path)
    for name, res in results.items():
        if res is None:
            failures.append(f"{name}: run failed")
            continue
        solves = [r.solves for r in res.records]
        if any(b <= a for a, b in zip(solves, solves[1:])):
            failures.append(f"{name}: solve counts not strictly increasing")
        started_late = [s for s in solves[:-1] if s >= cfg.budget]
        if started_late:
            failures.append(
                f"{name}: iteration started at {started_late[0]} >= {cfg.budget}")
        overshoot = max(0, solves[-1] - cfg.budget)
        last_cost = solves[-1] - solves[-2] if len(solves) > 1 else solves[-1]
        if overshoot > last_cost:
            failures.append(f"{name}: overshoot {overshoot} exceeds last "
                            f"iteration cost {last_cost}")
    _verdict(9, "no iteration starts past the budget", failures)


# -- 10, 11: end-to-end comparison ----------------------------------------------


def test_criterion_10_desk_scale_model_error_comparison(tmp_path):
    t0 = time.monotonic()
    failures = []
    base = ExperimentConfig(
        geometry=GeometrySpec(kind="clustered", n_sources=4, n_receivers=50),
        sigma=0.1, budget=100,
    )
    wins = 0
    for seed in range(1, 11):
        results = run_comparison(replace(base, noise_seed=seed),
                                 tmp_path / f"seed{seed}")
        errs = {}
        for name, res in results.items():
            if res is None:
                failures.append(f"seed {seed}: {name} failed")
                errs[name] = float("inf")
                continue
            recs = res.records
            errs[name] = recs[-1].model_error
            if not all(b.objective < a.objective for a, b in zip(recs, recs[1:])):
                failures.append(f"seed {seed}: {name} objective not strictly "
                                "monotone")
        if errs["gogn"] <= errs["nlcg"] and errs["gogn"] <= errs["lbfgs"]:
            wins += 1
    if wins < 7:
        failures.append(f"gradient-only method won only {wins}/10 seeds")
    elapsed = time.monotonic() - t0
    if elapsed >= 900.0:
        failures.append(f"took {elapsed:.1f}s, limit 900s")
    _verdict(10, "desk-scale model-error comparison across noise seeds", failures)


def test_criterion_11_rerun_from_manifest_is_bitwise_identical(tmp_path):
    failures = []
    run_comparison(mini_cfg(budget=24), tmp_path / "orig")
    manifest_cfg = load_config(tmp_path / "orig" / "manifest.cfg")
    run_comparison(manifest_cfg, tmp_path / "a")
    run_comparison(manifest_cfg, tmp_path / "b")

    tracked = sorted(p.name for p in (tmp_path / "a").iterdir()
                     if p.suffix in (".csv", ".modl"))
    if not tracked:
        failures.append("no CSV or model artifacts produced")
    for other in ("b", "orig"):
        names = sorted(p.name for p in (tmp_path / other).iterdir()
                       if p.suffix in (".csv", ".modl"))
        if names != tracked:
            failures.append(f"{other}: artifact set differs: {names} vs {tracked}")
            continue
        for name in tracked:
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / other / name).read_bytes():
                failures.append(f"{other}/{name}: bytes differ")
    _verdict(11, "manifest rerun reproduces bitwise-identical artifacts", failures)
