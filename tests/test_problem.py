"""Tests for misfits, gradients, weighting, noise, and GN Hessian products."""

import weakref

import numpy as np
import pytest

import gowave.problem as problem_module
import gowave.wave as wave_module
from gowave.ledger import SolveLedger
from gowave.optim import run_gncg
from gowave.problem import (
    SIGMA_K,
    DataSet,
    FwiProblem,
    Geometry,
    MisfitReport,
    make_noisy_data,
    receiver_weights,
)
from gowave.regularizer import build
from gowave.wave import ModelGrid, SimGrid, SourceSpec


def make_grid(**kw):
    base = dict(nx=20, ny=20, h=2400.0, c0=3000.0, dt_record=1.0, nt=40,
                boundary_width=8, boundary_strength=0.25)
    base.update(kw)
    return SimGrid(**base)


def make_problem(seed=0, n_src=2, sigma=0.0, grid=None, m_true_scale=0.03,
                 many_receivers=False):
    """Small self-consistent instance: data generated from a random m_true.
    With many_receivers, 32 receivers along two rows in place of six."""
    rng = np.random.default_rng(seed)
    grid = grid or make_grid()
    h = grid.h
    srcs = [SourceSpec(position=(5 * h, 5 * h), frequency=0.1),
            SourceSpec(position=(14 * h, 13 * h), frequency=0.1),
            SourceSpec(position=(4 * h, 15 * h), frequency=0.1)][:n_src]
    cells = ([(ix, iy) for iy in (2, 17) for ix in range(2, 18)] if many_receivers
             else ((2, 2), (17, 3), (9, 17), (16, 16), (3, 10), (10, 3)))
    recv = [(ix * h, iy * h) for ix, iy in cells]
    geom = Geometry(sources=srcs, receivers=recv)
    m_true = ModelGrid(m_true_scale * rng.standard_normal(grid.nx * grid.ny),
                       grid.nx, grid.ny)
    gen = FwiProblem(grid, geom,
                     DataSet(observed=[np.zeros((len(recv), grid.nt))] * n_src,
                             weights=np.ones((len(recv), n_src))),
                     SolveLedger())
    clean = gen.simulate(m_true)
    w = receiver_weights(geom, clean)
    data = make_noisy_data(clean, sigma, seed=seed + 100, weights=w)
    return FwiProblem(grid, geom, data, SolveLedger(), m_true=m_true), clean


# -- weighting ---------------------------------------------------------------


def test_single_receiver_weight_closed_form():
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=[(1000.0, 2000.0)])
    trace = np.arange(1.0, 11.0).reshape(1, 10)
    w = receiver_weights(geom, [trace])
    k0 = 1.0 / (np.sqrt(2.0 * np.pi) * SIGMA_K)
    expected = 1.0 / (np.linalg.norm(trace) * np.sqrt(k0))
    assert w[0, 0] == pytest.approx(expected, rel=1e-12)


def test_coincident_receivers_with_equal_traces_get_equal_weights():
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)],
                    receivers=[(500.0, 500.0), (500.0, 500.0)])
    trace = np.ones((2, 16))
    w = receiver_weights(geom, [trace])
    assert w[0, 0] == pytest.approx(w[1, 0], rel=1e-14)


def test_weights_match_kernel_sum_formula_directly():
    rng = np.random.default_rng(1)
    recv = [(float(x), float(y)) for x, y in rng.uniform(0, 50e3, size=(5, 2))]
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=recv)
    traces = rng.standard_normal((5, 12))
    w = receiver_weights(geom, [traces])
    pos = np.asarray(recv)
    for j in range(5):
        dist = np.linalg.norm(pos[j] - pos, axis=1)
        kern = np.exp(-dist**2 / (2 * SIGMA_K**2)) / (np.sqrt(2 * np.pi) * SIGMA_K)
        expect = 1.0 / (np.linalg.norm(traces[j]) * np.sqrt(kern.mean()))
        assert w[j, 0] == pytest.approx(expect, rel=1e-12)


def test_duplicating_all_receivers_leaves_weights_unchanged():
    # the density factor is a kernel *mean* over receivers, so listing every
    # position twice changes nothing; density discounting is relative
    rng = np.random.default_rng(1)
    recv = [(float(x), float(y)) for x, y in rng.uniform(0, 50e3, size=(5, 2))]
    geom1 = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=recv)
    geom2 = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=recv + recv)
    traces = rng.standard_normal((5, 12))
    w1 = receiver_weights(geom1, [traces])
    w2 = receiver_weights(geom2, [np.vstack([traces, traces])])
    np.testing.assert_allclose(w2[:5, 0], w1[:, 0], rtol=1e-12)


def test_dense_patch_weighted_below_isolated_receiver():
    # three coincident receivers against one isolated; equal trace norms, so
    # only the density factor differs and the patch is discounted
    recv = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (400e3, 0.0)]
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=recv)
    traces = np.ones((4, 16))
    w = receiver_weights(geom, [traces])
    assert w[0, 0] < w[3, 0]


def test_zero_norm_trace_gets_zero_weight_and_warning():
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)],
                    receivers=[(0.0, 0.0), (9000.0, 0.0)])
    traces = np.vstack([np.zeros(8), np.ones(8)])
    with pytest.warns(UserWarning, match="zero-amplitude"):
        w = receiver_weights(geom, [traces])
    assert w[0, 0] == 0.0
    assert w[1, 0] > 0.0


# -- noise model -------------------------------------------------------------


def test_zero_sigma_reproduces_clean_data_exactly():
    rng = np.random.default_rng(2)
    clean = [rng.standard_normal((4, 32))]
    data = make_noisy_data(clean, 0.0, seed=5)
    np.testing.assert_array_equal(data.observed[0], clean[0])


def test_noise_is_deterministic_in_the_seed():
    rng = np.random.default_rng(3)
    clean = [rng.standard_normal((3, 64))]
    a = make_noisy_data(clean, 0.2, seed=42)
    b = make_noisy_data(clean, 0.2, seed=42)
    c = make_noisy_data(clean, 0.2, seed=43)
    np.testing.assert_array_equal(a.observed[0], b.observed[0])
    assert np.any(a.observed[0] != c.observed[0])


def test_noise_spectrum_contained_in_clean_band():
    n_t = 128
    t = np.arange(n_t)
    # two pure tones: spectrum is zero outside bins {3, 17} and mirrors
    clean_trace = np.cos(2 * np.pi * 3 * t / n_t) + 0.5 * np.sin(2 * np.pi * 17 * t / n_t)
    clean = [np.vstack([clean_trace, 2.0 * clean_trace])]
    data = make_noisy_data(clean, 0.3, seed=9)
    for j in range(2):
        eps = data.observed[0][j] - clean[0][j]
        spec_eps = np.abs(np.fft.fft(eps))
        spec_clean = np.abs(np.fft.fft(clean[0][j]))
        dead = spec_clean < 1e-9 * spec_clean.max()
        assert spec_eps[dead].max() <= 1e-12 * spec_eps.max()


def test_noise_energy_matches_analytic_expectation():
    # E||eps||^2 = sigma^2 (||s||^2 / 2 + (S_0^2 + S_{n/2}^2) / (2 n))
    # for real traces; averaged over many seeds this pins the convention
    # that sigma multiplies the raw filtered noise without renormalization
    rng = np.random.default_rng(4)
    n_t = 64
    s = rng.standard_normal(n_t)
    spec = np.fft.fft(s)
    sigma = 0.37
    expect = sigma**2 * (0.5 * np.dot(s, s)
                         + (spec[0].real**2 + spec[n_t // 2].real**2) / (2 * n_t))
    total = 0.0
    n_mc = 1000
    for seed in range(n_mc):
        data = make_noisy_data([s.reshape(1, -1)], sigma, seed=seed)
        eps = data.observed[0][0] - s
        total += float(np.dot(eps, eps))
    assert total / n_mc == pytest.approx(expect, rel=0.05)


def _noisy_by_trace(clean, sigma, seed):
    """Reference: the per-trace loop that drew and filtered one row at a time."""
    rng = np.random.default_rng(seed)
    observed = []
    for traces in clean:
        noisy = traces.copy()
        if sigma > 0:
            for j in range(traces.shape[0]):
                spectrum = np.fft.fft(traces[j])
                z = rng.standard_normal(traces.shape[1])
                noisy[j] += sigma * np.real(np.fft.ifft(z * spectrum))
        observed.append(noisy)
    return observed


@pytest.mark.parametrize("sigma", [0.05, 0.0])
def test_noise_equals_per_trace_reference_bitwise(sigma):
    rng = np.random.default_rng(11)
    clean = [rng.standard_normal(shape)
             for shape in ((16, 257), (16, 257), (5, 100), (1, 64))]
    data = make_noisy_data(clean, sigma, seed=17)
    for got, want in zip(data.observed, _noisy_by_trace(clean, sigma, 17)):
        np.testing.assert_array_equal(got, want)


def test_make_noisy_data_rejects_negative_sigma():
    with pytest.raises(ValueError):
        make_noisy_data([np.ones((1, 8))], -0.1, seed=0)


# -- misfit and gradients ----------------------------------------------------


def test_misfit_zero_at_true_model_with_clean_data():
    prob, _ = make_problem(sigma=0.0)
    report = prob.misfit_and_gradients(prob.m_true)
    scale = np.abs(prob.data.observed[0]).max() * prob.data.weights.max()
    assert np.all(report.phi <= 1e-20 * scale**2)
    assert np.linalg.norm(report.gradients) <= 1e-12 * scale**2


def test_misfit_only_matches_gradient_sweep_bitwise():
    prob, _ = make_problem(sigma=0.1)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    total, phi = prob.misfit_only(m)
    report = prob.misfit_and_gradients(m)
    np.testing.assert_array_equal(phi, report.phi)
    assert total == report.total
    assert report.total == pytest.approx(float(report.phi.sum()))
    assert np.all(report.phi >= 0)


def test_gradient_matches_finite_differences():
    prob, _ = make_problem(sigma=0.05, n_src=2)
    rng = np.random.default_rng(8)
    m = ModelGrid(0.01 * rng.standard_normal(prob.p), prob.grid.nx, prob.grid.ny)
    report = prob.misfit_and_gradients(m)
    g = report.gradients.sum(axis=0)
    v = rng.standard_normal(prob.p)
    eps = 1e-7
    fp, _ = prob.misfit_only(ModelGrid(m.values + eps * v, prob.grid.nx, prob.grid.ny))
    fm, _ = prob.misfit_only(ModelGrid(m.values - eps * v, prob.grid.nx, prob.grid.ny))
    fd = (fp - fm) / (2 * eps)
    assert float(np.dot(g, v)) == pytest.approx(fd, rel=1e-5)


def test_weighted_misfit_reduces_to_unweighted_for_unit_weights():
    prob, clean = make_problem(sigma=0.1)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    unit = DataSet(observed=prob.data.observed,
                   weights=np.ones_like(prob.data.weights))
    prob_unit = FwiProblem(prob.grid, prob.geom, unit, SolveLedger())
    total, _ = prob_unit.misfit_only(m)
    synth = prob_unit.simulate(m)
    by_hand = 0.5 * sum(
        float(np.sum((synth[i] - prob.data.observed[i]) ** 2))
        for i in range(prob.n_sources)
    )
    assert total == pytest.approx(by_hand, rel=1e-12)


def test_mirror_symmetric_acquisition_gives_mirror_seismograms():
    grid = make_grid(nx=25, ny=20)
    h = grid.h
    # sources and receivers mirror-symmetric about the x = 12 column
    srcs = [SourceSpec(position=(8 * h, 9 * h), frequency=0.1),
            SourceSpec(position=(16 * h, 9 * h), frequency=0.1)]
    recv = [(10 * h, 5 * h), (14 * h, 5 * h)]
    geom = Geometry(sources=srcs, receivers=recv)
    prob = FwiProblem(grid, geom,
                      DataSet(observed=[np.zeros((2, grid.nt))] * 2,
                              weights=np.ones((2, 2))),
                      SolveLedger())
    s = prob.simulate(ModelGrid.zeros(grid.nx, grid.ny))
    # source 0 at receiver 0 mirrors source 1 at receiver 1, and cross terms
    ref = np.linalg.norm(s[0][0])
    assert ref > 0
    assert np.linalg.norm(s[0][0] - s[1][1]) / ref < 1e-6
    assert np.linalg.norm(s[0][1] - s[1][0]) / ref < 1e-6


def test_simulate_reproduces_clean_data_bitwise():
    prob, clean = make_problem(sigma=0.2)
    again = prob.simulate(prob.m_true)
    for i in range(prob.n_sources):
        np.testing.assert_array_equal(again[i], clean[i])


# -- ledger accounting -------------------------------------------------------


def test_ledger_deltas_per_operation():
    prob, _ = make_problem(n_src=3, sigma=0.05)
    n = prob.n_sources
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)

    before = prob.ledger.snapshot()
    prob.simulate(m)
    assert prob.ledger.delta(before).total == n

    before = prob.ledger.snapshot()
    prob.misfit_only(m)
    assert prob.ledger.delta(before).total == n

    before = prob.ledger.snapshot()
    prob.misfit_and_gradients(m)
    delta = prob.ledger.delta(before)
    assert (delta.forward, delta.adjoint, delta.born) == (n, n, 0)

    before = prob.ledger.snapshot()
    prob.gn_hessian_vec(m, np.ones(prob.p))
    delta = prob.ledger.delta(before)
    assert (delta.forward, delta.adjoint, delta.born) == (n, n, n)

    report = prob.misfit_and_gradients(m, keep_fields=True)
    before = prob.ledger.snapshot()
    prob.gn_hessian_vec(m, np.ones(prob.p), fields=report.fields)
    delta = prob.ledger.delta(before)
    assert (delta.forward, delta.adjoint, delta.born) == (0, n, n)


# -- GN Hessian products -----------------------------------------------------


def test_gn_hessian_zero_vector():
    prob, _ = make_problem()
    out = prob.gn_hessian_vec(ModelGrid.zeros(prob.grid.nx, prob.grid.ny),
                              np.zeros(prob.p))
    assert np.all(out == 0.0)


def test_gn_hessian_symmetry_and_psd():
    prob, _ = make_problem(sigma=0.05)
    rng = np.random.default_rng(12)
    m = ModelGrid(0.01 * rng.standard_normal(prob.p), prob.grid.nx, prob.grid.ny)
    report = prob.misfit_and_gradients(m, keep_fields=True)
    u = rng.standard_normal(prob.p)
    v = rng.standard_normal(prob.p)
    hu = prob.gn_hessian_vec(m, u, fields=report.fields)
    hv = prob.gn_hessian_vec(m, v, fields=report.fields)
    lhs, rhs = float(np.dot(hu, v)), float(np.dot(u, hv))
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert float(np.dot(hv, v)) >= -1e-10 * float(np.dot(v, v))


def test_gn_hessian_with_and_without_cached_fields_agree_bitwise():
    prob, _ = make_problem(n_src=3, sigma=0.05)
    rng = np.random.default_rng(5)
    m = ModelGrid(0.01 * rng.standard_normal(prob.p), prob.grid.nx, prob.grid.ny)
    v = rng.standard_normal(prob.p)
    report = prob.misfit_and_gradients(m, keep_fields=True)
    assert np.array_equal(prob.gn_hessian_vec(m, v),
                          prob.gn_hessian_vec(m, v, fields=report.fields))


def test_kept_fields_hold_the_swept_model_itself():
    # the fields of one sweep share its read-only model; an equal model is
    # accepted and one an ulp away is refused before any solve is counted
    prob, _ = make_problem(n_src=3, sigma=0.05)
    rng = np.random.default_rng(6)
    m = ModelGrid(0.01 * rng.standard_normal(prob.p), prob.grid.nx, prob.grid.ny)
    v = rng.standard_normal(prob.p)
    fields = prob.misfit_and_gradients(m, keep_fields=True).fields
    assert all(fld.model is m for fld in fields)
    equal = ModelGrid(m.values, m.nx, m.ny)
    assert prob.gn_hessian_vec(equal, v, fields=fields).tobytes() == \
        prob.gn_hessian_vec(m, v, fields=fields).tobytes()
    nudged = m.values.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    before = prob.ledger.snapshot()
    with pytest.raises(ValueError, match="different model or grid"):
        prob.gn_hessian_vec(ModelGrid(nudged, m.nx, m.ny), v, fields=fields)
    assert prob.ledger.snapshot() == before


def test_diag_estimate_clamps_and_stays_positive():
    prob, _ = make_problem(sigma=0.0)
    diag = prob.diag_gn_estimate(ModelGrid.zeros(prob.grid.nx, prob.grid.ny))
    assert np.all(diag > 0)
    assert diag.min() >= 1e-6 * diag.max() * (1 - 1e-12)


def test_diag_estimate_near_uniform_under_uniform_illumination():
    grid = make_grid(nx=24, ny=24, nt=60, boundary_width=10)
    h = grid.h
    recv = [(ix * h, iy * h) for ix in range(0, 24, 2) for iy in range(0, 24, 2)]
    srcs = [SourceSpec(position=(x * h, y * h), frequency=0.1)
            for x, y in ((5, 5), (18, 5), (5, 18), (18, 18))]
    geom = Geometry(sources=srcs, receivers=recv)
    m0 = ModelGrid.zeros(24, 24)
    gen = FwiProblem(grid, geom,
                     DataSet(observed=[np.zeros((len(recv), grid.nt))] * 4,
                             weights=np.ones((len(recv), 4))),
                     SolveLedger())
    clean = gen.simulate(m0)
    data = make_noisy_data(clean, 0.0, 0, weights=receiver_weights(geom, clean))
    prob = FwiProblem(grid, geom, data, SolveLedger())
    diag = prob.diag_gn_estimate(m0).reshape(24, 24)
    interior = diag[6:-6, 6:-6]
    assert interior.max() / interior.min() <= 3.0


# -- kept wavefields ---------------------------------------------------------


@pytest.fixture()
def peak_fields(monkeypatch):
    """peak_fields(fn) runs fn and returns the most Wavefields returned by
    the problem module's forward_solve that were alive at one time."""
    live = [0, 0]  # alive now, most alive since measuring began
    solve = problem_module.forward_solve

    def release():
        live[0] -= 1

    def tracked(*args, **kwargs):
        traces, fld = solve(*args, **kwargs)
        if fld is not None:
            live[0] += 1
            live[1] = max(live[1], live[0])
            weakref.finalize(fld, release)
        return traces, fld

    monkeypatch.setattr(problem_module, "forward_solve", tracked)

    def measure(fn):
        live[1] = live[0]
        fn()
        return live[1]

    return measure


def test_hessian_product_without_cached_fields_keeps_one_at_a_time(peak_fields):
    prob, _ = make_problem(n_src=3, sigma=0.05)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    assert peak_fields(lambda: prob.gn_hessian_vec(m, np.ones(prob.p))) == 1


def test_gradient_sweep_keeps_one_field_at_a_time(peak_fields):
    prob, _ = make_problem(n_src=3, sigma=0.05)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    assert peak_fields(lambda: prob.misfit_and_gradients(m)) == 1


def test_gncg_never_holds_more_than_one_set_of_fields(peak_fields):
    prob, _ = make_problem(n_src=3, sigma=0.05)
    grid = prob.grid
    reg = build(grid.nx, grid.ny, grid.h, 1.0, 1.0 / (5 * grid.h) ** 2,
                np.zeros(prob.p))
    h0 = prob.diag_gn_estimate(ModelGrid.zeros(grid.nx, grid.ny))
    runs = []
    peak = peak_fields(lambda: runs.append(
        run_gncg(prob, reg, h0, 10)))
    assert len(runs[0].records) >= 2  # the second sweep ran after a step
    assert peak == prob.n_sources


def test_gncg_products_run_on_the_model_their_fields_hold(monkeypatch):
    # the run's iterate is the one ModelGrid its sweep's fields hold, and
    # each Hessian product is taken on it, not on a copy
    prob, _ = make_problem(n_src=3, sigma=0.05)
    grid = prob.grid
    reg = build(grid.nx, grid.ny, grid.h, 1.0, 1.0 / (5 * grid.h) ** 2,
                np.zeros(prob.p))
    h0 = prob.diag_gn_estimate(ModelGrid.zeros(grid.nx, grid.ny))
    shared = []
    born = problem_module.born_solve

    def recording(model, direction, source, receivers, grid, fld, ledger):
        shared.append(model is fld.model)
        return born(model, direction, source, receivers, grid, fld, ledger)
    monkeypatch.setattr(problem_module, "born_solve", recording)
    res = run_gncg(prob, reg, h0, 40)
    assert len(res.records) >= 2
    assert len(shared) >= 2 * prob.n_sources and all(shared)


@pytest.fixture()
def traced_solves(monkeypatch):
    """traced_solves(fn) runs fn and tracks the traces arrays that the
    problem module's forward_solve and born_solve return meanwhile. It
    returns one (kind, alive, residual) entry per forward or adjoint solve,
    taken as the solve starts: kind is "forward" or "adjoint", alive the ids
    of the tracked arrays alive then, and residual the id of the adjoint's
    residual argument (None for a forward solve)."""
    alive, log = set(), []
    forward = problem_module.forward_solve
    born = problem_module.born_solve
    adjoint = problem_module.adjoint_solve

    def track(traces):
        alive.add(id(traces))
        weakref.finalize(traces, alive.discard, id(traces))
        return traces

    def tracked_forward(*args, **kwargs):
        log.append(("forward", set(alive), None))
        traces, fld = forward(*args, **kwargs)
        return track(traces), fld

    def tracked_born(*args, **kwargs):
        return track(born(*args, **kwargs))

    def tracked_adjoint(model, residual, *args, **kwargs):
        log.append(("adjoint", set(alive), id(residual)))
        return adjoint(model, residual, *args, **kwargs)

    def trace(fn):
        monkeypatch.setattr(problem_module, "forward_solve", tracked_forward)
        monkeypatch.setattr(problem_module, "born_solve", tracked_born)
        monkeypatch.setattr(problem_module, "adjoint_solve", tracked_adjoint)
        del log[:]
        fn()
        monkeypatch.undo()
        return list(log)

    return trace


def test_sweeps_free_each_sources_traces_before_its_adjoint(traced_solves):
    # the residual is formed in the forward's traces, which die before the
    # adjoint starts; nothing of one source lives into the next forward solve
    prob, _ = make_problem(n_src=3, sigma=0.05, many_receivers=True)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    log = traced_solves(lambda: (prob.misfit_only(m), prob.misfit_and_gradients(m)))
    assert [kind for kind, _, _ in log] == ["forward"] * 3 + ["forward", "adjoint"] * 3
    assert all(not alive for _, alive, _ in log)


@pytest.mark.parametrize("cached", [False, True])
def test_hessian_product_holds_only_the_born_residual(traced_solves, cached):
    # the Born traces are weighted in place and are the adjoint's residual
    prob, _ = make_problem(n_src=3, sigma=0.05, many_receivers=True)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    fields = prob.misfit_and_gradients(m, keep_fields=True).fields if cached else None
    log = traced_solves(lambda: prob.gn_hessian_vec(m, np.ones(prob.p), fields=fields))
    adjoints = [(alive, residual) for kind, alive, residual in log if kind == "adjoint"]
    forwards = [alive for kind, alive, _ in log if kind == "forward"]
    assert len(adjoints) == prob.n_sources
    assert len(forwards) == (0 if cached else prob.n_sources)
    assert all(alive == {residual} for alive, residual in adjoints)
    assert all(not alive for alive in forwards)


def test_sweeps_leave_the_data_and_direction_unchanged():
    # residuals and Born traces are formed in place; the data never are
    prob, _ = make_problem(n_src=3, sigma=0.05)
    rng = np.random.default_rng(4)
    m = ModelGrid(0.01 * rng.standard_normal(prob.p), prob.grid.nx, prob.grid.ny)
    v = rng.standard_normal(prob.p)

    def inputs():
        return [o.tobytes() for o in prob.data.observed] + [
            prob.data.weights.tobytes(), v.tobytes()]

    before = inputs()
    prob.misfit_only(m)
    assert inputs() == before
    report = prob.misfit_and_gradients(m, keep_fields=True)
    assert inputs() == before
    prob.gn_hessian_vec(m, v)
    assert inputs() == before
    prob.gn_hessian_vec(m, v, fields=report.fields)
    assert inputs() == before


def test_kept_field_plan_is_built_once_per_field(monkeypatch):
    # the forward solve builds each kept field's slab plan; the adjoint and
    # Born solves that reuse the field read it from there
    prob, _ = make_problem(n_src=3, sigma=0.05)
    m = ModelGrid.zeros(prob.grid.nx, prob.grid.ny)
    calls = [0]
    slabs = wave_module._Workspace.slabs

    def counted(self, row):
        calls[0] += 1
        return slabs(self, row)

    monkeypatch.setattr(wave_module._Workspace, "slabs", counted)
    report = prob.misfit_and_gradients(m, keep_fields=True)
    assert calls[0] == prob.n_sources
    prob.gn_hessian_vec(m, np.ones(prob.p), fields=report.fields)
    assert calls[0] == prob.n_sources


# -- validation --------------------------------------------------------------


def test_geometry_requires_sources_and_receivers():
    with pytest.raises(ValueError):
        Geometry(sources=[], receivers=[(0.0, 0.0)])
    with pytest.raises(ValueError):
        Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=[])


def test_dataset_validates_weight_shape_and_values():
    obs = [np.zeros((3, 8))]
    with pytest.raises(ValueError):
        DataSet(observed=obs, weights=np.ones((2, 1)))
    with pytest.raises(ValueError):
        DataSet(observed=obs, weights=-np.ones((3, 1)))
    with pytest.raises(ValueError):
        DataSet(observed=obs, weights=np.full((3, 1), np.inf))


def test_problem_validates_data_shapes():
    grid = make_grid()
    geom = Geometry(sources=[SourceSpec((0.0, 0.0), 0.1)], receivers=[(0.0, 0.0)])
    bad = DataSet(observed=[np.zeros((1, grid.nt + 1))], weights=np.ones((1, 1)))
    with pytest.raises(ValueError):
        FwiProblem(grid, geom, bad, SolveLedger())
    two = Geometry(sources=geom.sources * 2, receivers=geom.receivers)
    one = DataSet(observed=[np.zeros((1, grid.nt))], weights=np.ones((1, 1)))
    with pytest.raises(ValueError, match="one seismogram per source"):
        FwiProblem(grid, two, one, SolveLedger())


def test_problem_rejects_seismograms_with_the_wrong_receiver_count():
    grid = make_grid()
    h = grid.h
    srcs = [SourceSpec((5 * h, 5 * h), 0.1), SourceSpec((14 * h, 13 * h), 0.1)]
    recv = [(2 * h, 2 * h), (17 * h, 3 * h), (9 * h, 17 * h)]
    one_row = DataSet(observed=[np.ones((1, grid.nt))], weights=np.ones((1, 1)))
    with pytest.raises(ValueError, match="expected"):
        FwiProblem(grid, Geometry(srcs[:1], recv), one_row, SolveLedger())
    # every source's seismogram is checked, not only the first
    short_second = DataSet(observed=[np.ones((3, grid.nt)), np.ones((2, grid.nt))],
                           weights=np.ones((3, 2)))
    with pytest.raises(ValueError, match="source 1"):
        FwiProblem(grid, Geometry(srcs, recv), short_second, SolveLedger())
