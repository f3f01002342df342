"""Tests for the finite-difference wave solver and its adjoint machinery."""

import os
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import gowave.wave as wave
from gowave.ledger import LedgerSnapshot, SolveLedger
from gowave.wave import (
    ModelGrid,
    SimGrid,
    SolverBlowupError,
    SourceSpec,
    adjoint_solve,
    born_solve,
    cfl_substeps,
    forward_solve,
    ricker,
)


def small_grid(**kw):
    base = dict(nx=24, ny=20, h=2400.0, c0=3000.0, dt_record=1.0, nt=40,
                boundary_width=8, boundary_strength=0.25)
    base.update(kw)
    return SimGrid(**base)


def random_model(grid, rng, scale=0.05):
    vals = scale * rng.standard_normal(grid.nx * grid.ny)
    return ModelGrid(np.clip(vals, -0.4, 0.4), grid.nx, grid.ny)


def cells(grid, *pairs):
    return [(ix * grid.h, iy * grid.h) for ix, iy in pairs]


def kept_rows(fld):
    """A kept field's sigma^n on whole bands, (n_steps, nxp, nyp + _HALO):
    each step's slab, and +0.0 on the rows outside it."""
    ws = wave._Workspace(fld.model, fld.grid)
    spans, at = ws.check_field(fld)
    full = np.zeros((ws.n_steps, ws.shape[0] * ws.width))
    for n, span in enumerate(spans):
        full[n, span] = fld.scatter[at[n]:at[n + 1]]
    return full.reshape(ws.n_steps, ws.shape[0], ws.width)


# -- source wavelet ----------------------------------------------------------


def test_ricker_peak_and_symmetry():
    t = np.linspace(0.0, 30.0, 3001)
    w = ricker(t, 0.1, t0=15.0)
    assert w[1500] == pytest.approx(1.0)
    assert np.argmax(w) == 1500
    # even function of t - t0
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)


def test_ricker_zero_crossing():
    # the wavelet changes sign where 2 (pi f tau)^2 = 1
    f = 0.25
    tau = 1.0 / (np.pi * f * np.sqrt(2.0))
    assert ricker(tau, f) == pytest.approx(0.0, abs=1e-14)
    assert ricker(tau - 1e-3, f) > 0 > ricker(tau + 1e-3, f)


def test_ricker_rejects_bad_frequency():
    with pytest.raises(ValueError):
        ricker(0.0, -1.0)


# -- substep selection -------------------------------------------------------


def test_cfl_substeps_unit_when_already_stable():
    # c_max dt / (h S) = 3000 * 1 / (2400 * 0.5) * ... pick h large enough
    grid = small_grid(h=7000.0)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    # ratio = 3000 / 3500 < 1
    assert cfl_substeps(m, grid) == 1


def test_cfl_substeps_rounds_up():
    grid = small_grid(h=2400.0)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    m5 = ModelGrid(np.full(grid.nx * grid.ny, 0.05), grid.nx, grid.ny)
    # 3000 / 1200 = 2.5 -> 3; 3150 / 1200 = 2.625 -> 3
    assert cfl_substeps(m, grid) == 3
    assert cfl_substeps(m5, grid) == 3


def test_cfl_substeps_monotone_in_speed():
    grid = small_grid()
    prev = 0
    for mval in (0.0, 0.3, 0.8, 1.5):
        k = cfl_substeps(ModelGrid(np.full(grid.nx * grid.ny, mval), grid.nx, grid.ny), grid)
        assert k >= max(prev, 1)
        prev = k


# -- forward solve basics ----------------------------------------------------


def test_equidistant_receivers_match_on_homogeneous_model():
    grid = SimGrid(nx=33, ny=33, h=2400.0, c0=3000.0, dt_record=1.0, nt=60,
                   boundary_width=10, boundary_strength=0.25)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    src = SourceSpec(position=(16 * grid.h, 16 * grid.h), frequency=0.1)
    # mirror pair across the source row and a 90-degree rotation pair
    recv = cells(grid, (16 + 6, 16), (16 - 6, 16), (16, 16 + 6), (16, 16 - 6))
    traces, _ = forward_solve(m, src, recv, grid, SolveLedger())
    ref = np.linalg.norm(traces[0])
    assert ref > 0
    for j in range(1, 4):
        assert np.linalg.norm(traces[j] - traces[0]) / ref < 1e-6


def test_first_sample_is_zero_and_field_starts_at_rest():
    grid = small_grid()
    rng = np.random.default_rng(3)
    m = random_model(grid, rng)
    src = SourceSpec(position=(10 * grid.h, 9 * grid.h), frequency=0.1)
    traces, fld = forward_solve(m, src, cells(grid, (3, 4)), grid, SolveLedger(),
                                keep_field=True)
    assert np.all(traces[:, 0] == 0.0)
    # at rest the scattering source is the point source alone
    assert np.count_nonzero(kept_rows(fld)[0]) == 1


def test_causality_quiet_before_first_arrival():
    grid = SimGrid(nx=48, ny=48, h=2400.0, c0=3000.0, dt_record=1.0, nt=60,
                   boundary_width=12, boundary_strength=0.25)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    src = SourceSpec(position=(8 * grid.h, 24 * grid.h), frequency=0.1)
    recv = cells(grid, (40, 24))  # 32 cells away: 76.8 km, ~25.6 s travel time
    traces, _ = forward_solve(m, src, recv, grid, SolveLedger())
    peak = np.abs(traces).max()
    assert peak > 0
    # wavelet onset is ~t0 = 15 s; nothing physical can arrive before ~25 s
    assert np.abs(traces[0, :15]).max() < 1e-6 * peak


def test_sponge_absorbs_against_enlarged_domain_reference():
    # same physical experiment, once with the sponge and once inside a domain
    # large enough that wall reflections cannot reach the receiver in time;
    # everything arriving in the reference's quiet window is boundary leakage
    h, c0, f = 2400.0, 3000.0, 0.1
    nt = 100
    big = SimGrid(nx=201, ny=201, h=h, c0=c0, dt_record=1.0, nt=nt,
                  boundary_width=0, boundary_strength=0.0)
    src_b = SourceSpec(position=(100 * h, 100 * h), frequency=f)
    tr_b, _ = forward_solve(ModelGrid.zeros(big.nx, big.ny), src_b,
                            cells(big, (108, 100)), big, SolveLedger())
    peak = np.abs(tr_b).max()
    quiet = np.where(np.abs(tr_b[0]) < 1e-3 * peak)[0]
    quiet = quiet[quiet > np.argmax(np.abs(tr_b[0]))]
    assert len(quiet) > 20

    def late_time_ratio(bw, strength):
        small = SimGrid(nx=41, ny=41, h=h, c0=c0, dt_record=1.0, nt=nt,
                        boundary_width=bw, boundary_strength=strength)
        src = SourceSpec(position=(20 * h, 20 * h), frequency=f)
        tr, _ = forward_solve(ModelGrid.zeros(small.nx, small.ny), src,
                              cells(small, (28, 20)), small, SolveLedger())
        # identical stencil and step size, so the direct arrival matches
        # until sponge backscatter can travel back to the receiver (~31 s)
        np.testing.assert_allclose(tr[0, :30], tr_b[0, :30], atol=1e-9 * peak)
        return np.abs(tr[0, quiet]).max() / peak

    # a ~3-wavelength layer keeps late-time leakage under 1% of the direct peak
    assert late_time_ratio(40, 0.15) < 1e-2
    # the thinner default layer trades absorption for speed but stays small
    assert late_time_ratio(20, 0.25) < 5e-2


def test_blowup_guard_raises_with_diagnostic(monkeypatch):
    grid = small_grid(nt=120)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    src = SourceSpec(position=(10 * grid.h, 9 * grid.h), frequency=0.1)
    # force an unstable step by pretending a much looser CFL limit is fine
    monkeypatch.setattr(wave, "CFL_SAFETY", 50.0)
    with pytest.raises(SolverBlowupError, match="unstable"):
        forward_solve(m, src, cells(grid, (3, 4)), grid, SolveLedger())


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"),
                                        (1e101, "1e+101"), (-1e101, "1e+101"),
                                        (np.nextafter(1e100, np.inf), "1e+100")])
def test_guard_raises_on_non_finite_or_huge_entries(bad, shown):
    grid = small_grid()
    ws = wave._Workspace(ModelGrid.zeros(grid.nx, grid.ny), grid)
    # a sum of squares past the quick bound falls back to the exact test
    ws.guard(np.full(ws.operands(ws.field())[0].size, 1e99), 3, "field")
    field = ws.field()
    inside = ws.inside(ws.operands(field)[0])
    inside[5, 7] = -1e100  # the largest magnitude that still passes
    ws.guard(field, 3, "field")
    inside[6, 2] = bad
    with pytest.raises(SolverBlowupError, match=f"^field magnitude {re.escape(shown)} at .*unstable"):
        ws.guard(field, 3, "field")


# -- flat-band stencil -------------------------------------------------------


def laplacian_2d(u, h2):
    """Reference: the plain 2-D 4th-order stencil with a zero-Dirichlet exterior."""
    buf = np.zeros((u.shape[0] + 4, u.shape[1] + 4))
    buf[2:-2, 2:-2] = u
    c1 = 4.0 / 3.0
    c2 = -1.0 / 12.0
    out = (
        -5.0 * u
        + c1 * (buf[1:-3, 2:-2] + buf[3:-1, 2:-2] + buf[2:-2, 1:-3] + buf[2:-2, 3:-1])
        + c2 * (buf[:-4, 2:-2] + buf[4:, 2:-2] + buf[2:-2, :-4] + buf[2:-2, 4:])
    )
    out /= h2
    return out


def stencil_2d(u):
    """Reference: the march's P = 16 (N + S + W + E) - (NN + SS + WW + EE) and
    sigma = P - 60 u, on plain 2-D arrays with a zero-Dirichlet exterior."""
    buf = np.zeros((u.shape[0] + 4, u.shape[1] + 4))
    buf[2:-2, 2:-2] = u
    p = 16.0 * (buf[1:-3, 2:-2] + buf[3:-1, 2:-2] + buf[2:-2, 1:-3] + buf[2:-2, 3:-1])
    p = p - buf[:-4, 2:-2] - buf[4:, 2:-2] - buf[2:-2, :-4] - buf[2:-2, 4:]
    return p, p + -60.0 * u


@pytest.mark.parametrize("shape", [(13, 21), (30, 17)])
def test_band_stencil_and_sigma_equal_2d_formula_bitwise(shape):
    rng = np.random.default_rng(shape[0])
    u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    grid = SimGrid(nx=shape[0], ny=shape[1], h=2400.0, c0=3000.0, dt_record=1.0,
                   nt=4, boundary_width=0)
    ws = wave._Workspace(ModelGrid.zeros(*shape), grid)
    field = ws.field()
    ws.inside(ws.operands(field)[0])[...] = u
    ops = ws.operands(field)
    p = wave._stencil(ops, np.empty(ops[0].size))
    sigma = wave._sigma(ops[0], p, np.empty(p.size))
    p_ref, sigma_ref = stencil_2d(u)
    assert np.array_equal(ws.inside(p), p_ref)
    assert np.array_equal(ws.inside(sigma), sigma_ref)
    # sigma is 12 h^2 lap(u) up to rounding
    lap = laplacian_2d(u, grid.h**2)
    assert np.abs(ws.inside(sigma) / (12.0 * grid.h**2) - lap).max() <= \
        1e-13 * np.abs(u).max() / grid.h**2


def test_sweeps_leave_every_halo_entry_positive_zero(monkeypatch):
    made = []
    zero_field = wave._Workspace.field

    def recorded_field(self):
        made.append(zero_field(self))
        return made[-1]

    monkeypatch.setattr(wave._Workspace, "field", recorded_field)
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    assert len(made) == 2  # u^{n-1} and u^n of the forward march
    adjoint_solve(m, traces, fld, grid, led)
    born_solve(m, rng.standard_normal(m.p), src, recv, grid, fld, led)
    assert len(made) == 6
    nxp = grid.nx + 2 * grid.boundary_width
    for f in made:
        assert np.abs(f).max() > 0
        f2 = f.reshape(nxp + 4, -1)
        halo = np.ones(f2.shape, dtype=bool)
        halo[2:-2, :-2] = False
        assert np.all(f2[halo] == 0.0)
        assert not np.signbit(f2[halo]).any()


# -- adjoint and Born --------------------------------------------------------


def setup_problem(seed=7, **gridkw):
    rng = np.random.default_rng(seed)
    grid = small_grid(**gridkw)
    m = random_model(grid, rng)
    src = SourceSpec(position=(10 * grid.h, 9 * grid.h), frequency=0.1)
    recv = cells(grid, (3, 4), (20, 15), (5, 16))
    return rng, grid, m, src, recv


def reference_coefficients(model, grid):
    """(k, dt, v, a, b) of the unfolded step, on the padded 2-D grid."""
    k = cfl_substeps(model, grid)
    dt = grid.dt_record / k
    c = grid.c0 * (1.0 + model.as_2d())
    gamma = wave._damping_profile(grid)
    return (k, dt, np.pad(c * c, grid.boundary_width, mode="edge"),
            1.0 / (1.0 + gamma * dt), 1.0 - gamma * dt)


def forward_reference(model, src, recv, grid):
    """Reference: the unfolded forward step u^{n+1} = a (2 u^n - b u^{n-1}
    + dt^2 v (lap(u^n) - f^n)) on plain 2-D arrays. Returns the traces and
    each step's lap(u^n) - f^n."""
    k, dt, v, a, b = reference_coefficients(model, grid)
    bw = grid.boundary_width
    sx, sy = grid.snap_all([src.position])[0] + bw
    rx, ry = (grid.snap_all(recv) + bw).T
    f = ricker(dt * np.arange(k * (grid.nt - 1)), src.frequency, src.t0) / grid.h**2
    u_prev, u = np.zeros(v.shape), np.zeros(v.shape)
    traces, scatter = np.zeros((len(rx), grid.nt)), []
    for n in range(k * (grid.nt - 1)):
        rhs = laplacian_2d(u, grid.h**2)
        rhs[sx, sy] -= f[n]
        scatter.append(rhs)
        u_prev, u = u, a * (2.0 * u - b * u_prev + dt**2 * v * rhs)
        if (n + 1) % k == 0:
            traces[:, (n + 1) // k] = u[rx, ry]
    return traces, np.array(scatter)


def born_reference(model, direction, scatter, recv, grid):
    """Reference: the unfolded Born step, driven by dt^2 dv scatter[n], where
    scatter[n] = lap(u^n) - f^n comes from forward_reference."""
    k, dt, v, a, b = reference_coefficients(model, grid)
    bw = grid.boundary_width
    rx, ry = (grid.snap_all(recv) + bw).T
    dv = np.pad(2.0 * grid.c0**2 * (1.0 + model.as_2d())
                * direction.reshape(model.nx, model.ny), bw, mode="edge")
    du_prev, du = np.zeros(v.shape), np.zeros(v.shape)
    traces = np.zeros((len(rx), grid.nt))
    for n in range(k * (grid.nt - 1)):
        rhs = laplacian_2d(du, grid.h**2)
        du_prev, du = du, a * (2.0 * du - b * du_prev + dt**2 * v * rhs
                               + dt**2 * dv * scatter[n])
        if (n + 1) % k == 0:
            traces[:, (n + 1) // k] = du[rx, ry]
    return traces


@pytest.mark.parametrize("gridkw", [{}, {"boundary_width": 0}])
def test_forward_and_born_match_unfolded_reference_steps(gridkw):
    rng, grid, m, src, recv = setup_problem(seed=19, **gridkw)
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    ref, scatter = forward_reference(m, src, recv, grid)
    assert np.linalg.norm(traces - ref) <= 1e-13 * np.linalg.norm(ref)
    # the kept rows hold sigma = 12 h^2 (lap(u^n) - f^n)
    kept = kept_rows(fld)[:, :, :-wave._HALO] / (12.0 * grid.h**2)
    assert np.linalg.norm(kept - scatter) <= 1e-13 * np.linalg.norm(scatter)
    direction = rng.standard_normal(m.p)
    born = born_solve(m, direction, src, recv, grid, fld, led)
    born_ref = born_reference(m, direction, scatter, recv, grid)
    assert np.linalg.norm(born - born_ref) <= 1e-13 * np.linalg.norm(born_ref)


def adjoint_reference(model, q, fld, grid):
    """Reference: the transpose scheme stepped on lambda itself, on plain
    2-D arrays, in the operation order of the original adjoint loop. The
    kept rows hold sigma = 12 h^2 (lap(u^n) - f^n), so it reads
    sigma / (12 h^2)."""
    bw = grid.boundary_width
    k, dt, v, a, b = reference_coefficients(model, grid)
    rx, ry = fld.receiver_cells.T
    kept = kept_rows(fld)[:, :, :-wave._HALO] / (12.0 * grid.h**2)
    lam_next, lam_next2, gv = np.zeros(v.shape), np.zeros(v.shape), np.zeros(v.shape)
    for n in range(k * (grid.nt - 1), 0, -1):
        # lambda^n = 2 a lambda^{n+1} + dt^2 lap(a v lambda^{n+1}) - a b lambda^{n+2}
        lam = (2.0 * a * lam_next + dt**2 * laplacian_2d(a * v * lam_next, grid.h**2)
               - a * b * lam_next2)
        if n % k == 0:
            np.add.at(lam, (rx, ry), q[:, n // k])
        gv += dt**2 * a * lam * kept[n - 1]
        lam_next2, lam_next = lam_next, lam
    return (2.0 * grid.c0**2 * (1.0 + model.as_2d()) * wave._fold_edge(gv, bw)).ravel()


@pytest.mark.parametrize("gridkw, extra_recv", [({}, ()), ({"boundary_width": 0}, ()),
                                                ({}, ((20, 15),))])
def test_adjoint_matches_reference_transpose_loop(gridkw, extra_recv):
    rng, grid, m, src, recv = setup_problem(seed=17, **gridkw)
    recv += cells(grid, *extra_recv)  # a duplicate receiver injects twice
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    assert len(kept_rows(fld)) == 3 * (grid.nt - 1)  # three substeps
    q = rng.standard_normal(traces.shape)
    ref = adjoint_reference(m, q, fld, grid)
    g = adjoint_solve(m, q, fld, grid, led)
    assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref)


def test_born_adjoint_transpose_pair():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    for _ in range(8):
        v = rng.standard_normal(m.p)
        w = rng.standard_normal(traces.shape)
        lhs = float(np.sum(born_solve(m, v, src, recv, grid, fld, led) * w))
        rhs = float(np.dot(v, adjoint_solve(m, w, fld, grid, led)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_born_matches_forward_difference():
    rng, grid, m, src, recv = setup_problem(seed=11)
    led = SolveLedger()
    _, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    v = rng.standard_normal(m.p)
    eps = 1e-6
    tp, _ = forward_solve(ModelGrid(m.values + eps * v, grid.nx, grid.ny),
                          src, recv, grid, led)
    tm, _ = forward_solve(ModelGrid(m.values - eps * v, grid.nx, grid.ny),
                          src, recv, grid, led)
    fd = (tp - tm) / (2 * eps)
    jv = born_solve(m, v, src, recv, grid, fld, led)
    assert np.linalg.norm(fd - jv) / np.linalg.norm(fd) < 1e-7


def test_adjoint_gradient_matches_finite_differences():
    rng, grid, m, src, recv = setup_problem(seed=13)
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    d_obs = traces + 0.1 * np.abs(traces).max() * rng.standard_normal(traces.shape)

    def misfit(values):
        t, _ = forward_solve(ModelGrid(values, grid.nx, grid.ny), src, recv,
                             grid, led)
        return 0.5 * float(np.sum((t - d_obs) ** 2))

    g = adjoint_solve(m, traces - d_obs, fld, grid, led)
    v = rng.standard_normal(m.p)
    eps = 1e-7
    fd = (misfit(m.values + eps * v) - misfit(m.values - eps * v)) / (2 * eps)
    assert abs(fd - float(np.dot(g, v))) / abs(fd) < 1e-5


def test_solver_calls_count_on_the_ledger():
    _, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    assert led.snapshot().forward == 1
    adjoint_solve(m, traces, fld, grid, led)
    assert led.snapshot().adjoint == 1
    born_solve(m, np.zeros(m.p), src, recv, grid, fld, led)
    assert led.snapshot().born == 1
    assert led.total == 3


def test_adjoint_rejects_wrong_trace_shape():
    _, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    with pytest.raises(ValueError):
        adjoint_solve(m, traces[:, :-1], fld, grid, led)
    with pytest.raises(ValueError):
        adjoint_solve(m, traces[:-1], fld, grid, led)


def test_born_and_forward_reject_other_shapes():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    _, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    before = led.snapshot()
    with pytest.raises(ValueError, match=f"expected {m.p}"):
        born_solve(m, rng.standard_normal(m.p + 1), src, recv, grid, fld, led)
    wide = ModelGrid(np.zeros((grid.nx + 1) * grid.ny), grid.nx + 1, grid.ny)
    with pytest.raises(ValueError, match="does not match the simulation grid"):
        forward_solve(wide, src, recv, grid, led)
    assert led.snapshot() == before


def test_adjoint_guard_raises_on_non_finite_field():
    _, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    # 1e160 passes float64 but its square does not: the guard's sum of
    # squares overflows, and that must end in the error, not a warning
    for bad in (np.nan, 1e160):
        resid = traces.copy()
        resid[1, grid.nt // 2] = bad
        with pytest.raises(SolverBlowupError, match="unstable"):
            adjoint_solve(m, resid, fld, grid, led)
    assert led.snapshot().adjoint == 0


def test_born_guard_raises_on_non_finite_direction():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    _, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    direction = rng.standard_normal(m.p)
    direction[37] = np.nan
    with pytest.raises(SolverBlowupError, match="unstable"):
        born_solve(m, direction, src, recv, grid, fld, led)
    assert led.snapshot().born == 0


def test_adjoint_rejects_mismatched_field():
    _, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    # a model fast enough to change the substep count invalidates the field
    m_fast = ModelGrid(np.full(m.p, 1.5), grid.nx, grid.ny)
    with pytest.raises(ValueError):
        adjoint_solve(m_fast, traces, fld, grid, led)
    assert led.snapshot().adjoint == 0


def test_field_kept_on_another_model_with_equal_substeps_is_refused():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    other = ModelGrid(m.values - 0.05, grid.nx, grid.ny)
    assert cfl_substeps(other, grid) == cfl_substeps(m, grid)
    before = led.snapshot()
    with pytest.raises(ValueError, match="different model or grid"):
        adjoint_solve(other, traces, fld, grid, led)
    with pytest.raises(ValueError, match="different model or grid"):
        born_solve(other, rng.standard_normal(m.p), src, recv, grid, fld, led)
    # the field holds its own copy, so editing the solved model in place
    # does not make the field pass for the edited one
    m.values -= 0.05
    with pytest.raises(ValueError, match="different model or grid"):
        adjoint_solve(m, traces, fld, grid, led)
    # a grid of the same shape and steps but another sponge or speed is
    # refused too, and so is the solved grid edited in place
    for other_grid in (replace(grid, boundary_strength=2.0), replace(grid, c0=2950.0)):
        assert cfl_substeps(fld.model, other_grid) == cfl_substeps(fld.model, grid)
        with pytest.raises(ValueError, match="different model or grid"):
            adjoint_solve(fld.model, traces, fld, other_grid, led)
        with pytest.raises(ValueError, match="different model or grid"):
            born_solve(fld.model, rng.standard_normal(m.p), src, recv, other_grid,
                       fld, led)
    grid.boundary_strength = 2.0
    with pytest.raises(ValueError, match="different model or grid"):
        adjoint_solve(fld.model, traces, fld, grid, led)
    assert led.snapshot() == before


def test_born_refuses_receivers_other_than_the_fields():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    _, fld = forward_solve(m, src, recv[:2], grid, led, keep_field=True)
    before = led.snapshot()
    direction = rng.standard_normal(m.p)
    for other in (recv, recv[1::-1], cells(grid, (3, 4), (20, 16))):
        with pytest.raises(ValueError, match="receivers differ"):
            born_solve(m, direction, src, other, grid, fld, led)
    assert led.snapshot() == before
    assert born_solve(m, direction, src, recv[:2], grid, fld, led).shape == (2, grid.nt)


def test_wavefield_validates_snapshot_count():
    rng, grid, m, src, recv = setup_problem()
    led = SolveLedger()
    traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
    q, direction = rng.standard_normal(traces.shape), rng.standard_normal(m.p)
    want = adjoint_solve(m, q, fld, grid, SolveLedger())
    bw = grid.boundary_width
    width = grid.ny + 2 * bw + wave._HALO
    row, col = divmod(fld.cell, width)
    assert (row, col) == (10 + bw, 9 + bw)
    spans, at = fld.plan
    before = led.snapshot()
    # a plan one step short, or one whose slabs run past the scatter by an
    # entry or a band row, is refused before any solve is counted
    for bad in (replace(fld, plan=(spans[:-1], at[:-1])),
                replace(fld, scatter=fld.scatter[:-1]),
                replace(fld, scatter=fld.scatter[:-width])):
        with pytest.raises(ValueError, match="different model or grid"):
            adjoint_solve(m, q, bad, grid, led)
        with pytest.raises(ValueError, match="different model or grid"):
            born_solve(m, direction, src, recv, grid, bad, led)
    # Born refuses a field kept for another source: the mirrored row, with
    # the same slab total, or one cell away
    mirrored = replace(fld, cell=(grid.nx + 2 * bw - 1 - row) * width + col)
    with pytest.raises(ValueError, match="source differs"):
        born_solve(m, direction, src, recv, grid, mirrored, led)
    for ix, iy in ((10, 10), (11, 9)):
        near = SourceSpec(position=cells(grid, (ix, iy))[0], frequency=0.1)
        with pytest.raises(ValueError, match="source differs"):
            born_solve(m, direction, near, recv, grid, fld, led)
    assert led.snapshot() == before
    # the adjoint reads the kept plan, not the cell, so the mirrored field
    # gives the true gradient
    assert adjoint_solve(m, q, mirrored, grid, led).tobytes() == want.tobytes()
    assert led.delta(before) == LedgerSnapshot(0, 1, 0)
    with pytest.raises(FrozenInstanceError):
        fld.cell = row * width


@pytest.mark.parametrize("gridkw, src_cell, k", [
    ({"dt_record": 0.4}, (10, 9), 2),
    ({"boundary_width": 0}, (0, 9), 3),
    ({"dt_record": 2.0}, (17, 3), 6),
])
def test_sigma_is_zero_beyond_two_rows_per_step(gridkw, src_cell, k):
    # the bound the kept slabs rest on, on the reference's whole rows: the
    # stencil reaches two rows per step, and no further
    _, grid, m, _, recv = setup_problem(**gridkw)
    assert cfl_substeps(m, grid) == k
    src = SourceSpec(position=cells(grid, src_cell)[0], frequency=0.1)
    _, scatter = forward_reference(m, src, recv, grid)
    r = src_cell[0] + grid.boundary_width
    dist = np.abs(np.arange(scatter.shape[1]) - r)
    for n, sigma in enumerate(scatter):
        assert np.all(sigma[dist > 2 * n] == 0.0)
        for edge in (r - 2 * n, r + 2 * n):
            if 0 <= edge < len(dist):
                assert np.any(sigma[edge] != 0.0)


@pytest.mark.parametrize("gridkw, src_cell", [({}, (10, 9)), ({"boundary_width": 0}, (0, 9)),
                                               ({"dt_record": 2.0}, (23, 19))])
def test_slabs_drop_only_zeros(monkeypatch, gridkw, src_cell):
    # the same solves with every step kept on its whole band: the same kept
    # cells, traces and gradient, bit for bit
    rng, grid, m, _, recv = setup_problem(**gridkw)
    src = SourceSpec(position=cells(grid, src_cell)[0], frequency=0.1)
    recv += cells(grid, (20, 15))  # a duplicate receiver
    q, direction = rng.standard_normal((len(recv), grid.nt)), rng.standard_normal(m.p)

    def solves():
        led = SolveLedger()
        traces, fld = forward_solve(m, src, recv, grid, led, keep_field=True)
        return (kept_rows(fld)[:, :, :-wave._HALO], traces,
                adjoint_solve(m, q, fld, grid, led),
                born_solve(m, direction, src, recv, grid, fld, led))

    def whole_bands(self, row):
        size = self.shape[0] * self.width
        return [slice(0, size)] * self.n_steps, [n * size for n in range(self.n_steps + 1)]

    slabbed = solves()
    monkeypatch.setattr(wave._Workspace, "slabs", whole_bands)
    for got, want in zip(slabbed, solves()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gridkw, k", [({}, 3), ({"boundary_width": 0}, 3),
                                        ({"dt_record": 0.4}, 1),
                                        ({"dt_record": 2.0}, 5)])
def test_kept_field_bytes_is_the_kept_allocation(gridkw, k):
    # a kept field holds each step's slab; the load-time bound reads
    # kept_field_bytes, never an array, so that must bound the allocation
    grid = small_grid(**gridkw)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    assert cfl_substeps(m, grid) == k
    src = SourceSpec(position=(10 * grid.h, 9 * grid.h), frequency=0.1)
    _, fld = forward_solve(m, src, cells(grid, (3, 4)), grid, SolveLedger(),
                           keep_field=True)
    bw = grid.boundary_width
    nxp, r = grid.nx + 2 * bw, 10 + bw
    rows = sum(min(nxp, r + 2 * n + 1) - max(0, r - 2 * n)
               for n in range(k * (grid.nt - 1)))
    assert fld.scatter.nbytes == rows * (grid.ny + 2 * bw + 2) * 8
    assert fld.scatter.nbytes <= grid.kept_field_bytes()


def test_dropped_kept_fields_return_their_memory():
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm")
    page = os.sysconf("SC_PAGE_SIZE")

    def rss():
        return int(statm.read_text().split()[1]) * page

    # desk size: 149 steps of at most 104 band rows of 106, 12.0 MB per
    # field with the source mid-band (91% of the whole bands' 13.1 MB); in
    # malloc's heap the second field would keep its pages after the first
    # had raised the mmap threshold
    grid = SimGrid(nx=64, ny=64, h=8000.0, c0=3150.0, dt_record=1.0, nt=150)
    m = ModelGrid.zeros(grid.nx, grid.ny)
    src = SourceSpec(position=(32 * grid.h, 32 * grid.h), frequency=0.1)
    for _ in range(2):
        _, fld = forward_solve(m, src, cells(grid, (8, 8)), grid, SolveLedger(),
                               keep_field=True)
        nbytes = fld.scatter.nbytes
        held = rss()
        del fld
        assert held - rss() >= 0.9 * nbytes


# -- type validation ---------------------------------------------------------


def test_simgrid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        small_grid(nx=4)
    with pytest.raises(ValueError):
        small_grid(h=-1.0)
    with pytest.raises(ValueError):
        small_grid(nt=1)
    with pytest.raises(ValueError, match="recording interval"):
        small_grid(dt_record=0.0)
    with pytest.raises(ValueError):
        small_grid(boundary_width=-2)
    with pytest.raises(ValueError, match="boundary strength"):
        small_grid(boundary_strength=-5.0)
    small_grid(boundary_strength=0.0)
    for c0 in (0.0, -3000.0):
        with pytest.raises(ValueError, match="c0"):
            small_grid(c0=c0)


def test_modelgrid_rejects_bad_values():
    with pytest.raises(ValueError):
        ModelGrid(np.zeros(10), 4, 4)
    with pytest.raises(ValueError):
        ModelGrid(np.full(16, np.nan), 4, 4)
    with pytest.raises(ValueError):
        ModelGrid(np.full(16, -1.0), 4, 4)


def test_source_outside_domain_rejected():
    grid = small_grid()
    src = SourceSpec(position=(-5.0, 0.0), frequency=0.1)
    with pytest.raises(ValueError):
        forward_solve(ModelGrid.zeros(grid.nx, grid.ny), src, [], grid, SolveLedger())


def config_grid(**kw):
    # the grid of the config tests' tiny_config
    base = dict(nx=20, ny=20, h=8000.0, c0=3150.0, dt_record=1.0, nt=50,
                boundary_width=8)
    base.update(kw)
    return SimGrid(**base)


@pytest.mark.parametrize("gridkw, frequency, shown", [
    (dict(h=1e155), 0.1, "grid.h = 1e+155"),
    (dict(c0=1e-300, dt_record=1e160), 0.1, "grid.dt = 1e+160"),
    (dict(dt_record=1e-300), 0.1, "grid.dt = 1e-300"),
    (dict(c0=1e-300), 0.1, "grid.c0 = 1e-300"),
    (dict(h=float("nan")), 0.1, "grid.h = nan"),
    (dict(), 1e300, "source.frequency = 1e+300 must lie below the Nyquist "
                    "frequency 0.5 / dt = 0.5"),
    (dict(), 0.5, "source.frequency = 0.5 must lie below the Nyquist "
                  "frequency 0.5 / dt = 0.5"),
    (dict(dt_record=1e-160), 0.1,
     "ends before the source wavelet peaks at 1.5 / frequency = 15.0 s"),
    # 16 samples record exactly the 15 s delay
    (dict(nt=16), 0.1, "wavelet peaks"),
])
def test_forward_solve_rejects_inadmissible_grid_before_counting(gridkw, frequency,
                                                                  shown):
    # unchecked, each case would solve on all-zero traces or raise
    # OverflowError or a NaN-to-integer error inside the solve
    grid = config_grid(**gridkw)
    led = SolveLedger()
    with pytest.raises(ValueError, match=re.escape(shown)):
        forward_solve(ModelGrid.zeros(grid.nx, grid.ny),
                      SourceSpec((0.0, 0.0), frequency), [(0.0, 0.0)], grid, led)
    assert led.total == 0


def test_forward_solve_accepts_a_window_past_the_wavelet_delay():
    grid, led = config_grid(nt=17), SolveLedger()
    forward_solve(ModelGrid.zeros(grid.nx, grid.ny), SourceSpec((0.0, 0.0), 0.1),
                  [(0.0, 0.0)], grid, led)
    assert led.total == 1


def test_snap_rounds_to_nearest_cell():
    grid = small_grid()
    lx, ly = grid.extent
    cases = [(0.4 * grid.h, 0.6 * grid.h), (lx, ly), (0.5 * grid.h, 2.5 * grid.h)]
    # the last case rounds half to even
    assert grid.snap_all(cases).tolist() == [[0, 1], [grid.nx - 1, grid.ny - 1], [0, 2]]
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.uniform((0.0, 0.0), (lx, ly), size=(200, 2))]
    pts += [((i + 0.5) * grid.h, (j + 0.5) * grid.h) for i in range(grid.nx - 1) for j in (0, 1)]
    pts += [(0.0, 0.0), (lx, ly), (0.0, ly), (lx, 0.0)]
    expected = [(round(x / grid.h), round(y / grid.h)) for x, y in pts]
    got = grid.snap_all(pts)
    assert got.dtype == np.intp
    assert got.tolist() == [list(c) for c in expected]
    assert grid.snap_all([]).shape == (0, 2)
    for bad in [(-1.0, 0.0), (0.0, ly * (1 + 1e-12)), (np.nan, 0.0)]:
        with pytest.raises(ValueError, match="outside domain"):
            grid.snap_all(pts[:3] + [bad])
