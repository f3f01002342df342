"""Tests for the smoothing regularizer and its spectral normal solve."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gowave.regularizer import build

from oracles import smoothing_matrix_oracle, solve_normal_oracle

LAM, NU, H = 0.37, 4.2e-9, 2400.0


def small_op(nx=8, ny=8, lam=LAM, nu=NU, m0=None):
    if m0 is None:
        m0 = np.zeros(nx * ny)
    return build(nx, ny, H, lam, nu, m0)


def test_constant_vector_is_eigenvector_of_d():
    op = small_op()
    v = np.ones(op.p)
    np.testing.assert_allclose(op.D @ v, op.lam * op.nu * v, rtol=1e-12)


def test_min_eigenvalue_is_the_constant_mode():
    op = small_op()
    dtd = (op.D.T @ op.D).toarray()
    ev = np.linalg.eigvalsh(dtd)
    assert ev[0] >= op.mu * (1.0 - 1e-9)
    assert ev[0] == pytest.approx(op.mu, rel=1e-9)


def test_large_nu_limit_approaches_scaled_identity():
    # keep lam * nu fixed while nu grows; the Laplacian term becomes negligible
    target = LAM * NU
    nu = 1e6
    op = build(8, 8, H, target / nu, nu, np.zeros(64))
    rng = np.random.default_rng(2)
    v = rng.standard_normal(op.p)
    rel = np.linalg.norm(op.D @ v - target * v) / np.linalg.norm(target * v)
    assert rel <= 8.0 / (nu * H**2) * 1.01  # largest Laplacian eigenvalue / nu


def test_value_and_grad_vanish_at_reference():
    rng = np.random.default_rng(3)
    m0 = rng.standard_normal(96)
    op = build(8, 12, H, LAM, NU, m0)
    assert op.value(m0) == 0.0
    np.testing.assert_array_equal(op.grad(m0), np.zeros(96))


def test_value_is_half_quadratic_form():
    rng = np.random.default_rng(4)
    op = small_op(m0=rng.standard_normal(64))
    m = rng.standard_normal(64)
    delta = m - op.m0
    quad = 0.5 * float(np.dot(op.hess_vec(delta), delta))
    assert op.value(m) == pytest.approx(quad, rel=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    op = small_op(m0=rng.standard_normal(64))
    m = rng.standard_normal(64)
    g = op.grad(m)
    v = rng.standard_normal(64)
    eps = 1e-6
    fd = (op.value(m + eps * v) - op.value(m - eps * v)) / (2 * eps)
    assert float(np.dot(g, v)) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("nx, ny", [(64, 64), (13, 7)])
def test_normal_products_equal_transpose_form_bitwise(nx, ny):
    # D is symmetric, so applying D twice must reproduce D^T (D v) exactly
    rng = np.random.default_rng(12)
    m0 = rng.standard_normal(nx * ny)
    op = build(nx, ny, H, LAM, NU, m0)
    v = rng.standard_normal(op.p)
    np.testing.assert_array_equal(op.hess_vec(v), op.D.T @ (op.D @ v))
    np.testing.assert_array_equal(op.grad(v), op.D.T @ (op.D @ (v - m0)))


# at h = 700, 3 / h**2 and 3 * (1 / h**2) round differently
@pytest.mark.parametrize("h", [H, 700.0])
@pytest.mark.parametrize("nx, ny", [(64, 64), (128, 128), (13, 7), (8, 12)])
def test_csr_matrix_is_byte_identical_to_sparse_assembly(nx, ny, h):
    D = build(nx, ny, h, LAM, NU, np.zeros(nx * ny)).D
    ref = smoothing_matrix_oracle(nx, ny, h, LAM, NU)
    for part in ("indptr", "indices", "data"):
        assert getattr(D, part).dtype == getattr(ref, part).dtype
        assert getattr(D, part).tobytes() == getattr(ref, part).tobytes()


def awkward_vector(rng, p, kind):
    """Entries of both signs, about half of them +0 or -0, so that some rows
    of D meet only zeros; the rest are standard normal ("normal"), span
    1e-300 to 1e300 ("extreme"), or are signed zeros too ("zeros")."""
    magnitude = {"normal": np.abs(rng.standard_normal(p)), "zeros": np.zeros(p),
                 "extreme": 10.0 ** rng.uniform(-300, 300, p)}[kind]
    v = rng.choice((-1.0, 1.0), p) * magnitude
    v[rng.random(p) < 0.3] = 0.0
    v[rng.random(p) < 0.3] = -0.0
    return v


@pytest.mark.parametrize("nx, ny, h", [(64, 64, H), (13, 7, 700.0), (8, 12, H)])
@pytest.mark.parametrize("kind", ["normal", "extreme", "zeros"])
def test_products_equal_csr_products_bitwise(nx, ny, h, kind):
    ref = smoothing_matrix_oracle(nx, ny, h, LAM, NU)
    rng = np.random.default_rng(14)
    for _ in range(5):
        m0 = awkward_vector(rng, nx * ny, kind)
        v = awkward_vector(rng, nx * ny, kind)
        op = build(nx, ny, h, LAM, NU, m0)
        Dd = ref @ (v - m0)
        with np.errstate(over="ignore"):  # extreme entries square to inf
            assert (np.float64(op.value(v)).tobytes()
                    == np.float64(0.5 * float(np.dot(Dd, Dd))).tobytes())
        assert op.grad(v).tobytes() == (ref.T @ Dd).tobytes()
        assert op.hess_vec(v).tobytes() == (ref.T @ (ref @ v)).tobytes()


@pytest.mark.parametrize("nx, ny", [(64, 64), (13, 7), (8, 12)])
@pytest.mark.parametrize("h", [8000.0, 700.0])
def test_solve_normal_matches_lu_reference(nx, ny, h):
    op = build(nx, ny, h, LAM, NU, np.zeros(nx * ny))
    rng = np.random.default_rng(15)
    for _ in range(3):
        b = rng.standard_normal(op.p)
        ref = solve_normal_oracle(op, b)
        assert np.linalg.norm(op.solve_normal(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("nx, ny", [(13, 7), (8, 12)])
def test_normal_bands_are_the_diagonals_of_dtd(nx, ny):
    op = build(nx, ny, 700.0, LAM, NU, np.zeros(nx * ny))
    dtd = (op.D.T @ op.D).toarray()
    bands = op.normal_bands()
    for s in range(-op.p + 1, op.p):
        band = bands.get(s, np.zeros(op.p))
        expect = np.diagonal(dtd, s)
        rows = slice(max(-s, 0), op.p - max(s, 0))
        np.testing.assert_allclose(band[rows], expect, rtol=1e-14,
                                   atol=1e-15 * np.abs(dtd).max())
        assert not band[:rows.start].any() and not band[rows.stop:].any()


def test_solve_normal_bits_do_not_depend_on_blas_threads():
    script = """
import hashlib
import numpy as np
from gowave.regularizer import build
op = build(128, 128, 2400.0, 0.37, 4.2e-9, np.zeros(128 * 128))
b = np.random.default_rng(16).standard_normal(op.p)
print(hashlib.sha256(op.solve_normal(b).tobytes()).hexdigest())
"""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        digests.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      check=True, capture_output=True,
                                      text=True).stdout)
    assert digests[0] == digests[1]


def test_solve_normal_round_trip():
    rng = np.random.default_rng(6)
    op = small_op(nx=12, ny=10, m0=np.zeros(120))
    x = rng.standard_normal(op.p)
    b = op.hess_vec(x)
    np.testing.assert_allclose(op.solve_normal(b), x, rtol=0, atol=1e-9 * np.linalg.norm(x))


def test_solve_normal_constant_mode():
    op = small_op()
    b = np.full(op.p, 3.7)
    np.testing.assert_allclose(op.solve_normal(b), b / op.mu, rtol=1e-9)


def test_solve_normal_is_linear():
    rng = np.random.default_rng(7)
    op = small_op()
    b1, b2 = rng.standard_normal(op.p), rng.standard_normal(op.p)
    alpha = 2.75
    lhs = op.solve_normal(alpha * b1 + b2)
    rhs = alpha * op.solve_normal(b1) + op.solve_normal(b2)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * np.linalg.norm(rhs))


def test_quadratic_form_bounded_below_by_mu():
    rng = np.random.default_rng(8)
    op = small_op(nx=10, ny=10, m0=np.zeros(100))
    for _ in range(25):
        v = rng.standard_normal(op.p)
        quad = float(np.dot(op.hess_vec(v), v))
        assert quad >= op.mu * float(np.dot(v, v)) * (1.0 - 1e-9)


def test_solve_normal_inverts_hess_vec():
    rng = np.random.default_rng(9)
    op = small_op()
    v = rng.standard_normal(op.p)
    np.testing.assert_allclose(op.solve_normal(op.hess_vec(v)), v,
                               rtol=0, atol=1e-9 * np.linalg.norm(v))


def test_smoothing_concentrates_spectrum_at_low_frequency():
    rng = np.random.default_rng(10)
    nx = ny = 32
    op = build(nx, ny, H, LAM, NU, np.zeros(nx * ny))
    b = rng.standard_normal(nx * ny)
    x = op.solve_normal(b)

    def low_band_fraction(v):
        power = np.abs(np.fft.fft2(v.reshape(nx, ny))) ** 2
        kx = np.minimum(np.arange(nx), nx - np.arange(nx))
        ky = np.minimum(np.arange(ny), ny - np.arange(ny))
        radius = np.add.outer(kx**2, ky**2)
        low = radius <= (nx // 8) ** 2
        return power[low].sum() / power.sum()

    assert low_band_fraction(x) > 0.9
    assert low_band_fraction(x) > 5 * low_band_fraction(b)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build(8, 8, H, 0.0, NU, np.zeros(64))
    with pytest.raises(ValueError):
        build(8, 8, H, LAM, -1.0, np.zeros(64))
    for lam, nu in ((np.nan, NU), (LAM, np.nan), (np.inf, NU), (LAM, np.inf)):
        with pytest.raises(ValueError, match="must be positive"):
            build(8, 8, H, lam, nu, np.zeros(64))
    with pytest.raises(ValueError):
        build(8, 8, H, LAM, NU, np.zeros(63))
    with pytest.raises(ValueError, match="2 x 2"):
        build(8, 1, H, LAM, NU, np.zeros(8))


def test_products_reject_vectors_of_another_size():
    op = small_op()
    for apply in (op.value, op.hess_vec, op.solve_normal):
        for size in (63, 65):
            with pytest.raises(ValueError, match=f"has {size} entries, expected 64"):
                apply(np.ones(size))


def test_build_rejects_a_spectrum_outside_float64():
    # (lam nu)^2 underflows to zero, or (lam (nu + 8 / h^2))^2 overflows
    for lam, nu in ((1e-160, NU), (LAM, 1e-300), (1e300, NU), (LAM, 1e200)):
        with pytest.raises(ValueError, match="leaves float64"):
            build(8, 8, H, lam, nu, np.zeros(64))
    # a subnormal floor whose inverse overflows
    with pytest.raises(ValueError, match="leaves float64"):
        build(8, 8, 1.0, 1.0, 1e-160, np.zeros(64))
    build(8, 8, H, 1e150, NU, np.zeros(64))
