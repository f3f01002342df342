"""Smoothing regularizer R(m) = 0.5 * ||D (m - m0)||^2 with D = lam * (nu I - lap).

The Laplacian is the 5-point stencil with homogeneous Neumann closure, which
makes D symmetric and gives the constant vector the exact eigenvalue lam * nu.
The smallest eigenvalue of D^T D is therefore exactly (lam * nu)^2, the
curvature floor that the step-quality bounds of the gradient-only Gauss-Newton
method are built on.

D is defined once, from (lam, nu, h). Its five diagonals are applied with
numpy, bit for bit as scipy's CSR product on finite vectors. On a uniform
grid with Neumann closure the orthonormal DCT-II basis diagonalizes D exactly
(Strang 1999, "The discrete cosine transform", SIAM Review 41(1)), so
D^T D x = b is solved by four small matrix products in that basis: nothing
is factorized and scipy is not imported. In float64 the solve's accuracy
degrades like cond(D^T D) = ((nu + 8 / h^2) / nu)^2 times the rounding unit.
The thirteen diagonals of D^T D are formed from D's five for the curvature
model of the baseline optimizers; the CSR matrix ``D`` is still derived on
request, for the tests.
"""

from __future__ import annotations

import numpy as np


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, Q[j, k] = c_k cos(pi k (2j + 1) / 2n): its
    columns are the eigenvectors of the 1D Neumann second difference."""
    j = np.arange(n)
    q = np.cos(np.pi * np.outer(2 * j + 1, j) / (2 * n)) * np.sqrt(2.0 / n)
    q[:, 0] = np.sqrt(1.0 / n)
    return q


def check_spectrum(lam: float, nu: float, h: float) -> tuple[float, float]:
    """The interval (floor, top) that holds the spectrum of D^T D: the
    floor (lam nu)^2 is the constant mode's eigenvalue, and the top
    (lam (nu + 8 / h^2))^2 lies above every eigenvalue, since each 1D
    second difference has its eigenvalues in [0, 4 / h^2).

    Raises ValueError unless the interval fits float64: the normal solve
    divides by every eigenvalue, and the products reach the largest.
    """
    # numpy's power is C's pow, as Python's float ** is, but gives inf
    # instead of raising OverflowError
    with np.errstate(over="ignore"):
        floor, top = (float(np.float64(lam * x) ** 2) for x in (nu, nu + 8.0 / (h * h)))
    if not (floor > 0.0 and 1.0 / floor < np.inf and top < np.inf):
        raise ValueError(f"the spectrum of D^T D, [{floor!r}, {top!r}], leaves float64")
    return floor, top


class SmoothingOperator:
    """Quadratic smoothing penalty around a reference model.

    m0 is the reference model, an array-like of nx * ny entries. The
    products and the normal solve are both computed here from (lam, nu, h);
    the CSR matrix ``D`` is made on first use. ``harness.run_one`` builds a
    fresh operator for each run, so one run owns it and its scratch array,
    also when runs execute on several threads.
    """

    def __init__(self, nx: int, ny: int, h: float, lam: float, nu: float, m0):
        if not (0 < lam < np.inf and 0 < nu < np.inf):
            raise ValueError("smoothing parameters lam and nu must be positive")
        self.spectrum = check_spectrum(lam, nu, h)
        if min(nx, ny) < 2:
            raise ValueError(f"smoothing grid {nx} x {ny} needs at least 2 x 2 cells")
        m0 = np.array(m0, dtype=np.float64).ravel()
        if m0.size != nx * ny:
            raise ValueError(f"reference model has {m0.size} entries, expected {nx * ny}")
        self.lam = float(lam)
        self.nu = float(nu)
        self.h = float(h)
        self.m0 = m0
        self.nx = nx
        self.ny = ny
        self.p = nx * ny

        # Row i of diagonal j holds D[i, i + k] for the j-th offset k, and zero
        # where cell i has no such neighbour: the values of a sparse assembly,
        # which counts -2 per axis (-1 at a Neumann end) and divides by h**2
        # by multiplying by its reciprocal.
        inv_h2 = 1 / h**2
        ends = [np.r_[-1.0, np.full(n - 2, -2.0), -1.0] for n in (nx, ny)]
        diagonals = np.zeros((5, nx, ny))
        diagonals[2] = lam * (nu - np.add.outer(*ends) * inv_h2)
        diagonals[0, 1:] = diagonals[1, :, 1:] = lam * (0.0 - inv_h2)
        diagonals[3, :, :-1] = diagonals[4, :-1] = lam * (0.0 - inv_h2)
        self._offsets = (-ny, -1, 0, 1, ny)
        self._diagonals = diagonals.reshape(5, self.p)
        self._scratch = np.empty(self.p)
        self._terms = []  # per offset k: D[rows, rows + k], rows, rows + k, scratch
        for d, k in zip(self._diagonals, self._offsets):
            rows = slice(max(-k, 0), self.p - max(k, 0))
            self._terms.append((d[rows], rows, slice(rows.start + k, rows.stop + k),
                                self._scratch[rows]))
        self._D = None

        # D = (Qx kron Qy) diag(d) (Qx kron Qy)^T with
        # d_kl = lam (nu + 4 sin^2(pi k / 2nx) / h^2 + 4 sin^2(pi l / 2ny) / h^2)
        sx, sy = (4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2 / self.h**2
                  for n in (nx, ny))
        d = self.lam * (self.nu + np.add.outer(sx, sy))
        self._qx, self._qy, self._inv_d2 = _dct_basis(nx), _dct_basis(ny), 1.0 / (d * d)

    @property
    def D(self):
        """D as a scipy CSR matrix; the conversion drops the zero entries."""
        if self._D is None:
            import scipy.sparse as sp
            self._D = sp.diags([t[0] for t in self._terms], self._offsets, format="csr")
        return self._D

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """D @ v in CSR order: from +0.0, add the products by ascending offset
        (a zero entry adds a signed zero, which leaves a finite sum as it is)."""
        out = np.zeros(self.p)
        for coef, rows, cols, t in self._terms:
            o = out[rows]
            np.multiply(coef, v[cols], out=t)
            np.add(o, t, out=o)
        return out

    def normal_bands(self) -> dict:
        """The diagonals of D^T D = D D by offset s: entry i of band s is
        (D^T D)[i, i + s], and zero where cell i has no such neighbour."""
        bands = {}
        for a, da in zip(self._offsets, self._diagonals):
            rows = slice(max(-a, 0), self.p - max(a, 0))
            for b, db in zip(self._offsets, self._diagonals):
                # D[i, i + a] D[i + a, i + a + b]; a missing neighbour of
                # either cell has a zero entry on its diagonal
                band = bands.setdefault(a + b, np.zeros(self.p))
                band[rows] += da[rows] * db[rows.start + a:rows.stop + a]
        return bands

    @property
    def mu(self) -> float:
        """Sharp lower bound (lam * nu)^2 on the spectrum of D^T D."""
        return self.spectrum[0]

    def _delta(self, m) -> np.ndarray:
        values = np.asarray(m, dtype=np.float64).ravel()
        if values.size != self.p:
            raise ValueError(f"model has {values.size} entries, expected {self.p}")
        return values - self.m0

    def value(self, m) -> float:
        Dd = self._apply(self._delta(m))
        return 0.5 * float(np.dot(Dd, Dd))

    # D is exactly symmetric, so grad and hess_vec apply D^T D as D twice;
    # the CSR rows of D sum in the order of D.T's CSC columns
    def grad(self, m) -> np.ndarray:
        return self._apply(self._apply(self._delta(m)))

    def hess_vec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != self.p:
            raise ValueError(f"vector has {v.size} entries, expected {self.p}")
        return self._apply(self._apply(v))

    def solve_normal(self, b: np.ndarray) -> np.ndarray:
        """Solve D^T D x = b in D's eigenbasis: x = Qx [(Qx^T B Qy) / d^2] Qy^T,
        with B the flat b on the grid."""
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.size != self.p:
            raise ValueError(f"vector has {b.size} entries, expected {self.p}")
        coeffs = self._qx.T @ b.reshape(self.nx, self.ny) @ self._qy * self._inv_d2
        # The constant mode has the smallest eigenvalue and dominates x. Added
        # after the products it is rounded once per cell, not once per term,
        # which keeps the round trip through D^T D at the rounding floor of x.
        mean = coeffs[0, 0] / np.sqrt(b.size)
        coeffs[0, 0] = 0.0
        return (self._qx @ coeffs @ self._qy.T + mean).ravel()


def build(nx: int, ny: int, h: float, lam: float, nu: float, m0) -> SmoothingOperator:
    """The operator D = lam * (nu I - lap_h) on an nx x ny grid around m0.

    Raises ValueError unless lam and nu are positive and finite, the
    spectrum of D^T D fits float64 (check_spectrum), the grid has at least
    2 x 2 cells and m0 has nx * ny entries.
    """
    return SmoothingOperator(nx, ny, h, lam, nu, m0)
