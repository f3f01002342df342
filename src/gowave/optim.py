"""Budgeted optimizers for waveform inversion and their shared linesearch.

Four methods are implemented on the same objective F(m) = Phi(m) + R(m):

* run_nlcg:  Polak-Ribiere+ nonlinear CG preconditioned with a fixed
  curvature model (diagonal misfit estimate + regularizer Hessian).
* run_lbfgs: two-loop L-BFGS initialized with the same curvature model,
  with every direction post-smoothed through the regularizer inverse.
* run_gncg:  inexact Gauss-Newton-CG where each Hessian-vector product
  costs PDE solves, preconditioned by a quasi-Newton operator built from
  previous iterations' products and seeded with a fixed Richardson sweep.
* run_gogn:  gradient-only Gauss-Newton; the Gauss-Newton model is built
  from the per-source gradients alone, so forming and solving the step
  consumes zero PDE solves beyond the gradient evaluation.

The four differ only in how the gradient becomes a direction. Each is a
direction rule over one loop, _Run.drive: evaluate the gradient, record,
ask the rule for a step, linesearch along it, repeat. The loop, not the
rule, tests the step for descent: a direction with g.p >= 0 ends the run
"stalled" before any trial. A run's budget is a cap on the solves its
problem's ledger counts from the run's start; an iteration may start only
while the budget is unspent, so at most one iteration's cost overshoots.
Accepted steps must strictly decrease F.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .gogn import assemble, step_woodbury
from .wave import ModelGrid, mapped_zeros

# Fixed optimizer settings; no config key reaches them.
LBFGS_MEMORY = 10            # (s, y) pairs kept by L-BFGS
GNCG_CG_TOL = 0.1            # relative residual ending gncg's inner CG
GNCG_CG_MAXITER = 5          # inner CG iterations (Hessian products) per step
GNCG_RICHARDSON_ITERS = 300  # sweeps of the preconditioner's base solve
GNCG_RETAIN_PAIRS = 20       # harvested (v, Hv) pairs kept by gncg
CURVATURE_PAIR_TOL = 1e-10   # least cosine of (s, y) for an admitted pair
LS_MAX_TRIALS = 10           # objective evaluations per linesearch
LS_INTERP_TRIALS = 5         # interpolated trials after the initial one


@dataclass
class LinesearchPolicy:
    """The initial trial of the shared step-length protocol; the trials
    after it are fixed (see linesearch)."""

    initial_step_rule: str = "cap"  # "cap": alpha0 = step_cap/||p||_inf, or "unit"
    step_cap: float = 0.05

    def __post_init__(self):
        if not self.step_cap > 0.0:
            raise ValueError("step_cap must be positive")
        if self.initial_step_rule not in ("cap", "unit"):
            raise ValueError(f"unknown initial step rule {self.initial_step_rule!r}")

    def initial_alpha(self, p: np.ndarray) -> float:
        if self.initial_step_rule == "unit":
            return 1.0
        pinf = float(np.max(np.abs(p)))
        if pinf == 0.0:
            raise ValueError("zero direction")
        return self.step_cap / pinf


@dataclass
class TraceRecord:
    """One accepted iterate in a run trace."""

    iter: int
    solves: int
    objective: float
    grad_norm: float
    model_error: float
    step: float
    ls_evals: int
    extra: str = ""


@dataclass
class RunResult:
    """Full trace of one optimizer run plus its final model."""

    name: str
    records: list
    status: str            # "budget", "stalled", or "converged"
    solves: int            # all the run spent, trials after its last record too
    m_final: np.ndarray = field(repr=False)


def linesearch(objective, m, p, f0: float, g0: float, policy: LinesearchPolicy):
    """Find a step along p that strictly decreases the objective.

    Returns (alpha, m_new, f_new, evals); alpha = 0.0 and m_new = None when
    none of LS_MAX_TRIALS trials decreased the objective (the caller should
    stop). Trials: the policy's initial step, then LS_INTERP_TRIALS steps
    placed at the minimizer of the quadratic through (0, f0, g0) and the
    latest trial (clamped to [0.1, 0.9] of it), then halving.
    """
    if g0 >= 0:
        raise ValueError(f"directional derivative {g0:.3e} is not a descent direction")
    alpha = policy.initial_alpha(p)
    evals = 0
    while evals < LS_MAX_TRIALS:
        trial = m + alpha * p
        f_t = objective(trial)
        evals += 1
        if f_t < f0:
            return alpha, trial, f_t, evals
        if evals <= LS_INTERP_TRIALS:
            # minimizer of the interpolating parabola; the denominator is
            # positive whenever the trial failed to decrease
            denom = f_t - f0 - g0 * alpha
            proposal = -g0 * alpha * alpha / (2.0 * denom)
            alpha = float(np.clip(proposal, 0.1 * alpha, 0.9 * alpha))
        else:
            alpha *= 0.5
    return 0.0, None, f0, evals


def _dense_block(bands: dict, row0: int, col0: int, nr: int, nc: int) -> np.ndarray:
    """Entries [row0, row0 + nr) x [col0, col0 + nc) of the banded matrix
    whose band s holds entry (i, i + s) at position i."""
    out = np.zeros((nr, nc))
    for s, band in bands.items():
        shift = row0 + s - col0
        r = np.arange(max(0, -shift), min(nr, nc - shift))
        out[r, r + shift] = band[row0 + r]
    return out


def block_cholesky(bands: dict, width: int) -> list:
    """Cholesky factor L of a symmetric positive definite matrix, given by
    its bands, that is block tridiagonal in blocks of `width` rows (the last
    block may be shorter). Golub & Van Loan, Matrix Computations,
    4th ed., section 4.5.

    Returns one (inverse of L's diagonal block, L's block below it) pair per
    block, the last with None below. Only matrix-vector products are used,
    one column or row at a time, so the factor's bytes do not depend on the
    BLAS thread count; the blocks kept are ``wave.mapped_zeros`` arrays.
    Raises np.linalg.LinAlgError on a pivot that is not positive.
    """
    p = bands[0].size
    factor = []
    schur = _dense_block(bands, 0, 0, min(width, p), min(width, p))
    for start in range(0, p, width):
        n = schur.shape[0]
        chol = np.zeros((n, n))
        for j in range(n):
            col = schur[j:, j] - chol[j:, :j] @ chol[j, :j]
            if not col[0] > 0.0:
                raise np.linalg.LinAlgError(
                    f"curvature model not positive definite: pivot {col[0]:.3e} "
                    f"at row {start + j}")
            chol[j:, j] = col / np.sqrt(col[0])
        inv = mapped_zeros((n, n))
        for i in range(n):
            inv[i, :i] = -(chol[i, :i] @ inv[:i, :i]) / chol[i, i]
            inv[i, i] = 1.0 / chol[i, i]
        nxt = start + n
        if nxt == p:
            factor.append((inv, None))
            break
        m = min(width, p - nxt)
        coupling = _dense_block(bands, nxt, start, m, n)
        # the block of L below: coupling @ inv^T, one column at a time
        below = mapped_zeros((m, n))
        for j in range(n):
            below[:, j] = coupling[:, :j + 1] @ inv[j, :j + 1]
        factor.append((inv, below))
        # Schur complement of the next block; its factor reads the lower
        # triangle only
        schur = _dense_block(bands, nxt, nxt, m, m)
        for j in range(m):
            schur[j:, j] -= below[j:] @ below[j]
    return factor


def curvature_factor_nbytes(nx: int, ny: int) -> int:
    """Bytes of CurvatureModel's factor on an nx x ny grid: block_cholesky
    stores 8 (sum n_k^2 + sum n_k n_k+1) bytes for its blocks of n_k <= 2 ny
    rows, which is 32 ny^2 (nx - 1) for even nx."""
    width = 2 * ny
    full, last = divmod(nx * ny, width)  # full >= 1 for nx >= 2
    return 8 * ((2 * full - 1) * width * width + last * (last + width))


class CurvatureModel:
    """Fixed operator M = diag(h0) + D^T D with exact solves and a damped
    Richardson sweep, shared by the three baseline optimizers.

    In the flat (nx, ny) layout D^T D reaches two grid rows either way, so M
    is block tridiagonal in blocks of two grid rows; its block Cholesky
    factor (curvature_factor_nbytes) is built on the first ``solve``, so gncg,
    which only applies M, never factors it. ``harness.run_one`` builds a
    fresh model for each run, so one run owns it, also when runs execute on
    several threads.
    """

    def __init__(self, h0_diag: np.ndarray, reg):
        self.h0 = np.asarray(h0_diag, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.h0) & (self.h0 > 0)):
            raise ValueError("diagonal curvature estimate must be positive")
        self.reg = reg
        # By Weyl's inequality 1 / omega = max h0 + the top of D^T D's
        # spectrum is at least M's largest eigenvalue, so every mode of the
        # Richardson sweep's error contracts. A sum past float64 leaves
        # omega = 0, which richardson refuses
        self.omega = 1.0 / (float(np.max(self.h0)) + reg.spectrum[1])
        self._factor = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.h0 * v + self.reg.hess_vec(v)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M x = b by one forward and one backward sweep over the factor."""
        if self._factor is None:
            bands = self.reg.normal_bands()
            bands[0] = bands[0] + self.h0
            self._factor = block_cholesky(bands, 2 * self.reg.ny)
        x = np.array(b, dtype=np.float64).ravel()
        w = 2 * self.reg.ny
        # L y = b, then L^T x = y, block by block in place
        for k, (inv, below) in enumerate(self._factor):
            xk = x[k * w:(k + 1) * w]
            xk[:] = inv @ xk
            if below is not None:
                x[(k + 1) * w:(k + 2) * w] -= below @ xk
        for k in reversed(range(len(self._factor))):
            inv, below = self._factor[k]
            xk = x[k * w:(k + 1) * w]
            if below is not None:
                xk -= below.T @ x[(k + 1) * w:(k + 2) * w]
            xk[:] = inv.T @ xk
        return x

    def richardson(self, b: np.ndarray) -> np.ndarray:
        """GNCG_RICHARDSON_ITERS Richardson sweeps on M x = b, relaxed by
        omega: linear in b by construction."""
        if self.omega == 0.0:
            raise RuntimeError(
                "the Richardson sweep's relaxation is 0: max h0 + the top of "
                f"D^T D's spectrum at lam = {self.reg.lam!r} leaves float64; "
                "lower [regularizer] lam")
        x = np.zeros_like(b)
        for _ in range(GNCG_RICHARDSON_ITERS):
            x += self.omega * (b - self.apply(x))
        return x


def admit_curvature_pair(pairs, s, y) -> bool:
    """Append (s, y, 1/y^T s) unless the pair's curvature is not safely
    positive; returns whether the pair was admitted."""
    sy = float(np.dot(s, y))
    if sy <= CURVATURE_PAIR_TOL * np.linalg.norm(s) * np.linalg.norm(y):
        return False
    pairs.append((s, y, 1.0 / sy))
    return True


def two_loop_apply(pairs, base_apply, grad: np.ndarray) -> np.ndarray:
    """Inverse-Hessian application from curvature pairs (most recent last),
    with base_apply supplying the action of the initial inverse."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    z = base_apply(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, z))
        z += (a - b) * s
    return z


class _Run:
    """One optimizer run and the loop shared by every method. The run holds
    its settings and the iterate the direction rules read, as the one
    read-only ``ModelGrid`` that its sweep's kept fields also hold; ``drive``
    holds the rest of its state: the trace, the status and f and g at the
    iterate."""

    def __init__(self, name, problem, reg, budget: int, policy):
        if budget < 1:
            raise ValueError("budget must allow at least one solve")
        self.name = name
        self.problem = problem
        self.reg = reg
        self.budget = budget
        self.policy = policy
        self._start = problem.ledger.total
        self.iterate = self.model(reg.m0)

    def used(self) -> int:
        """Solves the problem's ledger has counted since the run began."""
        return self.problem.ledger.total - self._start

    @property
    def values(self) -> np.ndarray:
        return self.iterate.values

    def model(self, values) -> ModelGrid:
        return ModelGrid(values, self.problem.grid.nx, self.problem.grid.ny)

    def objective(self, values) -> float:
        total, _ = self.problem.misfit_only(self.model(values))
        return total + self.reg.value(values)

    def drive(self, direction, keep_fields=False) -> RunResult:
        """Iterate: evaluate, record, ask `direction(g, report)` for the
        step (p, extra), linesearch along it, until the budget is spent,
        the gradient vanishes, p is not a descent direction or no trial
        decreases F."""
        m_true = self.problem.m_true
        records, status = [], "budget"
        it, alpha, evals, extra = 0, 0.0, 0, ""
        while True:
            report = self.problem.misfit_and_gradients(self.iterate,
                                                       keep_fields=keep_fields)
            f = report.total + self.reg.value(self.values)
            g = report.gradients.sum(axis=0) + self.reg.grad(self.values)
            gnorm = float(np.linalg.norm(g))
            error = float("nan") if m_true is None else \
                float(np.linalg.norm(m_true.values - self.values))
            records.append(TraceRecord(
                iter=it, solves=self.used(), objective=f, grad_norm=gnorm,
                model_error=error, step=alpha, ls_evals=evals, extra=extra))
            if self.used() >= self.budget:
                break
            if gnorm == 0.0:
                status = "converged"
                break
            p, extra = direction(g, report)
            g0 = float(np.dot(g, p))
            if g0 >= 0.0:
                status = "stalled"
                break
            # free gncg's kept fields before the linesearch and next sweep
            report = None
            alpha, new_values, _, evals = linesearch(
                self.objective, self.values, p, f, g0, self.policy)
            if new_values is None:
                status = "stalled"
                break
            self.iterate = self.model(new_values)
            del new_values  # the iterate holds its own copy
            it += 1
        return RunResult(name=self.name, records=records, status=status,
                         solves=self.used(), m_final=self.values)


def run_nlcg(problem, reg, h0_diag, budget, step_cap) -> RunResult:
    """Preconditioned Polak-Ribiere+ nonlinear conjugate gradient.

    The preconditioner solves (diag(h0) + D^T D) z = grad F exactly through
    the curvature model's block Cholesky factor; beta is clipped at zero
    and the direction is restarted to preconditioned steepest descent
    whenever it fails to be a descent direction.
    """
    run = _Run("nlcg", problem, reg, budget, LinesearchPolicy(step_cap=step_cap))
    curv = CurvatureModel(h0_diag, reg)
    prev = None  # (p, g, z) of the previous direction

    def direction(g, report):
        nonlocal prev
        z = curv.solve(g)
        if prev is None:
            p = -z
        else:
            p_prev, g_prev, z_prev = prev
            denom = float(np.dot(g_prev, z_prev))
            beta = max(0.0, float(np.dot(g - g_prev, z)) / denom)
            p = -z + beta * p_prev
            if float(np.dot(p, g)) >= 0.0:
                p = -z  # restart
        prev = (p, g, z)
        return p, ""

    return run.drive(direction)


def run_lbfgs(problem, reg, h0_diag, budget, step_cap) -> RunResult:
    """L-BFGS with curvature-model initialization and direction smoothing.

    The two-loop recursion is seeded with exact solves of diag(h0) + D^T D.
    Each raw direction is then smoothed as p = mu * (D^T D)^{-1} p_raw, with
    mu = (lam nu)^2 so the constant mode is left untouched. If the smoothed
    direction fails to point downhill the memory is bypassed for that
    iteration in favor of smoothed steepest descent. The (s, y) pair of a
    step is admitted when the next direction is asked for.
    """
    run = _Run("lbfgs", problem, reg, budget, LinesearchPolicy(step_cap=step_cap))
    curv = CurvatureModel(h0_diag, reg)
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1/(y^T s))
    last = None  # (values, g) the previous direction started from

    def direction(g, report):
        nonlocal last
        if last is not None:
            admit_curvature_pair(pairs, run.values - last[0], g - last[1])
        last = (run.values, g)
        p = -reg.mu * reg.solve_normal(two_loop_apply(pairs, curv.solve, g))
        if float(np.dot(g, p)) >= 0.0:
            p = -reg.mu * reg.solve_normal(g)
        return p, ""

    return run.drive(direction)


def run_gncg(problem, reg, h0_diag, budget) -> RunResult:
    """Inexact Gauss-Newton-CG with a quasi-Newton preconditioner.

    Each inner CG iteration applies the true Gauss-Newton Hessian (2N PDE
    solves against cached wavefields) plus the regularizer Hessian, for at
    most GNCG_CG_MAXITER iterations down to a relative residual of
    GNCG_CG_TOL. The preconditioner is an L-BFGS-style inverse assembled
    from the last GNCG_RETAIN_PAIRS (v, Hv) pairs harvested in earlier outer
    iterations; within one CG solve it stays fixed, keeping it a linear
    operator as CG requires. Its base case is a GNCG_RICHARDSON_ITERS-sweep
    Richardson solve with the fixed curvature model. The trace's ``extra``
    counts Hessian products, also one that meets non-positive curvature.
    Its linesearch tries the unit step first, the natural length of a
    Newton step.
    """
    run = _Run("gncg", problem, reg, budget, LinesearchPolicy(initial_step_rule="unit"))
    curv = CurvatureModel(h0_diag, reg)
    harvested = deque(maxlen=GNCG_RETAIN_PAIRS)  # (v, Hv, 1/(v^T Hv))

    def direction(g, report):
        # inner preconditioned CG on (H_gn + D^T D) p = -g
        precond = partial(two_loop_apply, list(harvested), curv.richardson)
        r = -g
        x = np.zeros_like(r)
        d = rz = None
        bnorm = float(np.linalg.norm(r))
        products = 0  # Hessian products paid for, admitted or not
        while products < GNCG_CG_MAXITER and run.used() < budget:
            # each pass preconditions its residual only once it will pay for
            # a Hessian product
            z = precond(r)
            rz_prev, rz = rz, float(np.dot(r, z))
            d = z if d is None else z + (rz / rz_prev) * d
            hd = problem.gn_hessian_vec(run.iterate, d,
                                        fields=report.fields) + reg.hess_vec(d)
            products += 1
            dhd = float(np.dot(d, hd))
            if dhd <= 0.0:
                if products == 1:
                    x = z  # fall back to the preconditioned gradient
                break
            admit_curvature_pair(harvested, d, hd)
            alpha_cg = rz / dhd
            x = x + alpha_cg * d
            r = r - alpha_cg * hd
            if float(np.linalg.norm(r)) <= GNCG_CG_TOL * bnorm:
                break
        return x, str(products)

    # gradient evaluations keep their wavefields for the inner CG solves
    return run.drive(direction, keep_fields=True)


def run_gogn(problem, reg, budget, step_cap) -> RunResult:
    """Gradient-only Gauss-Newton: Gauss-Newton steps at gradient cost.

    Every iteration spends 2N solves on the gradient evaluation, builds the
    gradient-only Jacobian from the per-source values and gradients it
    already has, and solves for the step without touching the PDE again.
    The direction is provably a descent direction, so no preconditioning
    or smoothing is applied.
    """
    run = _Run("gogn", problem, reg, budget, LinesearchPolicy(step_cap=step_cap))

    def direction(g, report):
        step = step_woodbury(assemble(report), run.values, reg)
        return step.p, f"{step.cond_estimate:.6e}"

    return run.drive(direction)
