"""LP path for the rate-optimization problem.

The continuous constraint is discretized on a finite grid (one linear
inequality per sample point), solved with an in-repo dense two-phase
simplex, and then hardened by an exchange loop: certify the solution on the
whole interval, add the worst violated point as a cut, re-solve.  The loop
terminates with a solution certified by the independent slack certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import certify
from .polynomials import Polynomial, constraint_basis, rate_and_gap

DEFAULT_GRID_SIZE = 64
MAX_CUTS = 200
CUT_DEDUP_TOL = 1e-10
_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 200_000
_BLOCK_ENTRIES = 32_768  # 256 KB of float64 per pivot-update temporary


def chebyshev_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """n Chebyshev-distributed points in (0, 1], clustered near both ends."""
    k = np.arange(1, n + 1)
    return (1.0 - np.cos(k * np.pi / n)) / 2.0


@dataclass(frozen=True)
class SolveRequest:
    rho: Polynomial
    epsilon: float
    alpha: float
    d_v: int
    grid: np.ndarray = field(default_factory=chebyshev_grid)
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.d_v < 2:
            raise ValueError(f"d_v must be at least 2, got {self.d_v}")
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("grid must be a non-empty 1-D array")
        if np.any(g <= 0.0) or np.any(g > 1.0):
            raise ValueError("grid points must lie in (0, 1]")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("grid points must be sorted and distinct")
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class LPStandardForm:
    """max c.x  s.t.  A x <= b,  E x = d,  x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    E: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("c", "A", "b", "E", "d"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.c.size
        if self.A.shape != (self.b.size, n) or self.E.shape != (self.d.size, n):
            raise ValueError("inconsistent LP dimensions")


@dataclass(frozen=True)
class OptimizationResult:
    lambda_coeffs: dict
    rate: float | None
    gap: float | None
    margin: certify.MarginReport | None
    status: str  # optimal | infeasible | iteration-limit
    solver_iterations: int
    cuts_added: int


def build_discretized_lp(req: SolveRequest) -> LPStandardForm:
    """Variables lambda_2..lambda_{d_v}; max sum lambda_i / i; simplex
    equality; one inequality sum_i lambda_i g_i(x_k) <= alpha x_k per grid
    point."""
    return _discretized_lp(constraint_basis(req.rho, req.epsilon, req.d_v),
                           req.alpha, req.grid)


def _discretized_lp(basis: list[Polynomial], alpha: float,
                    grid: np.ndarray) -> LPStandardForm:
    """``build_discretized_lp`` over the constraint basis of degrees 2..d_v."""
    n = len(basis)
    c = np.array([1.0 / i for i in range(2, n + 2)])
    A = np.column_stack([g(grid) for g in basis])
    b = alpha * grid
    E = np.ones((1, n))
    d = np.array([1.0])
    return LPStandardForm(c=c, A=A, b=b, E=E, d=d)


class _SimplexState:
    """Dense tableau T = [B^-1 N | B^-1 b] driven with Bland's rule.

    A pivot divides the pivot row, then applies a rank-1 update to the row
    slices above and below it, one block of rows at a time.  Every entry
    gets the same IEEE multiply and subtract as a row-by-row elimination.
    A block holds about _BLOCK_ENTRIES entries, so the product temporary
    stays in cache: a tall cutting-plane tableau takes one block per side,
    the wide tableau of a dense-grid dual one row at a time.  Basic slices
    also avoid the copies of a fancy-indexed gather/scatter.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray):
        self.T = T
        self.basis = basis
        self.pivots = 0

    def run(self, cost: np.ndarray, blocked: set) -> str:
        """Minimize cost.x from the current basis.  Returns optimal|unbounded."""
        T, basis = self.T, self.basis
        skip = np.fromiter(blocked, dtype=int, count=len(blocked))
        while True:
            if self.pivots > _MAX_PIVOTS:
                raise RuntimeError("simplex pivot limit exceeded")
            cb = cost[basis]
            reduced = cost[:-1] - cb @ T[:, :-1]
            # Bland: the lowest-index improving column that is not blocked.
            improving = reduced < -_PIVOT_TOL
            improving[skip] = False
            enter = int(np.argmax(improving))
            if not improving[enter]:
                return "optimal"
            col = T[:, enter]
            rows = np.nonzero(col > _PIVOT_TOL)[0]
            if rows.size == 0:
                return "unbounded"
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            # Ties broken by smallest basic-variable index (Bland).
            tied = rows[np.nonzero(ratios <= best + 1e-12)[0]]
            leave = int(tied[np.argmin(basis[tied])])
            self._pivot(leave, enter)

    def _pivot(self, row: int, col: int):
        T, basis = self.T, self.basis
        T[row] /= T[row, col]
        r = T[row]
        step = max(1, _BLOCK_ENTRIES // T.shape[1])
        for side in (T[:row], T[row + 1:]):
            for i in range(0, side.shape[0], step):
                block = side[i:i + step]
                block -= block[:, col, None] * r
        basis[row] = col
        self.pivots += 1


def simplex_solve(lp: LPStandardForm):
    """Two-phase primal simplex with Bland's anti-cycling rule.

    Returns (values, objective, status) with status in
    {optimal, infeasible, unbounded}.
    """
    n = lp.c.size
    m1, m2 = lp.b.size, lp.d.size
    m = m1 + m2

    # Equality system [A I; E 0] with rows flipped to keep rhs >= 0.
    body = np.zeros((m, n + m1))
    body[:m1, :n] = lp.A
    body[:m1, n:] = np.eye(m1)
    body[m1:, :n] = lp.E
    rhs = np.concatenate([lp.b, lp.d]).astype(float)
    neg = rhs < 0.0
    body[neg] *= -1.0
    rhs[neg] = -rhs[neg]

    # Start from slack columns where they form identity; artificials elsewhere.
    basis = np.empty(m, dtype=int)
    art_cols = []
    extra = []
    for i in range(m):
        if i < m1 and not neg[i]:
            basis[i] = n + i
        else:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            basis[i] = n + m1 + len(art_cols)
            art_cols.append(basis[i])
    ncols = n + m1 + len(art_cols)
    T = np.zeros((m, ncols + 1))
    T[:, : n + m1] = body
    for k, col in enumerate(extra):
        T[:, n + m1 + k] = col
    T[:, -1] = rhs

    state = _SimplexState(T, basis)
    art_set = set(art_cols)

    if art_cols:
        phase1 = np.zeros(ncols + 1)
        for j in art_cols:
            phase1[j] = 1.0
        state.run(phase1, blocked=set())
        if float(phase1[basis] @ T[:, -1]) > 1e-8:
            return np.zeros(n), 0.0, "infeasible"
        # Drive remaining basic artificials out or drop their (redundant) rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = -1
                for j in range(n + m1):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    state._pivot(i, pivot_col)
                else:
                    keep[i] = False
        if not np.all(keep):
            state.T = T = T[keep]
            state.basis = basis = basis[keep]

    phase2 = np.zeros(T.shape[1])
    phase2[:n] = -lp.c
    status = state.run(phase2, blocked=art_set)
    values = np.zeros(n)
    for i, j in enumerate(state.basis):
        if j < n:
            values[j] = state.T[i, -1]
    objective = float(lp.c @ values)
    if status == "unbounded":
        return values, objective, "unbounded"
    return values, objective, "optimal"


def _result_from_lambda(req: SolveRequest, basis: list[Polynomial], values: np.ndarray,
                        status: str, iterations: int, cuts: int) -> OptimizationResult:
    lam = np.clip(values, 0.0, None)
    lam = lam / lam.sum()
    lambda_coeffs = {i + 2: float(lam[i]) for i in range(lam.size) if lam[i] != 0.0}
    margin = certify._margin(certify._slack_poly(lambda_coeffs, basis, req.alpha))
    rate, gap = rate_and_gap(lambda_coeffs, req.rho, req.epsilon)
    return OptimizationResult(
        lambda_coeffs=lambda_coeffs, rate=rate, gap=gap, margin=margin,
        status=status, solver_iterations=iterations, cuts_added=cuts,
    )


def _infeasible(iterations: int = 0, cuts: int = 0) -> OptimizationResult:
    return OptimizationResult(
        lambda_coeffs={}, rate=None, gap=None, margin=None,
        status="infeasible", solver_iterations=iterations, cuts_added=cuts,
    )


def solve_semi_infinite(req: SolveRequest) -> OptimizationResult:
    """Exchange loop: discretized LP -> certify -> cut at the violation
    argmin -> re-solve, until the continuous constraint is certified.

    A violation whose argmin sits at x = 0 (the first-order endpoint
    condition, vacuous in the unnormalized form) is added as the normalized
    limit row sum_i lambda_i * (g_i/x)(0) <= alpha.
    """
    floor = certify.feasibility_floor(req.rho, req.epsilon, req.d_v)
    if req.alpha < floor - certify.FEASIBILITY_TOL:
        return _infeasible()

    basis = constraint_basis(req.rho, req.epsilon, req.d_v)

    endpoint_row = np.array([g.quotient_by_x()(0.0) for g in basis])

    grid = np.sort(np.asarray(req.grid, dtype=float))
    endpoint_cut = False
    iterations = 0
    best = None
    for cuts in range(MAX_CUTS + 1):
        lp = _discretized_lp(basis, req.alpha, grid)
        if endpoint_cut:
            lp = LPStandardForm(
                c=lp.c,
                A=np.vstack([endpoint_row[np.newaxis, :], lp.A]),
                b=np.concatenate([[req.alpha], lp.b]),
                E=lp.E, d=lp.d)
        values, _, status = simplex_solve(lp)
        iterations += 1
        if status != "optimal":
            return _infeasible(iterations, cuts)
        result = _result_from_lambda(req, basis, values, "optimal", iterations, cuts)
        if result.margin.min_slack >= -req.tol:
            return result
        if result.margin.feasible and (best is None or result.rate > best.rate):
            best = result
        cut = result.margin.argmin_x
        if cut < CUT_DEDUP_TOL:
            if endpoint_cut:
                return _relaxed_report(result, req, basis, values, iterations, cuts)
            endpoint_cut = True
            continue
        if np.min(np.abs(grid - cut)) < CUT_DEDUP_TOL:
            return _relaxed_report(result, req, basis, values, iterations, cuts)
        grid = np.sort(np.append(grid, cut))
    if best is not None:
        return OptimizationResult(
            lambda_coeffs=best.lambda_coeffs, rate=best.rate, gap=best.gap,
            margin=best.margin, status="iteration-limit",
            solver_iterations=iterations, cuts_added=MAX_CUTS)
    return _result_from_lambda(req, basis, values, "iteration-limit", iterations, MAX_CUTS)


def _relaxed_report(result: OptimizationResult, req: SolveRequest, basis: list[Polynomial],
                    values: np.ndarray, iterations: int, cuts: int) -> OptimizationResult:
    # A repeat cut means the certifier minimum sits on an already-active
    # constraint; further cuts cannot help.  Report at relaxed tolerance
    # instead of looping.
    if result.margin.min_slack >= -100.0 * req.tol:
        return result
    return _result_from_lambda(req, basis, values, "iteration-limit", iterations, cuts)
