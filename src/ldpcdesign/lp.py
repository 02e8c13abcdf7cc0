"""LP path for the rate-optimization problem.

The paper designs lambda by the LP method of its ref. [16]: maximise
sum_i lambda_i / i over the simplex subject to the density-evolution
constraint sum_i lambda_i f(x)^(i-1) <= alpha x on (0, 1], with
f(x) = 1 - rho(1 - epsilon x).  That is a semi-infinite LP, solved here by
the exchange method: solve the LP on a grid of x, certify the solution on
the whole interval, add the point of the worst violation as a cut, solve
again, until the certifier accepts.

- Rows: one per point, normalised by x and evaluated directly,
  A[k, i] = f(x_k)^(i-1) / x_k with f by Horner on rho, never expanded.
  The point x = 0 stands for the limit row lambda_2 epsilon rho'(1) <=
  alpha, which is always present.  The rhs is alpha backed off by
  SLACK_TOL / 2, but never below the row's value at all mass on d_v, so
  every alpha past the feasibility floor leaves the grid LP feasible.
  The loop accepts a certified slack minimum of -SLACK_TOL or more.  The
  back-off makes most returned lambda feasible, but not all, since a cut
  row can stay violated in the tableau by up to _PIVOT_TOL: 24 of the 138
  optimal lambda of the benchmark's lp-stress panel have a negative slack
  minimum, the lowest -9.8e-10.
- Kernel: a dense tableau simplex.  The first LP starts from all mass on
  degree 2, a basis dual feasible for any rhs, and each cut becomes one
  new row of the live tableau in the current basis; one dual-simplex loop
  (the row of least rhs per unit of norm leaves) then restores
  feasibility, with no phase 1, before a primal clean-up (Dantzig's rule,
  Bland's rule after a run of degenerate pivots).  A basic solution off
  the simplex by more than _SIMPLEX_TOL ends as ``numerical-failure``.
- Certifier: the branch and bound of ``certify.bernstein_margin`` on the
  Bernstein coefficients of the slack (``BernsteinQuotientSum``), whose
  parts independent of lambda, and the split maps, are built once per
  solve; the feasibility floor is taken from the same setup.  A cut that
  repeats a grid point ends the loop as ``iteration-limit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify
from .polynomials import BernsteinQuotientSum, Polynomial, bernstein_halves, rate_and_gap

DEFAULT_GRID_SIZE = 64
MAX_CUTS = 200
CUT_DEDUP_TOL = 1e-10
_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 200_000
# Degenerate pivots in a row after which Bland's rule replaces Dantzig's
# until a pivot makes progress; Bland's rule cannot cycle.
_DEGENERATE_RUN = 50
# A basic lambda must sum to 1 and be nonnegative to this before it is
# clipped, renormalised and certified.
_SIMPLEX_TOL = 1e-9
# The loop accepts a lambda whose certified slack minimum is at least
# -SLACK_TOL, and backs the rhs off by SLACK_TOL / 2.
SLACK_TOL = 1e-9


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

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.d_v < 2:
            raise ValueError(f"d_v must be at least 2, got {self.d_v}")


@dataclass(frozen=True)
class LPStandardForm:
    """max c.x  s.t.  A x <= b,  E x = d,  x >= 0.

    The cut loop builds one for its first LP (``_lp``), which
    ``_dual_start`` solves; ``simplex_solve`` takes any.
    """

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
    # optimal | infeasible | iteration-limit | numerical-failure (the LP's
    # basic lambda is off the simplex by more than _SIMPLEX_TOL)
    status: str
    solver_iterations: int  # LP solves: the cold one plus one per cut
    cuts_added: int


def build_discretized_lp(req: SolveRequest, grid) -> LPStandardForm:
    """Variables lambda_2..lambda_{d_v}; max sum lambda_i / i; simplex
    equality; one inequality sum_i lambda_i f(x_k)^(i-1) / x_k <= alpha per
    point x_k of ``grid``, sorted and distinct in (0, 1].  The fixed-grid
    LP, without the cut loop: it serves acceptance criterion 8 and the
    benchmark's tracer (``bench/tracing.py``); ``solve_semi_infinite``
    builds its rows itself, from ``chebyshev_grid()``."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise ValueError("grid points must lie in (0, 1]")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid points must be sorted and distinct")
    A = _rows(req.rho, req.epsilon, req.d_v, grid)
    return _lp(A, np.full(len(A), float(req.alpha)))


def _rows(rho: Polynomial, epsilon: float, d_v: int, x) -> np.ndarray:
    """Constraint rows f(x_k)^(i-1) / x_k, i = 2..d_v, at points x_k in
    [0, 1], with f(x) = 1 - rho(1 - epsilon x) evaluated by Horner on rho.
    A point x_k = 0 gives the limit row (epsilon rho'(1), 0, ..., 0).  The
    SOS path's node rows (``sos.build_sos_problem``) are these rows too."""
    x = np.asarray(x, dtype=float)
    at_zero = x == 0.0
    x = np.where(at_zero, 1.0, x)
    f = 1.0 - rho(1.0 - epsilon * x)
    A = f[:, None] ** np.arange(1, d_v) / x[:, None]
    if at_zero.any():
        A[at_zero] = 0.0
        A[at_zero, 0] = epsilon * rho.derivative()(1.0)
    return A


def _lp(A: np.ndarray, b: np.ndarray) -> LPStandardForm:
    n = A.shape[1]
    return LPStandardForm(c=1.0 / np.arange(2.0, n + 2), A=A, b=b,
                          E=np.ones((1, n)), d=np.array([1.0]))


class _SimplexState:
    """Dense tableau T = [B^-1 N | B^-1 b] with its basis.

    ``run`` is the primal simplex, ``dual`` the dual simplex and
    ``add_row`` adds a constraint to an optimal tableau.  Every column may
    enter: both starts (``_dual_start``, ``_two_phase`` after phase 1)
    hand over a tableau of structurals, slacks and rhs.  The entering
    column is priced by Dantzig's rule (most negative reduced cost, lowest
    index on ties); after _DEGENERATE_RUN degenerate pivots in a row,
    Bland's rule (lowest improving index) takes over until a pivot makes
    progress.  The leaving row is the least ratio, ties broken by the
    smallest basic-variable index.

    A pivot divides the pivot row, then applies one rank-1 update to the
    rows above it and one to the rows below it.  Every entry gets the same
    IEEE multiply and subtract as a row-by-row elimination, and the basic
    slices avoid the copies of a fancy-indexed gather/scatter.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray):
        self.T = T
        self.basis = basis
        self.pivots = 0
        self.cost = np.zeros(T.shape[1])  # set by run and dual, read by add_row

    def run(self, cost: np.ndarray) -> str:
        """Minimize cost.x from the current feasible basis.  Returns
        optimal|unbounded."""
        self.cost = cost
        T, basis = self.T, self.basis
        degenerate = 0
        while True:
            reduced = self._reduced()
            if degenerate < _DEGENERATE_RUN:
                enter = int(np.argmin(reduced))
            else:
                enter = int(np.argmax(reduced < -_PIVOT_TOL))
            if not reduced[enter] < -_PIVOT_TOL:
                return "optimal"
            col = T[:, enter]
            rows = np.nonzero(col > _PIVOT_TOL)[0]
            if rows.size == 0:
                return "unbounded"
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            tied = rows[np.nonzero(ratios <= best + 1e-12)[0]]
            leave = int(tied[np.argmin(basis[tied])])
            degenerate = degenerate + 1 if best <= 1e-12 else 0
            self._pivot(leave, enter)

    def add_row(self, a: np.ndarray, rhs: float) -> str:
        """Add a.x <= rhs over the first len(a) columns, with a new slack
        basic in the new row, to a tableau that ``run`` left optimal, and
        re-optimise by ``dual``.  Returns optimal|infeasible|unbounded."""
        m, width = self.T.shape
        T = np.zeros((m + 1, width + 1))
        T[:m, :width - 1] = self.T[:, :-1]
        T[:m, -1] = self.T[:, -1]
        new = T[m]
        new[:a.size] = a
        new[width - 1] = 1.0
        new[-1] = rhs
        new -= new[self.basis] @ T[:m]  # the new row in the current basis
        self.T = T
        self.basis = np.append(self.basis, width - 1)
        return self.dual(np.insert(self.cost, width - 1, 0.0))

    def dual(self, cost: np.ndarray) -> str:
        """Minimize cost.x from a dual feasible basis: while an rhs is below
        -_PIVOT_TOL, the row of least rhs per unit of its norm leaves and the
        column of least reduced cost per unit of its negative entry there
        enters; then ``run``.  Returns optimal|infeasible|unbounded."""
        self.cost = cost  # the ratio test reads the reduced costs
        T = self.T
        while True:
            rows = np.nonzero(T[:, -1] < -_PIVOT_TOL)[0]
            if rows.size == 0:
                return self.run(self.cost)
            leave = int(rows[np.argmin(T[rows, -1] / np.linalg.norm(T[rows, :-1], axis=1))])
            row = T[leave, :-1]
            cols = np.nonzero(row < -_PIVOT_TOL)[0]
            if cols.size == 0:
                return "infeasible"
            ratios = np.maximum(self._reduced()[cols], 0.0) / -row[cols]
            self._pivot(leave, int(cols[np.argmin(ratios)]))

    def values(self, n: int) -> np.ndarray:
        """The basic solution's first n variables."""
        values = np.zeros(n)
        structural = self.basis < n
        values[self.basis[structural]] = self.T[structural, -1]
        return values

    def _reduced(self) -> np.ndarray:
        return self.cost[:-1] - self.cost[self.basis] @ self.T[:, :-1]

    def _pivot(self, row: int, col: int):
        if self.pivots >= _MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")
        T = self.T
        T[row] /= T[row, col]
        for side in (T[:row], T[row + 1:]):
            side -= side[:, col, None] * T[row]
        self.basis[row] = col
        self.pivots += 1


def _two_phase(lp: LPStandardForm) -> tuple[_SimplexState, str]:
    """Cold two-phase primal simplex on lp, as a minimisation of -c.x.
    Phase 1 drives out an artificial column in each row without a basic
    slack; on a feasible lp they are then deleted, so phase 2 and the
    tableau it leaves hold the structurals, the slacks and the rhs, the
    layout of ``_dual_start``.  Returns the final tableau and
    optimal|infeasible|unbounded.  The kernel of ``simplex_solve``; the cut
    loop starts from ``_dual_start`` instead."""
    n = lp.c.size
    m1, m2 = lp.b.size, lp.d.size
    m = m1 + m2
    width = n + m1

    # Equality system [A I | b; E 0 | d] with rows flipped to keep rhs >= 0.
    body = np.zeros((m, width + 1))
    body[:m1, :n] = lp.A
    body[:m1, n:width] = np.eye(m1)
    body[m1:, :n] = lp.E
    body[:, -1] = np.concatenate([lp.b, lp.d])
    neg = body[:, -1] < 0.0
    body[neg] *= -1.0

    # Start from slack columns where they form identity; artificials elsewhere.
    art = np.flatnonzero(neg | (np.arange(m) >= m1))
    T = np.hstack([body[:, :-1], np.eye(m)[:, art], body[:, -1:]])
    basis = np.arange(n, n + m)
    basis[art] = width + np.arange(art.size)
    state = _SimplexState(T, basis)

    if art.size:
        phase1 = np.zeros(T.shape[1])
        phase1[width:-1] = 1.0
        state.run(phase1)
        if float(phase1[basis] @ T[:, -1]) > 1e-8:
            return state, "infeasible"
        # Drive remaining basic artificials out or drop their (redundant) rows.
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= width):
            cols = np.flatnonzero(np.abs(T[i, :width]) > _PIVOT_TOL)
            if cols.size:
                state._pivot(i, int(cols[0]))
            else:
                keep[i] = False
        state.T = np.delete(T[keep], np.s_[width:-1], axis=1)
        state.basis = basis[keep]

    phase2 = np.zeros(width + 1)
    phase2[:n] = -lp.c
    return state, state.run(phase2)


def _dual_start(lp: LPStandardForm) -> tuple[_SimplexState, str]:
    """``dual`` on -c.x of a grid LP built by ``_lp``, from all mass on
    degree 2: lambda_2 basic in the row sum lambda = 1 ([1^T | 0 | 1]), each
    slack in its own row k ([A_k - A_k,0 1^T | e_k | b_k - A_k,0]).  There
    lambda_i has reduced cost 1/2 - 1/i >= 0, dual feasible for any b, so
    there is no phase 1.  Returns the final tableau and optimal|infeasible."""
    m, n = lp.A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = lp.A - lp.A[:, :1]
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = lp.b - lp.A[:, 0]
    T[m, :n] = 1.0
    T[m, -1] = 1.0
    state = _SimplexState(T, np.append(np.arange(n, n + m), 0))
    return state, state.dual(np.concatenate([-lp.c, np.zeros(m + 1)]))


def simplex_solve(lp: LPStandardForm):
    """Two-phase primal simplex, Dantzig pricing with a Bland fallback.

    Returns (values, objective, status) with status in
    {optimal, infeasible, unbounded}.  The kernel on general LPs: it serves
    acceptance criteria 7 and 8 and the benchmark's tracer
    (``bench/tracing.py``); the cut loop starts from ``_dual_start``.
    """
    state, status = _two_phase(lp)
    if status == "infeasible":
        return np.zeros(lp.c.size), 0.0, status
    values = state.values(lp.c.size)
    return values, float(lp.c @ values), status


def _result(req: SolveRequest, lam: np.ndarray, margin: certify.MarginReport,
            status: str, lp_solves: int, cuts: int) -> OptimizationResult:
    lambda_coeffs = {i + 2: float(lam[i]) for i in range(lam.size) if lam[i] != 0.0}
    rate, gap = rate_and_gap(lambda_coeffs, req.rho, req.epsilon)
    return OptimizationResult(
        lambda_coeffs=lambda_coeffs, rate=rate, gap=gap, margin=margin,
        status=status, solver_iterations=lp_solves, cuts_added=cuts,
    )


def _no_design(status: str, lp_solves: int = 0, cuts: int = 0) -> OptimizationResult:
    return OptimizationResult(
        lambda_coeffs={}, rate=None, gap=None, margin=None,
        status=status, solver_iterations=lp_solves, cuts_added=cuts,
    )


def solve_semi_infinite(req: SolveRequest) -> OptimizationResult:
    """Exchange loop: grid LP -> certify -> cut at the certifier's argmin ->
    warm re-solve, until the continuous constraint is certified (see the
    module docstring).  An alpha below ``certify.feasibility_floor`` is
    infeasible with no LP solve.  Raises ValueError where
    ``BernsteinQuotientSum`` does."""
    rho, epsilon, d_v, alpha = req.rho, req.epsilon, req.d_v, req.alpha
    quotient = BernsteinQuotientSum(rho, d_v)
    f = quotient.scaled_inner(epsilon)
    halves = bernstein_halves(quotient.degree)
    if alpha < certify._floor(quotient, f, halves) - certify.FEASIBILITY_TOL:
        return _no_design("infeasible")

    x = np.concatenate([[0.0], chebyshev_grid()])
    A = _rows(rho, epsilon, d_v, x)
    backed_off = alpha - 0.5 * SLACK_TOL
    state, status = _dual_start(_lp(A, np.maximum(backed_off, A[:, -1])))
    degrees = range(2, d_v + 1)
    for cuts in range(MAX_CUTS + 1):
        if status != "optimal":
            return _no_design("infeasible", cuts + 1, cuts)
        lam = state.values(d_v - 1)
        if abs(lam.sum() - 1.0) > _SIMPLEX_TOL or lam.min() < -_SIMPLEX_TOL:
            return _no_design("numerical-failure", cuts + 1, cuts)
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
        margin = certify.bernstein_margin(alpha - quotient(dict(zip(degrees, lam)), f), halves)
        if margin.min_slack >= -SLACK_TOL:
            return _result(req, lam, margin, "optimal", cuts + 1, cuts)
        cut = margin.argmin_x
        if cuts == MAX_CUTS or np.min(np.abs(x - cut)) < CUT_DEDUP_TOL:
            return _result(req, lam, margin, "iteration-limit", cuts + 1, cuts)
        row = _rows(rho, epsilon, d_v, [cut])[0]
        status = state.add_row(row, max(backed_off, row[-1]))
        x = np.append(x, cut)
