"""Certifiers for the fast-convergence density-evolution constraint.

The continuous constraint sum_i lambda_i * f(x)^(i-1) <= alpha * x on (0, 1]
is checked through the normalized slack polynomial

    s(x) = alpha - sum_i lambda_i * g_i(x) / x,

which is a genuine polynomial because every g_i vanishes at 0.  Its value at
x = 0 captures the first-order (endpoint) condition alpha >= lambda_2 *
epsilon * rho'(1), which the raw constraint leaves vacuous.

All certifiers work on Bernstein coefficients on [0, 1]
(``polynomials.bernstein_quotient_sum`` and ``BernsteinQuotientSum``),
built from nonnegative sums, through one branch and bound:

- ``_minimum`` is that branch and bound, one loop of breadth-first de
  Casteljau subdivision whose last piece, once convex, is closed by Newton
  on its derivative (``_convex_endgame``), under the two below; the
  decoding threshold (``desim.threshold``) is one over the maximum it
  finds of sum_i lambda_i g_i(x) / x at epsilon = 1, in closed form.  Its
  split maps (``bernstein_halves``) are blocks of one read-only table
  shared by every degree, so a call at a degree used before builds none;
  the table keeps (m+1)^2 doubles for the largest degree m used, about
  8 MB at m = 1000.
- ``bernstein_margin`` bounds the minimum of the slack and locates it; the
  LP cut loop (``lp.solve_semi_infinite``) certifies every candidate lambda
  and picks its cuts with it, and ``min_normalized_slack`` wraps it for the
  sweep row's margin (the CSV's ``min_slack``, and what ``optimize``
  prints) and for ``verify``.
- ``feasibility_floor`` is the smallest feasible alpha; both solver paths
  (``lp.solve_semi_infinite``, ``sos.solve_sdps``) take their infeasibility
  test from it, the LP loop through ``_floor`` on the Bernstein setup it
  certifies with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf
from typing import Mapping

import numpy as np

from .polynomials import (
    BernsteinQuotientSum, Polynomial, _binomial_row, bernstein_halves,
    bernstein_quotient_sum, bernstein_split)

# min_slack >= -FEASIBILITY_TOL counts as feasible; solver outputs carry
# float rounding and the DE simulator re-checks behaviour independently.
FEASIBILITY_TOL = 1e-9

# Caps on de Casteljau subdivision: a piece is halved at most
# MAX_SPLIT_DEPTH times and at most MAX_PIECES pieces are kept at once.
MAX_SPLIT_DEPTH = 40
MAX_PIECES = 1024
# feasibility_floor stops once no piece can exceed its best value by more.
FLOOR_TOL = 1e-12
# Newton steps the convex endgame of _minimum takes at most on one piece.
NEWTON_STEPS = 16


@dataclass(frozen=True)
class MarginReport:
    # The slack's minimum lies in [min_slack - FLOOR_TOL, min_slack] when no
    # subdivision cap ends the search, and min_slack is then the value the
    # slack takes at argmin_x; min_slack - FLOOR_TOL is the proved lower bound.
    # argmin_x is a split point, or a Newton minimiser where the convex
    # endgame closed the search, so not always a dyadic point.
    min_slack: float
    argmin_x: float
    endpoint_slack: float
    feasible: bool


def _check_slack_args(dist_lambda: Mapping[int, float], alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    for i, c in dist_lambda.items():
        if not c >= 0.0:  # a NaN fails it too
            raise ValueError(f"lambda coefficient for degree {i} must be nonnegative, got {c}")


def min_normalized_slack(
    dist_lambda: Mapping[int, float],
    rho: Polynomial,
    epsilon: float,
    alpha: float,
) -> MarginReport:
    """Global minimum of the normalized slack over [0, 1]: ``bernstein_margin``
    on the slack's Bernstein coefficients (``bernstein_quotient_sum``)."""
    _check_slack_args(dist_lambda, alpha)
    coeffs = alpha - bernstein_quotient_sum(dist_lambda, rho, epsilon)
    return bernstein_margin(coeffs, bernstein_halves(coeffs.size - 1))


def _minimum(coeffs: np.ndarray, halves: np.ndarray) -> tuple[float, float, float]:
    """Branch and bound for the minimum over [0, 1] of the polynomial with
    Bernstein coefficients ``coeffs`` (``halves`` of the same degree).

    Breadth first: at each level every piece, of a common width, has its
    end coefficients, which are values of the polynomial, read for the
    smallest value, and its smallest coefficient bounds it from below.
    Pieces whose bound lies within FLOOR_TOL of the best value are dropped,
    the rest are split at their midpoints by de Casteljau (``halves``),
    until no piece is left, MAX_SPLIT_DEPTH splits are made, or a split
    would hold more than MAX_PIECES pieces; a lone piece is first offered
    to ``_convex_endgame``, which closes it by Newton if it is convex.
    Returns (value, location, bound): the smallest value found, the point
    where the polynomial takes it, and a bound such that the minimum lies
    in [bound - FLOOR_TOL, value].  Unless a cap ends the search first,
    bound is the value itself, which is then within FLOOR_TOL above the
    minimum, not below it; a cap that leaves pieces open lowers bound to
    their smallest coefficient.
    """
    pieces = np.asarray(coeffs, dtype=float)[None, :]
    # Columns 0 and m of the pieces; a degree-0 polynomial has one column,
    # and its search ends at the first level with k = 0.
    end_step = max(pieces.shape[1] - 1, 1)
    lefts = [0.0]  # left ends of the pieces, as Python floats
    width = 1.0
    best, where = inf, 0.0
    for depth in range(MAX_SPLIT_DEPTH + 1):
        ends = pieces[:, ::end_step]
        k = int(ends.argmin())
        end = ends.item(k)
        if end < best:
            best = end
            where = lefts[k // 2] + (k % 2) * width
        keep = pieces.min(axis=1) < best - FLOOR_TOL
        if not keep.all():
            pieces = pieces[keep]
            lefts = [left for left, kept in zip(lefts, keep.tolist()) if kept]
        if len(lefts) == 1 and pieces.shape[1] > 2:
            closed = _convex_endgame(pieces[0], best)
            if closed:
                if closed[0] < best:
                    best, where = closed[0], lefts[0] + closed[1] * width
                lefts = []
        if not lefts or depth == MAX_SPLIT_DEPTH or 2 * len(lefts) > MAX_PIECES:
            break
        pieces = bernstein_split(pieces, halves)
        width *= 0.5
        lefts = [x for left in lefts for x in (left, left + width)]
    return best, where, float(pieces.min()) if lefts else best


def _basis(n: int, t: float) -> np.ndarray:
    """The Bernstein basis of degree n at t: C(n, k) t^k (1 - t)^(n - k)."""
    return _binomial_row(n) * t ** np.arange(n + 1) * (1.0 - t) ** np.arange(n, -1, -1)


def _convex_endgame(piece: np.ndarray, best: float) -> tuple[float, float] | None:
    """(p(t), t) if it can close ``_minimum``'s last piece p, else None.
    Positive second differences (degree m >= 2) make p convex; Newton on p'
    from j / m, j its first rising difference, clamped to [0, 1], finds its
    minimiser t, reading p'' and p' off one basis after a de Casteljau step.
    As p lies above its tangent, min p >= p(t) + min(-p'(t) t, p'(t) (1 - t),
    0), and p closes if that is within FLOOR_TOL of min(best, p(t))."""
    first = piece[1:] - piece[:-1]
    second = first[1:] - first[:-1]
    if not second.min() > 0.0:
        return None
    m = piece.size - 1
    t = int(np.count_nonzero(first <= 0.0)) / m
    for _ in range(NEWTON_STEPS):
        basis = _basis(m - 2, t)
        slope = float(((1.0 - t) * first[:-1] + t * first[1:]) @ basis)
        t, previous = min(max(t - slope / ((m - 1) * float(second @ basis)), 0.0), 1.0), t
        if abs(t - previous) <= 4.0 * sys.float_info.epsilon:
            break
    basis = _basis(m - 1, t)
    value = float(((1.0 - t) * piece[:-1] + t * piece[1:]) @ basis)
    slope = m * float(first @ basis)
    if value + min(-slope * t, slope * (1.0 - t), 0.0) < min(best, value) - FLOOR_TOL:
        return None
    return value, t


def bernstein_margin(coeffs: np.ndarray, halves: np.ndarray) -> MarginReport:
    """The margin of a normalized slack given by its Bernstein coefficients
    on [0, 1] (``halves`` of the same degree), by branch and bound:
    ``min_slack`` is the bound of ``_minimum``, so the minimum is at least
    ``min_slack - FLOOR_TOL``.  Unless a subdivision cap ends the search,
    ``min_slack`` is a value the slack takes, at ``argmin_x`` (a split point,
    or the Newton minimiser of a convex last piece), and the minimum lies
    within FLOOR_TOL below it."""
    _, argmin_x, min_slack = _minimum(coeffs, halves)
    return MarginReport(
        min_slack=min_slack,
        argmin_x=argmin_x,
        endpoint_slack=float(coeffs[0]),
        feasible=min_slack >= -FEASIBILITY_TOL,
    )


def feasibility_floor(rho: Polynomial, epsilon: float, d_v: int) -> float:
    """Smallest alpha admitting any feasible lambda with max degree d_v.

    Equals max over [0, 1] of h = g_{d_v}(x) / x: since g_{d_v} <= g_i
    pointwise for every i <= d_v, putting all mass on degree d_v minimizes
    the constraint left-hand side pointwise.  Found by the branch and bound
    of ``_minimum`` on the Bernstein coefficients of -h.  The result is a
    value h takes, so an alpha below it is infeasible; it is within
    FLOOR_TOL of the maximum unless a subdivision cap ends the search
    first.  Both solver paths take their infeasibility test from it.
    """
    quotient = BernsteinQuotientSum(rho, d_v)
    return _floor(quotient, quotient.scaled_inner(epsilon), bernstein_halves(quotient.degree))


def _floor(quotient: BernsteinQuotientSum, scaled_inner: np.ndarray,
           halves: np.ndarray) -> float:
    """``feasibility_floor`` from a solve's own Bernstein setup: the
    ``quotient`` of its rho and d_v, f's ``scaled_inner`` coefficients at its
    epsilon and the ``halves`` of degree ``quotient.degree``.  The LP cut
    loop, which certifies with the same three, calls it directly."""
    h = quotient({quotient.d_v: 1.0}, scaled_inner)
    return -_minimum(-h, halves)[0]
