"""Certifiers for the fast-convergence density-evolution constraint.

The continuous constraint sum_i lambda_i * f(x)^(i-1) <= alpha * x on (0, 1]
is checked through the normalized slack polynomial

    s(x) = alpha - sum_i lambda_i * g_i(x) / x,

which is a genuine polynomial because every g_i vanishes at 0.  Its value at
x = 0 captures the first-order (endpoint) condition alpha >= lambda_2 *
epsilon * rho'(1), which the raw constraint leaves vacuous.

All certifiers work on Bernstein coefficients on [0, 1]
(``polynomials.bernstein_quotient_sum`` and ``BernsteinQuotientSum``),
built from nonnegative sums, with one de Casteljau subdivision loop:

- ``_minimum`` is the branch and bound under the two below; the decoding
  threshold (``desim.threshold``) is one over the maximum it finds of
  sum_i lambda_i g_i(x) / x at epsilon = 1, in closed form.
- ``bernstein_margin`` bounds the minimum of the slack and locates it; the
  LP cut loop (``lp.solve_semi_infinite``) certifies every candidate lambda
  and picks its cuts with it, and ``min_normalized_slack`` wraps it for the
  ``verify`` and ``optimize`` margins of the CLI and the sweep's
  ``min_slack`` column.
- ``feasibility_floor`` is the smallest feasible alpha; both solver paths
  (``lp.solve_semi_infinite``, ``sos.solve_sdp``) take their infeasibility
  test from it, the LP loop through ``_floor`` on the Bernstein setup it
  certifies with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .polynomials import (
    BernsteinQuotientSum, Polynomial, bernstein_halves, bernstein_quotient_sum,
    bernstein_split)

# min_slack >= -FEASIBILITY_TOL counts as feasible; solver outputs carry
# float rounding and the DE simulator re-checks behaviour independently.
FEASIBILITY_TOL = 1e-9

# Caps on de Casteljau subdivision: a piece is halved at most
# MAX_SPLIT_DEPTH times and at most MAX_PIECES pieces are kept at once.
MAX_SPLIT_DEPTH = 40
MAX_PIECES = 1024
# feasibility_floor stops once no piece can exceed its best value by more.
FLOOR_TOL = 1e-12


@dataclass(frozen=True)
class MarginReport:
    min_slack: float
    argmin_x: float
    endpoint_slack: float
    feasible: bool


def _check_slack_args(dist_lambda: Mapping[int, float], alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    for i, c in dist_lambda.items():
        if c < 0.0:
            raise ValueError(f"lambda coefficient for degree {i} is negative")


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


def _subdivide(coeffs: np.ndarray, halves: np.ndarray,
               open_pieces: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
               ) -> np.ndarray:
    """Breadth-first de Casteljau subdivision of the Bernstein coefficients
    ``coeffs`` on [0, 1].  At each level ``open_pieces(pieces, lefts,
    width)`` takes the stacked pieces, the left ends of their intervals and
    the intervals' common width, and returns a boolean mask of the pieces
    still to be split; those are split at their midpoints by ``halves``
    (``bernstein_halves`` of the same degree).  Returns an empty stack once
    every piece is settled, or the open pieces left when a cap ends the loop
    (MAX_SPLIT_DEPTH splits, or a split that would hold more than MAX_PIECES
    pieces).
    """
    pieces = np.asarray(coeffs, dtype=float)[None, :]
    lefts = np.zeros(1)
    width = 1.0
    depth = 0
    while True:
        keep = open_pieces(pieces, lefts, width)
        pieces, lefts = pieces[keep], lefts[keep]
        if not pieces.size or depth == MAX_SPLIT_DEPTH or 2 * len(pieces) > MAX_PIECES:
            return pieces
        pieces = bernstein_split(pieces, halves)
        width *= 0.5
        lefts = np.repeat(lefts, 2)
        lefts[1::2] += width
        depth += 1


def _minimum(coeffs: np.ndarray, halves: np.ndarray) -> tuple[float, float, float]:
    """Branch and bound for the minimum over [0, 1] of the polynomial with
    Bernstein coefficients ``coeffs`` (``halves`` of the same degree).

    The end coefficients of a piece are values of the polynomial, and its
    smallest coefficient bounds it from below on the piece.  Pieces whose
    bound lies within FLOOR_TOL of the best value are dropped, the rest are
    split.  Returns (value, location, bound): the smallest value found and
    the point where the polynomial takes it, which is within FLOOR_TOL of
    the minimum unless a subdivision cap ends the search first, and a lower
    bound on the minimum, which is the value itself unless a cap left
    pieces open.
    """
    best, where = np.inf, 0.0

    def may_undercut(pieces: np.ndarray, lefts: np.ndarray, width: float) -> np.ndarray:
        nonlocal best, where
        ends = pieces[:, [0, -1]]
        k = int(np.argmin(ends))
        if ends.flat[k] < best:
            best = float(ends.flat[k])
            where = float(lefts[k // 2] + (k % 2) * width)
        return pieces.min(axis=1) < best - FLOOR_TOL

    left = _subdivide(coeffs, halves, may_undercut)
    return best, where, min(best, float(left.min())) if left.size else best


def bernstein_margin(coeffs: np.ndarray, halves: np.ndarray) -> MarginReport:
    """The margin of a normalized slack given by its Bernstein coefficients
    on [0, 1] (``halves`` of the same degree), by branch and bound: the
    minimum is proved to within FLOOR_TOL, ``min_slack`` is a lower bound
    on it, and ``argmin_x`` a point where the slack is within FLOOR_TOL of
    it."""
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
