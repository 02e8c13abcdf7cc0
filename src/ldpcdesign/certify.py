"""Certifiers for the fast-convergence density-evolution constraint.

The continuous constraint sum_i lambda_i * f(x)^(i-1) <= alpha * x on (0, 1]
is checked through the normalized slack polynomial

    s(x) = alpha - sum_i lambda_i * g_i(x) / x,

which is a genuine polynomial because every g_i vanishes at 0.  Its value at
x = 0 captures the first-order (endpoint) condition alpha >= lambda_2 *
epsilon * rho'(1), which the raw constraint leaves vacuous.

Two deciders serve different callers:

- ``proves_positive`` and ``feasibility_floor`` work on Bernstein
  coefficients on [0, 1] (``polynomials.bernstein_quotient_sum``), built
  from nonnegative sums, with one de Casteljau subdivision loop.  The
  threshold search (``desim.threshold``) asks ``proves_positive`` whether
  the slack at alpha = 1 is positive, and both solver paths
  (``lp.solve_semi_infinite``, ``sos.solve_sdp``) read their infeasibility
  test from ``feasibility_floor``.
- ``min_normalized_slack`` / ``_margin`` scan the monomial expansion of
  ``polynomials.constraint_basis`` on a grid with derivative refinement.
  The LP cut loop, ``verify`` and the sweep margins use them; at high
  degree that expansion cancels (see ``polynomials``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .polynomials import (
    Polynomial, bernstein_halves, bernstein_quotient_sum, bernstein_split,
    constraint_basis)

# min_slack >= -FEASIBILITY_TOL counts as feasible; solver outputs carry
# float rounding and the DE simulator re-checks behaviour independently.
FEASIBILITY_TOL = 1e-9

GRID_SIZE = 2048
REFINE_WIDTH = 1e-12

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


def normalized_slack_poly(
    dist_lambda: Mapping[int, float],
    rho: Polynomial,
    epsilon: float,
    alpha: float,
) -> Polynomial:
    """s(x) = alpha - sum_i lambda_i * (g_i(x) / x) as a Polynomial."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    for i, c in dist_lambda.items():
        if c < 0.0:
            raise ValueError(f"lambda coefficient for degree {i} is negative")
    basis = constraint_basis(rho, epsilon, max(dist_lambda))
    return _slack_poly(dist_lambda, basis, alpha)


def _slack_poly(dist_lambda: Mapping[int, float], basis: list[Polynomial],
                alpha: float) -> Polynomial:
    """s(x) over a constraint basis that reaches degree max(dist_lambda)."""
    s = Polynomial([float(alpha)])
    for i, c in dist_lambda.items():
        if c == 0.0:
            continue
        s = s - c * basis[i - 2].quotient_by_x()
    return s


def _minimum_on_unit_interval(p: Polynomial) -> tuple[float, float]:
    """Global min of p over [0, 1] by grid scan plus derivative sign-change
    refinement.  Returns (value, location)."""
    xs = np.linspace(0.0, 1.0, GRID_SIZE)
    vals = p(xs)
    dp = p.derivative()
    dvals = dp(xs)

    candidates = [0.0, 1.0]
    sign = np.sign(dvals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for k in flips:
        lo, hi = xs[k], xs[k + 1]
        flo = dvals[k]
        while hi - lo > REFINE_WIDTH:
            mid = 0.5 * (lo + hi)
            fm = dp(mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        candidates.append(0.5 * (lo + hi))
    # Exact-zero derivative samples are critical points already on the grid.
    candidates.extend(xs[np.nonzero(dvals == 0.0)[0]].tolist())

    cand = np.asarray(candidates)
    all_vals = np.concatenate([vals, p(cand)])
    all_xs = np.concatenate([xs, cand])
    k = int(np.argmin(all_vals))
    return float(all_vals[k]), float(all_xs[k])


def min_normalized_slack(
    dist_lambda: Mapping[int, float],
    rho: Polynomial,
    epsilon: float,
    alpha: float,
) -> MarginReport:
    """Global minimum of the normalized slack over [0, 1]."""
    return _margin(normalized_slack_poly(dist_lambda, rho, epsilon, alpha))


def _margin(s: Polynomial) -> MarginReport:
    """Global minimum of the normalized slack polynomial s over [0, 1]."""
    min_slack, argmin_x = _minimum_on_unit_interval(s)
    return MarginReport(
        min_slack=min_slack,
        argmin_x=argmin_x,
        endpoint_slack=s(0.0),
        feasible=min_slack >= -FEASIBILITY_TOL,
    )


def _subdivide(coeffs: np.ndarray, halves: np.ndarray,
               open_pieces: Callable[[np.ndarray], np.ndarray | None]
               ) -> np.ndarray | None:
    """Breadth-first de Casteljau subdivision of the Bernstein coefficients
    ``coeffs`` on [0, 1].  At each level ``open_pieces`` takes the stacked
    pieces and returns those still to be split, or None to stop the search;
    the rest are split at their midpoints by ``halves`` (``bernstein_halves``
    of the same degree).  Returns what ``open_pieces`` returned last: None,
    an empty stack once every piece is settled, or the open pieces left when
    a cap ends the loop (MAX_SPLIT_DEPTH splits, or a split that would hold
    more than MAX_PIECES pieces).
    """
    pieces = np.asarray(coeffs, dtype=float)[None, :]
    depth = 0
    while True:
        pieces = open_pieces(pieces)
        if (pieces is None or not pieces.size or depth == MAX_SPLIT_DEPTH
                or 2 * len(pieces) > MAX_PIECES):
            return pieces
        pieces = bernstein_split(pieces, halves)
        depth += 1


def proves_positive(coeffs: np.ndarray, halves: np.ndarray) -> bool:
    """True only when the polynomial with Bernstein coefficients ``coeffs``
    on [0, 1] is proved positive on all of [0, 1].

    All coefficients of a piece > 0 prove it positive there; an end
    coefficient <= 0 is the value at an end of the piece and refutes.
    Otherwise every unproved piece is split at its midpoint by ``halves``
    (``bernstein_halves`` of the same degree), breadth first.  Hitting
    MAX_SPLIT_DEPTH or MAX_PIECES answers False: not proved.
    """
    def unproved(pieces: np.ndarray) -> np.ndarray | None:
        if not (pieces[:, 0].min() > 0.0 and pieces[:, -1].min() > 0.0):
            return None
        return pieces[~(pieces.min(axis=1) > 0.0)]

    left = _subdivide(coeffs, halves, unproved)
    return left is not None and not left.size


def feasibility_floor(rho: Polynomial, epsilon: float, d_v: int) -> float:
    """Smallest alpha admitting any feasible lambda with max degree d_v.

    Equals max over [0, 1] of h = g_{d_v}(x) / x: since g_{d_v} <= g_i
    pointwise for every i <= d_v, putting all mass on degree d_v minimizes
    the constraint left-hand side pointwise.  Found by branch and bound on
    the Bernstein coefficients of h: the end coefficients of a piece are
    values of h, and its largest coefficient bounds h on the piece.  Pieces
    whose bound lies within FLOOR_TOL of the best value are dropped, the
    rest are split.  The result is a value h takes, so an alpha below it is
    infeasible; it is within FLOOR_TOL of the maximum unless a subdivision
    cap ends the search first.  Both solver paths take their infeasibility
    test from it.
    """
    h = bernstein_quotient_sum({d_v: 1.0}, rho, epsilon)
    best = -np.inf

    def may_exceed(pieces: np.ndarray) -> np.ndarray:
        nonlocal best
        best = max(best, pieces[:, [0, -1]].max())
        return pieces[pieces.max(axis=1) > best + FLOOR_TOL]

    _subdivide(h, bernstein_halves(h.size - 1), may_exceed)
    return float(best)
