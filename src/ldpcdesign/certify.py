"""Certifier for the fast-convergence density-evolution constraint.

The continuous constraint sum_i lambda_i * f(x)^(i-1) <= alpha * x on (0, 1]
is checked through the normalized slack polynomial

    s(x) = alpha - sum_i lambda_i * g_i(x) / x,

which is a genuine polynomial because every g_i vanishes at 0.  Its value at
x = 0 captures the first-order (endpoint) condition alpha >= lambda_2 *
epsilon * rho'(1), which the raw constraint leaves vacuous.

This module is the single source of truth for feasibility: both solver paths
and the threshold search certify their answers here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .polynomials import Polynomial, constraint_basis

# min_slack >= -FEASIBILITY_TOL counts as feasible; solver outputs carry
# float rounding and the DE simulator re-checks behaviour independently.
FEASIBILITY_TOL = 1e-9

GRID_SIZE = 2048
REFINE_WIDTH = 1e-12


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


def _extremum_on_unit_interval(p: Polynomial, minimize: bool = True) -> tuple[float, float]:
    """Global min (or max) of p over [0, 1] by grid scan plus derivative
    sign-change refinement.  Returns (value, location)."""
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
    k = int(np.argmin(all_vals) if minimize else np.argmax(all_vals))
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
    min_slack, argmin_x = _extremum_on_unit_interval(s, minimize=True)
    return MarginReport(
        min_slack=min_slack,
        argmin_x=argmin_x,
        endpoint_slack=s(0.0),
        feasible=min_slack >= -FEASIBILITY_TOL,
    )


def feasibility_floor(rho: Polynomial, epsilon: float, d_v: int) -> float:
    """Smallest alpha admitting any feasible lambda with max degree d_v.

    Equals max over (0, 1] of g_{d_v}(x) / x: since g_{d_v} <= g_i pointwise
    for every i <= d_v, putting all mass on degree d_v minimizes the
    constraint left-hand side pointwise.
    """
    return _floor(constraint_basis(rho, epsilon, d_v))


def _floor(basis: list[Polynomial]) -> float:
    """The feasibility floor from the constraint basis of degrees 2..d_v."""
    value, _ = _extremum_on_unit_interval(basis[-1].quotient_by_x(), minimize=False)
    return value
