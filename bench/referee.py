"""Independent computations that judge the program's answers.

None of this imports ``ldpcdesign`` or shares its code paths.  Polynomials
are evaluated directly as f(x) = 1 - rho(1 - eps x) and raised to powers
pointwise, never expanded in the monomial basis, so they are immune to the
cancellation that basis suffers at high degree.  The LP referee is
scipy's HiGHS on a dense grid; scipy is imported only when it is first
needed, after the timed region.
"""

from __future__ import annotations

import numpy as np

SLACK_TOL = 1e-9  # the program's own feasibility tolerance
# Sum lambda_i / i of a correct answer lies within this of the dense-grid
# LP optimum; the optimal-but-suboptimal answers of the simplex kernel miss
# it by 2e-6 and more.
OBJECTIVE_TOL = 1e-6
SIMPLEX_TOL = 1e-9  # |sum lambda - 1|
THRESHOLD_TOL = 2e-6  # the program bisects to 1e-6

# Presolve off: 10-80 ms per solve instead of 2-7 s.  Tolerances well below
# SLACK_TOL, so the referee's own lambda is feasible to about 1e-9.
_HIGHS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}
_SLACK_GRID = np.arange(1, 20_001) / 20_000
_LP_GRID = (1.0 - np.cos(np.arange(1, 4001) * np.pi / 4000)) / 2.0
_Y_GRID = np.arange(1, 200_001) / 200_000


def edge_poly(coeffs: dict, x):
    """sum_d c_d x^(d-1) for an edge-degree map {d: c_d}."""
    x = np.asarray(x, dtype=float)
    return sum(c * x ** (d - 1) for d, c in coeffs.items())


def _inner(d_c: int, eps: float, x):
    """f(x) = 1 - (1 - eps x)^(d_c - 1), for rho = x^(d_c - 1)."""
    return 1.0 - (1.0 - eps * x) ** (d_c - 1)


def alpha_floor(d_c: int, eps: float, d_v: int) -> float:
    """max over (0, 1] of f(x)^(d_v-1) / x: all edge mass on degree d_v is
    pointwise the smallest left-hand side, so no alpha below this is
    feasible."""
    x = _SLACK_GRID
    return float(np.max(_inner(d_c, eps, x) ** (d_v - 1) / x))


def dense_min_slack(lam: dict, d_c: int, eps: float, alpha: float) -> float:
    """min of alpha - sum_i lam_i f(x)^(i-1) / x over a 20 000-point grid and
    its x -> 0 limit alpha - lam_2 eps (d_c - 1)."""
    x = _SLACK_GRID
    f = _inner(d_c, eps, x)
    lhs = sum(c * f ** (i - 1) for i, c in lam.items()) / x
    endpoint = alpha - lam.get(2, 0.0) * eps * (d_c - 1)
    return float(min(np.min(alpha - lhs), endpoint))


def lp_referee(d_c: int, eps: float, d_v: int, alpha: float):
    """max sum_i lam_i / i on a 4000-point Chebyshev grid plus the x -> 0 row.

    Returns (optimum, {degree: lambda}), or None when the referee finds the
    LP infeasible.  The grid LP relaxes the continuous one, so its optimum
    is an upper bound that a correct answer meets within OBJECTIVE_TOL.
    """
    from scipy.optimize import linprog

    x = _LP_GRID
    f = _inner(d_c, eps, x)
    degrees = np.arange(2, d_v + 1)
    A = f[:, None] ** (degrees - 1)[None, :] / x[:, None]
    endpoint = np.zeros(d_v - 1)
    endpoint[0] = eps * (d_c - 1)
    A = np.vstack([endpoint, A])
    b = np.full(A.shape[0], alpha)
    res = linprog(-1.0 / degrees, A_ub=A, b_ub=b, A_eq=np.ones((1, d_v - 1)), b_eq=[1.0],
                  bounds=(0, None), method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"LP referee failed: {res.message}")
    return float(-res.fun), {int(d): float(v) for d, v in zip(degrees, res.x) if v > 0.0}


def reference_threshold(lam: dict, rho: dict) -> float:
    """BEC density-evolution threshold, the largest eps with
    eps lambda(1 - rho(1 - y)) < y for all y in (0, 1].

    That is inf_y y / lambda(1 - rho(1 - y)), taken on a 200 000-point grid
    together with its y -> 0 limit 1 / (lambda_2 rho'(1)): the closed form
    of a bisection over the fixed-point test.
    """
    y = _Y_GRID
    psi = y / edge_poly(lam, 1.0 - edge_poly(rho, 1.0 - y))
    best = float(np.min(psi))
    lam2 = lam.get(2, 0.0)
    if lam2 > 0.0:
        rho_prime = sum(c * (d - 1) for d, c in rho.items())
        best = min(best, 1.0 / (lam2 * rho_prime))
    return best
