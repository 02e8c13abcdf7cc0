"""Reference implementations used only by the test suite.

The vertex-enumeration LP oracle and the threshold oracles deliberately
avoid the library's solver code paths: the first enumerates vertices by
brute force, the threshold oracles scan the DE update map for fixed points
or take its closed form on a dense grid.  The fine-grid objective is a
referee for the cutting-plane loop only: it evaluates its rows directly,
never expanded, and runs the library's simplex kernel once, on the dual
of a dense-grid LP.  The HiGHS grid objective and the direct slack share
no code with the library: their rows are evaluated directly as well, and
scipy solves the LP.  ``random_edge_map`` draws the random degree
distributions the tests check against these.
"""

from itertools import combinations

import numpy as np

from ldpcdesign.lp import LPStandardForm, simplex_solve


def brute_force_lp(c, A, b, E, d):
    """max c.x  s.t.  A x <= b, E x = d, x >= 0, by vertex enumeration.

    Assumes the feasible region is bounded (callers add box constraints).
    Returns (best_x, best_obj) or (None, None) when infeasible.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, c.size)
    b = np.asarray(b, dtype=float)
    E = np.asarray(E, dtype=float).reshape(-1, c.size)
    d = np.asarray(d, dtype=float)
    n = c.size

    ineq_rows = np.vstack([A, -np.eye(n)])
    ineq_rhs = np.concatenate([b, np.zeros(n)])
    m_eq = E.shape[0]
    if m_eq > n:
        return None, None

    best_x, best_obj = None, None
    for combo in combinations(range(ineq_rows.shape[0]), n - m_eq):
        M = np.vstack([E, ineq_rows[list(combo)]])
        rhs = np.concatenate([d, ineq_rhs[list(combo)]])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(ineq_rows @ x > ineq_rhs + 1e-9):
            continue
        if m_eq and np.any(np.abs(E @ x - d) > 1e-9):
            continue
        obj = float(c @ x)
        if best_obj is None or obj > best_obj:
            best_obj, best_x = obj, x
    return best_x, best_obj


def random_edge_map(rng, lo, hi, max_terms):
    """A random edge-degree map {degree: fraction}: 1..max_terms distinct
    degrees in lo..hi with Dirichlet(1) fractions summing to 1."""
    k = int(rng.integers(1, max_terms + 1))
    degrees = rng.choice(np.arange(lo, hi + 1), size=k, replace=False)
    w = rng.dirichlet(np.ones(k))
    w[-1] = 1.0 - w[:-1].sum()
    return {int(d): float(c) for d, c in zip(degrees, w)}


def threshold_fixed_point_scan(lam_poly, rho_poly, eps, grid_step=1e-4):
    """True iff the DE update eps*lambda(1 - rho(1 - y)) stays strictly
    below y on a fine grid over (0, eps] -- i.e. no fixed point blocks
    convergence to zero."""
    ys = np.arange(grid_step, eps + grid_step, grid_step)
    ys = ys[ys <= eps]
    upd = eps * lam_poly(1.0 - rho_poly(1.0 - ys))
    return bool(np.all(upd < ys))


def bisect_threshold_by_recursion(lam_poly, rho_poly, tol=1e-4):
    """Threshold estimate from bisection over the fixed-point scan."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if threshold_fixed_point_scan(lam_poly, rho_poly, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fine_grid_objective(req, num_points=20_000):
    """Referee objective: one-shot LP on a uniform grid, solved through the
    same simplex kernel applied to the dual (few rows, many columns).  The
    rows f(x)^(i-1), f(x) = 1 - rho(1 - epsilon x), are evaluated
    directly."""
    xs = np.arange(1, num_points + 1) / num_points
    f = 1.0 - req.rho(1.0 - req.epsilon * xs)
    G = f[:, None] ** np.arange(1, req.d_v)  # num_points x n
    n = req.d_v - 1
    c = np.array([1.0 / i for i in range(2, req.d_v + 1)])
    b = req.alpha * xs
    # Dual of {max c.l | G l <= b, 1.l = 1, l >= 0}:
    #   min b.y + mu  s.t.  G^T y + mu >= c, y >= 0, mu free (split mu).
    A_d = np.hstack([-G.T, -np.ones((n, 1)), np.ones((n, 1))])
    c_d = np.concatenate([-b, [-1.0, 1.0]])
    lp = LPStandardForm(c=c_d, A=A_d, b=-c, E=np.zeros((0, num_points + 2)),
                        d=np.zeros(0))
    _, obj, status = simplex_solve(lp)
    if status != "optimal":
        raise RuntimeError(f"fine-grid oracle LP ended with status {status}")
    return -obj


def threshold_closed_form(lam, rho, num_points=200_000):
    """BEC density-evolution threshold inf_y y / lambda(1 - rho(1 - y)) for
    edge-degree maps {degree: fraction}, evaluated directly on a uniform
    grid of (0, 1] together with its y -> 0 limit 1 / (lambda_2 rho'(1)),
    never expanded."""
    y = np.arange(1, num_points + 1) / num_points
    inner = 1.0 - sum(c * (1.0 - y) ** (d - 1) for d, c in rho.items())
    best = float(np.min(y / sum(c * inner ** (d - 1) for d, c in lam.items())))
    if lam.get(2, 0.0) > 0.0:
        rho_prime = sum(c * (d - 1) for d, c in rho.items())
        best = min(best, 1.0 / (lam[2] * rho_prime))
    return best


def highs_grid_objective(rho, d_v, epsilon, alpha, num_points=4000):
    """max sum_i lambda_i / i subject to sum_i lambda_i f(x)^(i-1) / x <= alpha
    on a Chebyshev grid of [0, 1] plus the x -> 0 row, by scipy's HiGHS,
    for rho an edge-degree map {degree: fraction} and
    f(x) = 1 - rho(1 - epsilon x) evaluated directly.  The grid LP relaxes
    the continuous one, so this is an upper bound on its optimum.  Needs
    scipy."""
    from scipy.optimize import linprog

    x = (1.0 - np.cos(np.arange(1, num_points + 1) * np.pi / num_points)) / 2.0
    f = 1.0 - sum(c * (1.0 - epsilon * x) ** (d - 1) for d, c in rho.items())
    degrees = np.arange(2, d_v + 1)
    A = f[:, None] ** (degrees - 1)[None, :] / x[:, None]
    endpoint = np.zeros(d_v - 1)
    endpoint[0] = epsilon * sum(c * (d - 1) for d, c in rho.items())
    A = np.vstack([endpoint, A])
    res = linprog(-1.0 / degrees, A_ub=A, b_ub=np.full(A.shape[0], alpha),
                  A_eq=np.ones((1, d_v - 1)), b_eq=[1.0], bounds=(0, None),
                  method="highs",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS grid LP ended with: {res.message}")
    return float(-res.fun)


def direct_min_slack(lam, rho, epsilon, alpha, num_points=200_000):
    """min of alpha - sum_i lambda_i f(x)^(i-1) / x over a uniform grid of
    (0, 1] and its x -> 0 limit alpha - lambda_2 epsilon rho'(1), for
    edge-degree maps {degree: fraction} and f(x) = 1 - rho(1 - epsilon x)
    evaluated directly, never expanded."""
    x = np.arange(1, num_points + 1) / num_points
    f = 1.0 - sum(c * (1.0 - epsilon * x) ** (d - 1) for d, c in rho.items())
    slack = alpha - sum(c * f ** (i - 1) for i, c in lam.items()) / x
    rho_prime = sum(c * (d - 1) for d, c in rho.items())
    return min(float(np.min(slack)), alpha - lam.get(2, 0.0) * epsilon * rho_prime)
