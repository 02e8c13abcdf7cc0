"""SOS path: problem assembly, the SDP kernel, and certificate checking."""

from functools import lru_cache
from math import comb

import numpy as np
import pytest

from ldpcdesign import sos
from ldpcdesign.certify import feasibility_floor, min_normalized_slack
from ldpcdesign.lp import SolveRequest, solve_semi_infinite
from ldpcdesign.polynomials import (
    DegreeDistribution, bernstein_quotient_sum, poly_from_edge_coeffs, rate_and_gap)
from ldpcdesign.sos import (
    SOSCertificate, build_sos_problem, certificate_min_eigenvalue,
    check_certificate, solve_sdp)

from oracles import highs_grid_objective

RHO_X = poly_from_edge_coeffs({2: 1.0})
RHO_X3 = poly_from_edge_coeffs({4: 1.0})
RHO_X4 = poly_from_edge_coeffs({5: 1.0})
REFERENCE_ALPHAS = tuple(round(0.2 + 0.1 * k, 1) for k in range(9))

# Designs (d_c, d_v, epsilon, alpha) with rho = x^(d_c - 1) from the
# benchmark's lp-stress panel on which the earlier monomial, extended-
# precision SDP path raised, stopped at its iteration limit or needed 84
# iterations.
HARD_DESIGNS = (
    (7, 13, 0.3583, 0.5869),
    (6, 14, 0.3309, 0.4451),
    (7, 15, 0.4797, 0.8741),
    (6, 14, 0.3708, 0.2892),
    (6, 8, 0.5956, 0.9967),
    (8, 13, 0.3717, 0.8028),
    (5, 14, 0.5022, 0.6583),
    (7, 12, 0.372, 0.866),
)

# Designs (rho, epsilon, d_v) from a random near-floor panel.  Just above
# the floor the feasible set is thin: a plain infeasible-start kernel
# without the self-dual embedding stalls on each of them at floor + 1e-7
# with a matching residual near 1e-7.
NEAR_FLOOR_DESIGNS = (
    (poly_from_edge_coeffs({6: 0.07759422793351788, 11: 0.9224057720664821}),
     0.28351909875611425, 5),
    (poly_from_edge_coeffs({7: 1.0}), 0.40595423136583747, 7),
    (poly_from_edge_coeffs({5: 0.7358855802517966, 8: 0.2641144197482034}),
     0.5610073214383534, 7),
    (poly_from_edge_coeffs({10: 1.0}), 0.35474977619529724, 8),
)


def _bernstein_matrix(n, xs):
    """B[p, l] = C(n, l) x_p^l (1 - x_p)^(n - l)."""
    l = np.arange(n + 1)
    binom = np.array([comb(n, k) for k in l], dtype=float)
    return binom * xs[:, None] ** l * (1.0 - xs[:, None]) ** (n - l)


def _gram_values(G, xs):
    """v(x)^T G v(x) at each point, v the Chebyshev basis T_j(2x - 1) of
    degree s - 1, by T_j(cos t) = cos(j t)."""
    v = np.cos(np.arccos(np.clip(2.0 * xs - 1.0, -1.0, 1.0))[:, None]
               * np.arange(G.shape[0]))
    return np.einsum("pj,jk,pk->p", v, G, v)


def _interval_sos_poly(m, G0, G1):
    """Bernstein coefficients of q from the two-block interval
    representation at degree m.  The Gram forms are evaluated directly at
    4(m+1) Chebyshev points and the coefficients fitted by least squares."""
    n = 4 * (m + 1)
    xs = (1.0 - np.cos((np.arange(n) + 0.5) * np.pi / n)) / 2.0
    if m % 2 == 0:
        vals = _gram_values(G0, xs)
        if G1 is not None and G1.size:
            vals += xs * (1.0 - xs) * _gram_values(G1, xs)
    else:
        vals = xs * _gram_values(G0, xs) + (1.0 - xs) * _gram_values(G1, xs)
    return np.linalg.lstsq(_bernstein_matrix(m, xs), vals, rcond=None)[0]


@lru_cache(maxsize=None)
def _solve_design(d_c, d_v, epsilon, alpha):
    rho = poly_from_edge_coeffs({d_c: 1.0})
    return solve_sdp(build_sos_problem(
        SolveRequest(rho=rho, epsilon=epsilon, alpha=alpha, d_v=d_v)))


def _direct_min_slack(lam, d_c, epsilon, alpha):
    """min over a 20 000-point grid of alpha - sum_i lam_i f(x)^(i-1) / x,
    f(x) = 1 - (1 - epsilon x)^(d_c - 1) evaluated directly."""
    x = np.arange(1, 20_001) / 20_000
    f = 1.0 - (1.0 - epsilon * x) ** (d_c - 1)
    return float(np.min(alpha - sum(c * f ** (i - 1) for i, c in lam.items()) / x))


def test_problem_degree_bookkeeping():
    prob = build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6))
    assert prob.q_degree == 14
    assert prob.gram_sizes == (8, 7)
    assert prob.degrees == tuple(range(2, 7))


def test_problem_affine_constant_carries_alpha():
    # q = alpha - sum_i lambda_i g_i / x at the m + 1 nodes: the constant
    # alpha is alpha at every node, and the Chebyshev interpolant of the
    # node values, in T_j(2x - 1), takes q's values at 0 and 1.
    prob = build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.7, d_v=6))
    assert prob.alpha == 0.7
    assert prob.node_rows.shape == (15, 5)
    assert np.array_equal(prob.alpha - prob.node_rows @ np.zeros(5), np.full(15, 0.7))
    q = prob.alpha - prob.node_rows @ np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    t = 2.0 * sos._nodes(prob.q_degree) - 1.0
    coeffs = np.polynomial.chebyshev.chebfit(t, q, prob.q_degree)
    # (g_2/x)(0) = 0.9 and (g_2/x)(1) = 1 - 0.7^3 for rho = x^3, eps = 0.3.
    assert np.polynomial.chebyshev.chebval(-1.0, coeffs) == pytest.approx(0.7 - 0.9, abs=1e-12)
    assert np.polynomial.chebyshev.chebval(1.0, coeffs) == pytest.approx(
        0.7 - (1.0 - 0.7 ** 3), abs=1e-12)


def test_solve_pinned_single_variable():
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X, epsilon=0.5, alpha=1.0, d_v=2)))
    assert sol.status == "optimal"
    assert sol.lambda_coeffs[2] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)
    # q(x) = 1 - 0.5*lambda_2 is the constant 0.5; its certificate is a
    # 1x1 Gram matrix carrying that value.
    assert cert.gram_blocks[0].shape == (1, 1)
    assert cert.gram_blocks[0][0, 0] == pytest.approx(0.5, abs=1e-6)


def test_solve_pinned_cubic():
    sol, _ = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=2)))
    assert sol.status == "optimal"
    assert sol.lambda_coeffs[2] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)


def test_solve_matches_lp_path():
    # alpha = 0.9 is a degenerate breakpoint of the optimal lambda.
    for d_v, alpha in ((6, 1.0), (10, 0.5), (10, 0.9), (10, 1.0), (14, 0.9)):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=d_v)
        sol, cert = solve_sdp(build_sos_problem(req))
        lp_res = solve_semi_infinite(req)
        assert sol.status == "optimal"
        rate_sdp, _ = rate_and_gap(sol.lambda_coeffs, RHO_X3, 0.3)
        assert rate_sdp == pytest.approx(lp_res.rate, abs=1e-8)
        assert cert.matching_residual <= 1e-8
        assert cert.min_eigenvalue >= -1e-8


def test_solve_below_floor_infeasible():
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.05, d_v=6)))
    assert sol.status == "infeasible"
    assert cert is None
    assert sol.lambda_coeffs == {}
    # Both paths share one infeasibility rule: the feasibility floor.
    for rho, epsilon, d_v in ((RHO_X3, 0.3, 10), (RHO_X4, 0.25, 8),
                              *NEAR_FLOOR_DESIGNS):
        floor = feasibility_floor(rho, epsilon, d_v)
        below = SolveRequest(rho=rho, epsilon=epsilon, alpha=floor - 1e-3,
                             d_v=d_v)
        sol, cert = solve_sdp(build_sos_problem(below))
        assert sol.status == "infeasible" and cert is None
        assert solve_semi_infinite(below).status == "infeasible"
        for delta in (1e-7, 1e-5, 1e-3):
            above = SolveRequest(rho=rho, epsilon=epsilon,
                                 alpha=floor + delta, d_v=d_v)
            sol, cert = solve_sdp(build_sos_problem(above))
            assert sol.status == "optimal"
            assert cert.matching_residual <= 1e-8
            assert cert.min_eigenvalue >= -1e-8


def test_kernel_below_floor_ends_at_iteration_limit():
    # Infeasibility is decided only by the floor test.  An alpha that slips
    # past it drives the embedding's tau to zero; that stop ends the solve
    # without raising and reports iteration-limit.  The stall rule needs 30
    # iterations without progress and the iteration cap 500, so a solve
    # ended within 30 iterations was ended by neither.
    floor = feasibility_floor(RHO_X3, 0.3, 10)
    prob = build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=floor - 1e-4, d_v=10))
    *_, iterations, status, reason = sos._assemble(prob).solve()
    assert status == "iteration-limit"
    assert reason == "tau-collapse"
    assert iterations <= 30


def test_solution_soundness_and_duality_gap():
    for alpha in (0.3, 0.6, 1.0):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=6)
        sol, cert = solve_sdp(build_sos_problem(req))
        assert sol.status == "optimal"
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))
        margin = min_normalized_slack(sol.lambda_coeffs, RHO_X3, 0.3, alpha)
        assert margin.min_slack >= -1e-8


def test_solver_deterministic():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    sol1, cert1 = solve_sdp(build_sos_problem(req))
    sol2, cert2 = solve_sdp(build_sos_problem(req))
    assert sol1.lambda_coeffs == sol2.lambda_coeffs
    assert np.array_equal(cert1.gram_blocks[0], cert2.gram_blocks[0])


def test_check_certificate_perfect_square():
    # Over v = (1, t), t = 2x - 1: x^2 = (1 + t)^2 / 4.
    G0 = np.array([[0.25, 0.25], [0.25, 0.25]])
    G1 = np.zeros((1, 1))
    cert = SOSCertificate(gram_blocks=(G0, G1), matching_residual=0.0,
                          min_eigenvalue=0.0)
    q = [0.0, 0.0, 1.0]  # x^2 in the Bernstein basis of degree 2
    assert check_certificate(q, cert) == pytest.approx(0.0, abs=1e-15)
    # q may be given at a lower degree: x = [0, 1] at degree 1.
    G0 = np.array([[0.5, 0.25], [0.25, 0.0]])  # 1/2 + t/2 = x
    cert = SOSCertificate(gram_blocks=(G0, G1), matching_residual=0.0,
                          min_eigenvalue=0.0)
    assert check_certificate([0.0, 1.0], cert) == pytest.approx(0.0, abs=1e-15)


def test_check_certificate_constant():
    cert = SOSCertificate(gram_blocks=(np.array([[1.0]]),),
                          matching_residual=0.0, min_eigenvalue=1.0)
    assert check_certificate([1.0], cert) == 0.0


def test_check_certificate_dimension_mismatch():
    # Blocks of sizes (3, 1) fit no interval representation.
    cert = SOSCertificate(gram_blocks=(np.eye(3), np.eye(1)),
                          matching_residual=0.0, min_eigenvalue=1.0)
    with pytest.raises(ValueError):
        check_certificate([0.0, 0.0, 1.0], cert)
    # Degree-4 blocks cannot certify a degree-7 polynomial.
    cert = SOSCertificate(gram_blocks=(np.eye(3), np.eye(2)),
                          matching_residual=0.0, min_eigenvalue=1.0)
    with pytest.raises(ValueError):
        check_certificate([0.0] * 7 + [1.0], cert)


def test_check_certificate_detects_perturbation():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    sol, cert = solve_sdp(build_sos_problem(req))
    q = 0.5 - bernstein_quotient_sum(sol.lambda_coeffs, RHO_X3, 0.3)
    assert check_certificate(q, cert) <= 1e-8
    G0 = cert.gram_blocks[0].copy()
    G0[1, 1] += 1e-3
    bad = SOSCertificate(gram_blocks=(G0,) + cert.gram_blocks[1:],
                         matching_residual=0.0, min_eigenvalue=0.0)
    assert check_certificate(q, bad) >= 1e-4


def test_round_trip_random_explicit_sos():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        if m % 2 == 0:
            s0, s1 = m // 2 + 1, m // 2
        else:
            s0 = s1 = (m + 1) // 2
        A0 = rng.standard_normal((s0, s0))
        G0 = A0 @ A0.T + 1e-6 * np.eye(s0)
        if s1 > 0:
            A1 = rng.standard_normal((s1, s1))
            G1 = A1 @ A1.T + 1e-6 * np.eye(s1)
        else:
            G1 = None
        q = _interval_sos_poly(m, G0, G1)
        blocks = (G0,) if G1 is None else (G0, G1)
        cert = SOSCertificate(gram_blocks=blocks, matching_residual=0.0,
                              min_eigenvalue=0.0)
        assert check_certificate(q, cert) <= 1e-10
        assert certificate_min_eigenvalue(cert) >= 0.0


def test_lambda_sums_to_one():
    # The tiny entries are dropped before the single normalization, so the
    # sum is 1 to roundoff and the result is a valid degree distribution.
    designs = [(4, 6, 0.3, alpha) for alpha in REFERENCE_ALPHAS]
    for d_c, d_v, epsilon, alpha in designs + list(HARD_DESIGNS):
        sol, _ = _solve_design(d_c, d_v, epsilon, alpha)
        assert abs(sum(sol.lambda_coeffs.values()) - 1.0) <= 1e-12
        DegreeDistribution(sol.lambda_coeffs, {d_c: 1.0})


@pytest.mark.parametrize("design", HARD_DESIGNS)
def test_hard_design_certified(design):
    d_c, d_v, epsilon, alpha = design
    sol, cert = _solve_design(*design)
    assert sol.status == "optimal"
    assert cert.matching_residual <= 1e-8
    assert cert.min_eigenvalue >= -1e-8
    assert _direct_min_slack(sol.lambda_coeffs, d_c, epsilon, alpha) >= -1e-9


@pytest.mark.parametrize("design", HARD_DESIGNS)
def test_hard_design_matches_highs(design):
    pytest.importorskip("scipy.optimize")
    d_c, d_v, epsilon, alpha = design
    sol, _ = _solve_design(*design)
    assert sol.objective == pytest.approx(
        highs_grid_objective({d_c: 1.0}, d_v, epsilon, alpha), abs=1e-6)


def test_irregular_design_just_above_floor_is_optimal():
    # The floor is 0.864403; the monomial expansion reads 0.875 there.
    rho_map = {8: 0.4949, 10: 0.5051}
    rho = poly_from_edge_coeffs(rho_map)
    assert feasibility_floor(rho, 0.4335, 13) < 0.8652
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=rho, epsilon=0.4335, alpha=0.8652, d_v=13)))
    assert sol.status == "optimal"
    assert cert.matching_residual <= 1e-8
    assert cert.min_eigenvalue >= -1e-8
    pytest.importorskip("scipy.optimize")
    assert sol.objective == pytest.approx(
        highs_grid_objective(rho_map, 13, 0.4335, 0.8652), abs=1e-6)


@pytest.mark.parametrize("fail_after", [1, 10, 45, 120])
def test_failed_factorization_returns_non_optimal(monkeypatch, fail_after):
    # Every Cholesky factorization after the first few raises: the solve
    # ends on the best iterate with a non-optimal status and never raises,
    # and says why it stopped.  A failure inside a Newton step ends the
    # loop; one in the step-length search refuses every trial step, and
    # the blocked step ends it.
    cholesky = np.linalg.cholesky
    calls = [0]

    def flaky(M):
        calls[0] += 1
        if calls[0] > fail_after:
            raise np.linalg.LinAlgError("injected failure")
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)))
    assert calls[0] > fail_after
    assert sol.status in ("numerical-failure", "iteration-limit")
    assert cert is not None
    assert sol.reason == {1: "factorization", 10: "blocked-step",
                          45: "blocked-step", 120: "factorization"}[fail_after]
    assert (sol.reason == "factorization") == (sol.status == "numerical-failure")


def test_high_degree_design_matches_lp_path():
    # rho = x^10, d_v = 20: q has degree m = 189, 191 rows and two Gram
    # blocks of size 95.
    rho = poly_from_edge_coeffs({11: 1.0})
    alpha = feasibility_floor(rho, 0.3, 20) + 0.1
    req = SolveRequest(rho=rho, epsilon=0.3, alpha=alpha, d_v=20)
    prob = build_sos_problem(req)
    assert prob.q_degree == 189
    sol, cert = solve_sdp(prob)
    assert sol.status == "optimal"
    lp_res = solve_semi_infinite(req)
    lp_objective = sum(c / i for i, c in lp_res.lambda_coeffs.items())
    assert sol.objective == pytest.approx(lp_objective, abs=1e-8)
    q = alpha - bernstein_quotient_sum(sol.lambda_coeffs, rho, 0.3)
    assert check_certificate(q, cert) <= 1e-8


def test_check_certificate_bounds_the_deviation_on_the_interval():
    # The value returned is a bound on sup |q - sum sigma| over [0, 1], not
    # only at the nodes: it covers a 10 000-point grid, both ends included.
    d_c, d_v, epsilon, alpha = HARD_DESIGNS[0]
    sol, cert = _solve_design(d_c, d_v, epsilon, alpha)
    rho = poly_from_edge_coeffs({d_c: 1.0})
    q = alpha - bernstein_quotient_sum(sol.lambda_coeffs, rho, epsilon)
    assert check_certificate(q, cert) <= 1e-8
    m = q.size - 1
    assert m == 71
    xs = np.linspace(0.0, 1.0, 10_000)
    for j, k, delta in ((1, 1, 1e-3), (3, 17, 1e-6), (35, 35, -1e-7)):
        G0 = cert.gram_blocks[0].copy()
        G0[j, k] += delta
        G0[k, j] = G0[j, k]
        bad = SOSCertificate(gram_blocks=(G0,) + cert.gram_blocks[1:],
                             matching_residual=0.0, min_eigenvalue=0.0)
        gram = (xs * _gram_values(G0, xs)
                + (1.0 - xs) * _gram_values(cert.gram_blocks[1], xs))
        deviation = np.max(np.abs(_bernstein_matrix(m, xs) @ q - gram))
        assert deviation >= 0.5 * abs(delta)
        assert check_certificate(q, bad) >= deviation
