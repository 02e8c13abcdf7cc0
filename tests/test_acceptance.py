"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

from ldpcdesign.certify import feasibility_floor, min_normalized_slack
from ldpcdesign.cli import main
from ldpcdesign.desim import de_trace, empirical_contraction, threshold
from ldpcdesign.lp import (
    LPStandardForm, SolveRequest, build_discretized_lp, simplex_solve,
    solve_semi_infinite)
from ldpcdesign.polynomials import (
    DegreeDistribution, bernstein_quotient_sum, poly_from_edge_coeffs, rate_and_gap)
from ldpcdesign.sos import (
    SOSCertificate, build_sos_problem, certificate_min_eigenvalue,
    check_certificate, solve_sdp)

from oracles import bisect_threshold_by_recursion, brute_force_lp, fine_grid_objective
from test_sos import _interval_sos_poly

RHO_X3 = poly_from_edge_coeffs({4: 1.0})
EPSILON = 0.3
DV_MAX = 6
CAPACITY = 1.0 - EPSILON
SWEEP_ALPHAS = tuple(round(0.2 + 0.1 * k, 1) for k in range(9))


def _report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _rate_from_lambdas(lambda_coeffs):
    return 1.0 - RHO_X3.integral01() / sum(
        c / i for i, c in lambda_coeffs.items())


@pytest.fixture(scope="module")
def sweep():
    """Both solver paths over the reference sweep, with wall-clock time."""
    rows = {}
    t0 = time.perf_counter()
    for alpha in SWEEP_ALPHAS:
        req = SolveRequest(rho=RHO_X3, epsilon=EPSILON, alpha=alpha,
                           d_v=DV_MAX)
        lp_res = solve_semi_infinite(req)
        prob = build_sos_problem(req)
        sdp_sol, cert = solve_sdp(prob)
        rows[alpha] = (lp_res, prob, sdp_sol, cert)
    return rows, time.perf_counter() - t0


def test_criterion_1_regular_code_rate():
    dist = DegreeDistribution({3: 1.0}, {6: 1.0})
    rate_and_gap(dist.lambda_coeffs, dist.rho_polynomial(), 0.4)  # warm up before timing
    t0 = time.perf_counter()
    rate, _ = rate_and_gap(dist.lambda_coeffs, dist.rho_polynomial(), 0.4)
    elapsed = time.perf_counter() - t0
    _report(1, "regular-code rate",
            abs(rate - 0.5) <= 1e-12 and elapsed < 1e-3)


def test_criterion_2_threshold_oracle():
    dist = DegreeDistribution({3: 1.0}, {6: 1.0})
    t0 = time.perf_counter()
    result = threshold(dist, tol=1e-4)
    elapsed = time.perf_counter() - t0
    oracle = bisect_threshold_by_recursion(
        dist.lambda_polynomial(), dist.rho_polynomial(), tol=1e-4)
    ok = (0.4284 <= result.threshold <= 0.4304
          and 0.4284 <= oracle <= 0.4304
          and abs(result.threshold - oracle) <= 5e-4
          and elapsed < 1.0)
    _report(2, "threshold oracle", ok)


def test_criterion_3_reference_configuration_solve():
    req = SolveRequest(rho=RHO_X3, epsilon=EPSILON, alpha=1.0, d_v=DV_MAX)
    t0 = time.perf_counter()
    lp_res = solve_semi_infinite(req)
    sdp_sol, _ = solve_sdp(build_sos_problem(req))
    oracle_obj = fine_grid_objective(req, num_points=20_000)
    elapsed = time.perf_counter() - t0

    ok = lp_res.status == "optimal" and sdp_sol.status == "optimal"
    oracle_rate = 1.0 - RHO_X3.integral01() / oracle_obj
    for lam in (lp_res.lambda_coeffs, sdp_sol.lambda_coeffs):
        rate = _rate_from_lambdas(lam)
        # Renormalizing the solver output can round the rate a hair below
        # the exact optimum, hence the 1e-6 slack on the lower bound.
        ok = ok and 0.5 - 1e-6 <= rate < 0.7
        ok = ok and abs(rate - oracle_rate) <= 1e-4
        margin = min_normalized_slack(lam, RHO_X3, EPSILON, 1.0)
        ok = ok and margin.min_slack >= -1e-9
        trace = de_trace(DegreeDistribution(lam, {4: 1.0}), EPSILON,
                         target=1e-6)
        ok = ok and trace.converged
    rate_lp = _rate_from_lambdas(lp_res.lambda_coeffs)
    rate_sdp = _rate_from_lambdas(sdp_sol.lambda_coeffs)
    ok = ok and abs(rate_lp - rate_sdp) <= 1e-3 and elapsed < 30.0
    _report(3, "reference configuration solve", ok)


def test_criterion_4_trade_off_monotonicity(sweep):
    rows, elapsed = sweep
    ok = True
    for pick in (0, 2):  # lp result, sdp result
        rates = []
        for alpha in SWEEP_ALPHAS:
            res = rows[alpha][pick]
            ok = ok and res.status == "optimal"
            rates.append(_rate_from_lambdas(res.lambda_coeffs))
        gaps = [1.0 - r / CAPACITY for r in rates]
        for lo, hi in zip(rates[:-1], rates[1:]):
            ok = ok and lo <= hi + 1e-9
        for hi, lo in zip(gaps[:-1], gaps[1:]):
            ok = ok and lo <= hi + 1e-9
    floor = feasibility_floor(RHO_X3, EPSILON, DV_MAX)
    ok = ok and 0.1 < floor < 0.13
    t0 = time.perf_counter()
    for alpha in (0.05, 0.1):
        req = SolveRequest(rho=RHO_X3, epsilon=EPSILON, alpha=alpha,
                           d_v=DV_MAX)
        ok = ok and solve_semi_infinite(req).status == "infeasible"
        ok = ok and solve_sdp(build_sos_problem(req))[0].status == "infeasible"
    elapsed += time.perf_counter() - t0
    _report(4, "trade-off monotonicity", ok and elapsed < 300.0)


def test_criterion_5_convergence_speed_guarantee(sweep):
    rows, _ = sweep
    ok = True
    for alpha in SWEEP_ALPHAS:
        if alpha >= 1.0:
            continue
        budget = math.ceil(math.log(1e-6 / EPSILON) / math.log(alpha)) + 2
        for res in (rows[alpha][0], rows[alpha][2]):
            dist = DegreeDistribution(res.lambda_coeffs, {4: 1.0})
            trace = de_trace(dist, EPSILON, target=1e-6)
            ok = ok and trace.converged
            ok = ok and empirical_contraction(trace) <= alpha + 1e-9
            ok = ok and trace.iterations_to_target <= budget
    _report(5, "convergence-speed guarantee", ok)


def test_criterion_6_sos_soundness_and_round_trip(sweep):
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 13))
        s0, s1 = (m // 2 + 1, m // 2) if m % 2 == 0 else ((m + 1) // 2,) * 2
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
        ok = ok and check_certificate(q, cert) <= 1e-10

    rows, _ = sweep
    for alpha in SWEEP_ALPHAS:
        _, prob, sdp_sol, cert = rows[alpha]
        q = alpha - bernstein_quotient_sum(sdp_sol.lambda_coeffs, RHO_X3, EPSILON)
        ok = ok and check_certificate(q, cert) <= 1e-8
        ok = ok and certificate_min_eigenvalue(cert) >= -1e-8
    _report(6, "SOS soundness and round trip", ok)


def test_criterion_7_simplex_kernel():
    rng = np.random.default_rng(11)
    ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 1.5, size=m)
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, np.full(n, 2.0)])
        c = rng.uniform(-1.0, 1.0, size=n)
        use_eq = rng.random() < 0.5
        E = np.ones((1, n)) if use_eq else np.zeros((0, n))
        d = np.array([1.0]) if use_eq else np.zeros(0)
        _, ref_obj = brute_force_lp(c, A_full, b_full, E, d)
        _, obj, status = simplex_solve(
            LPStandardForm(c=c, A=A_full, b=b_full, E=E, d=d))
        if ref_obj is None:
            ok = ok and status == "infeasible"
            continue
        ok = ok and status == "optimal" and abs(obj - ref_obj) <= 1e-9
        checked += 1
    _report(7, "simplex kernel", ok)


def test_criterion_8_cutting_plane_certification():
    rng = np.random.default_rng(13)
    ok = True
    solved = 0
    while solved < 20:
        dc = int(rng.integers(3, 6))
        rho = poly_from_edge_coeffs({dc: 1.0})
        eps = float(np.round(rng.uniform(0.2, 0.4), 3))
        alpha = float(np.round(rng.uniform(0.4, 1.0), 3))
        if alpha < feasibility_floor(rho, eps, 5) + 0.05:
            continue
        req = SolveRequest(rho=rho, epsilon=eps, alpha=alpha, d_v=5)
        res = solve_semi_infinite(req)
        ok = ok and res.status == "optimal" and res.cuts_added <= 200
        objective = sum(c / i for i, c in res.lambda_coeffs.items())
        for n in (8, 32):
            grid = np.arange(1, n + 1) / n
            _, coarse_obj, status = simplex_solve(build_discretized_lp(req, grid))
            ok = ok and status == "optimal"
            ok = ok and objective <= coarse_obj + 1e-9
        oracle = fine_grid_objective(req, num_points=4000)
        ok = ok and oracle - objective <= 1e-4
        solved += 1
    _report(8, "cutting-plane certification", ok)


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "reference.cfg"
    cfg.write_text(
        "rho = x^3\nepsilon = 0.3\ndv_max = 6\nalpha = 0.2:0.1:1.0\n"
        "solver = both\n"
        f"out_csv = {tmp_path}/sweep.csv\nout_svg = {tmp_path}/sweep.svg\n")
    outputs = ("sweep.csv", "sweep.svg", "sweep_gap.svg")
    ok = main(["sweep", str(cfg)]) == 0
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    ok = ok and main(["sweep", str(cfg)]) == 0
    for name in outputs:
        ok = ok and (tmp_path / name).read_bytes() == first[name]
    _report(9, "CLI determinism", ok)
