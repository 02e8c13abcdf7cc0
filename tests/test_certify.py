"""Certifiers: the normalized slack's Bernstein coefficients, margins, the
positivity proofs they give, and the feasibility floor."""

import numpy as np
import pytest

from ldpcdesign import certify
from ldpcdesign.certify import (
    FEASIBILITY_TOL, FLOOR_TOL, MAX_PIECES, MAX_SPLIT_DEPTH, bernstein_margin,
    feasibility_floor, min_normalized_slack)
from ldpcdesign.polynomials import (
    bernstein_halves, bernstein_quotient_sum, bernstein_split, bernstein_values,
    poly_from_edge_coeffs)

from oracles import (
    direct_bernstein_values, direct_min_slack, random_design_panel,
    random_edge_map, reference_halves, reference_minimum, threshold_closed_form)

RHO_X = poly_from_edge_coeffs({2: 1.0})
RHO_X3 = poly_from_edge_coeffs({4: 1.0})


def test_slack_poly_constant_case():
    # The normalized slack in Bernstein coefficients; rho = x, lambda = x:
    # f(x) / x = epsilon, so s = alpha - epsilon.
    s = 1.0 - bernstein_quotient_sum({2: 1.0}, RHO_X, 0.5)
    assert np.allclose(s, [0.5], rtol=0.0, atol=1e-15)


def test_slack_poly_cubic_case():
    # s(x) = 0.1 + 0.27 x - 0.027 x^2 in Bernstein coefficients of degree 2.
    s = 1.0 - bernstein_quotient_sum({2: 1.0}, RHO_X3, 0.3)
    assert np.allclose(s, [0.1, 0.235, 0.343], rtol=0.0, atol=1e-15)


def test_slack_poly_rejects_alpha_out_of_range():
    with pytest.raises(ValueError, match="alpha"):
        min_normalized_slack({2: 1.0}, RHO_X, 0.5, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        min_normalized_slack({2: 1.0}, RHO_X, 0.5, 1.5)


def test_slack_poly_rejects_negative_lambda():
    with pytest.raises(ValueError, match="negative"):
        min_normalized_slack({2: 1.5, 3: -0.5}, RHO_X, 0.5, 1.0)
    with pytest.raises(ValueError, match="negative"):
        min_normalized_slack({2: float("nan")}, RHO_X, 0.5, 1.0)


def test_min_slack_constant_case():
    margin = min_normalized_slack({2: 1.0}, RHO_X, 0.5, 1.0)
    assert margin.min_slack == pytest.approx(0.5, abs=1e-12)
    assert margin.feasible


def test_min_slack_cubic_case_at_left_endpoint():
    margin = min_normalized_slack({2: 1.0}, RHO_X3, 0.3, 1.0)
    assert margin.min_slack == pytest.approx(0.1, abs=1e-12)
    assert margin.argmin_x == pytest.approx(0.0, abs=1e-12)
    assert margin.feasible


def test_min_slack_infeasible_all_mass_on_top_degree():
    margin = min_normalized_slack({6: 1.0}, RHO_X3, 0.3, 0.1)
    expected = 0.1 - 0.657 ** 5
    assert margin.min_slack == pytest.approx(expected, abs=1e-12)
    assert not margin.feasible


def test_min_slack_at_high_degree_follows_direct_evaluation():
    # The monomial expansion of this slack cancels: it puts the minimum near
    # -11.4 at alpha = 1 (see polynomials), where the slack is positive.
    lam, rho_map, eps = {4: 0.586, 15: 0.414}, {11: 1.0}, 0.347
    for alpha in (0.3, 1.0):
        margin = min_normalized_slack(lam, poly_from_edge_coeffs(rho_map), eps, alpha)
        direct = direct_min_slack(lam, rho_map, eps, alpha)
        assert direct - 1e-9 <= margin.min_slack <= direct + 1e-12
        assert margin.feasible == (alpha == 1.0)


def test_endpoint_slack_formula():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dc = int(rng.integers(2, 8))
        rho = poly_from_edge_coeffs({dc: 1.0})
        eps = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(0.1, 1.0))
        w = rng.random(3)
        w /= w.sum()
        lam = {2: w[0], 3: w[1], 4: w[2]}
        margin = min_normalized_slack(lam, rho, eps, alpha)
        expected = alpha - lam[2] * eps * rho.derivative()(1.0)
        assert margin.endpoint_slack == pytest.approx(expected, abs=1e-10)


def test_parameterization_equivalence():
    # Feasibility of the normalized slack on [0, 1] (inner eps*x form) agrees
    # with direct sampling of eps*lambda(1 - rho(1 - x)) <= alpha*x on
    # (0, eps]: the substitution x -> eps*x maps one onto the other.
    rng = np.random.default_rng(3)
    xs = np.linspace(1e-9, 1.0, 10_000)
    for _ in range(100):
        dc = int(rng.integers(2, 7))
        rho = poly_from_edge_coeffs({dc: 1.0})
        eps = float(rng.uniform(0.1, 0.9))
        alpha = float(rng.uniform(0.05, 1.0))
        w = rng.random(2)
        w /= w.sum()
        lam_map = {2: w[0], 5: w[1]}
        lam = poly_from_edge_coeffs(lam_map)
        margin = min_normalized_slack(lam_map, rho, eps, alpha)
        zs = eps * xs
        direct = eps * lam(1.0 - rho(1.0 - zs)) - alpha * zs
        sampled_feasible = bool(np.all(direct <= 1e-9))
        if margin.min_slack > 1e-7:
            assert sampled_feasible
        elif margin.min_slack < -1e-7:
            assert not sampled_feasible


def test_floor_linear_case():
    assert feasibility_floor(RHO_X, 0.5, 2) == pytest.approx(0.5, abs=1e-12)


def test_floor_linear_dv3():
    assert feasibility_floor(RHO_X, 0.5, 3) == pytest.approx(0.25, abs=1e-12)


def test_floor_cubic_dv6():
    # max of (1 - (1 - 0.3x)^3)^5 / x is attained at x = 1.
    floor = feasibility_floor(RHO_X3, 0.3, 6)
    assert floor == pytest.approx(0.657 ** 5, abs=1e-12)
    assert floor == pytest.approx(0.1224, abs=1e-4)


def test_floor_boundary_feasibility():
    floor = feasibility_floor(RHO_X3, 0.3, 6)
    above = min_normalized_slack({6: 1.0}, RHO_X3, 0.3, floor + 1e-6)
    below = min_normalized_slack({6: 1.0}, RHO_X3, 0.3, floor - 1e-6)
    assert above.feasible
    assert not below.feasible


def _count_splits(monkeypatch):
    """Record the number of pieces of every subdivision step."""
    sizes = []

    def counting(pieces, halves):
        sizes.append(len(pieces))
        return bernstein_split(pieces, halves)

    monkeypatch.setattr(certify, "bernstein_split", counting)
    return sizes


def _proves_positive(coeffs, halves):
    """The branch and bound's proof that the polynomial with Bernstein
    coefficients ``coeffs`` is positive on [0, 1]: its minimum is within
    FLOOR_TOL of ``min_slack``, so a ``min_slack`` above FLOOR_TOL proves it."""
    return bernstein_margin(coeffs, halves).min_slack > FLOOR_TOL


def test_margin_proof_agrees_with_direct_evaluation():
    # Random (lambda, rho) with epsilon within 3 % of the threshold, so the
    # slack's minimum is near zero.  A proof is never given where the slack,
    # evaluated directly and never expanded, is <= -1e-12, and is given
    # wherever it is clearly positive.
    rng = np.random.default_rng(11)
    x = np.arange(0, 20_001) / 20_000
    proved = refuted = 0
    for _ in range(60):
        lam = random_edge_map(rng, 2, 15, 3)
        rho_map = random_edge_map(rng, 3, 11, 2)
        rho = poly_from_edge_coeffs(rho_map)
        eps = threshold_closed_form(lam, rho_map) * float(rng.uniform(0.97, 1.03))
        if eps >= 1.0:
            continue
        f = 1.0 - rho(1.0 - eps * x[1:])
        direct = 1.0 - sum(c * f ** (i - 1) for i, c in lam.items()) / x[1:]
        at_zero = 1.0 - lam.get(2, 0.0) * eps * rho.derivative()(1.0)
        direct_min = min(float(direct.min()), at_zero)
        s = 1.0 - bernstein_quotient_sum(lam, rho, eps)
        if _proves_positive(s, bernstein_halves(s.size - 1)):
            assert direct_min > -1e-12
            proved += 1
        else:
            assert direct_min < 1e-4
            refuted += 1
    assert proved >= 10 and refuted >= 10


def test_bernstein_margin_matches_direct_evaluation():
    # Random designs at random alpha: the branch-and-bound minimum lies
    # below a 200 000-point direct minimum, by no more than that grid can
    # miss, and the slack evaluated directly at argmin_x takes it.
    rng = np.random.default_rng(12)
    x = np.arange(0, 200_001) / 200_000

    def direct(lam, rho, eps, alpha, pts):
        f = 1.0 - rho(1.0 - eps * pts)
        return alpha - sum(c * f ** (i - 1) for i, c in lam.items()) / pts

    for _ in range(30):
        lam = random_edge_map(rng, 2, 15, 3)
        rho = poly_from_edge_coeffs(random_edge_map(rng, 3, 11, 2))
        eps, alpha = float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.2, 1.0))
        s = alpha - bernstein_quotient_sum(lam, rho, eps)
        margin = bernstein_margin(s, bernstein_halves(s.size - 1))
        at_zero = alpha - lam.get(2, 0.0) * eps * rho.derivative()(1.0)
        assert margin.endpoint_slack == pytest.approx(at_zero, abs=1e-12)
        direct_min = min(float(direct(lam, rho, eps, alpha, x[1:]).min()), at_zero)
        assert direct_min - 1e-9 <= margin.min_slack <= direct_min + 1e-12
        where = margin.argmin_x
        value = at_zero if where == 0.0 else float(direct(lam, rho, eps, alpha, np.array([where]))[0])
        assert value == pytest.approx(margin.min_slack, abs=1e-11)
        assert margin.feasible == (margin.min_slack >= -FEASIBILITY_TOL)


def test_margin_min_slack_is_a_value_within_floor_tol_of_the_minimum():
    # (3x - 1)^2 has its minimum 0 at 1/3, which no split point reaches.  No
    # cap ends the search, so min_slack is the smallest value found, which
    # lies above the minimum, by at most FLOOR_TOL: the proved lower bound
    # is min_slack - FLOOR_TOL.
    margin = bernstein_margin(np.array([1.0, -2.0, 4.0]), bernstein_halves(2))
    assert margin.min_slack - FLOOR_TOL <= 0.0 <= margin.min_slack
    assert (3.0 * margin.argmin_x - 1.0) ** 2 == pytest.approx(margin.min_slack,
                                                                abs=1e-15)


def test_margin_refutes_zero_slack_without_splitting(monkeypatch):
    # lambda = x, rho = x, epsilon = 1: s = 1 - f / x is identically 0.
    sizes = _count_splits(monkeypatch)
    s = 1.0 - bernstein_quotient_sum({2: 1.0}, RHO_X, 1.0)
    assert np.array_equal(s, [0.0])
    assert not _proves_positive(s, bernstein_halves(0))
    assert sizes == []


def _minimum_inputs(rng):
    """Random Bernstein vectors of degree 0..200 and slacks of random designs
    near their threshold, where most levels hold one piece."""
    vectors = [rng.normal(size=m + 1) for m in [0, 1, 2, *rng.integers(3, 201, size=12)]]
    for _ in range(12):
        lam, rho = random_edge_map(rng, 2, 12, 3), random_edge_map(rng, 3, 9, 2)
        eps = 0.99 * threshold_closed_form(lam, rho, num_points=2000)
        vectors.append(1.0 - bernstein_quotient_sum(lam, poly_from_edge_coeffs(rho), eps))
    return vectors


@pytest.mark.parametrize("caps", [(MAX_SPLIT_DEPTH, MAX_PIECES), (4, MAX_PIECES), (40, 4)],
                         ids=["caps", "low-depth", "few-pieces"])
def test_minimum_matches_the_reference_bit_for_bit(monkeypatch, caps):
    # The branch and bound returns the bits of the plain loop over numpy
    # arrays, convex endgame included, on ``_minimum_inputs``, where the
    # design slacks mostly end in the endgame; with low caps the loop ends
    # at the caps, and the open pieces' bound is compared too.
    monkeypatch.setattr(certify, "MAX_SPLIT_DEPTH", caps[0])
    monkeypatch.setattr(certify, "MAX_PIECES", caps[1])
    for coeffs in _minimum_inputs(np.random.default_rng(caps[0] + caps[1])):
        m = coeffs.size - 1
        got = certify._minimum(coeffs, bernstein_halves(m))
        want = reference_minimum(coeffs, reference_halves(m), *caps, FLOOR_TOL,
                                 certify.NEWTON_STEPS)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_minimum_meets_its_contract_on_a_direct_grid():
    # The contract of the branch and bound against an evaluation that shares
    # no code with it, on ``_minimum_inputs`` and on the slacks of random
    # designs at their threshold: the minimum over a 200 000-point grid is
    # at least bound - FLOOR_TOL, the value found is at most that minimum
    # + FLOOR_TOL, and it is the polynomial's value where it was found.
    x = np.arange(200_001) / 200_000
    vectors = _minimum_inputs(np.random.default_rng(MAX_SPLIT_DEPTH + MAX_PIECES))
    for lam, rho in random_design_panel(13, 40):
        eps = threshold_closed_form(lam, rho, num_points=2000)
        vectors.append(1.0 - bernstein_quotient_sum(lam, poly_from_edge_coeffs(rho), eps))
    for coeffs in vectors:
        value, where, bound = certify._minimum(coeffs, bernstein_halves(coeffs.size - 1))
        grid_min = float(direct_bernstein_values(coeffs, x).min())
        assert grid_min >= bound - FLOOR_TOL
        assert value <= grid_min + FLOOR_TOL + 1e-14
        assert value == pytest.approx(bernstein_values(coeffs, [where])[0], abs=1e-14)


def test_convex_minimum_closes_without_splitting(monkeypatch):
    # (3x - 1)^2 is convex, its Bernstein coefficients 1, -2, 4 having the
    # second difference 9 > 0: Newton on p' finds the minimiser 1/3, which no
    # split point reaches, and the tangent bound there ends the search.
    sizes = _count_splits(monkeypatch)
    margin = bernstein_margin(np.array([1.0, -2.0, 4.0]), bernstein_halves(2))
    assert sizes == []
    assert abs(margin.min_slack) <= FLOOR_TOL
    assert margin.argmin_x == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_convex_piece_not_yet_within_floor_tol_is_split(monkeypatch):
    # A convex quartic (second differences 1.4, 0.7, 1.4) with its minimum
    # inside (0, 1).  With all its Newton steps the endgame closes it at
    # once; one step from the control polygon's turning point leaves the
    # tangent bound short of FLOOR_TOL, so the piece is split instead, and
    # the result still meets the contract.
    sizes = _count_splits(monkeypatch)
    coeffs = np.array([1.0, -0.5, -0.6, 0.0, 2.0])
    halves = bernstein_halves(4)
    full = certify._minimum(coeffs, halves)
    assert sizes == []
    monkeypatch.setattr(certify, "NEWTON_STEPS", 1)
    value, where, bound = certify._minimum(coeffs, halves)
    assert 0 < len(sizes) < MAX_SPLIT_DEPTH
    assert bound == value == pytest.approx(full[0], abs=FLOOR_TOL)
    grid_min = float(direct_bernstein_values(coeffs, np.arange(200_001) / 200_000).min())
    assert bound - FLOOR_TOL <= grid_min
    assert value <= grid_min + FLOOR_TOL + 1e-14
    assert value == pytest.approx(bernstein_values(coeffs, [where])[0], abs=1e-14)


def test_margin_caps_end_the_subdivision(monkeypatch):
    sizes = _count_splits(monkeypatch)
    # (3x - 1)^4 touches 0 at 1/3, which no split point reaches, and around
    # 1/3 no piece has all second differences positive, so the convex
    # endgame never closes it: the branch and bound settles its minimum to
    # within FLOOR_TOL by bisection, after 11 levels and before the depth
    # cap, at 683/2048, and that is no proof of positivity.
    touching = np.array([1.0, -2.0, 4.0, -8.0, 16.0])
    halves = bernstein_halves(4)
    margin = bernstein_margin(touching, halves)
    assert not margin.min_slack > FLOOR_TOL
    assert (margin.min_slack, margin.argmin_x) == (2.0 ** -44, 683 / 2048)
    assert sizes == [1] * 11
    # Lifted by 1e-6 it is proved within the caps, by a depth cap of 6 ...
    sizes.clear()
    assert _proves_positive(touching + 1e-6, halves)
    assert 0 < len(sizes) < MAX_SPLIT_DEPTH
    monkeypatch.setattr(certify, "MAX_SPLIT_DEPTH", 6)
    assert _proves_positive(touching + 1e-6, halves)
    # ... and not with fewer: the depth cap ends the loop, and the bound is
    # the smallest coefficient of the pieces it leaves open.
    monkeypatch.setattr(certify, "MAX_SPLIT_DEPTH", 5)
    sizes.clear()
    assert not _proves_positive(touching + 1e-6, halves)
    assert len(sizes) == 5
    # (3x - 1)^2 (3x - 2)^2 + 1e-6 keeps two pieces alive after the first
    # split; three live pieces at most end the loop there.
    monkeypatch.setattr(certify, "MAX_SPLIT_DEPTH", MAX_SPLIT_DEPTH)
    two_touching = np.array([4.0, -5.0, 5.5, -5.0, 4.0]) + 1e-6
    assert _proves_positive(two_touching, bernstein_halves(4))
    monkeypatch.setattr(certify, "MAX_PIECES", 3)
    sizes.clear()
    assert not _proves_positive(two_touching, bernstein_halves(4))
    assert sizes == [1]


@pytest.mark.parametrize("rho_coeffs, epsilon, d_v", [
    ({5: 0.01834, 10: 0.98166}, 0.36333, 16),
    ({8: 0.4949, 10: 0.5051}, 0.4335, 13),
    ({11: 1.0}, 0.28388, 20),
    ({6: 0.82948, 9: 0.17052}, 0.40775, 20),
    ({7: 1.0}, 0.29221, 19),
])
def test_floor_matches_direct_maximum(rho_coeffs, epsilon, d_v):
    # High-degree designs on which the monomial expansion misses the floor
    # by up to 630.
    rho = poly_from_edge_coeffs(rho_coeffs)
    x = np.arange(1, 1_000_001) / 1_000_000
    direct = float(np.max((1.0 - rho(1.0 - epsilon * x)) ** (d_v - 1) / x))
    assert feasibility_floor(rho, epsilon, d_v) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("cap, value", [("MAX_SPLIT_DEPTH", 0), ("MAX_PIECES", 1)])
def test_floor_caps_end_the_search(monkeypatch, cap, value):
    # h = g_6 / x for rho = x^3, epsilon = 0.9 peaks inside (0, 1), at 1.1214.
    # With no split allowed the search stops at the larger end value of h,
    # a value h takes, below that maximum.
    h = bernstein_quotient_sum({6: 1.0}, RHO_X3, 0.9)
    full = feasibility_floor(RHO_X3, 0.9, 6)
    assert full == pytest.approx(1.1213898589569988, abs=1e-12)
    monkeypatch.setattr(certify, cap, value)
    assert feasibility_floor(RHO_X3, 0.9, 6) == max(h[0], h[-1]) < full - 0.1


def test_certifier_vs_simulator():
    from ldpcdesign.desim import de_trace, empirical_contraction
    from ldpcdesign.polynomials import DegreeDistribution

    lam = {2: 0.5, 3: 0.5}
    rho_map = {6: 1.0}
    rho = poly_from_edge_coeffs(rho_map)
    eps = 0.15
    dist = DegreeDistribution(lam, rho_map)
    for alpha in (0.9, 0.95, 1.0):
        margin = min_normalized_slack(lam, rho, eps, alpha)
        if margin.min_slack > 1e-9:
            trace = de_trace(dist, eps, target=1e-6)
            assert trace.converged
            assert empirical_contraction(trace) <= alpha + 1e-9

    # Far infeasible at alpha = 1 must fail to decode.
    margin = min_normalized_slack({3: 1.0}, poly_from_edge_coeffs({6: 1.0}),
                                  0.5, 1.0)
    assert margin.min_slack < -1e-6
    bad = de_trace(DegreeDistribution({3: 1.0}, {6: 1.0}), 0.5, target=1e-6)
    assert not bad.converged


def test_feasibility_tolerance_constant():
    assert FEASIBILITY_TOL == 1e-9
