"""Polynomial arithmetic, degree distributions, and rate computations."""

from math import comb

import numpy as np
import pytest

from ldpcdesign.polynomials import (
    ChannelSpec, DegreeDistribution, Polynomial, bernstein_halves,
    bernstein_quotient_basis, bernstein_quotient_sum, bernstein_split,
    compose_inner, constraint_basis, design_rate, poly_from_edge_coeffs,
    rate_report)

X = Polynomial([0.0, 1.0])
X3 = Polynomial([0.0, 0.0, 0.0, 1.0])
X5 = Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_eval_identity():
    assert X(0.7) == pytest.approx(0.7, abs=1e-15)


def test_eval_constant():
    assert Polynomial([1.0])(0.3) == 1.0


def test_eval_cube():
    assert X3(0.5) == pytest.approx(0.125, abs=1e-15)


def test_scalar_and_array_evaluation_round_identically():
    # Both evaluation paths must round the same way, so a value read at
    # one point equals that point of an array.  A high-degree basis
    # polynomial with large cancelling coefficients makes any difference in
    # the arithmetic show.
    p = constraint_basis(poly_from_edge_coeffs({11: 1.0}), 0.347, 15)[-1]
    xs = np.linspace(0.0, 1.0, 200)
    scalar = np.array([p(x) for x in xs.tolist()])
    assert all(type(p(x)) is float for x in (0.5, np.float64(0.5), np.array(0.5)))
    assert np.array_equal(scalar, p(xs))
    for x, v in zip(xs.tolist(), scalar):
        assert p(np.array([x]))[0] == v
        assert p(np.float64(x)) == v


def test_trailing_coefficients_trimmed():
    p = Polynomial([1.0, 2.0, 0.0, 1e-16])
    assert p.degree == 1
    assert list(p.coeffs) == [1.0, 2.0]


def test_polynomial_product_and_power():
    p = Polynomial([1.0, 1.0])  # 1 + x
    sq = p * p
    assert np.allclose(sq.coeffs, [1.0, 2.0, 1.0])


def test_derivative_and_integral():
    p = Polynomial([1.0, 0.0, 3.0])  # 1 + 3x^2
    assert np.allclose(p.derivative().coeffs, [0.0, 6.0])
    assert p.integral01() == pytest.approx(2.0, abs=1e-15)


def test_compose_inner_linear():
    f = compose_inner(X, 0.5)
    assert np.allclose(f.coeffs, [0.0, 0.5])


def test_compose_inner_cubic_expansion():
    f = compose_inner(X3, 0.3)
    assert np.allclose(f.coeffs, [0.0, 0.9, -0.27, 0.027], atol=1e-15)


def test_compose_inner_epsilon_one_boundary():
    f = compose_inner(X5, 1.0)
    # 1 - (1 - x)^5 has signed binomial coefficients.
    assert np.allclose(f.coeffs, [0.0, 5.0, -10.0, 10.0, -5.0, 1.0])


def test_compose_inner_constant_term_exactly_zero():
    f = compose_inner(X3, 0.3)
    assert f.coeffs[0] == 0.0


def test_compose_inner_rejects_unnormalized_rho():
    with pytest.raises(ValueError):
        compose_inner(Polynomial([0.0, 0.5]), 0.3)


def test_compose_inner_monotone():
    rng = np.random.default_rng(0)
    f = compose_inner(X3, 0.3)
    for _ in range(1000):
        a, b = np.sort(rng.random(2))
        assert f(a) <= f(b) + 1e-12


def test_compose_inner_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        j = int(rng.integers(2, 8))
        rho = poly_from_edge_coeffs({j: 1.0})
        eps = float(rng.uniform(0.05, 0.95))
        x = float(rng.random())
        f = compose_inner(rho, eps)
        assert f(x) == pytest.approx(1.0 - rho(1.0 - eps * x), abs=1e-10)


def test_constraint_basis_linear():
    g = constraint_basis(X, 0.5, 3)
    assert np.allclose(g[0].coeffs, [0.0, 0.5])
    assert np.allclose(g[1].coeffs, [0.0, 0.0, 0.25])


def test_constraint_basis_base_case():
    g = constraint_basis(X3, 0.3, 2)
    assert len(g) == 1
    assert np.allclose(g[0].coeffs, compose_inner(X3, 0.3).coeffs)


def test_constraint_basis_rejects_small_dv():
    with pytest.raises(ValueError):
        constraint_basis(X3, 0.3, 1)


def test_constraint_basis_ordering():
    g = constraint_basis(X3, 0.3, 6)
    xs = np.linspace(0.0, 1.0, 200)
    for lo, hi in zip(g[1:], g[:-1]):
        for x in xs:
            assert lo(x) <= hi(x) + 1e-12
    for p in g:
        assert p(0.0) == 0.0


def test_design_rate_regular_36():
    dist = DegreeDistribution({3: 1.0}, {6: 1.0})
    assert design_rate(dist) == pytest.approx(0.5, abs=1e-12)


def test_design_rate_cycle_code():
    dist = DegreeDistribution({2: 1.0}, {2: 1.0})
    assert design_rate(dist) == pytest.approx(0.0, abs=1e-12)


def test_design_rate_34():
    dist = DegreeDistribution({3: 1.0}, {4: 1.0})
    assert design_rate(dist) == pytest.approx(0.25, abs=1e-12)


def test_design_rate_regular_pairs():
    for a in range(2, 8):
        for b in range(a + 1, 10):
            dist = DegreeDistribution({a: 1.0}, {b: 1.0})
            assert design_rate(dist) == pytest.approx(1.0 - a / b, abs=1e-12)


def test_rate_report_36():
    dist = DegreeDistribution({3: 1.0}, {6: 1.0})
    rep = rate_report(dist, ChannelSpec(0.4))
    assert rep.rate == pytest.approx(0.5, abs=1e-12)
    assert rep.capacity == pytest.approx(0.6, abs=1e-12)
    assert rep.gap == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_rate_report_zero_rate():
    dist = DegreeDistribution({2: 1.0}, {2: 1.0})
    rep = rate_report(dist, ChannelSpec(0.3))
    assert rep.gap == pytest.approx(1.0, abs=1e-12)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(0.0)
    with pytest.raises(ValueError):
        ChannelSpec(1.0)


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError):
        DegreeDistribution({2: 0.5, 3: 0.6}, {6: 1.0})


def test_distribution_rejects_negative_mass():
    with pytest.raises(ValueError):
        DegreeDistribution({2: 1.2, 3: -0.2}, {6: 1.0})


def test_distribution_rejects_degree_below_two():
    with pytest.raises(ValueError):
        DegreeDistribution({1: 1.0}, {6: 1.0})


def test_distribution_round_trip_preserves_coefficients():
    lam = {2: 0.25, 3: 0.5, 6: 0.25}
    dist = DegreeDistribution(lam, {6: 1.0})
    assert dist.lambda_coeffs == lam


def test_poly_from_edge_coeffs():
    p = poly_from_edge_coeffs({2: 0.4, 4: 0.6})
    # lambda(x) = 0.4 x + 0.6 x^3
    assert np.allclose(p.coeffs, [0.0, 0.4, 0.0, 0.6])


@pytest.mark.parametrize("rho_coeffs, epsilon, d_v", [
    ({4: 1.0}, 0.3, 6),
    ({3: 0.4, 11: 0.6}, 0.347, 15),  # degree 139: the monomial form cancels
    ({2: 1.0}, 0.5, 2),
])
def test_bernstein_quotient_basis_matches_direct_evaluation(rho_coeffs, epsilon, d_v):
    rho = poly_from_edge_coeffs(rho_coeffs)
    H = bernstein_quotient_basis(rho, epsilon, d_v)
    m = (d_v - 1) * rho.degree - 1
    assert H.shape == (m + 1, d_v - 1)
    assert np.all(H >= 0.0)
    # At x = 0 only g_2 / x survives, with the value f'(0) = epsilon rho'(1).
    assert H[0, 0] == pytest.approx(epsilon * rho.derivative()(1.0), rel=1e-14)
    assert np.all(H[0, 1:] == 0.0)
    x = np.linspace(0.0, 1.0, 41)[1:]
    l = np.arange(m + 1)
    binom = np.array([comb(m, k) for k in l], dtype=float)
    B = binom * x[:, None] ** l * (1.0 - x[:, None]) ** (m - l)
    f = 1.0 - rho(1.0 - epsilon * x)
    direct = f[:, None] ** np.arange(1, d_v) / x[:, None]
    assert np.allclose(B @ H, direct, rtol=1e-12, atol=1e-15)
    # The Horner-built weighted sum, at the same degree.
    w = np.arange(1.0, d_v) / np.arange(1.0, d_v).sum()
    q = bernstein_quotient_sum(dict(zip(range(2, d_v + 1), w)), rho, epsilon)
    assert np.allclose(q, H @ w, rtol=1e-12, atol=1e-15)


def test_bernstein_quotient_sum_rejects_degree_beyond_float64():
    # m = 104 * 10 - 1: C(m, m/2) exceeds the largest float64.
    with pytest.raises(ValueError):
        bernstein_quotient_sum({105: 1.0}, poly_from_edge_coeffs({11: 1.0}), 0.5)


@pytest.mark.parametrize("epsilon", [-0.1, 1.5])
def test_bernstein_builders_reject_epsilon_outside_unit_interval(epsilon):
    rho = poly_from_edge_coeffs({4: 1.0})
    with pytest.raises(ValueError, match="epsilon"):
        bernstein_quotient_sum({3: 1.0}, rho, epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        bernstein_quotient_basis(rho, epsilon, 3)


def _bernstein_values(b, x):
    m = len(b) - 1
    l = np.arange(m + 1)
    binom = np.array([comb(m, k) for k in l], dtype=float)
    return (binom * x[:, None] ** l * (1.0 - x[:, None]) ** (m - l)) @ b


@pytest.mark.parametrize("m", [1, 14, 139])
def test_bernstein_halves_match_direct_evaluation(m):
    b = np.random.default_rng(m).uniform(0.5, 2.0, m + 1)
    halves = bernstein_halves(m)
    assert np.all(halves >= 0.0)
    left, right = bernstein_split(b[None, :], halves)
    t = np.linspace(0.0, 1.0, 33)
    assert np.allclose(_bernstein_values(left, t), _bernstein_values(b, t / 2),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(_bernstein_values(right, t),
                       _bernstein_values(b, (1.0 + t) / 2), rtol=1e-12, atol=0.0)
    # Pieces split row by row: halves of piece k at rows 2k and 2k + 1.
    both = bernstein_split(np.vstack([b, 2.0 * b]), halves)
    assert np.allclose(both, [left, right, 2.0 * left, 2.0 * right],
                       rtol=1e-14, atol=0.0)
