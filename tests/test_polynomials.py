"""Polynomial evaluation, the Bernstein builders, degree distributions, and
rate computations."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ldpcdesign import polynomials
from ldpcdesign.polynomials import (
    BernsteinQuotientSum, DegreeDistribution, Polynomial, bernstein_halves,
    bernstein_quotient_sum, bernstein_split, bernstein_values, poly_from_edge_coeffs,
    rate_and_gap)

from oracles import reference_halves

X = Polynomial([0.0, 1.0])
X3 = Polynomial([0.0, 0.0, 0.0, 1.0])


def test_eval_identity():
    assert X(0.7) == pytest.approx(0.7, abs=1e-15)


def test_eval_constant():
    assert Polynomial([1.0])(0.3) == 1.0


def test_eval_cube():
    assert X3(0.5) == pytest.approx(0.125, abs=1e-15)


def test_scalar_and_array_evaluation_round_identically():
    # Both evaluation paths must round the same way, so a value read at
    # one point equals that point of an array.  A high-degree polynomial
    # with large cancelling coefficients, (1 - 2x)^40, makes any difference
    # in the arithmetic show.  A Python float, an int, an np.float64 and a
    # 0-d array are all scalars, and each gives the same bits.
    p = Polynomial([comb(40, k) * (-2.0) ** k for k in range(41)])
    xs = np.linspace(0.0, 1.0, 200)
    scalar = np.array([p(x) for x in xs.tolist()])
    assert all(type(p(x)) is float for x in (0.5, 1, np.float64(0.5), np.array(0.5)))
    assert np.array_equal(scalar, p(xs))
    for x, v in zip(xs.tolist(), scalar.tolist()):
        points = [x, np.float64(x), np.array(x)] + ([int(x)] if x in (0.0, 1.0) else [])
        assert {p(point).hex() for point in points} == {v.hex()}
        assert float(p(np.array([x]))[0]).hex() == v.hex()


def test_trailing_coefficients_trimmed():
    p = Polynomial([1.0, 2.0, 0.0, 1e-16])
    assert p.degree == 1
    assert list(p.coeffs) == [1.0, 2.0]


def test_derivative_and_integral():
    p = Polynomial([1.0, 0.0, 3.0])  # 1 + 3x^2
    assert np.allclose(p.derivative().coeffs, [0.0, 6.0])
    assert p.integral01() == pytest.approx(2.0, abs=1e-15)


# --- the inner function f(x) = 1 - rho(1 - epsilon*x), composed in Bernstein
# coefficients by BernsteinQuotientSum.scaled_inner


def _inner_coeffs(rho, epsilon):
    """Bernstein coefficients of f(x) = 1 - rho(1 - epsilon*x) at degree
    deg(rho), as the builder composes them."""
    r = rho.degree
    binom = np.array([comb(r, k) for k in range(r + 1)], dtype=float)
    return BernsteinQuotientSum(rho, 2).scaled_inner(epsilon) / binom


def test_compose_inner_linear():
    assert np.allclose(_inner_coeffs(X, 0.5), [0.0, 0.5], rtol=0.0, atol=1e-16)


def test_compose_inner_cubic_expansion():
    # f = 0.9 x - 0.27 x^2 + 0.027 x^3: Bernstein coefficients 1 - 0.7^l.
    assert np.allclose(_inner_coeffs(X3, 0.3), [0.0, 0.3, 0.51, 0.657],
                       rtol=0.0, atol=1e-15)


def test_compose_inner_epsilon_one_boundary():
    # 1 - (1 - x)^5 has signed monomial coefficients, but Bernstein
    # coefficients 0, 1, 1, 1, 1, 1.
    X5 = Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(_inner_coeffs(X5, 1.0), [0.0, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_compose_inner_constant_term_exactly_zero():
    rho = poly_from_edge_coeffs({3: 0.4, 11: 0.6})
    assert _inner_coeffs(rho, 0.347)[0] == 0.0
    assert np.all(_unit_columns(rho, 0.347, 4)[0, 1:] == 0.0)


def test_compose_inner_rejects_unnormalized_rho():
    rho = Polynomial([0.0, 0.5])
    with pytest.raises(ValueError, match="rho"):
        _inner_coeffs(rho, 0.3)
    with pytest.raises(ValueError, match="rho"):
        bernstein_quotient_sum({3: 1.0}, rho, 0.3)


def test_compose_inner_monotone():
    # Nondecreasing Bernstein coefficients make f nondecreasing on [0, 1].
    rng = np.random.default_rng(0)
    for _ in range(200):
        degrees = rng.choice(np.arange(2, 12), size=2, replace=False)
        w = rng.dirichlet(np.ones(2))
        rho = poly_from_edge_coeffs(dict(zip(degrees.tolist(), w.tolist())))
        assert np.all(np.diff(_inner_coeffs(rho, float(rng.uniform(0.05, 0.95)))) >= 0.0)


def test_compose_inner_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        j = int(rng.integers(2, 8))
        rho = poly_from_edge_coeffs({j: 1.0})
        eps = float(rng.uniform(0.05, 0.95))
        x = rng.random(5)
        assert np.allclose(_bernstein_values(_inner_coeffs(rho, eps), x),
                           1.0 - rho(1.0 - eps * x), rtol=0.0, atol=1e-14)


# --- the constraint basis g_i / x = f^(i-1) / x, in Bernstein coefficients:
# bernstein_quotient_sum at lambda = e_i


def _unit_columns(rho, epsilon, d_v):
    """Column i - 2: the Bernstein coefficients of g_i / x, i = 2..d_v, all
    at the degree of top degree d_v (the d_v entry first, so that i = d_v
    overrides it)."""
    return np.column_stack([bernstein_quotient_sum({d_v: 0.0, i: 1.0}, rho, epsilon)
                            for i in range(2, d_v + 1)])


def test_constraint_basis_linear():
    # rho = x, epsilon = 0.5: g_2 / x = 0.5 and g_3 / x = 0.25 x, at degree 1.
    H = _unit_columns(X, 0.5, 3)
    assert np.allclose(H, [[0.5, 0.0], [0.5, 0.25]], rtol=0.0, atol=1e-16)


def test_constraint_basis_base_case():
    # d_v = 2: the single column is f / x = 0.9 - 0.27 x + 0.027 x^2.
    H = _unit_columns(X3, 0.3, 2)
    assert H.shape == (3, 1)
    assert np.allclose(H[:, 0], [0.9, 0.765, 0.657], rtol=0.0, atol=1e-15)


def test_constraint_basis_rejects_small_dv():
    with pytest.raises(ValueError, match="d_v"):
        BernsteinQuotientSum(X3, 1)


def test_constraint_basis_ordering():
    # 0 <= f <= 1 on [0, 1], so f^i / x <= f^(i-1) / x, and with f's
    # Bernstein coefficients in [0, 1] this holds coefficient by
    # coefficient: feasibility_floor's premise that all mass on d_v
    # minimises the constraint.  At epsilon = 1 some coefficients are equal
    # in exact arithmetic and differ by rounding.
    for rho_coeffs, epsilon, d_v in (({4: 1.0}, 0.3, 6),
                                     ({3: 0.4, 11: 0.6}, 0.347, 15),
                                     ({6: 1.0}, 1.0, 8)):
        H = _unit_columns(poly_from_edge_coeffs(rho_coeffs), epsilon, d_v)
        assert np.all(H[:, 1:] <= H[:, :-1] * (1.0 + 1e-15))


# --- degree distributions and rates


def _rate_and_gap(lam, rho, epsilon=0.4):
    return rate_and_gap(lam, poly_from_edge_coeffs(rho), epsilon)


def test_design_rate_regular_36():
    assert _rate_and_gap({3: 1.0}, {6: 1.0})[0] == pytest.approx(0.5, abs=1e-12)


def test_design_rate_cycle_code():
    assert _rate_and_gap({2: 1.0}, {2: 1.0})[0] == pytest.approx(0.0, abs=1e-12)


def test_design_rate_34():
    assert _rate_and_gap({3: 1.0}, {4: 1.0})[0] == pytest.approx(0.25, abs=1e-12)


def test_design_rate_regular_pairs():
    for a in range(2, 8):
        for b in range(a + 1, 10):
            rate, _ = _rate_and_gap({a: 1.0}, {b: 1.0})
            assert rate == pytest.approx(1.0 - a / b, abs=1e-12)


def test_rate_report_36():
    rate, gap = _rate_and_gap({3: 1.0}, {6: 1.0}, 0.4)
    assert rate == pytest.approx(0.5, abs=1e-12)
    assert gap == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_rate_report_zero_rate():
    _, gap = _rate_and_gap({2: 1.0}, {2: 1.0}, 0.3)
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError):
        DegreeDistribution({2: 0.5, 3: 0.6}, {6: 1.0})


def test_distribution_rejects_negative_mass():
    with pytest.raises(ValueError):
        DegreeDistribution({2: 1.2, 3: -0.2}, {6: 1.0})
    # A NaN is neither nonnegative nor part of a sum to 1.
    for lam in ({2: float("nan")}, {2: 1.0, 3: float("nan")}):
        with pytest.raises(ValueError, match="lambda"):
            DegreeDistribution(lam, {6: 1.0})


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
    H = _unit_columns(rho, epsilon, d_v)
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


@pytest.mark.parametrize("rho_coeffs, epsilon, d_v", [
    ({4: 1.0}, 0.3, 6),
    ({3: 0.4, 11: 0.6}, 0.347, 15),
    ({5: 0.01834, 10: 0.98166}, 1.0, 9),
])
def test_bernstein_quotient_basis_columns_are_unit_lambda_sums(rho_coeffs, epsilon, d_v):
    # One builder: the unit-lambda sums of BernsteinQuotientSum, built once
    # for a top degree d_v as the LP cut loop and the floor use it, are bit
    # for bit those of bernstein_quotient_sum, and the last is the vector
    # feasibility_floor maximises.
    rho = poly_from_edge_coeffs(rho_coeffs)
    quotient = BernsteinQuotientSum(rho, d_v)
    f = quotient.scaled_inner(epsilon)
    H = _unit_columns(rho, epsilon, d_v)
    for i in range(2, d_v + 1):
        assert np.array_equal(quotient({i: 1.0}, f), H[:, i - 2])
    assert np.array_equal(H[:, -1], bernstein_quotient_sum({d_v: 1.0}, rho, epsilon))


@pytest.mark.parametrize("n, degree", [(0, 3), (5, 5), (7, 30), (40, 139)])
def test_bernstein_elevate_keeps_the_polynomial(n, degree):
    # De Casteljau evaluation (bernstein_values) reads a polynomial the
    # same at its own degree and elevated to a higher one, as
    # sos.check_certificate does with a slack given below the certified
    # degree.  The elevation, in exact rationals, is the reference.
    p = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    q = [float(sum(Fraction(p[k]) * comb(n, k) * comb(degree - n, j - k)
                   for k in range(max(0, j - degree + n), min(n, j) + 1))
               / comb(degree, j)) for j in range(degree + 1)]
    t = np.linspace(0.0, 1.0, 33)
    assert np.allclose(bernstein_values(q, t), bernstein_values(p, t),
                       rtol=1e-12, atol=1e-13)
    assert np.allclose(bernstein_values(p, t), _bernstein_values(p, t),
                       rtol=1e-12, atol=1e-13)
    # The end coefficients are values of the polynomial.
    assert bernstein_values(p, [0.0, 1.0]).tolist() == [p[0], p[-1]]


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
        BernsteinQuotientSum(rho, 3).scaled_inner(epsilon)


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


@pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "decreasing"])
def test_bernstein_halves_match_the_per_degree_build_bit_for_bit(monkeypatch, reverse):
    # The left map is a block of one table shared by every degree, grown on
    # demand: whichever order the degrees come in, each gets the bits of a
    # build for it alone.
    fresh = np.ones((1, 1))
    fresh.setflags(write=False)
    monkeypatch.setattr(polynomials, "_LEFT", fresh)
    for m in sorted({0, 1, 2, 3, 7, 40, 139, 200, *range(0, 201, 17)}, reverse=reverse):
        halves, reference = bernstein_halves(m), reference_halves(m)
        assert halves.shape == reference.shape == (2 * m + 2, m + 1)
        assert halves.tobytes() == reference.tobytes()
    assert polynomials._LEFT.shape == (201, 201)


def test_shared_split_table_and_binomial_rows_are_read_only():
    bernstein_halves(5)
    with pytest.raises(ValueError):
        polynomials._LEFT[0, 0] = 2.0
    with pytest.raises(ValueError):
        polynomials._left_map(5)[1, 0] = 2.0
    row = polynomials._binomial_row(5)
    assert polynomials._binomial_row(5) is row
    with pytest.raises(ValueError):
        row[0] = 2.0
