"""Polynomial and degree-distribution types for LDPC ensemble design.

``Polynomial`` is a dense monomial-basis polynomial in 64-bit floats.  It
holds the degree distributions parsed from user input and serves their
evaluation (density evolution, the directly evaluated LP rows), the
derivative (the x -> 0 LP row) and the integral over [0, 1] (the rate).
Every certifier (the LP cut loop's, the CLI and sweep margins, the
decoding threshold, the feasibility floor and the SOS certificate check)
works instead in Bernstein coefficients on [0, 1], all built by
``BernsteinQuotientSum`` from nonnegative sums only
(``bernstein_quotient_sum``), and evaluates or splits them by de
Casteljau's algorithm (``bernstein_values``, ``bernstein_halves``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, inf, log1p
from typing import Iterable, Mapping

import numpy as np

# Trailing coefficients below this magnitude are trimmed so degree is well
# defined in the canonical form.
TRIM_TOL = 1e-15

# Simplex (sum-to-one) tolerance for degree distributions.
SIMPLEX_TOL = 1e-12


class Polynomial:
    """Dense real polynomial; ``coeffs[k]`` is the coefficient of x^k."""

    # _horner: the coefficients from the highest degree down, as Python
    # floats, so scalar evaluation does no per-term numpy scalar work.
    __slots__ = ("_coeffs", "_horner")

    def __init__(self, coeffs: Iterable[float]):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        last = arr.size
        while last > 1 and abs(arr[last - 1]) < TRIM_TOL:
            last -= 1
        arr = arr[:last]
        arr.setflags(write=False)
        self._coeffs = arr
        self._horner = tuple(arr[::-1].tolist())

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts scalars or arrays.

        A scalar is evaluated in Python floats and an array elementwise in
        place; both paths make the same IEEE multiply and add per
        coefficient, so they round identically:
        ``p(x) == p(np.array([x]))[0]`` bit for bit.
        """
        if np.ndim(x) == 0:
            x = float(x)
            r = 0.0
            for c in self._horner:
                r = r * x + c
            return r
        x = np.asarray(x, dtype=float)
        result = np.zeros_like(x)
        for c in self._horner:
            result *= x
            result += c
        return result

    def derivative(self) -> "Polynomial":
        if self._coeffs.size == 1:
            return Polynomial([0.0])
        k = np.arange(1, self._coeffs.size)
        return Polynomial(self._coeffs[1:] * k)

    def integral01(self) -> float:
        """Integral over [0, 1]: sum of coeffs[k] / (k + 1)."""
        k = np.arange(self._coeffs.size)
        return float(np.sum(self._coeffs / (k + 1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self._coeffs.size == other._coeffs.size
            and bool(np.all(self._coeffs == other._coeffs))
        )

    def __hash__(self):
        return hash(self._coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial({self._coeffs.tolist()})"


def poly_from_edge_coeffs(coeffs: Mapping[int, float]) -> Polynomial:
    """Edge-perspective polynomial sum_d coeffs[d] * x^(d-1) from a degree map."""
    if not coeffs:
        raise ValueError("empty coefficient map")
    max_deg = max(coeffs)
    dense = np.zeros(max_deg)
    for d, c in coeffs.items():
        if d < 2 or int(d) != d:
            raise ValueError(f"node degrees must be integers >= 2, got {d}")
        dense[d - 1] = c
    return Polynomial(dense)


@dataclass(frozen=True)
class ChannelSpec:
    """Binary erasure channel with erasure probability epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def capacity(self) -> float:
        return 1.0 - self.epsilon


class DegreeDistribution:
    """Edge-perspective variable/check degree distribution pair.

    ``lambda_coeffs[i]`` is the fraction of edges attached to degree-i
    variable nodes, ``rho_coeffs[j]`` the same for check nodes.  Both sides
    must be probability vectors over degrees >= 2.
    """

    __slots__ = ("_lambda", "_rho")

    def __init__(self, lambda_coeffs: Mapping[int, float], rho_coeffs: Mapping[int, float]):
        self._lambda = dict(lambda_coeffs)
        self._rho = dict(rho_coeffs)
        for name, side in (("lambda", self._lambda), ("rho", self._rho)):
            if not side:
                raise ValueError(f"{name} coefficients are empty")
            for d, c in side.items():
                if int(d) != d or d < 2:
                    raise ValueError(f"{name} degree {d} is invalid (degrees start at 2)")
                if c < 0.0:
                    raise ValueError(f"{name} coefficient for degree {d} is negative")
            total = sum(side.values())
            if abs(total - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"{name} coefficients sum to {total}, not 1")

    @property
    def lambda_coeffs(self) -> dict:
        return dict(self._lambda)

    @property
    def rho_coeffs(self) -> dict:
        return dict(self._rho)

    def lambda_polynomial(self) -> Polynomial:
        return poly_from_edge_coeffs(self._lambda)

    def rho_polynomial(self) -> Polynomial:
        return poly_from_edge_coeffs(self._rho)

    def __repr__(self) -> str:
        return f"DegreeDistribution(lambda={self._lambda!r}, rho={self._rho!r})"


@dataclass(frozen=True)
class RateReport:
    rate: float
    capacity: float
    gap: float


def _inner_terms(rho: Polynomial, epsilon: float):
    """(rho_j, Bernstein coefficients at degree j of 1 - (1 - epsilon*x)^j)
    for each nonzero rho_j.  The coefficients are 1 - (1 - epsilon)^l for
    l = 0..j, all in [0, 1]; as rho(1) = 1, f(x) = 1 - rho(1 - epsilon*x) is
    the rho-weighted sum of these terms."""
    if abs(rho(1.0) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"rho(1) = {rho(1.0)} deviates from 1 beyond tolerance")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    # log(1 - epsilon); at epsilon = 1 every term is 1 from l = 1 on.
    log_keep = log1p(-epsilon) if epsilon < 1.0 else -inf
    for j in np.flatnonzero(rho.coeffs[1:]) + 1:
        term = np.zeros(j + 1)
        term[1:] = -np.expm1(np.arange(1, j + 1) * log_keep)
        yield rho.coeffs[j], term


def _binomial_row(n: int) -> np.ndarray:
    """C(n, k) for k = 0..n as floats, by the running product."""
    row = np.empty(n + 1)
    row[0] = 1.0
    np.cumprod(np.arange(n, 0, -1.0) / np.arange(1.0, n + 1), out=row[1:])
    return row


def bernstein_quotient_sum(lambda_coeffs: Mapping[int, float], rho: Polynomial,
                           epsilon: float) -> np.ndarray:
    """Bernstein coefficients on [0, 1] of sum_i lambda_i f^(i-1) / x,
    f(x) = 1 - rho(1 - epsilon*x), at degree m = (d_v - 1) deg(rho) - 1
    with d_v = max(lambda_coeffs); epsilon lies in [0, 1].

    Works in scaled coefficients p_k C(n, k), the coefficients over
    x^k (1-x)^(n-k): there a product is a convolution, a constant c adds
    c C(n, k), and division by x drops coefficient 0, as f(0) = 0.  By
    Horner in f the sum is f P with P = lambda_2 + f (lambda_3 + ... +
    f lambda_dv), so the quotient is P (f / x).  Term j of f has the
    Bernstein coefficients 1 - (1 - epsilon)^l at degree j.  Every step adds
    nonnegative terms, so each coefficient keeps a small relative error at
    any degree, and nothing is trimmed.  The scaled coefficients reach
    C(m, m/2), so m is limited to about 1000 in float64.
    ``BernsteinQuotientSum`` builds the parts that do not depend on lambda
    or epsilon once, for callers that vary one of them.
    """
    if min(lambda_coeffs) < 2:
        raise ValueError(f"lambda degrees start at 2, got {min(lambda_coeffs)}")
    quotient = BernsteinQuotientSum(rho, max(lambda_coeffs))
    return quotient(lambda_coeffs, quotient.scaled_inner(epsilon))


class BernsteinQuotientSum:
    """``bernstein_quotient_sum`` for one rho and top degree d_v.

    The binomial rows it multiplies by depend only on the degrees, so they
    are built once here.  ``scaled_inner(epsilon)`` gives the scaled
    coefficients of f at degree deg(rho), and calling the instance with a
    lambda over degrees 2..d_v and those coefficients gives the Bernstein
    coefficients of sum_i lambda_i f^(i-1) / x at degree ``degree`` = m,
    bit for bit those of ``bernstein_quotient_sum``.  The LP cut loop
    varies lambda at one epsilon.  Raises ValueError where the scaled
    coefficients, which reach C(m, m/2), overflow float64 (m above about
    1000), before anything of size m is built.
    """

    def __init__(self, rho: Polynomial, d_v: int):
        if d_v < 2:
            raise ValueError(f"d_v must be at least 2, got {d_v}")
        r = rho.degree
        m = (d_v - 1) * r - 1
        if comb(m, m // 2) > sys.float_info.max:
            raise ValueError(f"degree {m} is too high for float64 Bernstein coefficients")
        self.rho, self.d_v, self.degree = rho, d_v, m
        # Term j of f at degree j, scaled, then elevated to degree r by a
        # convolution with the binomial row of r - j.
        self._elevate = {int(j): (_binomial_row(j), _binomial_row(r - j))
                         for j in np.flatnonzero(rho.coeffs[1:]) + 1}
        # P after k products with f has degree k r.
        self._horner = [_binomial_row(k * r) for k in range(1, d_v - 1)]
        self._unscale = _binomial_row(m)

    def scaled_inner(self, epsilon: float) -> np.ndarray:
        """Scaled Bernstein coefficients of f(x) = 1 - rho(1 - epsilon*x)
        at degree deg(rho); epsilon lies in [0, 1]."""
        f = np.zeros(self.rho.degree + 1)
        for c, term in _inner_terms(self.rho, epsilon):
            row, elevation = self._elevate[term.size - 1]
            f += c * np.convolve(term * row, elevation)
        return f

    def __call__(self, lambda_coeffs: Mapping[int, float],
                 scaled_inner: np.ndarray) -> np.ndarray:
        f = scaled_inner
        p = np.array([float(lambda_coeffs.get(self.d_v, 0.0))])
        for k, i in enumerate(range(self.d_v - 1, 1, -1)):
            p = np.convolve(p, f)
            c = lambda_coeffs.get(i, 0.0)
            if c:
                p += c * self._horner[k]
        q = np.convolve(p, f[1:])
        return q / self._unscale


def bernstein_values(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values at the points x of the polynomial with Bernstein coefficients
    p on [0, 1], by de Casteljau's algorithm: convex combinations only."""
    x = np.asarray(x, dtype=float)[:, None]
    b = np.tile(np.asarray(p, dtype=float), (x.size, 1))
    for n in range(b.shape[1] - 1, 0, -1):
        b = (1.0 - x) * b[:, :n] + x * b[:, 1:n + 1]
    return b[:, 0]


def bernstein_halves(m: int) -> np.ndarray:
    """The de Casteljau maps at t = 1/2 for degree m, stacked: rows 0..m
    take Bernstein coefficients on [0, 1] to those of the left half
    [0, 1/2], rows m+1..2m+1 to those of the right half, each re-scaled to
    [0, 1].  Entry (i, k) of the left map is C(i, k) / 2^i, so both maps are
    nonnegative with rows summing to 1; the right map is the left one
    reversed in both axes."""
    left = np.zeros((m + 1, m + 1))
    left[0, 0] = 1.0
    for i in range(1, m + 1):
        left[i, :i] = 0.5 * left[i - 1, :i]
        left[i, 1:i + 1] += 0.5 * left[i - 1, :i]
    return np.vstack([left, left[::-1, ::-1]])


def bernstein_split(pieces: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Split each row of ``pieces`` (Bernstein coefficients of one piece)
    at its midpoint by ``bernstein_halves``: rows 2k and 2k+1 of the result
    are the left and right halves of piece k."""
    return (pieces @ halves.T).reshape(-1, pieces.shape[1])


def _rate(lambda_coeffs: Mapping[int, float], rho: Polynomial) -> float:
    """R = 1 - (int_0^1 rho) / (sum_i lambda_i / i)."""
    return 1.0 - rho.integral01() / sum(c / i for i, c in lambda_coeffs.items())


def design_rate(dist: DegreeDistribution) -> float:
    """Design rate of a degree-distribution pair, by the same formula as
    ``rate_and_gap``."""
    return _rate(dist.lambda_coeffs, dist.rho_polynomial())


def rate_and_gap(lambda_coeffs: Mapping[int, float], rho: Polynomial,
                 epsilon: float) -> tuple[float, float]:
    """R = 1 - (int_0^1 rho) / (sum_i lambda_i / i) and the gap 1 - R / (1 - epsilon)."""
    rate = _rate(lambda_coeffs, rho)
    return rate, 1.0 - rate / (1.0 - epsilon)


def rate_report(dist: DegreeDistribution, ch: ChannelSpec) -> RateReport:
    rate, gap = rate_and_gap(dist.lambda_coeffs, dist.rho_polynomial(), ch.epsilon)
    return RateReport(rate=rate, capacity=ch.capacity, gap=gap)
