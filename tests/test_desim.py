"""Density-evolution recursion, traces, contraction, and threshold search."""

import math

import numpy as np
import pytest

from ldpcdesign import certify, desim
from ldpcdesign.desim import (
    DETrace, de_step, de_trace, empirical_contraction, threshold)
from ldpcdesign.certify import FLOOR_TOL
from ldpcdesign.polynomials import BernsteinQuotientSum, DegreeDistribution

from oracles import random_edge_map, threshold_closed_form

CYCLE = DegreeDistribution({2: 1.0}, {2: 1.0})          # lambda = x, rho = x
REGULAR_36 = DegreeDistribution({3: 1.0}, {6: 1.0})     # lambda = x^2, rho = x^5


def test_de_step_zero_channel():
    assert de_step(REGULAR_36, 0.0, 0.7) == 0.0


def test_de_step_cycle():
    assert de_step(CYCLE, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_de_step_regular_36():
    expected = 0.4 * (1.0 - 0.6 ** 5) ** 2
    assert de_step(REGULAR_36, 0.4, 0.4) == pytest.approx(expected, abs=1e-12)


def test_de_trace_geometric():
    trace = de_trace(CYCLE, 0.5, target=1e-6)
    assert trace.converged
    assert trace.iterations_to_target == 19
    for k, y in enumerate(trace.values):
        assert y == pytest.approx(0.5 ** (k + 1), abs=1e-15)


def test_de_trace_zero_epsilon():
    trace = de_trace(CYCLE, 0.0)
    assert trace.converged
    assert trace.values == (0.0,)
    assert trace.iterations_to_target == 0


def test_de_trace_above_threshold_stalls_at_fixed_point():
    trace = de_trace(REGULAR_36, 0.5, target=1e-6)
    assert not trace.converged
    assert trace.iterations_to_target is None
    # The stall level is a genuine fixed point of y' = eps*lambda(1-rho(1-y)):
    # scan a 1e-4 grid for a sign change of the update map around it.
    y_stall = trace.values[-1]
    ys = np.arange(1e-4, 0.5, 1e-4)
    resid = np.array([de_step(REGULAR_36, 0.5, y) - y for y in ys])
    fixed = ys[np.nonzero(resid[:-1] * resid[1:] <= 0)[0]]
    assert fixed.size > 0
    assert min(abs(fixed - y_stall)) < 1e-3


def test_de_trace_validates_inputs():
    with pytest.raises(ValueError):
        de_trace(CYCLE, 0.5, target=0.0)
    with pytest.raises(ValueError):
        de_trace(CYCLE, 0.5, max_iters=0)


def test_traces_nonincreasing_when_converged():
    for eps in (0.1, 0.25, 0.4):
        trace = de_trace(REGULAR_36, eps, target=1e-6)
        assert trace.converged
        for a, b in zip(trace.values[:-1], trace.values[1:]):
            assert b <= a + 1e-12


def test_trace_determinism():
    t1 = de_trace(REGULAR_36, 0.37, target=1e-6)
    t2 = de_trace(REGULAR_36, 0.37, target=1e-6)
    assert t1.values == t2.values


def test_empirical_contraction_geometric():
    trace = de_trace(CYCLE, 0.5, target=1e-6)
    assert empirical_contraction(trace) == pytest.approx(0.5, abs=1e-12)


def test_empirical_contraction_short_trace():
    with pytest.raises(ValueError):
        empirical_contraction(
            DETrace(epsilon=0.3, values=(0.3,), converged=False,
                    iterations_to_target=None))


def test_threshold_cycle_code_near_one():
    result = threshold(CYCLE, tol=1e-4)
    assert result.threshold == pytest.approx(1.0, abs=2e-4)
    assert result.bracket_width <= 1e-4


def test_threshold_regular_36():
    result = threshold(REGULAR_36, tol=1e-4)
    assert 0.4284 <= result.threshold <= 0.4304
    assert result.bracket_width <= 1e-4


def test_threshold_lambda_x_rho_x5():
    # slack 1 - eps*5*(1-x)^4 is minimized as x -> 0, giving eps <= 0.2.
    dist = DegreeDistribution({2: 1.0}, {6: 1.0})
    result = threshold(dist, tol=1e-5)
    assert result.threshold == pytest.approx(0.2, abs=2e-5)


@pytest.mark.parametrize("lam, rho", [
    # Threshold 0.45969, so DE does not converge at 0.5.
    ({15: 1.0}, {10: 1.0}),
    # Threshold 0.962, both sides irregular.
    ({5: 0.223, 8: 0.461, 15: 0.316}, {3: 0.818, 11: 0.182}),
])
def test_threshold_matches_closed_form(lam, rho):
    result = threshold(DegreeDistribution(lam, rho), tol=1e-6)
    assert result.threshold == pytest.approx(threshold_closed_form(lam, rho),
                                             abs=2e-6)


def test_threshold_never_expands_monomials(monkeypatch):
    # The threshold comes from the branch and bound on Bernstein
    # coefficients (certify._minimum), not from the margin certifier.
    def refuse(*args, **kwargs):
        raise AssertionError("threshold reached the margin certifier")

    monkeypatch.setattr(certify, "min_normalized_slack", refuse)
    result = threshold(REGULAR_36, tol=1e-4)
    assert 0.4284 <= result.threshold <= 0.4304


def test_threshold_rejects_degree_beyond_float64_before_building(monkeypatch):
    # The slack of lambda = x^1999, rho = x^9 has degree 17 990: its split
    # maps alone would take gigabytes, so the degree is refused first.
    def refuse(m):
        raise AssertionError(f"built the split maps of degree {m}")

    monkeypatch.setattr(desim, "bernstein_halves", refuse)
    with pytest.raises(ValueError, match="too high"):
        threshold(DegreeDistribution({2000: 1.0}, {10: 1.0}), tol=1e-6)


def test_threshold_consistency_with_traces():
    result = threshold(REGULAR_36, tol=1e-4)
    below = de_trace(REGULAR_36, result.threshold - 2e-4, target=1e-6)
    above = de_trace(REGULAR_36, result.threshold + 2e-4, target=1e-6)
    assert below.converged
    assert not above.converged


def _panel(seed, size):
    """Random designs like the benchmark's: lambda with 1-3 degrees in
    2..15, rho with 1-2 degrees in 3..11, Dirichlet(1) fractions."""
    rng = np.random.default_rng(seed)
    return [(random_edge_map(rng, 2, 15, 3), random_edge_map(rng, 3, 11, 2))
            for _ in range(size)]


@pytest.mark.parametrize("lam, rho", _panel(13, 40))
def test_threshold_matches_closed_form_on_random_panel(lam, rho):
    result = threshold(DegreeDistribution(lam, rho), tol=1e-6)
    assert result.threshold == pytest.approx(threshold_closed_form(lam, rho),
                                             abs=1e-9)
    assert result.bracket_width <= 1e-6


def test_threshold_cycle_code_is_one():
    # g(y) = lambda(1 - rho(1 - y)) / y = 1 on all of [0, 1]: the proved
    # interval of the threshold is [1 / (1 + FLOOR_TOL), 1].
    result = threshold(CYCLE, tol=1e-6)
    assert 1.0 - FLOOR_TOL <= result.threshold < 1.0
    assert result.bracket_width < 2 * FLOOR_TOL


def test_threshold_builds_the_bernstein_coefficients_once(monkeypatch):
    # One Bernstein build at epsilon = 1 per call, not one per epsilon tried.
    calls = []
    scaled_inner = BernsteinQuotientSum.scaled_inner

    def counting(self, epsilon):
        calls.append(epsilon)
        return scaled_inner(self, epsilon)

    monkeypatch.setattr(BernsteinQuotientSum, "scaled_inner", counting)
    for dist in (CYCLE, REGULAR_36, DegreeDistribution(*_panel(13, 1)[0])):
        calls.clear()
        threshold(dist, tol=1e-6)
        assert calls == [1.0]


@pytest.mark.parametrize("dist", [REGULAR_36] + [
    DegreeDistribution(lam, rho) for lam, rho in _panel(14, 20) if 2 not in lam])
def test_threshold_separates_traces_within_1e_5(dist):
    # Without lambda_2 the threshold is set where DE meets a fixed point
    # inside (0, 1], so the traces settle within the iteration budget on
    # both sides.  (With lambda_2 the bottleneck can be y -> 0, where
    # convergence just below the threshold takes ~1e6 iterations.)
    eps = threshold(dist, tol=1e-6).threshold
    assert de_trace(dist, eps * (1.0 - 1e-5)).converged
    assert not de_trace(dist, eps * (1.0 + 1e-5)).converged


def test_threshold_cap_returns_the_lower_end(monkeypatch):
    # With no split allowed the interval of 1 / M is wider than tol, and the
    # lower end is returned: it errs low.
    monkeypatch.setattr(certify, "MAX_SPLIT_DEPTH", 0)
    capped = threshold(REGULAR_36, tol=1e-6)
    monkeypatch.undo()
    full = threshold(REGULAR_36, tol=1e-6)
    assert capped.bracket_width > 1e-6
    assert capped.threshold < full.threshold - full.bracket_width
    assert capped.threshold + capped.bracket_width > full.threshold


def test_threshold_rejects_bad_tol():
    with pytest.raises(ValueError):
        threshold(CYCLE, tol=0.0)


def test_iteration_budget_for_certified_contraction():
    # lambda = x with rho = x contracts with ratio exactly epsilon = alpha.
    eps = 0.5
    target = 1e-6
    trace = de_trace(CYCLE, eps, target=target)
    bound = math.ceil(math.log(target / eps) / math.log(eps)) + 2
    assert trace.iterations_to_target <= bound
