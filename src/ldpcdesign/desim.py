"""Density-evolution simulator for the binary erasure channel.

Implements the exact deterministic recursion y' = epsilon * lambda(1 -
rho(1 - y)) on erasure probabilities, convergence traces, a threshold
bisection, and the empirical contraction factor that makes the
fast-convergence guarantee observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import proves_positive
from .polynomials import BernsteinQuotientSum, DegreeDistribution, bernstein_halves

DEFAULT_TARGET = 1e-6
DEFAULT_MAX_ITERS = 10_000

# If y improves by less than this while still above target, the recursion is
# stuck at a fixed point; stop instead of burning the full budget.
STALL_TOL = 1e-14


@dataclass(frozen=True)
class DETrace:
    epsilon: float
    values: tuple
    converged: bool
    iterations_to_target: int | None


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    bracket_width: float


def de_step(dist: DegreeDistribution, epsilon: float, y: float) -> float:
    """One decoder iteration: epsilon * lambda(1 - rho(1 - y))."""
    lam = dist.lambda_polynomial()
    rho = dist.rho_polynomial()
    return epsilon * lam(1.0 - rho(1.0 - y))


def de_trace(
    dist: DegreeDistribution,
    epsilon: float,
    target: float = DEFAULT_TARGET,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> DETrace:
    """Iterate the recursion from y_0 = epsilon until y <= target.

    Exhausting max_iters (or stalling at a fixed point above target) is
    reported as converged = False rather than an error.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    lam = dist.lambda_polynomial()
    rho = dist.rho_polynomial()

    y = float(epsilon)
    values = [y]
    if y <= target:
        return DETrace(epsilon=epsilon, values=tuple(values), converged=True,
                       iterations_to_target=0)
    for _ in range(max_iters):
        y_next = epsilon * lam(1.0 - rho(1.0 - y))
        values.append(y_next)
        if y_next <= target:
            return DETrace(epsilon=epsilon, values=tuple(values), converged=True,
                           iterations_to_target=len(values) - 1)
        if y - y_next < STALL_TOL:
            break
        y = y_next
    return DETrace(epsilon=epsilon, values=tuple(values), converged=False,
                   iterations_to_target=None)


def empirical_contraction(trace: DETrace) -> float:
    """Largest observed per-iteration ratio y_{l+1} / y_l."""
    if len(trace.values) < 2:
        raise ValueError("trace too short: need at least 2 values")
    ratios = [
        b / a
        for a, b in zip(trace.values[:-1], trace.values[1:])
        if a >= 1e-12
    ]
    if not ratios:
        raise ValueError("trace has no usable consecutive pairs (values too small)")
    return max(ratios)


def threshold(dist: DegreeDistribution, tol: float) -> ThresholdResult:
    """Bisection estimate of the largest epsilon for which DE converges.

    DE converges at epsilon when the slack s(x) = 1 - sum_i lambda_i
    f(x)^(i-1) / x, f(x) = 1 - rho(1 - epsilon x), is positive on [0, 1].
    Each candidate epsilon is decided by a proof on the Bernstein
    coefficients of s (``certify.proves_positive``), not by trace
    truncation, which misclassifies near-threshold channels.  An epsilon
    the subdivision caps leave unsettled counts as not converging, so the
    estimate errs low.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lam = dist.lambda_coeffs
    # Only f depends on epsilon, so the binomial rows and the split maps are
    # built once; ``BernsteinQuotientSum`` rejects a degree too high for
    # float64 before either is built.
    quotient = BernsteinQuotientSum(dist.rho_polynomial(), max(lam))
    halves = bernstein_halves(quotient.degree)

    def converges(eps: float) -> bool:
        return proves_positive(1.0 - quotient(lam, quotient.scaled_inner(eps)), halves)

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(threshold=0.5 * (lo + hi), bracket_width=hi - lo)
