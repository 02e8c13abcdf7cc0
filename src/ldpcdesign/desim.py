"""Density-evolution simulator for the binary erasure channel.

Implements the exact deterministic recursion y' = epsilon * lambda(1 -
rho(1 - y)) on erasure probabilities, convergence traces, the threshold in
closed form by branch and bound, and the empirical contraction factor that
makes the fast-convergence guarantee observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import FLOOR_TOL, _minimum
from .polynomials import DegreeDistribution, bernstein_halves, bernstein_quotient_sum

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
    """The largest epsilon for which DE converges, in closed form.

    DE converges at epsilon when the slack 1 - epsilon g(epsilon x) is
    positive on [0, 1], g(y) = lambda(1 - rho(1 - y)) / y.  g does not
    depend on epsilon and g(1) = 1, so its maximum M over [0, 1] is at
    least 1 and the threshold is 1 / M: below it epsilon g < 1, above it
    the slack is negative at x = y0 / epsilon, y0 <= 1 / M the argmax.
    g's Bernstein coefficients are those of sum_i lambda_i f^(i-1) / x at
    epsilon = 1 (the first is the x -> 0 value lambda_2 rho'(1)), and the
    branch and bound of ``certify._minimum`` on -g brackets M.  The result
    is the midpoint of the proved interval of 1 / M, or its lower end where
    a subdivision cap leaves the interval wider than ``tol``, so the
    estimate errs low; ``bracket_width`` is the interval's width.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    # A degree too high for float64 is refused here, before the split maps
    # are built.
    g = bernstein_quotient_sum(dist.lambda_coeffs, dist.rho_polynomial(), 1.0)
    value, _, bound = _minimum(-g, bernstein_halves(g.size - 1))
    lo, hi = 1.0 / (FLOOR_TOL - bound), -1.0 / value
    width = hi - lo
    return ThresholdResult(threshold=lo if width > tol else 0.5 * (lo + hi),
                           bracket_width=width)
