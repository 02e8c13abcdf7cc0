"""Seeded workload inputs, made with numpy alone.

Nothing here imports ``ldpcdesign``: the inputs of a seed stay the same
whatever the program under test does.  Polynomials are plain edge-degree
maps ``{degree: fraction}``; the benchmark turns them into program objects
only when it calls the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from referee import alpha_floor, reference_threshold


@dataclass(frozen=True)
class LPInstance:
    d_c: int  # rho = x^(d_c - 1)
    d_v: int
    epsilon: float
    alpha: float


@dataclass(frozen=True)
class DEInstance:
    lam: dict  # {degree: fraction}
    rho: dict
    ref_threshold: float


def lp_instance(rng: np.random.Generator) -> LPInstance:
    """rho = x^(d_c-1), d_c in [3, 8]; d_v in [3, 15]; eps in [0.05, 0.6];
    alpha uniform between the floor and 1 (alpha = 1 when the floor is
    above 1, where the answer must be "infeasible")."""
    d_c = int(rng.integers(3, 9))
    d_v = int(rng.integers(3, 16))
    eps = float(rng.uniform(0.05, 0.6))
    floor = alpha_floor(d_c, eps, d_v)
    lo = min(floor, 1.0)
    alpha = float(lo + rng.uniform() * (1.0 - lo))
    return LPInstance(d_c=d_c, d_v=d_v, epsilon=eps, alpha=alpha)


def _degree_map(rng: np.random.Generator, lo: int, hi: int, max_terms: int) -> dict:
    k = int(rng.integers(1, max_terms + 1))
    degrees = sorted(int(d) for d in rng.choice(np.arange(lo, hi + 1), size=k, replace=False))
    weights = rng.dirichlet(np.ones(k))
    weights[-1] = 1.0 - float(np.sum(weights[:-1]))
    return {d: float(w) for d, w in zip(degrees, weights)}


def de_instance(rng: np.random.Generator) -> DEInstance:
    """lambda: 1-3 nonzero degrees in 2..15; rho: 1-2 nonzero degrees in
    3..11; Dirichlet(1) fractions."""
    lam = _degree_map(rng, 2, 15, 3)
    rho = _degree_map(rng, 3, 11, 2)
    return DEInstance(lam=lam, rho=rho, ref_threshold=reference_threshold(lam, rho))
