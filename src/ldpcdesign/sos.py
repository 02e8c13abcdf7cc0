"""SDP path: sum-of-squares certificates for the fast-convergence constraint.

The slack polynomial p(x) = alpha*x - sum_i lambda_i g_i(x) vanishes at 0,
so nonnegativity on [0, 1] is imposed on q = p / x, of degree m, through the
two-block interval representation

    m even:  q = sigma0 + x(1-x) sigma1
    m odd:   q = x sigma0 + (1-x) sigma1

with each sigma = v(x)^T G v(x) a sum of squares over the Chebyshev basis
v_j(x) = T_j(2x - 1) of its half degree.  Both sides have degree m, so they
are equal when they agree at m + 1 points: the Chebyshev nodes of the first
kind on [0, 1] (Löfberg & Parrilo 2004, "From coefficients to samples").
At node x_k the lambda side is the LP's constraint row ``lp._rows``, so
both solvers read the constraint through one row builder, and each Gram
block enters row k through the rank-one matrix mult(x_k) v(x_k) v(x_k)^T.

The SDP (the Gram blocks and a nonnegative orthant for lambda; the m + 1
node rows, then sum lambda = 1) is solved by an in-repo primal-dual
interior-point kernel on a homogeneous self-dual embedding, in float64 on
numpy/LAPACK.  With rank-one rows its Schur complement is a sum of Hadamard
products of small matrices (Roh & Vandenberghe 2006).  Infeasibility is
decided only by the feasibility floor (``certify.feasibility_floor``, from
Bernstein coefficients), before any solve; an alpha that slips past the
floor ends as ``iteration-limit``.

A certificate is checked at the same nodes: the largest deviation there
between q and the polynomial the Gram blocks encode, times the bound
(2/pi) ln(m + 1) + 1 on the Lebesgue constant of the nodes, bounds their
deviation on all of [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify
from .lp import SolveRequest, _rows
from .polynomials import Polynomial, bernstein_values

# A returned certificate is valid when its matching residual, a bound on
# the deviation on [0, 1], is at most MATCHING_TOL and its smallest Gram
# eigenvalue at least -EIG_TOL.
MATCHING_TOL = 1e-8
EIG_TOL = 1e-8
MAX_IPM_ITERS = 500


def _solve(A, rhs):
    """A^-1 rhs by LAPACK, or least squares when A is exactly singular."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, rhs, rcond=None)[0]


@dataclass(frozen=True)
class SOSProblem:
    degrees: tuple  # variable-node degrees 2..d_v
    node_rows: np.ndarray  # (m+1) x (d_v-1): g_i / x at the nodes (lp._rows)
    alpha: float
    q_degree: int  # m
    gram_sizes: tuple  # (s0, s1); s1 may be 0
    objective: np.ndarray  # 1/i per lambda_i
    rho: Polynomial
    epsilon: float


@dataclass(frozen=True)
class SOSCertificate:
    gram_blocks: tuple  # one or two symmetric blocks over T_j(2x - 1)
    matching_residual: float
    min_eigenvalue: float


@dataclass(frozen=True)
class SDPSolution:
    lambda_coeffs: dict
    objective: float
    duality_gap: float
    iterations: int
    # optimal | infeasible (below the feasibility floor, no solve) |
    # iteration-limit (also an infeasible alpha that passed the floor) |
    # numerical-failure
    status: str
    # The stop that ended the solve: converged | blocked-step | stall |
    # tau-collapse | iteration-cap | factorization, or below-floor with no
    # solve.  A stop short of convergence is optimal when its best iterate
    # meets the tolerances.
    reason: str


def _gram_sizes(m: int) -> tuple[int, int]:
    if m % 2 == 0:
        return m // 2 + 1, m // 2
    return (m + 1) // 2, (m + 1) // 2


def _nodes(m: int) -> np.ndarray:
    """The m + 1 Chebyshev nodes of the first kind on [0, 1], ascending."""
    k = np.arange(m + 1)
    return (1.0 - np.cos((2 * k + 1) * np.pi / (2 * m + 2))) / 2.0


def _multipliers(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval multipliers of sigma0 and sigma1 at the points x."""
    if m % 2 == 0:
        return np.ones_like(x), x * (1.0 - x)
    return x, 1.0 - x


def _gram_basis(x: np.ndarray, size: int) -> np.ndarray:
    """T_j(2x - 1) for j < size, one row per point.  numpy.polynomial is
    imported on first use, so that importing the package for the LP path
    does not load it."""
    from numpy.polynomial.chebyshev import chebvander
    return chebvander(2.0 * x - 1.0, size - 1)


def _rowdot(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v_k^T M v_k for every row v_k of V."""
    return np.einsum("kj,kj->k", V @ M, V)


def _nodal_bound(blocks, m: int, q_at_nodes: np.ndarray) -> float:
    """Bound on max over [0, 1] of |q - sum_b mult_b v^T G_b v|, given q at
    the nodes of degree m: the largest deviation at the nodes times the
    Lebesgue-constant bound (2/pi) ln(m + 1) + 1, since the deviation is a
    polynomial of degree at most m."""
    x = _nodes(m)
    gram = sum(mult * _rowdot(_gram_basis(x, len(G)), G)
               for G, mult in zip(blocks, _multipliers(m, x)) if len(G))
    lebesgue = 2.0 / np.pi * np.log(m + 1.0) + 1.0
    return float(lebesgue * np.max(np.abs(q_at_nodes - gram)))


def build_sos_problem(req: SolveRequest) -> SOSProblem:
    degrees = tuple(range(2, req.d_v + 1))
    m = (req.d_v - 1) * req.rho.degree - 1
    return SOSProblem(
        degrees=degrees,
        node_rows=_rows(req.rho, req.epsilon, req.d_v, _nodes(m)),
        alpha=req.alpha, q_degree=m, gram_sizes=_gram_sizes(m),
        objective=np.array([1.0 / i for i in degrees]),
        rho=req.rho, epsilon=req.epsilon,
    )


# --- SDP kernel: rank-one Gram rows plus a nonnegative orthant ------------


class _BlockSDP:
    """min c.x  s.t.  sum_b m_b * diag(V_b X_b V_b^T) + R x = b,
    X_b >= 0 (PSD), x >= 0.

    Row k of block b is the rank-one matrix m_bk v_bk v_bk^T, v_bk row k
    of V_b and m_b the vector ``mult[b]``; the Gram blocks carry no cost.
    Iterates hold the Gram blocks followed by the orthant vector:
    X = [X_1, .., X_B, x], likewise Z.
    """

    def __init__(self, V, mult, R, c, b):
        self.V, self.mult, self.R, self.c, self.b = V, mult, R, c, b
        self.weights = [np.outer(m, m) for m in mult]
        self.sizes = [v.shape[1] for v in V] + [R.shape[1]]

    @staticmethod
    def _inner(Ms, Ns):
        return sum(np.sum(M * N) for M, N in zip(Ms, Ns))

    def _apply(self, X) -> np.ndarray:
        *blocks, x = X
        return sum(m * _rowdot(V, M) for V, m, M
                   in zip(self.V, self.mult, blocks)) + self.R @ x

    def _adjoint(self, y):
        return ([V.T @ ((m * y)[:, None] * V) for V, m in zip(self.V, self.mult)]
                + [self.R.T @ y])

    @staticmethod
    def _interior(Ms) -> bool:
        *blocks, x = Ms
        try:
            for M in blocks:
                np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(x > 0.0))

    @classmethod
    def _max_step(cls, X, Li, dX) -> float:
        """Step a <= 1 keeping X + a*dX strictly inside the cone, given the
        inverse Cholesky factors Li of X's Gram blocks."""
        lowest = [float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
                  for W in (L @ dM @ L.T for L, dM in zip(Li, dX))]
        lowest.append(float(np.min(dX[-1] / X[-1])))
        step = min((-1.0 / v for v in lowest if v < 0.0), default=np.inf)
        a = min(1.0, 0.98 * step)
        # Guard against roundoff at the cone boundary.
        while a > 1e-13 and not cls._interior(
                [M + a * dM for M, dM in zip(X, dX)]):
            a *= 0.8
        return a if a > 1e-13 else 0.0

    def _newton_step(self, X, y, Z, tau, kappa, rp, Rd, rg, cx, gap, mu):
        """One predictor-corrector step from (X, y, Z, tau, kappa), or None
        when even a pure centering step is blocked at the cone boundary.
        Raises LinAlgError when an iterate fails to factor."""
        K = self.b.size
        *Xg, x = X
        *Zg, z = Z
        *Rdg, rd = Rd
        c, R = self.c, self.R
        LiX = [np.linalg.solve(L, np.eye(len(L)))
               for L in map(np.linalg.cholesky, Xg)]
        LiZ = [np.linalg.solve(L, np.eye(len(L)))
               for L in map(np.linalg.cholesky, Zg)]
        Zi = [L.T @ L for L in LiZ]
        xz = x / z

        # Schur system in (dy, dtau).  Its entries are tr(A_k Zi A_j X),
        # which for the rank-one rows is m_k m_j (v_k^T Zi v_j)
        # (v_j^T X v_k): a Hadamard product per block.
        VZV = [V @ Zib @ V.T for V, Zib in zip(self.V, Zi)]
        VXV = [V @ Xb @ V.T for V, Xb in zip(self.V, Xg)]
        S = np.zeros((K + 1, K + 1))
        S[:K, :K] = (sum(W * P * Q for W, P, Q in zip(self.weights, VZV, VXV))
                     + (R * xz) @ R.T)
        u = R @ (c * xz)
        a0 = sum(m * np.diag(P) for m, P in zip(self.mult, VZV)) + R @ (1.0 / z)
        qv = (sum(m * _rowdot(V, Zib @ Rb @ Xb) for V, m, Zib, Rb, Xb
                  in zip(self.V, self.mult, Zi, Rdg, Xg)) + R @ (rd * xz))
        s_rd = c @ (rd * xz)
        ctilde = c @ (1.0 / z)
        S[:K, K] = -(u + self.b)
        S[K, :K] = self.b - u
        S[K, K] = c @ (c * xz) + kappa / tau

        # The Newton direction satisfies A(dX) = r only up to the condition
        # number of the Schur system; without restoration the primal
        # residual stops contracting.  One least-norm round in the
        # X^(1/2)-scaled metric restores it: with P_b = X_b^(1/2),
        # dX_b += P_b V_b^T diag(m_b w) V_b P_b and dx += x R^T w, where
        # B B^T w is the residual and B B^T = sum_b (m_b m_b^T) o
        # (V_b P_b V_b^T)^2 + R diag(x) R^T.  Scaling by X itself would
        # square the eigenvalue spread of X, which reaches 1e-11 near an
        # optimum, and the Cholesky factorization of B B^T would fail.
        PVt = []
        for V, Xb in zip(self.V, Xg):
            theta, Q = np.linalg.eigh(Xb)
            PVt.append((Q * np.sqrt(np.maximum(theta, 0.0))) @ (Q.T @ V.T))
        BBt = (sum(W * np.square(V @ P) for W, V, P
                   in zip(self.weights, self.V, PVt)) + (R * x) @ R.T)
        LiB = np.linalg.solve(np.linalg.cholesky(BBt), np.eye(K))

        def directions(sigma, affine=None):
            om = 1.0 - sigma
            smu = sigma * mu
            r1 = om * (rp + qv) + (self.b * tau - rp) - smu * a0
            r2 = (om * (rg - s_rd) + smu * ctilde - cx
                  + (smu - tau * kappa) / tau)
            # Mehrotra's second-order term: the products dZ dX and
            # dtau dkappa of the affine (predictor) direction, which the
            # linearized complementarity conditions drop.
            M, tk = [0.0] * len(X), 0.0
            if affine is not None:
                dXa, dZa, dta, dka = affine
                M = [Zib @ dZb @ dXb for Zib, dZb, dXb
                     in zip(Zi, dZa, dXa)] + [dZa[-1] * dXa[-1] / z]
                tk = dta * dka
                r1 = r1 + self._apply(M)
                r2 = r2 - c @ M[-1] - tk / tau
            sol = _solve(S, np.append(r1, r2))
            dy, dtau = sol[:K], sol[K]
            dZ = [om * Rb - Ab for Rb, Ab in zip(Rd, self._adjoint(dy))]
            dZ[-1] = dZ[-1] + dtau * c
            dX = []
            for Zib, Xb, dZb, Mb in zip(Zi, Xg, dZ, M):
                D = smu * Zib - Xb - Zib @ dZb @ Xb - Mb
                dX.append(0.5 * (D + D.T))
            dX.append(smu / z - x - dZ[-1] * xz - M[-1])
            w = LiB.T @ (LiB @ (om * rp + self.b * dtau - self._apply(dX)))
            for k, (P, m) in enumerate(zip(PVt, self.mult)):
                dX[k] = dX[k] + (P * (m * w)) @ P.T
            dX[-1] = dX[-1] + x * (R.T @ w)
            dkappa = (smu - tau * kappa - tk - kappa * dtau) / tau
            return dX, dy, dZ, dtau, dkappa

        def joint_step(dX, dZ, dtau, dkappa):
            a = min(self._max_step(X, LiX, dX), self._max_step(Z, LiZ, dZ))
            if dtau < 0.0:
                a = min(a, -0.98 * tau / dtau)
            if dkappa < 0.0:
                a = min(a, -0.98 * kappa / dkappa)
            return a

        # Predictor (affine) step fixes the centering weight.
        dXa, _, dZa, dta, dka = directions(0.0)
        aff = joint_step(dXa, dZa, dta, dka)
        gap_aff = (self._inner(
            [Xb + aff * db for Xb, db in zip(X, dXa)],
            [Zb + aff * db for Zb, db in zip(Z, dZa)])
            + (tau + aff * dta) * (kappa + aff * dka))
        sigma = min(0.9, max(1e-4,
                             (max(gap_aff, 0.0) / (gap + tau * kappa)) ** 3))

        dX, dy, dZ, dtau, dkappa = directions(sigma, (dXa, dZa, dta, dka))
        a = joint_step(dX, dZ, dtau, dkappa)
        if a <= 1e-8:
            # Combined step blocked at the cone boundary; a pure
            # centering step re-opens the interior.
            dX, dy, dZ, dtau, dkappa = directions(1.0)
            a = joint_step(dX, dZ, dtau, dkappa)
            if a <= 1e-8:
                return None
        return ([Xb + a * db for Xb, db in zip(X, dX)], y + a * dy,
                [Zb + a * db for Zb, db in zip(Z, dZ)],
                tau + a * dtau, kappa + a * dkappa)

    def solve(self, gap_tol: float = 1e-8, feas_tol: float = 1e-9,
              dual_tol: float = 1e-8, max_iters: int = MAX_IPM_ITERS):
        """Homogeneous self-dual path following (HKM direction, Mehrotra
        predictor-corrector).

        The embedding carries homogenizing scalars (tau, kappa) alongside
        (X, y, Z), so X = Z = I, tau = kappa = 1 is always a strictly
        interior start and infeasibility shows up as tau -> 0 rather than
        as a divergent iterate; that stop is reported as
        ``iteration-limit``.  Returns the de-homogenized (X, y, Z) of
        the best iterate seen, the iteration count, the status and the
        reason the loop stopped (``SDPSolution.reason``).  A factorization
        that fails on an iterate ends the loop; it never raises.

        The dual residual gets a looser tolerance than the primal one: it
        only backs the duality-gap bound on the reported objective, while
        the primal residual bounds the certificate's matching error.
        """
        K = self.b.size
        n_total = sum(self.sizes) + 1
        X = [np.eye(s) for s in self.sizes[:-1]] + [np.ones(self.sizes[-1])]
        Z = [M.copy() for M in X]
        y = np.zeros(K)
        tau = 1.0
        kappa = 1.0

        b_norm = 1.0 + float(np.linalg.norm(self.b))
        c_norm = 1.0 + float(np.abs(self.c).max())
        best = None
        best_rels = (np.inf, np.inf, np.inf)
        best_merit = np.inf
        stall = 0
        reason = "iteration-cap"
        it = 0
        for it in range(1, max_iters + 1):
            cx = self.c @ X[-1]
            by = self.b @ y
            rp = self.b * tau - self._apply(X)
            Rd = [-Zb - Ab for Zb, Ab in zip(Z, self._adjoint(y))]
            Rd[-1] = Rd[-1] + tau * self.c
            rg = kappa + cx - by
            gap = self._inner(X, Z)
            mu = (gap + tau * kappa) / n_total

            rel_p = float(np.sqrt(rp @ rp) / (tau * b_norm))
            rel_d = float(max(np.abs(M).max() for M in Rd) / (tau * c_norm))
            rel_g = float(gap / (tau * tau * (1.0 + abs(cx / tau))))
            merit = max(rel_p, rel_d, rel_g)
            if merit < best_merit:
                best_merit = merit
                best_rels = (rel_p, rel_d, rel_g)
                best = ([M / tau for M in X], y / tau, [M / tau for M in Z])
                stall = 0
            else:
                stall += 1
            # Push two extra digits past the contractual tolerances while
            # progress lasts: the surplus absorbs the later clipping and
            # renormalization of lambda.  The best iterate is graded
            # against the contractual tolerances after the loop.
            if (rel_p <= 0.01 * feas_tol and rel_d <= 0.01 * dual_tol
                    and rel_g <= 0.01 * gap_tol):
                reason = "converged"
                break
            if tau <= 1e-9 * max(1.0, kappa):
                reason = "tau-collapse"
                break
            if stall >= 30:
                reason = "stall"
                break
            try:
                step = self._newton_step(X, y, Z, tau, kappa, rp, Rd, rg,
                                         cx, gap, mu)
            except np.linalg.LinAlgError:
                reason = "factorization"
                break
            if step is None:
                reason = "blocked-step"
                break
            X, y, Z, tau, kappa = step
        if (best_rels[0] <= feas_tol and best_rels[1] <= dual_tol
                and best_rels[2] <= gap_tol):
            status = "optimal"
        elif reason == "factorization":
            status = "numerical-failure"
        else:
            status = "iteration-limit"
        if best is None:
            best = ([M / tau for M in X], y / tau, [M / tau for M in Z])
        Xb, yb, Zb = best
        return Xb, yb, Zb, it, status, reason


# --- assembling and solving the fast-convergence SDP ----------------------


def _assemble(prob: SOSProblem) -> _BlockSDP:
    """Blocks [G0, (G1)] and the orthant of lambda; rows: q matched at the
    m + 1 nodes, sum_b mult_b(x_k) v(x_k)^T G_b v(x_k) + sum_i lambda_i
    (g_i / x)(x_k) = alpha, then sum lambda = 1."""
    m = prob.q_degree
    x = _nodes(m)
    V, mult = [], []
    for size, values in zip(prob.gram_sizes, _multipliers(m, x)):
        if size:
            V.append(np.vstack([_gram_basis(x, size), np.zeros((1, size))]))
            mult.append(np.append(values, 0.0))
    R = np.vstack([prob.node_rows, np.ones(len(prob.degrees))])
    b = np.full(m + 2, prob.alpha)
    b[-1] = 1.0
    return _BlockSDP(V, mult, R, -prob.objective, b)


def solve_sdp(prob: SOSProblem, tol: float = 1e-8):
    """The rate-maximizing SDP, one interior-point solve.

    An alpha below the feasibility floor (``certify.feasibility_floor``) is
    reported infeasible without a solve.  Returns (SDPSolution,
    SOSCertificate | None).  Deterministic for identical inputs; never
    raises on a valid problem.
    """
    floor = certify.feasibility_floor(prob.rho, prob.epsilon, prob.degrees[-1])
    if prob.alpha < floor - certify.FEASIBILITY_TOL:
        sol = SDPSolution(lambda_coeffs={}, objective=float("nan"),
                          duality_gap=float("nan"), iterations=0,
                          status="infeasible", reason="below-floor")
        return sol, None

    sdp = _assemble(prob)
    X, _, Z, iterations, status, reason = sdp.solve(gap_tol=tol)
    # Drop the negligible entries first and normalize once, so the
    # returned lambda sums to 1 to roundoff.
    lam = X[-1].copy()
    lam[lam <= 1e-12] = 0.0
    if lam.sum() > 0.0:
        lam /= lam.sum()
    lambda_coeffs = {d: float(c) for d, c in zip(prob.degrees, lam) if c > 0.0}
    blocks = tuple(X[:-1])
    residual = _nodal_bound(blocks, prob.q_degree,
                            prob.alpha - prob.node_rows @ lam)
    cert = SOSCertificate(
        gram_blocks=blocks, matching_residual=residual,
        min_eigenvalue=_min_eigenvalue(blocks))
    sol = SDPSolution(lambda_coeffs=lambda_coeffs,
                      objective=float(prob.objective @ lam),
                      duality_gap=float(sdp._inner(X, Z)),
                      iterations=iterations, status=status, reason=reason)
    return sol, cert


def check_certificate(q, cert: SOSCertificate) -> float:
    """Independent recheck: a bound on max over [0, 1] of |q - q_G|, q_G
    the polynomial implied by the Gram blocks and interval multipliers and
    q given by Bernstein coefficients on [0, 1] of degree at most the
    certified one.  q is evaluated at the certificate's nodes by de
    Casteljau's algorithm.  (Eigenvalues are available via
    ``cert.min_eigenvalue`` or a fresh ``certificate_min_eigenvalue``.)"""
    G0 = cert.gram_blocks[0]
    s0 = G0.shape[0]
    s1 = cert.gram_blocks[1].shape[0] if len(cert.gram_blocks) > 1 else 0
    # Infer the certified degree from the block shapes.
    if s1 == s0:
        m = 2 * s0 - 1
    elif s1 == s0 - 1:
        m = 2 * (s0 - 1)
    else:
        raise ValueError(
            f"Gram block sizes {(s0, s1)} do not form an interval certificate")
    q = np.asarray(q, dtype=float)
    if q.size - 1 > m:
        raise ValueError(
            f"polynomial degree {q.size - 1} exceeds certified degree {m}")
    return _nodal_bound(cert.gram_blocks, m, bernstein_values(q, _nodes(m)))


def _min_eigenvalue(blocks) -> float:
    return min(float(np.linalg.eigvalsh(G)[0]) for G in blocks if G.size > 0)


def certificate_min_eigenvalue(cert: SOSCertificate) -> float:
    return _min_eigenvalue(cert.gram_blocks)
