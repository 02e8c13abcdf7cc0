"""SDP path: sum-of-squares certificates for the fast-convergence constraint.

The slack polynomial p(x) = alpha*x - sum_i lambda_i g_i(x) vanishes at 0,
so nonnegativity on [0, 1] is imposed on q = p / x through the two-block
interval representation

    deg q even:  q = sigma0 + x(1-x) sigma1
    deg q odd:   q = x sigma0 + (1-x) sigma1

with each sigma = b(x)^T G b(x) a sum of squares over the Bernstein basis b
of its half degree, and every coefficient matched in the Bernstein basis on
[0, 1].  The small block-diagonal SDP (the Gram blocks and one diagonal
block of the lambda scalars; coefficient matching plus sum lambda = 1) is
solved by an in-repo primal-dual interior-point kernel built on a
homogeneous self-dual embedding, in float64 on numpy/LAPACK.  That suffices
because the Bernstein form is well conditioned on [0, 1] (Farouki & Rajan
1987): the columns g_i / x come from nonnegative sums
(``polynomials.bernstein_quotient_basis``) and every Gram-map weight lies
in (0, 1], whereas expanding g_i in monomials cancels catastrophically at
high degree.  Infeasibility is decided only by the feasibility floor
(``certify.feasibility_floor``, from Bernstein coefficients as well), before
any solve; an alpha that slips past the floor ends as ``iteration-limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import certify
from .lp import SolveRequest
from .polynomials import Polynomial, bernstein_elevate, bernstein_quotient_basis

# A returned certificate is valid when its coefficient-matching residual is
# at most MATCHING_TOL and its smallest Gram eigenvalue at least -EIG_TOL.
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
    h_matrix: np.ndarray  # (m+1) x (d_v-1); column i: Bernstein coeffs of g_i/x
    alpha: float
    q_degree: int  # m
    gram_sizes: tuple  # (s0, s1); s1 may be 0
    objective: np.ndarray  # 1/i per lambda_i
    rho: Polynomial
    epsilon: float

    def slack_coeffs(self, lam) -> np.ndarray:
        """Bernstein coefficients of q = alpha - sum_i lambda_i g_i / x,
        given the lambda vector ordered as ``degrees``."""
        return self.alpha - self.h_matrix @ np.asarray(lam, dtype=float)


@dataclass(frozen=True)
class SOSCertificate:
    gram_blocks: tuple  # one or two symmetric ndarray blocks
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


def _gram_sizes(m: int) -> tuple[int, int]:
    if m % 2 == 0:
        return m // 2 + 1, m // 2
    return (m + 1) // 2, (m + 1) // 2


@lru_cache(maxsize=None)
def _gram_maps(m: int) -> tuple[np.ndarray, ...]:
    """Stacked (m+1, s, s) linear maps from each nonempty Gram block to the
    Bernstein coefficients of q: map[l] paired with the block gives its
    share of q_l.  A block of half degree t times its multiplier, 1 or
    (1-x) at offset 0, x or x(1-x) at offset 1, maps entry (j, k) to
    coefficient l = j + k + offset with weight C(t,j) C(t,k) / C(m,l)."""
    odd = m % 2
    maps = []
    for size, offset in zip(_gram_sizes(m), (odd, 1 - odd)):
        if size == 0:
            continue
        t = size - 1
        M = np.zeros((m + 1, size, size))
        for j in range(size):
            for k in range(size):
                l = j + k + offset
                M[l, j, k] = comb(t, j) * comb(t, k) / comb(m, l)
        M.setflags(write=False)
        maps.append(M)
    return tuple(maps)


def _gram_coeffs(m: int, blocks) -> np.ndarray:
    """Bernstein coefficients of the degree-m polynomial that the Gram
    blocks encode."""
    return sum(np.einsum("lij,ij->l", M, G)
               for M, G in zip(_gram_maps(m), blocks))


def build_sos_problem(req: SolveRequest) -> SOSProblem:
    H = bernstein_quotient_basis(req.rho, req.epsilon, req.d_v)
    m = H.shape[0] - 1
    degrees = tuple(range(2, req.d_v + 1))
    objective = np.array([1.0 / i for i in degrees])
    return SOSProblem(
        degrees=degrees, h_matrix=H, alpha=req.alpha, q_degree=m,
        gram_sizes=_gram_sizes(m), objective=objective,
        rho=req.rho, epsilon=req.epsilon,
    )


# --- generic small block-diagonal SDP kernel ------------------------------


def _contract(stacks, Ms) -> np.ndarray:
    """Vector with entries sum_b <stacks_b[k], M_b>, one per stacked k."""
    return sum(P.reshape(len(P), -1) @ M.ravel() for P, M in zip(stacks, Ms))


@lru_cache(maxsize=None)
def _svec_index(n: int):
    """Upper-triangle indices (i, j) of an n x n symmetric matrix and the
    weights (1 on the diagonal, sqrt 2 off it) that make svec an isometry."""
    i, j = np.triu_indices(n)
    index = (i, j, np.where(i == j, 1.0, np.sqrt(2.0)))
    for a in index:
        a.setflags(write=False)
    return index


class _BlockSDP:
    """min sum<C_b, X_b>  s.t.  sum_b <A_kb, X_b> = b_k,  X_b >= 0 (PSD).

    ``A`` holds one stacked (K, n_b, n_b) array of constraint matrices per
    block.
    """

    def __init__(self, C, A, b):
        self.C = [np.asarray(M, dtype=float) for M in C]
        self.A = [np.asarray(M, dtype=float) for M in A]
        self.b = np.asarray(b, dtype=float)
        self.sizes = [M.shape[0] for M in self.C]

    @staticmethod
    def _inner(Ms, Ns):
        return sum(np.sum(M * N) for M, N in zip(Ms, Ns))

    def _apply(self, X) -> np.ndarray:
        return _contract(self.A, X)

    def _adjoint(self, y):
        return [(y @ A.reshape(y.size, -1)).reshape(A.shape[1:]) for A in self.A]

    def _correction_factors(self, LX):
        """B and the R factor of the QR factorization of B^T, where row k
        of B holds svec(L^T A_k L) over all blocks, X = L L^T blockwise."""
        rows = []
        for L, A in zip(LX, self.A):
            i, j, weight = _svec_index(L.shape[0])
            rows.append((L.T @ A @ L)[:, i, j] * weight)
        B = np.hstack(rows)
        return B, np.linalg.qr(B.T, mode="r")

    def _feasibility_correction(self, dX, rp, LX, factors):
        """Adjust dX so A(dX) = rp holds to roundoff.

        The Newton direction satisfies this only up to the (often huge)
        condition number of the Schur system; without restoration the primal
        residual stops contracting.  The adjustment is least-norm in the
        X-scaled metric, L V L^T with V of least Frobenius norm, which keeps
        it compatible with the cone: directions where X is nearly singular
        are barely perturbed.  With (B, R) from ``_correction_factors``,
        svec(V) = B^T w where R^T R w = r: two triangular solves and, with
        the refinement rounds below, the corrected seminormal equations,
        accurate to the conditioning of B.  Forming the normal equations
        B B^T w = r instead squares that condition number, which near a
        degenerate optimum ends the solve short of its tolerances in float64.
        """
        B, R = factors
        for _ in range(3):
            v = _solve(R, _solve(R.T, rp - self._apply(dX))) @ B
            if not np.all(np.isfinite(v)):
                break
            out = []
            for D, L in zip(dX, LX):
                i, j, weight = _svec_index(L.shape[0])
                V = np.zeros_like(D)
                V[i, j] = V[j, i] = v[:i.size] / weight
                out.append(D + L @ V @ L.T)
                v = v[i.size:]
            dX = out
        return dX

    @staticmethod
    def _is_pd(Ms) -> bool:
        try:
            for M in Ms:
                np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return False
        return True

    @classmethod
    def _max_step(cls, X, Li, dX) -> float:
        """Step a <= 1 keeping X + a*dX strictly positive definite, given
        the inverse Cholesky factors Li of X's blocks."""
        step = np.inf
        for L, dM in zip(Li, dX):
            W = L @ dM @ L.T
            lam_min = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
            if lam_min < 0.0:
                step = min(step, -1.0 / lam_min)
        a = min(1.0, 0.98 * step)
        # Guard against roundoff at the PSD boundary.
        while a > 1e-13 and not cls._is_pd(
                [M + a * dM for M, dM in zip(X, dX)]):
            a *= 0.8
        return a if a > 1e-13 else 0.0

    def _newton_step(self, X, y, Z, tau, kappa, rp, Rd, rg, cx, gap, mu):
        """One predictor-corrector step from (X, y, Z, tau, kappa), or None
        when even a pure centering step is blocked at the cone boundary.
        Raises LinAlgError when an iterate fails to factor."""
        K = self.b.size
        LX = [np.linalg.cholesky(M) for M in X]
        LiX = [np.linalg.solve(L, np.eye(len(L))) for L in LX]
        LiZ = [np.linalg.solve(np.linalg.cholesky(M), np.eye(len(M)))
               for M in Z]
        Zi = [L.T @ L for L in LiZ]

        # Schur system in (dy, dtau); entries are trace products with
        # A_k, C symmetric so tr(P Zi Q X) = sum((Zi P) * (Q X)).
        ZiA = [Zib @ A for Zib, A in zip(Zi, self.A)]
        AX = [A @ Xb for A, Xb in zip(self.A, X)]
        CX = [C @ Xb for C, Xb in zip(self.C, X)]
        ZiC = [Zib @ C for Zib, C in zip(Zi, self.C)]
        RdX = [R @ Xb for R, Xb in zip(Rd, X)]
        S = np.zeros((K + 1, K + 1))
        S[:K, :K] = sum(P.reshape(K, -1) @ Q.reshape(K, -1).T
                        for P, Q in zip(ZiA, AX))
        factors = self._correction_factors(LX)
        u = _contract(ZiA, CX)
        w = self._inner(ZiC, CX)
        a0 = sum(np.einsum("kii->k", P) for P in ZiA)
        qv = _contract(ZiA, RdX)
        s_rd = self._inner(ZiC, RdX)
        ctilde = self._inner(self.C, Zi)
        S[:K, K] = -(u + self.b)
        S[K, :K] = self.b - u
        S[K, K] = w + kappa / tau

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
                M = [Zib @ dZb @ dXb for Zib, dZb, dXb in zip(Zi, dZa, dXa)]
                tk = dta * dka
                r1 = r1 + _contract(self.A, M)
                r2 = r2 - self._inner(self.C, M) - tk / tau
            sol = _solve(S, np.append(r1, r2))
            dy, dtau = sol[:K], sol[K]
            AtdY = self._adjoint(dy)
            dZ = [dtau * C - Ab + om * R
                  for C, Ab, R in zip(self.C, AtdY, Rd)]
            dX = []
            for Zib, Xb, dZb, Mb in zip(Zi, X, dZ, M):
                D = smu * Zib - Xb - Zib @ dZb @ Xb - Mb
                dX.append(0.5 * (D + D.T))
            dX = self._feasibility_correction(
                dX, om * rp + self.b * dtau, LX, factors)
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
        the best iterate seen, the iteration count and the status.  A
        factorization that fails on an iterate ends the loop; it never
        raises.

        The dual residual gets a looser tolerance than the primal one: it
        only backs the duality-gap bound on the reported objective, while
        the primal residual bounds the certificate's matching error.
        """
        K = self.b.size
        n_total = sum(self.sizes) + 1
        X = [np.eye(s) for s in self.sizes]
        Z = [np.eye(s) for s in self.sizes]
        y = np.zeros(K)
        tau = 1.0
        kappa = 1.0

        b_norm = 1.0 + float(np.linalg.norm(self.b))
        c_norm = 1.0 + max(float(np.abs(M).max()) for M in self.C)
        best = None
        best_rels = (np.inf, np.inf, np.inf)
        best_merit = np.inf
        stall = 0
        failed = False
        it = 0
        for it in range(1, max_iters + 1):
            cx = self._inner(self.C, X)
            by = self.b @ y
            rp = self.b * tau - self._apply(X)
            AtY = self._adjoint(y)
            Rd = [tau * C - Zb - Ab for C, Zb, Ab in zip(self.C, Z, AtY)]
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
            # renormalization of the lambda block.  The best iterate is
            # graded against the contractual tolerances after the loop.
            if (rel_p <= 0.01 * feas_tol and rel_d <= 0.01 * dual_tol
                    and rel_g <= 0.01 * gap_tol):
                break
            if tau <= 1e-9 * max(1.0, kappa) or stall >= 30:
                break
            try:
                step = self._newton_step(X, y, Z, tau, kappa, rp, Rd, rg,
                                         cx, gap, mu)
            except np.linalg.LinAlgError:
                failed = True
                break
            if step is None:
                break
            X, y, Z, tau, kappa = step
        if (best_rels[0] <= feas_tol and best_rels[1] <= dual_tol
                and best_rels[2] <= gap_tol):
            status = "optimal"
        else:
            status = "numerical-failure" if failed else "iteration-limit"
        if best is None:
            best = ([M / tau for M in X], y / tau, [M / tau for M in Z])
        Xb, yb, Zb = best
        return Xb, yb, Zb, it, status


# --- assembling and solving the fast-convergence SDP ----------------------


def _assemble(prob: SOSProblem) -> _BlockSDP:
    """Blocks [G0, (G1), diag(lambda)]; rows: the m+1 Bernstein coefficient
    matches R_l(G) + sum_i h_{i,l} lambda_i = alpha, then sum lambda = 1.

    Every lambda-block matrix is diagonal, and X = Z = I starts the kernel
    diagonal there, so its iterates stay exactly diagonal: the block acts as
    a nonnegative orthant.
    """
    A = [np.concatenate([M, np.zeros((1,) + M.shape[1:])])
         for M in _gram_maps(prob.q_degree)]
    lam_rows = np.vstack([prob.h_matrix, np.ones(len(prob.degrees))])
    A.append(lam_rows[:, :, None] * np.eye(len(prob.degrees)))
    C = [np.zeros(M.shape[1:]) for M in A[:-1]] + [np.diag(-prob.objective)]
    b = np.full(prob.q_degree + 2, prob.alpha)
    b[-1] = 1.0
    return _BlockSDP(C, A, b)


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
                          status="infeasible")
        return sol, None

    sdp = _assemble(prob)
    X, _, Z, iterations, status = sdp.solve(gap_tol=tol)
    # Drop the negligible entries first and normalize once, so the
    # returned lambda sums to 1 to roundoff.
    lam = np.diag(X[-1]).copy()
    lam[lam <= 1e-12] = 0.0
    if lam.sum() > 0.0:
        lam /= lam.sum()
    lambda_coeffs = {d: float(c) for d, c in zip(prob.degrees, lam) if c > 0.0}
    blocks = tuple(X[:-1])
    residual = np.abs(_gram_coeffs(prob.q_degree, blocks)
                      - prob.slack_coeffs(lam))
    cert = SOSCertificate(
        gram_blocks=blocks, matching_residual=float(residual.max()),
        min_eigenvalue=_min_eigenvalue(blocks))
    sol = SDPSolution(lambda_coeffs=lambda_coeffs,
                      objective=float(prob.objective @ lam),
                      duality_gap=float(sdp._inner(X, Z)),
                      iterations=iterations, status=status)
    return sol, cert


def check_certificate(q, cert: SOSCertificate) -> float:
    """Independent recheck: rebuild the polynomial implied by the Gram
    blocks and interval multipliers, return the max deviation of its
    Bernstein coefficients from those of q (a sequence of Bernstein
    coefficients on [0, 1]).  (Eigenvalues are available via
    ``cert.min_eigenvalue`` or a fresh ``certificate_min_eigenvalue``.)"""
    G0 = cert.gram_blocks[0]
    s0 = G0.shape[0]
    s1 = cert.gram_blocks[1].shape[0] if len(cert.gram_blocks) > 1 else 0
    # Infer the certified degree from the block shapes; q may be given at a
    # lower degree, and is elevated to it.
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
    target = bernstein_elevate(q, m)
    return float(np.max(np.abs(_gram_coeffs(m, cert.gram_blocks) - target)))


def _min_eigenvalue(blocks) -> float:
    return min(float(np.linalg.eigvalsh(G)[0]) for G in blocks if G.size > 0)


def certificate_min_eigenvalue(cert: SOSCertificate) -> float:
    return _min_eigenvalue(cert.gram_blocks)
