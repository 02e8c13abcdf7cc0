"""SDP path: sum-of-squares certificates for the fast-convergence constraint.

The slack polynomial p(x) = alpha*x - sum_i lambda_i g_i(x) vanishes at 0,
so nonnegativity on [0, 1] is imposed on q = p / x through the two-block
interval representation

    deg q even:  q = sigma0 + x(1-x) sigma1
    deg q odd:   q = x sigma0 + (1-x) sigma1

with each sigma a sum of squares represented by a symmetric Gram matrix
whose anti-diagonal sums reproduce its coefficients.  The resulting small
block-diagonal SDP (the Gram blocks and one diagonal block of the lambda
scalars; coefficient matching plus sum lambda = 1) is solved by an in-repo
primal-dual interior-point kernel built on a homogeneous self-dual
embedding.  Infeasibility is decided before any solve by the same
feasibility floor the LP path uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify
from .lp import SolveRequest
from .polynomials import Polynomial, constraint_basis

# A returned certificate is valid when its coefficient-matching residual is
# at most MATCHING_TOL and its smallest Gram eigenvalue at least -EIG_TOL.
MATCHING_TOL = 1e-8
EIG_TOL = 1e-8
MAX_IPM_ITERS = 500

# The interior-point kernel runs in extended precision.  Near a degenerate
# optimum the Schur system's condition number exceeds 1/eps for float64 and
# the search direction degrades into noise before the residuals reach
# tolerance; the extra mantissa bits of longdouble keep the last few
# iterations productive.  numpy.linalg does not accept longdouble, so the
# tiny dense factorizations are written out below with one vector operation
# per row or column; each matrix of an iteration is factored once.
_LD = np.longdouble


def _cholesky_ld(M):
    """Lower Cholesky factor in extended precision; raises LinAlgError."""
    n = M.shape[0]
    L = np.zeros((n, n), dtype=_LD)
    for j in range(n):
        s = M[j, j] - np.dot(L[j, :j], L[j, :j])
        if s <= 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        L[j, j] = np.sqrt(s)
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _inv_from_cholesky(L):
    """Inverse of L L^T given the lower factor L."""
    n = L.shape[0]
    Li = np.zeros((n, n), dtype=_LD)
    for i in range(n):
        Li[i, i] = 1.0 / L[i, i]
        Li[i, :i] = -(L[i, :i] @ Li[:i, :i]) / L[i, i]
    return Li.T @ Li


def _lu_ld(A):
    """LU with partial pivoting in extended precision: (LU, perm) with
    A[perm] = L U, the multipliers of unit L below the diagonal and U on and
    above it.  Raises LinAlgError on an exactly zero pivot."""
    LU = np.array(A, dtype=_LD)
    perm = np.arange(len(LU))
    for k in range(len(LU)):
        p = k + int(np.argmax(np.abs(LU[k:, k])))
        if LU[p, k] == 0.0:
            raise np.linalg.LinAlgError("singular system")
        if p != k:
            LU[[k, p]] = LU[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        LU[k + 1:, k] /= LU[k, k]
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    return LU, perm


def _lu_solve_ld(factors, rhs):
    """x with A x = rhs from _lu_ld(A): all row swaps, then substitutions."""
    LU, perm = factors
    x = np.array(rhs, dtype=_LD)[perm]
    for k in range(x.size - 1):
        x[k + 1:] -= LU[k + 1:, k] * x[k]
    for k in range(x.size - 1, -1, -1):
        x[k] = (x[k] - np.dot(LU[k, k + 1:], x[k + 1:])) / LU[k, k]
    return x


def _ld_solver(A):
    """rhs -> A^-1 rhs from one LU of A, or float64 lstsq if A is singular."""
    try:
        factors = _lu_ld(A)
    except np.linalg.LinAlgError:
        return lambda rhs: np.linalg.lstsq(A.astype(float), rhs.astype(float),
                                           rcond=None)[0]
    return lambda rhs: _lu_solve_ld(factors, rhs)


@dataclass(frozen=True)
class SOSProblem:
    degrees: tuple  # variable-node degrees 2..d_v
    h_matrix: np.ndarray  # (m+1) x (d_v-1); column i holds coeffs of g_i/x
    alpha: float
    q_degree: int  # m
    gram_sizes: tuple  # (s0, s1); s1 may be 0
    objective: np.ndarray  # 1/i per lambda_i
    rho: Polynomial
    epsilon: float

    def slack_coeffs(self, lam) -> np.ndarray:
        """Coefficients of q = alpha - sum_i lambda_i g_i / x, given the
        lambda vector ordered as ``degrees``."""
        q = np.zeros(self.q_degree + 1)
        q[0] = self.alpha
        q -= self.h_matrix @ np.asarray(lam, dtype=float)
        return q


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
    status: str  # optimal | infeasible | iteration-limit


def _gram_sizes(m: int) -> tuple[int, int]:
    if m % 2 == 0:
        return m // 2 + 1, m // 2
    return (m + 1) // 2, (m + 1) // 2


def _anti_diags(size: int, levels: np.ndarray) -> np.ndarray:
    """Stacked symmetric 0/1 matrices selecting entries with i + j = level."""
    r = np.arange(size)
    return (np.add.outer(r, r) == levels[:, None, None]).astype(float)


def _reconstruction_maps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m+1, s, s) linear maps from each Gram block to the
    coefficients of q: map[l] paired with the block gives its share of q_l."""
    s0, s1 = _gram_sizes(m)
    odd = m % 2
    levels = np.arange(m + 1)
    maps0 = _anti_diags(s0, levels - odd)
    maps1 = (_anti_diags(s1, levels - 1 + odd)
             - _anti_diags(s1, levels - 2 + odd))
    return maps0, maps1


def _gram_coeffs(m: int, blocks) -> np.ndarray:
    """Coefficients of the degree-m polynomial that the Gram blocks encode."""
    return sum(np.einsum("lij,ij->l", M, G)
               for M, G in zip(_reconstruction_maps(m), blocks))


def build_sos_problem(req: SolveRequest) -> SOSProblem:
    basis = constraint_basis(req.rho, req.epsilon, req.d_v)
    hs = [g.quotient_by_x() for g in basis]
    m = max(h.degree for h in hs)
    H = np.zeros((m + 1, len(hs)))
    for col, h in enumerate(hs):
        H[: h.coeffs.size, col] = h.coeffs
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
    return sum(np.einsum("kij,ij->k", P, M) for P, M in zip(stacks, Ms))


class _BlockSDP:
    """min sum<C_b, X_b>  s.t.  sum_b <A_kb, X_b> = b_k,  X_b >= 0 (PSD).

    ``A`` holds one stacked (K, n_b, n_b) array of constraint matrices per
    block.
    """

    def __init__(self, C, A, b):
        self.C = [np.asarray(M, dtype=_LD) for M in C]
        self.A = [np.asarray(M, dtype=_LD) for M in A]
        self.b = np.asarray(b, dtype=_LD)
        self.sizes = [M.shape[0] for M in self.C]

    @staticmethod
    def _inner(Ms, Ns):
        return sum(np.sum(M * N) for M, N in zip(Ms, Ns))

    def _apply(self, X) -> np.ndarray:
        return _contract(self.A, X)

    def _adjoint(self, y):
        return [np.einsum("k,kij->ij", y, A) for A in self.A]

    def _feasibility_correction(self, dX, rp, X, solve_gram):
        """Adjust dX so A(dX) = rp holds to roundoff.

        The Newton direction satisfies this only up to the (often huge)
        condition number of the Schur system; without restoration the primal
        residual stops contracting.  The adjustment is least-norm in the
        X-scaled metric (dX += X W X), which keeps it compatible with the
        cone: directions where X is nearly singular are barely perturbed.
        ``solve_gram`` solves with that metric's Gram matrix tr(A_k X A_h X),
        which is factored once per iteration.
        """
        for _ in range(3):
            w = solve_gram(rp - self._apply(dX))
            if not np.all(np.isfinite(w.astype(float))):
                break
            dX = [D + Xb @ W @ Xb for D, Xb, W in zip(dX, X, self._adjoint(w))]
        return dX

    @staticmethod
    def _is_pd(Ms) -> bool:
        for M in Ms:
            try:
                _cholesky_ld(M)
            except np.linalg.LinAlgError:
                return False
        return True

    @classmethod
    def _max_step(cls, X, dX) -> float:
        """Step a <= 1 keeping X + a*dX strictly positive definite."""
        step = np.inf
        for M, dM in zip(X, dX):
            # float64 is plenty for a step bound; backtracking below
            # verifies in extended precision.
            try:
                L = np.linalg.cholesky(M.astype(float))
            except np.linalg.LinAlgError:
                continue
            W = np.linalg.solve(L, np.linalg.solve(L, dM.astype(float).T).T)
            lam_min = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
            if lam_min < 0.0:
                step = min(step, -1.0 / lam_min)
        a = min(1.0, 0.98 * step)
        # Guard against roundoff at the PSD boundary.
        while a > 1e-13 and not cls._is_pd(
                [M + a * dM for M, dM in zip(X, dX)]):
            a *= 0.8
        return a if a > 1e-13 else 0.0

    def solve(self, gap_tol: float = 1e-8, feas_tol: float = 1e-9,
              dual_tol: float = 1e-8, max_iters: int = MAX_IPM_ITERS):
        """Homogeneous self-dual path following (HKM direction).

        The embedding carries homogenizing scalars (tau, kappa) alongside
        (X, y, Z), so X = Z = I, tau = kappa = 1 is always a strictly
        interior start and infeasibility shows up as tau -> 0 rather than
        as a divergent iterate.  Returns the de-homogenized (X, y, Z).
        Each iteration factors its Schur and correction Gram matrices once.

        The dual residual gets a looser tolerance than the primal one: it
        only backs the duality-gap bound on the reported objective, while
        the primal residual bounds the certificate's matching error.
        """
        K = self.b.size
        n_total = sum(self.sizes) + 1
        X = [np.eye(s, dtype=_LD) for s in self.sizes]
        Z = [np.eye(s, dtype=_LD) for s in self.sizes]
        y = np.zeros(K, dtype=_LD)
        tau = _LD(1.0)
        kappa = _LD(1.0)

        b_norm = 1.0 + float(np.linalg.norm(self.b.astype(float)))
        c_norm = 1.0 + max(float(np.abs(M).max()) for M in self.C)
        status = "iteration-limit"
        best = None
        best_rels = (np.inf, np.inf, np.inf)
        best_merit = np.inf
        stall = 0
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

            Zi = [_inv_from_cholesky(_cholesky_ld(Zb)) for Zb in Z]

            # Schur system in (dy, dtau); entries are trace products with
            # A_k, C symmetric so tr(P Zi Q X) = sum((Zi P) * (Q X)).
            ZiA = [Zib @ A for Zib, A in zip(Zi, self.A)]
            AX = [A @ Xb for A, Xb in zip(self.A, X)]
            CX = [C @ Xb for C, Xb in zip(self.C, X)]
            ZiC = [Zib @ C for Zib, C in zip(Zi, self.C)]
            RdX = [R @ Xb for R, Xb in zip(Rd, X)]
            S = np.zeros((K + 1, K + 1), dtype=_LD)
            S[:K, :K] = sum(np.einsum("kij,hij->kh", P, Q)
                            for P, Q in zip(ZiA, AX))
            gram = sum(np.einsum("kij,hji->kh", P, P) for P in AX)
            u = _contract(ZiA, CX)
            w = self._inner(ZiC, CX)
            a0 = sum(np.einsum("kii->k", P) for P in ZiA)
            qv = _contract(ZiA, RdX)
            s_rd = self._inner(ZiC, RdX)
            ctilde = self._inner(self.C, Zi)
            S[:K, K] = -(u + self.b)
            S[K, :K] = self.b - u
            S[K, K] = w + kappa / tau
            solve_S, solve_gram = _ld_solver(S), _ld_solver(gram)

            def directions(sigma):
                om = 1.0 - sigma
                smu = sigma * mu
                r1 = om * (rp + qv) + (self.b * tau - rp) - smu * a0
                r2 = (om * (rg - s_rd) + smu * ctilde - cx
                      + (smu - tau * kappa) / tau)
                sol = solve_S(np.concatenate([r1, np.array([r2], dtype=_LD)]))
                dy, dtau = sol[:K], sol[K]
                AtdY = self._adjoint(dy)
                dZ = [dtau * C - Ab + om * R
                      for C, Ab, R in zip(self.C, AtdY, Rd)]
                dX = []
                for Zib, Xb, dZb in zip(Zi, X, dZ):
                    D = smu * Zib - Xb - Zib @ dZb @ Xb
                    dX.append(0.5 * (D + D.T))
                dX = self._feasibility_correction(
                    dX, om * rp + self.b * dtau, X, solve_gram)
                dkappa = (smu - tau * kappa - kappa * dtau) / tau
                return dX, dy, dZ, dtau, dkappa

            def joint_step(dX, dZ, dtau, dkappa):
                a = min(self._max_step(X, dX), self._max_step(Z, dZ))
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

            dX, dy, dZ, dtau, dkappa = directions(sigma)
            a = joint_step(dX, dZ, dtau, dkappa)
            if a <= 1e-8:
                # Combined step blocked at the cone boundary; a pure
                # centering step re-opens the interior.
                dX, dy, dZ, dtau, dkappa = directions(1.0)
                a = joint_step(dX, dZ, dtau, dkappa)
                if a <= 1e-8:
                    break
            X = [Xb + a * db for Xb, db in zip(X, dX)]
            Z = [Zb + a * db for Zb, db in zip(Z, dZ)]
            y = y + a * dy
            tau += a * dtau
            kappa += a * dkappa
        if (best_rels[0] <= feas_tol and best_rels[1] <= dual_tol
                and best_rels[2] <= gap_tol):
            status = "optimal"
        if best is None:
            best = ([M / tau for M in X], y / tau, [M / tau for M in Z])
        Xb, yb, Zb = best
        return ([np.asarray(M, dtype=float) for M in Xb],
                np.asarray(yb, dtype=float),
                [np.asarray(M, dtype=float) for M in Zb],
                it, status)


# --- assembling and solving the fast-convergence SDP ----------------------


def _assemble(prob: SOSProblem) -> _BlockSDP:
    """Blocks [G0, (G1), diag(lambda)]; rows: the m+1 coefficient matches
    R_l(G) + sum_i h_{i,l} lambda_i = alpha [l == 0], then sum lambda = 1.

    Every lambda-block matrix is diagonal, and X = Z = I starts the kernel
    diagonal there, so its iterates stay exactly diagonal: the block acts as
    a nonnegative orthant.
    """
    K = prob.q_degree + 2
    A = [np.concatenate([M, np.zeros((1,) + M.shape[1:])])
         for M in _reconstruction_maps(prob.q_degree) if M.shape[1] > 0]
    lam_rows = np.vstack([prob.h_matrix, np.ones(len(prob.degrees))])
    A.append(lam_rows[:, :, None] * np.eye(len(prob.degrees)))
    C = [np.zeros(M.shape[1:]) for M in A[:-1]] + [np.diag(-prob.objective)]
    b = np.zeros(K)
    b[0] = prob.alpha
    b[-1] = 1.0
    return _BlockSDP(C, A, b)


def solve_sdp(prob: SOSProblem, tol: float = 1e-8):
    """The rate-maximizing SDP, one interior-point solve.

    An alpha below the feasibility floor (the test the LP path applies) is
    reported infeasible without a solve.  Returns (SDPSolution,
    SOSCertificate | None).  Deterministic for identical inputs.
    """
    floor = certify.feasibility_floor(prob.rho, prob.epsilon, prob.degrees[-1])
    if prob.alpha < floor - certify.FEASIBILITY_TOL:
        sol = SDPSolution(lambda_coeffs={}, objective=float("nan"),
                          duality_gap=float("nan"), iterations=0,
                          status="infeasible")
        return sol, None

    sdp = _assemble(prob)
    X, _, Z, iterations, status = sdp.solve(gap_tol=tol)
    lam = np.clip(np.diag(X[-1]), 0.0, None)
    lam = lam / lam.sum()
    lambda_coeffs = {d: float(c) for d, c in zip(prob.degrees, lam)
                     if c > 1e-12}
    blocks = tuple(X[:-1])
    residual = np.abs(_gram_coeffs(prob.q_degree, blocks)
                      - prob.slack_coeffs(lam))
    cert = SOSCertificate(
        gram_blocks=blocks, matching_residual=float(residual.max()),
        min_eigenvalue=min(float(np.linalg.eigvalsh(G)[0]) for G in blocks))
    sol = SDPSolution(lambda_coeffs=lambda_coeffs,
                      objective=float(prob.objective @ lam),
                      duality_gap=float(sdp._inner(X, Z)),
                      iterations=iterations, status=status)
    return sol, cert


def check_certificate(q: Polynomial, cert: SOSCertificate) -> float:
    """Independent recheck: rebuild the polynomial implied by the Gram
    blocks and interval multipliers, return the max coefficient deviation
    from q.  (Eigenvalues are available via ``cert.min_eigenvalue`` or a
    fresh ``certificate_min_eigenvalue``.)"""
    G0 = cert.gram_blocks[0]
    s0 = G0.shape[0]
    s1 = cert.gram_blocks[1].shape[0] if len(cert.gram_blocks) > 1 else 0
    # Infer the certified degree from the block shapes; q may sit below it
    # when its true leading coefficient underflows the trim tolerance.
    if s1 == s0:
        m = 2 * s0 - 1
    elif s1 == s0 - 1:
        m = 2 * (s0 - 1)
    else:
        raise ValueError(
            f"Gram block sizes {(s0, s1)} do not form an interval certificate")
    if _gram_sizes(m) != (s0, s1):
        raise ValueError(f"inconsistent Gram block sizes {(s0, s1)}")
    if q.degree > m:
        raise ValueError(
            f"polynomial degree {q.degree} exceeds certified degree {m}")

    target = np.zeros(m + 1)
    target[: q.coeffs.size] = q.coeffs
    return float(np.max(np.abs(_gram_coeffs(m, cert.gram_blocks) - target)))


def certificate_min_eigenvalue(cert: SOSCertificate) -> float:
    return min(float(np.linalg.eigvalsh(G)[0]) for G in cert.gram_blocks
               if G.size > 0)
