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
products of small matrices (Roh & Vandenberghe 2006).  The SDPs of one
(rho, epsilon, d_v) share that whole operator, and alpha enters only the
right-hand side, so ``solve_sdps`` solves a sweep's SDPs in lockstep: one
interior-point loop over the stack of their alphas, every matrix product
and every Cholesky, inverse, eigenvalue and Schur solve made once per
stack, and every alpha with its own step lengths and stopping rule.
numpy's stacked matmul and linalg gufuncs work slice by slice, so each
alpha gets the bits it gets alone; ``solve_sdp`` is the one-alpha batch.
A failure has one path: a LAPACK call of a Newton step that fails on any
member raises for the whole stack, and that step is taken again member by
member, so a member that fails alone ends as ``numerical-failure`` and
every other member gets the bits of its solo step.  (A trial step that
does not factor in the step-length search is refused, not failed.)
Infeasibility is decided only by the feasibility floor
(``certify.feasibility_floor``, from Bernstein coefficients), before any
solve; an alpha that slips past the floor ends as ``iteration-limit``.

A certificate is checked at the same nodes: the largest deviation there
between q and the polynomial the Gram blocks encode, times the bound
(2/pi) ln(m + 1) + 1 on the Lebesgue constant of the nodes, bounds their
deviation on all of [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
# The kernel's tolerances on a member's relative primal, dual and gap
# residuals (``_BlockSDP.solve``).
PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-8
GAP_TOL = 1e-8


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
    """T_j(2x - 1) for j < size, one row per point, by the recurrence
    T_j = 2t T_(j-1) - T_(j-2) of ``numpy.polynomial.chebyshev.chebvander``
    (the same operations, without importing numpy.polynomial)."""
    t = 2.0 * x - 1.0
    t2 = 2.0 * t
    v = np.empty((size,) + t.shape)
    v[0] = 1.0
    if size > 1:
        v[1] = t
        for j in range(2, size):
            v[j] = v[j - 1] * t2 - v[j - 2]
    return v.T


def _rowdot(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v_k^T M v_k for every row v_k of V, for one matrix M or a stack."""
    return np.einsum("...kj,kj->...k", V @ M, V)


def _nodal_bound(blocks, m: int, q_at_nodes: np.ndarray):
    """Bound on max over [0, 1] of |q - sum_b mult_b v^T G_b v|, given q at
    the nodes of degree m: the largest deviation at the nodes times the
    Lebesgue-constant bound (2/pi) ln(m + 1) + 1, since the deviation is a
    polynomial of degree at most m.  Blocks may be stacks, one bound per
    member."""
    x = _nodes(m)
    gram = sum(mult * _rowdot(_gram_basis(x, G.shape[-1]), G)
               for G, mult in zip(blocks, _multipliers(m, x)) if G.shape[-1])
    lebesgue = 2.0 / np.pi * np.log(m + 1.0) + 1.0
    return lebesgue * np.max(np.abs(q_at_nodes - gram), axis=-1)


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


def _t(M: np.ndarray) -> np.ndarray:
    """The transpose of every matrix in a stack."""
    return M.swapaxes(-1, -2)


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for every member of the stack x: one matrix-vector product per
    member, so that a member's bits do not depend on the stack."""
    return (A @ x[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v for every member: one dot product per member."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _col(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The per-member scalars a, shaped to scale the stack M."""
    return a[:, None, None] if M.ndim == 3 else a[:, None] if M.ndim == 2 else a


def _solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for every member by LAPACK, or least squares for a lone
    member whose A is exactly singular.  Raises LinAlgError for a stack
    with a singular member."""
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) > 1:
            raise
        return np.linalg.lstsq(A[0], rhs[0], rcond=None)[0][None]


def _where(mask, a, b):
    """Per member, the (nested lists of) stacks a where mask holds, else b."""
    if isinstance(a, list):
        return [_where(mask, s, t) for s, t in zip(a, b)]
    return np.where(_col(mask, a), a, b)


def _join(parts):
    """The (nested lists of) stacks of parts, joined member by member."""
    if isinstance(parts[0], (list, tuple)):
        return [_join(field) for field in zip(*parts)]
    return np.concatenate(parts)


def _take(state, keep):
    """The members ``keep`` of every stack in a (nested) list of stacks."""
    if isinstance(state, list):
        return [_take(s, keep) for s in state]
    return state[keep]


class _BlockSDP:
    """min c.x  s.t.  sum_b m_b * diag(V_b X_b V_b^T) + R x = b,
    X_b >= 0 (PSD), x >= 0, for every row of the stack of right-hand sides b.

    Row k of block b is the rank-one matrix m_bk v_bk v_bk^T, v_bk row k
    of V_b and m_b the vector ``mult[b]``; the Gram blocks carry no cost.
    The members (the rows of b) share everything else and are solved in
    lockstep.  Iterates are stacks over the members still running, the
    Gram blocks followed by the orthant vector: X = [X_1, .., X_B, x], X_b
    of shape (n, s_b, s_b) and x of shape (n, N), likewise Z; y is (n, K),
    tau and kappa (n,).  Every product is one BLAS call and every
    factorization one LAPACK call per member (``_mv``, ``_dot``, stacked
    matmul and numpy's linalg gufuncs), so a member's iterates do not
    depend on which other members share its stack.  A Newton step that
    fails on one member raises for the stack; ``solve`` then takes it
    again member by member.
    """

    def __init__(self, V, mult, R, c, b):
        self.V, self.mult, self.R, self.c, self.b = V, mult, R, c, b
        self.weights = [np.outer(m, m) for m in mult]
        self.sizes = [v.shape[1] for v in V] + [R.shape[1]]

    @staticmethod
    def _inner(Ms, Ns):
        *gram, x = (M * N for M, N in zip(Ms, Ns))
        return reduce(np.add, (P.sum(axis=(-2, -1)) for P in gram)) + x.sum(axis=-1)

    def _apply(self, X) -> np.ndarray:
        *blocks, x = X
        return reduce(np.add, (m * _rowdot(V, M) for V, m, M
                               in zip(self.V, self.mult, blocks))) + _mv(self.R, x)

    def _adjoint(self, y):
        return ([V.T @ ((m * y)[..., :, None] * V)
                 for V, m in zip(self.V, self.mult)] + [_mv(self.R.T, y)])

    @staticmethod
    def _interior(Ms) -> np.ndarray:
        """Per member: does every Gram block factor (is positive definite)
        and is the orthant vector positive?  A refused trial step is the
        normal outcome here, not an error: a stack that does not factor is
        tested member by member."""
        *blocks, x = Ms
        inside = (x > 0.0).all(axis=-1)
        for M in blocks:
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                for j in inside.nonzero()[0]:
                    try:
                        np.linalg.cholesky(M[j])
                    except np.linalg.LinAlgError:
                        inside[j] = False
        return inside

    @classmethod
    def _max_step(cls, X, Li, dX) -> np.ndarray:
        """Per member, the step a <= 1 keeping X + a*dX strictly inside the
        cone, given the inverse Cholesky factors Li of X's Gram blocks."""
        lowest = (dX[-1] / X[-1]).min(axis=-1)
        for L, dM in zip(Li, dX):
            W = L @ dM @ _t(L)
            lowest = np.minimum(lowest, np.linalg.eigvalsh(0.5 * (W + _t(W)))[:, 0])
        # For v < 0 the bound -1/v shrinks as v falls, so the lowest v sets
        # the step; any v >= -1e-300 allows more than 1, and a is 1.
        a = np.minimum(1.0, 0.98 * (-1.0 / np.minimum(lowest, -1e-300)))
        # Guard against roundoff at the cone boundary.
        k = (a > 1e-13).nonzero()[0]
        while k.size:
            if k.size == len(a):
                trial = [M + _col(a, M) * dM for M, dM in zip(X, dX)]
            else:
                trial = [M[k] + _col(a[k], M) * dM[k] for M, dM in zip(X, dX)]
            inside = cls._interior(trial)
            if inside.all():
                break
            k = k[~inside]
            a[k] *= 0.8
            k = k[a[k] > 1e-13]
        return np.where(a > 1e-13, a, 0.0)

    def _newton_step(self, X, y, Z, tau, kappa, b, rp, Rd, rg, cx, gap, mu):
        """One predictor-corrector step for every member.  Returns the new
        iterate and the mask of the members whose step, even a pure
        centering one, was blocked at the cone boundary.  Raises
        LinAlgError when a factorization fails on any member, as a step of
        that member alone does."""
        n, K = rp.shape
        *Xg, x = X
        *Zg, z = Z
        *Rdg, rd = Rd
        c, R = self.c, self.R
        # X and Z are factored, and their step lengths found, as one stack
        # of 2n members: X's first, then Z's.
        XZ = [np.concatenate(pair) for pair in zip(X, Z)]
        Li = [np.linalg.inv(np.linalg.cholesky(M)) for M in XZ[:-1]]
        Zi = [_t(L[n:]) @ L[n:] for L in Li]
        xz = x / z

        # Schur system in (dy, dtau).  Its entries are tr(A_k Zi A_j X),
        # which for the rank-one rows is m_k m_j (v_k^T Zi v_j)
        # (v_j^T X v_k): a Hadamard product per block.
        VZV = [V @ Zib @ V.T for V, Zib in zip(self.V, Zi)]
        VXV = [V @ Xb @ V.T for V, Xb in zip(self.V, Xg)]
        S = np.zeros((n, K + 1, K + 1))
        S[:, :K, :K] = (reduce(np.add, (W * P * Q for W, P, Q
                                        in zip(self.weights, VZV, VXV)))
                        + (R * xz[:, None, :]) @ R.T)
        u = _mv(R, c * xz)
        a0 = (reduce(np.add, (m * np.diagonal(P, axis1=-2, axis2=-1)
                              for m, P in zip(self.mult, VZV))) + _mv(R, 1.0 / z))
        qv = (reduce(np.add, (m * _rowdot(V, Zib @ Rb @ Xb) for V, m, Zib, Rb, Xb
                              in zip(self.V, self.mult, Zi, Rdg, Xg)))
              + _mv(R, rd * xz))
        s_rd = _dot(c, rd * xz)
        ctilde = _dot(c, 1.0 / z)
        S[:, :K, K] = -(u + b)
        S[:, K, :K] = b - u
        S[:, K, K] = _dot(c, c * xz) + kappa / tau

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
            PVt.append((Q * np.sqrt(np.maximum(theta, 0.0))[:, None, :])
                       @ (_t(Q) @ V.T))
        BBt = (reduce(np.add, (W * np.square(V @ P) for W, V, P
                               in zip(self.weights, self.V, PVt)))
               + (R * x[:, None, :]) @ R.T)
        LiB = np.linalg.inv(np.linalg.cholesky(BBt))

        # The parts of the right-hand sides that do not depend on sigma.
        rpqv, r1_0, rg_rd, tk0 = rp + qv, b * tau[:, None] - rp, rg - s_rd, tau * kappa

        def directions(sigma, affine=None):
            om = 1.0 - sigma
            smu = sigma * mu
            r1 = om[:, None] * rpqv + r1_0 - smu[:, None] * a0
            r2 = om * rg_rd + smu * ctilde - cx + (smu - tk0) / tau
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
                r2 = r2 - _dot(c, M[-1]) - tk / tau
            sol = _solve(S, np.concatenate([r1, r2[:, None]], axis=1))
            dy, dtau = sol[:, :K], sol[:, K]
            dZ = [_col(om, Rb) * Rb - Ab for Rb, Ab in zip(Rd, self._adjoint(dy))]
            dZ[-1] = dZ[-1] + dtau[:, None] * c
            dX = []
            for Zib, Xb, dZb, Mb in zip(Zi, Xg, dZ, M):
                D = smu[:, None, None] * Zib - Xb - Zib @ dZb @ Xb - Mb
                dX.append(0.5 * (D + _t(D)))
            dX.append(smu[:, None] / z - x - dZ[-1] * xz - M[-1])
            w = _mv(_t(LiB), _mv(LiB, om[:, None] * rp + b * dtau[:, None]
                                 - self._apply(dX)))
            for k, (P, m) in enumerate(zip(PVt, self.mult)):
                dX[k] = dX[k] + (P * (m * w)[:, None, :]) @ _t(P)
            dX[-1] = dX[-1] + x * _mv(R.T, w)
            dkappa = (smu - tk0 - tk - kappa * dtau) / tau
            return dX, dy, dZ, dtau, dkappa

        def joint_step(dX, dZ, dtau, dkappa):
            a = self._max_step(XZ, Li, [np.concatenate(pair) for pair in zip(dX, dZ)])
            a = np.minimum(a[:n], a[n:])
            # A direction dv >= 0 sets no bound: clamped at -1e-200 it gives
            # one above 1 for any v > 1e-200, and tau and kappa stay far
            # above that.
            for v, dv in ((tau, dtau), (kappa, dkappa)):
                a = np.minimum(a, -0.98 * v / np.minimum(dv, -1e-200))
            return a

        # Predictor (affine) step fixes the centering weight.
        dXa, _, dZa, dta, dka = directions(np.zeros(n))
        aff = joint_step(dXa, dZa, dta, dka)
        gap_aff = (self._inner(
            [Xb + _col(aff, db) * db for Xb, db in zip(X, dXa)],
            [Zb + _col(aff, db) * db for Zb, db in zip(Z, dZa)])
            + (tau + aff * dta) * (kappa + aff * dka))
        sigma = np.array([min(0.9, max(1e-4, (max(g, 0.0) / d) ** 3))
                          for g, d in zip(gap_aff, gap + tk0)])

        step = directions(sigma, (dXa, dZa, dta, dka))
        a = joint_step(step[0], *step[2:])
        blocked = a <= 1e-8
        if blocked.any():
            # Combined step blocked at the cone boundary; a pure
            # centering step re-opens the interior.  It is taken for the
            # whole stack and kept for the blocked members only.
            centering = directions(np.ones(n))
            a_c = joint_step(centering[0], *centering[2:])
            step = [_where(blocked, s, t) for s, t in zip(centering, step)]
            a = np.where(blocked, a_c, a)
            blocked = a <= 1e-8
        dX, dy, dZ, dtau, dkappa = step
        new = ([Xb + _col(a, db) * db for Xb, db in zip(X, dX)],
               y + a[:, None] * dy,
               [Zb + _col(a, db) * db for Zb, db in zip(Z, dZ)],
               tau + a * dtau, kappa + a * dkappa)
        return new, blocked

    def solve(self):
        """Homogeneous self-dual path following (HKM direction, Mehrotra
        predictor-corrector), for every member in lockstep.

        The embedding carries homogenizing scalars (tau, kappa) alongside
        (X, y, Z), so X = Z = I, tau = kappa = 1 is always a strictly
        interior start and infeasibility shows up as tau -> 0 rather than
        as a divergent iterate; that stop is reported as
        ``iteration-limit``.  Each member keeps its own step length, best
        iterate and stall count, and leaves the stack when it stops.
        Returns (X, y, Z, iterations, statuses, reasons), stacked in member
        order: the de-homogenized (X, y, Z) of the best iterate each member
        saw, its iteration count, its status and the reason it stopped
        (``SDPSolution.reason``).  A step that raises for a stack is taken
        again member by member; a member whose own step raises ends with
        reason ``factorization``.  It never raises.

        The dual residual gets a looser tolerance than the primal one: it
        only backs the duality-gap bound on the reported objective, while
        the primal residual bounds the certificate's matching error.
        """
        n, K = self.b.shape
        n_total = sum(self.sizes) + 1
        X = ([np.tile(np.eye(s), (n, 1, 1)) for s in self.sizes[:-1]]
             + [np.ones((n, self.sizes[-1]))])
        Z = [M.copy() for M in X]
        y = np.zeros((n, K))
        tau = np.ones(n)
        kappa = np.ones(n)
        b = self.b
        b_norm = 1.0 + np.sqrt(_dot(b, b))
        c_norm = 1.0 + float(np.abs(self.c).max())
        tols = np.array([PRIMAL_TOL, DUAL_TOL, GAP_TOL])
        # Per member: its best iterate [*X, y, *Z] / tau, with the relative
        # residuals and merit there, and the iterations since the merit
        # fell.  The first iterate is finite and always improves on inf.
        best = [*X, y, *Z]
        best_rels = np.full((n, 3), np.inf)
        best_merit = np.full(n, np.inf)
        stall = np.zeros(n, dtype=int)
        ids = np.arange(n)
        out = [np.empty_like(M) for M in best]
        iterations = np.zeros(n, dtype=int)
        statuses, reasons = [""] * n, [""] * n

        def finish(stop, reason, it):
            done = ids[stop]
            for O, M in zip(out, best):
                O[done] = M[stop]
            iterations[done] = it
            optimal = (best_rels[stop] <= tols).all(axis=1)
            for k, ok, why in zip(done, optimal, reason[stop]):
                statuses[k] = ("optimal" if ok else "numerical-failure"
                               if why == "factorization" else "iteration-limit")
                reasons[k] = why

        it = 0
        for it in range(1, MAX_IPM_ITERS + 1):
            cx = _dot(self.c, X[-1])
            by = _dot(b, y)
            rp = b * tau[:, None] - self._apply(X)
            Rd = [-Zb - Ab for Zb, Ab in zip(Z, self._adjoint(y))]
            Rd[-1] = Rd[-1] + tau[:, None] * self.c
            rg = kappa + cx - by
            gap = self._inner(X, Z)
            mu = (gap + tau * kappa) / n_total

            # The relative primal, dual and gap residuals, a row per member.
            rels = np.array([
                np.sqrt(_dot(rp, rp)) / (tau * b_norm),
                np.maximum(reduce(np.maximum, (np.abs(M).max(axis=(1, 2))
                                               for M in Rd[:-1])),
                           np.abs(Rd[-1]).max(axis=1)) / (tau * c_norm),
                gap / (tau * tau * (1.0 + np.abs(cx / tau)))]).T
            merit = rels.max(axis=1)
            better = merit < best_merit
            scaled = [M / _col(tau, M) for M in [*X, y, *Z]]
            if better.all():
                best, best_rels, best_merit = scaled, rels, merit
                stall = np.zeros(len(ids), dtype=int)
            else:
                best = _where(better, scaled, best)
                best_rels = np.where(better[:, None], rels, best_rels)
                best_merit = np.where(better, merit, best_merit)
                stall = np.where(better, 0, stall + 1)
            # Push two extra digits past the contractual tolerances while
            # progress lasts: the surplus absorbs the later clipping and
            # renormalization of lambda.  The best iterate is graded
            # against the contractual tolerances after the loop.
            converged = (rels <= 0.01 * tols).all(axis=1)
            collapse = tau <= 1e-9 * np.maximum(1.0, kappa)
            go = ~(converged | collapse | (stall >= 30))
            stepped = go.copy()  # the members that get a new iterate
            if go.any():
                state = [X, y, Z, tau, kappa, b, rp, Rd, rg, cx, gap, mu]
                state = state if go.all() else _take(state, go)
                try:
                    new, blocked = self._newton_step(*state)
                except np.linalg.LinAlgError:
                    # A factorization failed on some member.  Each member
                    # of the stack takes its step again alone (a stack of
                    # one has failed alone already): a member whose own
                    # step fails ends, and every other gets its solo bits.
                    members = go.nonzero()[0]
                    stepped[members] = False
                    parts = []
                    for j, k in enumerate(members if len(members) > 1 else ()):
                        try:
                            parts.append(self._newton_step(*_take(state, slice(j, j + 1))))
                            stepped[k] = True
                        except np.linalg.LinAlgError:
                            pass
                    if parts:
                        new, blocked = _join(parts)
            ended = ~stepped
            if stepped.any():
                ended[stepped] = blocked
            if ended.any():
                reason = np.full(len(ids), "", dtype=object)
                reason[stall >= 30] = "stall"
                reason[collapse] = "tau-collapse"
                reason[converged] = "converged"
                reason[go & ~stepped] = "factorization"
                reason[stepped & ended] = "blocked-step"
                keep = ~ended
                finish(ended, reason, it)
                if not keep.any():
                    break
                new = _take(list(new), keep[stepped])
                b, b_norm, ids, best, best_rels, best_merit, stall = _take(
                    [b, b_norm, ids, best, best_rels, best_merit, stall], keep)
            X, y, Z, tau, kappa = new
        else:
            finish(np.ones(len(ids), dtype=bool),
                   np.full(len(ids), "iteration-cap", dtype=object), it)
        nX = len(X)
        return (out[:nX], out[nX], out[nX + 1:], iterations, statuses, reasons)


# --- assembling and solving the fast-convergence SDPs ---------------------


def _assemble(probs) -> _BlockSDP:
    """Blocks [G0, (G1)] and the orthant of lambda; rows: q matched at the
    m + 1 nodes, sum_b mult_b(x_k) v(x_k)^T G_b v(x_k) + sum_i lambda_i
    (g_i / x)(x_k) = alpha, then sum lambda = 1.  One right-hand side per
    problem; the problems share everything else."""
    prob = probs[0]
    m = prob.q_degree
    x = _nodes(m)
    V, mult = [], []
    for size, values in zip(prob.gram_sizes, _multipliers(m, x)):
        if size:
            V.append(np.vstack([_gram_basis(x, size), np.zeros((1, size))]))
            mult.append(np.append(values, 0.0))
    R = np.vstack([prob.node_rows, np.ones(len(prob.degrees))])
    b = np.repeat([[p.alpha] for p in probs], m + 2, axis=1)
    b[:, -1] = 1.0
    return _BlockSDP(V, mult, R, -prob.objective, b)


def _solutions(probs, sdp: _BlockSDP, X, Z, iterations, statuses, reasons):
    """(SDPSolution, SOSCertificate) per member of a kernel solve."""
    # Drop the negligible entries first and normalize once, so the
    # returned lambda sums to 1 to roundoff.
    lam = X[-1].copy()
    lam[lam <= 1e-12] = 0.0
    total = lam.sum(axis=1)
    lam[total > 0.0] /= total[total > 0.0, None]
    prob = probs[0]
    blocks = X[:-1]
    q_at_nodes = np.array([[p.alpha] for p in probs]) - _mv(prob.node_rows, lam)
    residuals = _nodal_bound(blocks, prob.q_degree, q_at_nodes)
    min_eigenvalues = reduce(np.minimum, (np.linalg.eigvalsh(G)[:, 0]
                                          for G in blocks if G.shape[-1]))
    objectives = _dot(prob.objective, lam)
    gaps = sdp._inner(X, Z)
    return [(SDPSolution(lambda_coeffs={d: float(c) for d, c in zip(p.degrees, lam[j])
                                        if c > 0.0},
                         objective=float(objectives[j]), duality_gap=float(gaps[j]),
                         iterations=int(iterations[j]), status=statuses[j],
                         reason=reasons[j]),
             SOSCertificate(gram_blocks=tuple(G[j] for G in blocks),
                            matching_residual=float(residuals[j]),
                            min_eigenvalue=float(min_eigenvalues[j])))
            for j, p in enumerate(probs)]


def solve_sdps(probs):
    """The rate-maximizing SDPs of problems that share rho, epsilon and d_v
    (a sweep over alpha), in one lockstep interior-point solve.

    The feasibility floor (``certify.feasibility_floor``) is computed once;
    an alpha below it is reported infeasible without a solve, and the
    kernel runs once on the stack of the others.  Returns one
    (SDPSolution, SOSCertificate | None) per problem, in order, each the
    same bit for bit as that problem solved alone.  Raises ValueError when
    the problems do not share (rho, epsilon, d_v); deterministic for
    identical inputs, and never raises on valid problems otherwise.
    """
    probs = list(probs)
    if not probs:
        return []
    first = probs[0]
    if any(p.epsilon != first.epsilon or p.degrees != first.degrees
           or not np.array_equal(p.rho.coeffs, first.rho.coeffs)
           for p in probs[1:]):
        raise ValueError("solve_sdps needs problems that share rho, epsilon and d_v")
    floor = certify.feasibility_floor(first.rho, first.epsilon, first.degrees[-1])
    below = SDPSolution(lambda_coeffs={}, objective=float("nan"),
                        duality_gap=float("nan"), iterations=0,
                        status="infeasible", reason="below-floor")
    results = [(below, None)] * len(probs)
    above = [k for k, p in enumerate(probs)
             if not p.alpha < floor - certify.FEASIBILITY_TOL]
    if above:
        solved = [probs[k] for k in above]
        sdp = _assemble(solved)
        X, _, Z, *stops = sdp.solve()
        for k, result in zip(above, _solutions(solved, sdp, X, Z, *stops)):
            results[k] = result
    return results


def solve_sdp(prob: SOSProblem):
    """The rate-maximizing SDP, one interior-point solve: ``solve_sdps`` of
    the one problem.  Returns (SDPSolution, SOSCertificate | None)."""
    return solve_sdps([prob])[0]


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
    return float(_nodal_bound(cert.gram_blocks, m, bernstein_values(q, _nodes(m))))


def certificate_min_eigenvalue(cert: SOSCertificate) -> float:
    return min(float(np.linalg.eigvalsh(G)[0]) for G in cert.gram_blocks if G.size > 0)
