"""SOS path: problem assembly, the SDP kernel, and certificate checking."""

import numpy as np
import pytest

from ldpcdesign.certify import feasibility_floor, min_normalized_slack
from ldpcdesign.lp import SolveRequest, solve_semi_infinite
from ldpcdesign.polynomials import Polynomial, poly_from_edge_coeffs, rate_and_gap
from ldpcdesign.sos import (
    SOSCertificate, _cholesky_ld, _inv_from_cholesky, _ld_solver, _lu_ld,
    _lu_solve_ld, build_sos_problem, certificate_min_eigenvalue,
    check_certificate, solve_sdp)

RHO_X = poly_from_edge_coeffs({2: 1.0})
RHO_X3 = poly_from_edge_coeffs({4: 1.0})
RHO_X4 = poly_from_edge_coeffs({5: 1.0})


def _gram_poly(G):
    """Coefficients of b(x)^T G b(x) with b the monomial basis."""
    s = G.shape[0]
    coeffs = np.zeros(2 * s - 1)
    for i in range(s):
        for j in range(s):
            coeffs[i + j] += G[i, j]
    return coeffs


def _interval_sos_poly(m, G0, G1):
    """q from the two-block interval representation at degree m."""
    q = np.zeros(m + 1)
    if m % 2 == 0:
        p0 = _gram_poly(G0)
        q[: p0.size] += p0
        if G1 is not None and G1.size:
            p1 = np.convolve([0.0, 1.0, -1.0], _gram_poly(G1))
            q[: p1.size] += p1
    else:
        p0 = np.convolve([0.0, 1.0], _gram_poly(G0))
        p1 = np.convolve([1.0, -1.0], _gram_poly(G1))
        q[: p0.size] += p0
        q[: p1.size] += p1
    return q


LD = np.longdouble


def _eliminate(A, rhs):
    """Gaussian elimination with partial pivoting, the row swaps and the
    right-hand side update interleaved: the referee for the LU pair.
    Returns the solution and the number of steps that swapped rows."""
    A = np.array(A, dtype=LD)
    rhs = np.array(rhs, dtype=LD)
    n = A.shape[0]
    swaps = 0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            raise np.linalg.LinAlgError("singular system")
        if p != k:
            A[[k, p]] = A[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
            swaps += 1
        mult = A[k + 1:, k] / A[k, k]
        A[k + 1:, k:] -= np.outer(mult, A[k, k:])
        rhs[k + 1:] -= mult * rhs[k]
    x = np.zeros(n, dtype=LD)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - np.dot(A[k, k + 1:], x[k + 1:])) / A[k, k]
    return x, swaps


def _cholesky_by_entries(M):
    """Scalar-loop Cholesky: the referee for the column version."""
    n = M.shape[0]
    L = np.zeros((n, n), dtype=LD)
    for j in range(n):
        s = M[j, j] - np.dot(L[j, :j], L[j, :j])
        if s <= 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        L[j, j] = np.sqrt(s)
        for i in range(j + 1, n):
            L[i, j] = (M[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return L


def _inv_by_entries(L):
    """Scalar-loop inverse of L L^T: the referee for the row version."""
    n = L.shape[0]
    Li = np.zeros((n, n), dtype=LD)
    for i in range(n):
        Li[i, i] = 1.0 / L[i, i]
        for j in range(i):
            Li[i, j] = -np.dot(L[i, j:i], Li[j:i, j]) / L[i, i]
    return Li.T @ Li


@pytest.mark.parametrize("n", [1, 5, 17, 40])
def test_lu_solve_matches_elimination(n):
    # Non-symmetric random matrices swap rows at most steps; SPD or
    # diagonally dominant ones would never pivot.  One factorization
    # serves several right-hand sides.
    rng = np.random.default_rng(n)
    for _ in range(3):
        A = rng.standard_normal((n, n)).astype(LD) / 3
        factors = _lu_ld(A)
        for _ in range(4):
            b = rng.standard_normal(n).astype(LD)
            x, swaps = _eliminate(A, b)
            assert swaps >= min(n - 1, 3)
            assert np.array_equal(_lu_solve_ld(factors, b), x)


def test_lu_zero_pivot_raises_and_solver_falls_back():
    for A in (np.array([[1.0, 2.0], [2.0, 4.0]]),
              np.array([[1.0, 0.0, 3.0], [2.0, 0.0, 1.0], [4.0, 0.0, 5.0]])):
        rhs = np.arange(1.0, A.shape[0] + 1).astype(LD)
        with pytest.raises(np.linalg.LinAlgError):
            _eliminate(A, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            _lu_ld(A)
        # Every solve against a matrix that fails to factor is float64
        # least squares.
        assert np.array_equal(_ld_solver(A)(rhs),
                              np.linalg.lstsq(A, rhs.astype(float), rcond=None)[0])
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=LD)
    rhs = np.array([1.0, 1.0], dtype=LD)
    assert np.array_equal(_ld_solver(A)(rhs), _lu_solve_ld(_lu_ld(A), rhs))


@pytest.mark.parametrize("n", [1, 5, 8, 17])
def test_cholesky_and_inverse_match_entry_loops(n):
    rng = np.random.default_rng(100 + n)
    B = rng.standard_normal((n, n)).astype(LD)
    M = B @ B.T + LD(0.1) * np.eye(n, dtype=LD)
    L = _cholesky_ld(M)
    assert np.array_equal(L, _cholesky_by_entries(M))
    assert np.array_equal(_inv_from_cholesky(L), _inv_by_entries(L))
    if n > 1:
        M[n - 1, n - 1] = -M[n - 1, n - 1]  # no longer positive definite
    else:
        M = -M
    for cholesky in (_cholesky_ld, _cholesky_by_entries):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(M)


def test_problem_degree_bookkeeping():
    prob = build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6))
    assert prob.q_degree == 14
    assert prob.gram_sizes == (8, 7)
    assert prob.degrees == tuple(range(2, 7))


def test_problem_affine_constant_carries_alpha():
    # q(0) = alpha - sum_i h_{i,0} lambda_i: the alpha term of alpha*x
    # survives the division by x as the constant coefficient.
    prob = build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.7, d_v=6))
    assert prob.alpha == 0.7
    lam = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    q0 = prob.alpha - float(prob.h_matrix[0] @ lam)
    # h_{2,0} = (g_2/x)(0) = 0.9 for rho = x^3, eps = 0.3.
    assert q0 == pytest.approx(0.7 - 0.9, abs=1e-12)


def test_solve_pinned_single_variable():
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X, epsilon=0.5, alpha=1.0, d_v=2)))
    assert sol.status == "optimal"
    assert sol.lambda_coeffs[2] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)
    # q(x) = 1 - 0.5*lambda_2 is the constant 0.5; its certificate is a
    # 1x1 Gram matrix carrying that value.
    assert cert.gram_blocks[0].shape == (1, 1)
    assert cert.gram_blocks[0][0, 0] == pytest.approx(0.5, abs=1e-6)


def test_solve_pinned_cubic():
    sol, _ = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=2)))
    assert sol.status == "optimal"
    assert sol.lambda_coeffs[2] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)


def test_solve_matches_lp_path():
    for d_v, alpha in ((6, 1.0), (10, 0.5), (10, 1.0)):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=d_v)
        sol, cert = solve_sdp(build_sos_problem(req))
        lp_res = solve_semi_infinite(req)
        assert sol.status == "optimal"
        rate_sdp, _ = rate_and_gap(sol.lambda_coeffs, RHO_X3, 0.3)
        assert rate_sdp == pytest.approx(lp_res.rate, abs=1e-8)
        assert cert.matching_residual <= 1e-8
        assert cert.min_eigenvalue >= -1e-8


def test_solve_below_floor_infeasible():
    sol, cert = solve_sdp(build_sos_problem(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.05, d_v=6)))
    assert sol.status == "infeasible"
    assert cert is None
    assert sol.lambda_coeffs == {}
    # Both paths share one infeasibility rule: the feasibility floor.
    for rho, epsilon, d_v in ((RHO_X3, 0.3, 10), (RHO_X4, 0.25, 8)):
        floor = feasibility_floor(rho, epsilon, d_v)
        below = SolveRequest(rho=rho, epsilon=epsilon, alpha=floor - 1e-3,
                             d_v=d_v)
        sol, cert = solve_sdp(build_sos_problem(below))
        assert sol.status == "infeasible" and cert is None
        assert solve_semi_infinite(below).status == "infeasible"
        above = SolveRequest(rho=rho, epsilon=epsilon, alpha=floor + 1e-3,
                             d_v=d_v)
        sol, cert = solve_sdp(build_sos_problem(above))
        assert sol.status == "optimal"
        assert cert.matching_residual <= 1e-8
        assert cert.min_eigenvalue >= -1e-8


def test_solution_soundness_and_duality_gap():
    for alpha in (0.3, 0.6, 1.0):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=6)
        sol, cert = solve_sdp(build_sos_problem(req))
        assert sol.status == "optimal"
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))
        margin = min_normalized_slack(sol.lambda_coeffs, RHO_X3, 0.3, alpha)
        assert margin.min_slack >= -1e-8


def test_solver_deterministic():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    sol1, cert1 = solve_sdp(build_sos_problem(req))
    sol2, cert2 = solve_sdp(build_sos_problem(req))
    assert sol1.lambda_coeffs == sol2.lambda_coeffs
    assert np.array_equal(cert1.gram_blocks[0], cert2.gram_blocks[0])


def test_check_certificate_perfect_square():
    G0 = np.array([[0.0, 0.0], [0.0, 1.0]])
    G1 = np.zeros((1, 1))
    cert = SOSCertificate(gram_blocks=(G0, G1), matching_residual=0.0,
                          min_eigenvalue=0.0)
    q = Polynomial([0.0, 0.0, 1.0])  # x^2
    assert check_certificate(q, cert) == pytest.approx(0.0, abs=1e-15)


def test_check_certificate_constant():
    cert = SOSCertificate(gram_blocks=(np.array([[1.0]]),),
                          matching_residual=0.0, min_eigenvalue=1.0)
    assert check_certificate(Polynomial([1.0]), cert) == 0.0


def test_check_certificate_dimension_mismatch():
    # Blocks of sizes (3, 1) fit no interval representation.
    cert = SOSCertificate(gram_blocks=(np.eye(3), np.eye(1)),
                          matching_residual=0.0, min_eigenvalue=1.0)
    with pytest.raises(ValueError):
        check_certificate(Polynomial([0.0, 0.0, 1.0]), cert)
    # Degree-4 blocks cannot certify a degree-7 polynomial.
    cert = SOSCertificate(gram_blocks=(np.eye(3), np.eye(2)),
                          matching_residual=0.0, min_eigenvalue=1.0)
    with pytest.raises(ValueError):
        check_certificate(Polynomial([0.0] * 7 + [1.0]), cert)


def test_check_certificate_detects_perturbation():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    prob = build_sos_problem(req)
    sol, cert = solve_sdp(prob)
    lam = np.array([sol.lambda_coeffs.get(i, 0.0) for i in prob.degrees])
    q_coeffs = np.zeros(prob.q_degree + 1)
    q_coeffs[0] = prob.alpha
    q_coeffs -= prob.h_matrix @ lam
    q = Polynomial(q_coeffs)
    assert check_certificate(q, cert) <= 1e-8
    G0 = cert.gram_blocks[0].copy()
    G0[1, 1] += 1e-3
    bad = SOSCertificate(gram_blocks=(G0,) + cert.gram_blocks[1:],
                         matching_residual=0.0, min_eigenvalue=0.0)
    assert check_certificate(q, bad) >= 1e-4


def test_round_trip_random_explicit_sos():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        if m % 2 == 0:
            s0, s1 = m // 2 + 1, m // 2
        else:
            s0 = s1 = (m + 1) // 2
        A0 = rng.standard_normal((s0, s0))
        G0 = A0 @ A0.T + 1e-6 * np.eye(s0)
        if s1 > 0:
            A1 = rng.standard_normal((s1, s1))
            G1 = A1 @ A1.T + 1e-6 * np.eye(s1)
        else:
            G1 = None
        q = Polynomial(_interval_sos_poly(m, G0, G1))
        blocks = (G0,) if G1 is None else (G0, G1)
        cert = SOSCertificate(gram_blocks=blocks, matching_residual=0.0,
                              min_eigenvalue=0.0)
        assert check_certificate(q, cert) <= 1e-10
        assert certificate_min_eigenvalue(cert) >= 0.0
