"""LP path: discretization, simplex kernel, and the cutting-plane loop."""

import numpy as np
import pytest

from ldpcdesign.certify import feasibility_floor
from ldpcdesign.desim import de_trace, empirical_contraction
from ldpcdesign.lp import (
    LPStandardForm, SolveRequest, _SimplexState, build_discretized_lp,
    chebyshev_grid, simplex_solve, solve_semi_infinite)
from ldpcdesign.polynomials import (
    DegreeDistribution, constraint_basis, poly_from_edge_coeffs)

from oracles import brute_force_lp, fine_grid_objective

RHO_X3 = poly_from_edge_coeffs({4: 1.0})


def test_chebyshev_grid_shape():
    g = chebyshev_grid()
    assert g.size == 64
    assert np.all(g > 0.0) and np.all(g <= 1.0)
    assert np.all(np.diff(g) > 0.0)
    assert g[-1] == pytest.approx(1.0, abs=1e-15)


def test_request_validation():
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.0, d_v=6)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.5, d_v=6)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=1)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6,
                     grid=np.array([0.0, 0.5]))


def test_build_lp_single_variable():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=2)
    lp = build_discretized_lp(req)
    assert lp.c.size == 1
    assert lp.E.shape == (1, 1)
    assert lp.d[0] == 1.0


def test_build_lp_shape():
    grid = np.linspace(0.1, 1.0, 17)
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6, grid=grid)
    lp = build_discretized_lp(req)
    assert lp.c.size == 5
    assert lp.A.shape == (17, 5)
    assert lp.b.size == 17


def test_build_lp_alpha_scales_rhs():
    grid = np.linspace(0.1, 1.0, 10)
    lp1 = build_discretized_lp(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6, grid=grid))
    lp2 = build_discretized_lp(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6, grid=grid))
    assert np.allclose(lp2.b, 0.5 * lp1.b)
    assert np.allclose(lp2.A, lp1.A)


def _pivot_by_rows(T, row, col):
    """Row-by-row elimination: the referee for the blocked pivot."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


@pytest.mark.parametrize("shape", [(65, 78), (40, 2000), (5, 20_013)])
def test_pivot_matches_row_elimination(shape):
    # Tall tableaux come from the cutting-plane LPs, wide ones from a
    # dense-grid dual; the three shapes update in one block per side, in
    # several blocks with a remainder, and a row at a time.  Successive
    # pivots on one tableau, with the pivot row first, last and inside, and
    # zeros in the pivot column.
    m, n = shape
    rng = np.random.default_rng(m)
    T = rng.uniform(-1.0, 1.0, size=shape)
    state = _SimplexState(T, np.arange(m))
    ref = T.copy()
    for k, row in enumerate([0, m - 1, m // 2, 0, m - 1] + rng.integers(0, m, 5).tolist()):
        col = int(rng.integers(0, n - 1))
        zeros = rng.random(m) < 0.3
        zeros[row] = False
        state.T[zeros, col] = ref[zeros, col] = 0.0
        state.T[row, col] = ref[row, col] = rng.uniform(0.5, 2.0)
        state._pivot(row, col)
        _pivot_by_rows(ref, row, col)
        assert np.array_equal(state.T, ref)
        assert state.basis[row] == col and state.pivots == k + 1


def test_bland_entering_column_skips_blocked():
    # Columns 0 and 1 both improve; Bland enters the lower index unless it
    # is blocked (as the artificial columns are in phase 2).
    for blocked, entered in ((set(), 0), ({0}, 1)):
        T = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
        state = _SimplexState(T, np.array([3]))
        cost = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
        assert state.run(cost, blocked) == "optimal"
        assert state.basis.tolist() == [entered] and state.pivots == 1


def test_simplex_textbook():
    lp = LPStandardForm(
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
        E=np.zeros((0, 2)), d=np.zeros(0))
    values, obj, status = simplex_solve(lp)
    assert status == "optimal"
    assert obj == pytest.approx(1.0, abs=1e-12)


def test_simplex_mass_on_degree_two():
    # max sum lambda_i / i with only the simplex equality active: all mass
    # goes to degree 2, objective 1/2.
    n = 5
    lp = LPStandardForm(
        c=np.array([1.0 / i for i in range(2, 2 + n)]),
        A=np.eye(n), b=np.full(n, 10.0),
        E=np.ones((1, n)), d=np.array([1.0]))
    values, obj, status = simplex_solve(lp)
    assert status == "optimal"
    assert obj == pytest.approx(0.5, abs=1e-12)
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_simplex_infeasible_toy():
    lp = LPStandardForm(
        c=np.array([1.0]),
        A=np.array([[1.0]]), b=np.array([-1.0]),
        E=np.zeros((0, 1)), d=np.zeros(0))
    _, _, status = simplex_solve(lp)
    assert status == "infeasible"


def test_simplex_unbounded():
    lp = LPStandardForm(
        c=np.array([1.0, 0.0]),
        A=np.array([[0.0, 1.0]]), b=np.array([1.0]),
        E=np.zeros((0, 2)), d=np.zeros(0))
    _, _, status = simplex_solve(lp)
    assert status == "unbounded"


def test_simplex_vs_vertex_enumeration():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 1.5, size=m)
        # Box rows keep the region bounded so both methods see a vertex.
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, np.full(n, 2.0)])
        c = rng.uniform(-1.0, 1.0, size=n)
        use_eq = rng.random() < 0.5
        E = np.ones((1, n)) if use_eq else np.zeros((0, n))
        d = np.array([1.0]) if use_eq else np.zeros(0)
        _, ref_obj = brute_force_lp(c, A_full, b_full, E, d)
        values, obj, status = simplex_solve(
            LPStandardForm(c=c, A=A_full, b=b_full, E=E, d=d))
        if ref_obj is None:
            assert status == "infeasible"
            continue
        assert status == "optimal"
        assert obj == pytest.approx(ref_obj, abs=1e-9)
        checked += 1


def test_semi_infinite_single_variable():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=2)
    res = solve_semi_infinite(req)
    assert res.status == "optimal"
    assert res.lambda_coeffs == {2: 1.0}
    assert res.rate == pytest.approx(0.5, abs=1e-12)
    assert res.margin.min_slack == pytest.approx(0.1, abs=1e-12)


def test_semi_infinite_builds_constraint_basis_once(monkeypatch):
    # One solve runs every cut's LP and every certification on one basis,
    # wherever constraint_basis is looked up; the floor needs none.
    calls = []

    def counting(*args):
        calls.append(args)
        return constraint_basis(*args)

    for module in ("ldpcdesign.lp", "ldpcdesign.certify"):
        monkeypatch.setattr(f"{module}.constraint_basis", counting)
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    res = solve_semi_infinite(req)
    assert res.status == "optimal" and res.solver_iterations == 8
    assert calls == [(RHO_X3, 0.3, 6)]


def test_semi_infinite_takes_floor_from_bernstein_coefficients(monkeypatch):
    # The monomial expansion reads the floor of this design as 3.41, which
    # would refuse every alpha; the true floor is 0.7399, the one the SDP
    # path uses.  Getting past the floor is seen as the first build of the
    # constraint basis.
    class PastFloor(Exception):
        pass

    def past(*args):
        raise PastFloor

    monkeypatch.setattr("ldpcdesign.lp.constraint_basis", past)
    rho = poly_from_edge_coeffs({5: 0.01834, 10: 0.98166})
    floor = feasibility_floor(rho, 0.36333, 16)
    assert floor == pytest.approx(0.739855106897, abs=1e-9)
    below = solve_semi_infinite(
        SolveRequest(rho=rho, epsilon=0.36333, alpha=floor - 1e-6, d_v=16))
    assert below.status == "infeasible" and below.solver_iterations == 0
    with pytest.raises(PastFloor):
        solve_semi_infinite(
            SolveRequest(rho=rho, epsilon=0.36333, alpha=floor + 1e-6, d_v=16))


def test_semi_infinite_below_floor_infeasible():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.05, d_v=6)
    res = solve_semi_infinite(req)
    assert res.status == "infeasible"
    assert res.rate is None


def test_semi_infinite_reference_configuration():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6)
    res = solve_semi_infinite(req)
    assert res.status == "optimal"
    assert 0.5 - 1e-9 <= res.rate < 0.7
    assert res.margin.feasible
    assert res.cuts_added <= 200


def test_semi_infinite_output_validity():
    for alpha in (0.4, 0.7):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=6)
        res = solve_semi_infinite(req)
        assert res.status == "optimal"
        lam = res.lambda_coeffs
        assert sum(lam.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in lam.values())
        assert res.margin.min_slack >= -1e-9
        dist = DegreeDistribution(lam, {4: 1.0})
        trace = de_trace(dist, 0.3, target=1e-6)
        assert trace.converged
        assert empirical_contraction(trace) <= alpha + 1e-9


def test_rate_monotone_in_alpha():
    rates = []
    for alpha in (0.3, 0.5, 0.7, 1.0):
        req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=alpha, d_v=6)
        res = solve_semi_infinite(req)
        assert res.status == "optimal"
        rates.append(res.rate)
    for lo, hi in zip(rates[:-1], rates[1:]):
        assert lo <= hi + 1e-9


def test_discretization_sandwich():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    certified = solve_semi_infinite(req)
    assert certified.status == "optimal"
    objective = sum(c / i for i, c in certified.lambda_coeffs.items())
    prev = None
    for n in (8, 16, 32, 64):
        grid = np.arange(1, n + 1) / n
        lp = build_discretized_lp(
            SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6, grid=grid))
        _, obj, status = simplex_solve(lp)
        assert status == "optimal"
        # Finer grids shrink the feasible set; certified value sits below all.
        if prev is not None:
            assert obj <= prev + 1e-12
        assert objective <= obj + 1e-9
        prev = obj


def test_fine_grid_dual_matches_primal():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6)
    n = 500
    grid = np.arange(1, n + 1) / n
    lp = build_discretized_lp(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6, grid=grid))
    _, primal_obj, status = simplex_solve(lp)
    assert status == "optimal"
    dual_obj = fine_grid_objective(req, num_points=n)
    assert dual_obj == pytest.approx(primal_obj, abs=1e-9)


def test_certified_close_to_fine_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(6):
        dc = int(rng.integers(3, 6))
        rho = poly_from_edge_coeffs({dc: 1.0})
        eps = float(np.round(rng.uniform(0.2, 0.4), 3))
        alpha = float(np.round(rng.uniform(0.4, 1.0), 3))
        req = SolveRequest(rho=rho, epsilon=eps, alpha=alpha, d_v=5)
        res = solve_semi_infinite(req)
        assert res.status == "optimal"
        assert res.cuts_added <= 200
        objective = sum(c / i for i, c in res.lambda_coeffs.items())
        oracle = fine_grid_objective(req, num_points=4000)
        assert objective <= oracle + 1e-9
        assert oracle - objective <= 1e-4
