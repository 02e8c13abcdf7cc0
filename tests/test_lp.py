"""LP path: discretization, simplex kernel, and the cutting-plane loop."""

import numpy as np
import pytest

from ldpcdesign.certify import feasibility_floor, min_normalized_slack
from ldpcdesign.desim import de_trace, empirical_contraction
from ldpcdesign import lp
from ldpcdesign.lp import (
    LPStandardForm, SolveRequest, _SimplexState, build_discretized_lp,
    chebyshev_grid, simplex_solve, solve_semi_infinite)
from ldpcdesign.polynomials import DegreeDistribution, poly_from_edge_coeffs

from oracles import (
    brute_force_lp, direct_min_slack, fine_grid_objective, highs_grid_objective)

RHO_X3 = poly_from_edge_coeffs({4: 1.0})

# Designs (rho, epsilon, d_v, alpha), rho an edge-degree map, on which the
# cut loop on the monomial expansion with a cold Bland-rule kernel fell
# below the HiGHS optimum by 2.4e-3, answered "infeasible", stopped at its
# iteration limit, violated the constraint by 1.4e-8, answered "optimal"
# with a slack of -0.0024, and answered "infeasible".
FOUND_DESIGNS = (
    ({4: 1.0}, 0.4968, 14, 0.7243),
    ({6: 1.0}, 0.4987, 15, 0.6384),
    ({6: 1.0}, 0.4667, 13, 0.8731),
    ({5: 1.0}, 0.5392, 9, 0.9796),
    ({5: 0.01834, 10: 0.98166}, 0.36333, 16, 0.8377),
    ({8: 0.4949, 10: 0.5051}, 0.4335, 13, 0.8652),
)

# Designs (rho, epsilon, d_v) from the benchmark's lp-stress panel on which
# that loop answered "infeasible" or stopped at its iteration limit at
# alpha = floor or floor + 1e-10.
AT_FLOOR_DESIGNS = (
    ({8: 1.0}, 0.1984, 11),
    ({6: 1.0}, 0.4512, 10),
    ({6: 1.0}, 0.4987, 15),
    ({6: 1.0}, 0.3389, 12),
    ({4: 1.0}, 0.261, 11),
)


def test_chebyshev_grid_shape():
    g = chebyshev_grid()
    assert g.size == 64
    assert np.all(g > 0.0) and np.all(g <= 1.0)
    assert np.all(np.diff(g) > 0.0)
    assert g[-1] == pytest.approx(1.0, abs=1e-15)


def test_request_validation():
    for epsilon in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            SolveRequest(rho=RHO_X3, epsilon=epsilon, alpha=0.5, d_v=6)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.0, d_v=6)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.5, d_v=6)
    with pytest.raises(ValueError):
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=1)
    with pytest.raises(ValueError):
        build_discretized_lp(SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6),
                             np.array([0.0, 0.5]))


def test_build_lp_single_variable():
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=2)
    lp = build_discretized_lp(req, chebyshev_grid())
    assert lp.c.size == 1
    assert lp.E.shape == (1, 1)
    assert lp.d[0] == 1.0


def test_build_lp_shape():
    grid = np.linspace(0.1, 1.0, 17)
    req = SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6)
    lp = build_discretized_lp(req, grid)
    assert lp.c.size == 5
    assert lp.A.shape == (17, 5)
    assert lp.b.size == 17


def test_build_lp_alpha_scales_rhs():
    grid = np.linspace(0.1, 1.0, 10)
    lp1 = build_discretized_lp(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=1.0, d_v=6), grid)
    lp2 = build_discretized_lp(
        SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.5, d_v=6), grid)
    assert np.allclose(lp2.b, 0.5 * lp1.b)
    assert np.allclose(lp2.A, lp1.A)


def _pivot_by_rows(T, row, col):
    """Row-by-row elimination: the referee for the pivot's rank-1 updates."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


@pytest.mark.parametrize("shape", [(65, 78), (40, 2000), (5, 20_013)])
def test_pivot_matches_row_elimination(shape):
    # Tall tableaux come from the cutting-plane LPs, wide ones from a
    # dense-grid dual, up to the 20 013 columns of the 20 000-point oracle;
    # each side of the pivot row takes one rank-1 update.  Successive
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


def test_entering_column_tie_goes_to_the_lower_index():
    # Columns 0 and 1 improve equally; the tie goes to the lower index.
    T = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
    state = _SimplexState(T, np.array([3]))
    cost = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
    assert state.run(cost) == "optimal"
    assert state.basis.tolist() == [0] and state.pivots == 1


def test_two_phase_deletes_the_artificial_columns():
    # A negative-rhs row and an equality row each start on an artificial
    # column; phase 1 drives them out and phase 2 runs on the structurals,
    # the slacks and the rhs alone, to the optimum x = (1, 1, 0).
    problem = LPStandardForm(
        c=np.array([1.0, 2.0, -3.0]),
        A=np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, -1.0]]), b=np.array([2.0, -0.5]),
        E=np.array([[1.0, 0.0, 1.0]]), d=np.array([1.0]))
    state, status = lp._two_phase(problem)
    n, m1 = 3, 2
    assert status == "optimal"
    assert state.T.shape == (3, n + m1 + 1)
    assert np.all(state.basis < n + m1)
    assert state.values(n) == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)


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


def test_semi_infinite_takes_floor_from_bernstein_coefficients():
    # The monomial expansion reads the floor of this design as 3.41, which
    # would refuse every alpha; the true floor is 0.7399, the one the SDP
    # path uses.  Just past it the loop solves the design.
    rho_map = {5: 0.01834, 10: 0.98166}
    rho = poly_from_edge_coeffs(rho_map)
    floor = feasibility_floor(rho, 0.36333, 16)
    assert floor == pytest.approx(0.739855106897, abs=1e-9)
    below = solve_semi_infinite(
        SolveRequest(rho=rho, epsilon=0.36333, alpha=floor - 1e-6, d_v=16))
    assert below.status == "infeasible" and below.solver_iterations == 0
    above = solve_semi_infinite(
        SolveRequest(rho=rho, epsilon=0.36333, alpha=floor + 1e-6, d_v=16))
    assert above.status == "optimal" and above.solver_iterations >= 1
    assert direct_min_slack(above.lambda_coeffs, rho_map, 0.36333, floor + 1e-6) >= -1e-9


@pytest.mark.parametrize("design", AT_FLOOR_DESIGNS)
def test_semi_infinite_solves_at_the_floor(design):
    # The rhs backs off by SLACK_TOL / 2 but never below the row's value at all
    # mass on d_v, so that lambda stays grid-feasible down to the floor.
    rho_map, epsilon, d_v = design
    rho = poly_from_edge_coeffs(rho_map)
    floor = feasibility_floor(rho, epsilon, d_v)
    for alpha in (floor, floor + 1e-10):
        res = solve_semi_infinite(SolveRequest(rho=rho, epsilon=epsilon, alpha=alpha, d_v=d_v))
        assert res.status == "optimal"
        assert direct_min_slack(res.lambda_coeffs, rho_map, epsilon, alpha) >= -1e-9


@pytest.mark.parametrize("design", FOUND_DESIGNS)
def test_semi_infinite_solves_found_designs(design):
    rho_map, epsilon, d_v, alpha = design
    res = solve_semi_infinite(SolveRequest(
        rho=poly_from_edge_coeffs(rho_map), epsilon=epsilon, alpha=alpha, d_v=d_v))
    assert res.status == "optimal"
    assert direct_min_slack(res.lambda_coeffs, rho_map, epsilon, alpha) >= -1e-9
    pytest.importorskip("scipy.optimize")
    objective = sum(c / i for i, c in res.lambda_coeffs.items())
    assert objective == pytest.approx(
        highs_grid_objective(rho_map, d_v, epsilon, alpha), abs=1e-6)


def test_warm_started_cuts_match_cold_solve(monkeypatch):
    # Every cut is added to the live tableau; after each one the warm
    # optimum equals a cold two-phase solve of the whole grid so far.
    first, cuts = [], []
    dual_start, add_row = lp._dual_start, _SimplexState.add_row

    def record_first(problem):
        first.append(problem)
        return dual_start(problem)

    def record_cut(state, a, rhs):
        status = add_row(state, a, rhs)
        values = state.values(a.size)
        cuts.append((a, rhs, status, float(first[0].c @ values)))
        return status

    monkeypatch.setattr(lp, "_dual_start", record_first)
    monkeypatch.setattr(_SimplexState, "add_row", record_cut)
    res = solve_semi_infinite(SolveRequest(
        rho=poly_from_edge_coeffs({6: 1.0}), epsilon=0.4667, alpha=0.8731, d_v=13))
    assert res.status == "optimal" and res.cuts_added == len(cuts) >= 10
    base = first[0]
    for k in range(1, len(cuts) + 1):
        rows = [a for a, _, _, _ in cuts[:k]]
        rhs = [b for _, b, _, _ in cuts[:k]]
        _, cold, status = simplex_solve(LPStandardForm(
            c=base.c, A=np.vstack([base.A, *rows]), b=np.concatenate([base.b, rhs]),
            E=base.E, d=base.d))
        assert status == cuts[k - 1][2] == "optimal"
        assert cuts[k - 1][3] == pytest.approx(cold, abs=1e-12)


def _grid_lp(rho, epsilon, d_v, alpha):
    """The first LP of the cut loop: the limit row and the default grid,
    with the rhs backed off by SLACK_TOL / 2 but never below all mass on
    d_v."""
    A = lp._rows(rho, epsilon, d_v, np.concatenate([[0.0], chebyshev_grid()]))
    return lp._lp(A, np.maximum(alpha - 0.5 * lp.SLACK_TOL, A[:, -1]))


def _grid_lp_panel():
    """(rho, epsilon, d_v, alpha): d_v = 2; alpha at the floor, where the
    row at the maximum is clamped to all mass on d_v, and 1e-9 above it;
    the sweep's alpha = 0.9 vertex; the irregular rho of the SOS
    near-floor panel; lp-stress-style random designs."""
    panel = [(RHO_X3, 0.3, 2, 0.9)]
    rho = poly_from_edge_coeffs({8: 1.0})
    floor = feasibility_floor(rho, 0.1984, 11)
    panel += [(rho, 0.1984, 11, floor), (rho, 0.1984, 11, floor + 1e-9)]
    panel.append((RHO_X3, 0.3, 6, 0.9))
    for rho_map, epsilon, d_v in (
            ({6: 0.07759422793351788, 11: 0.9224057720664821}, 0.28351909875611425, 5),
            ({5: 0.7358855802517966, 8: 0.2641144197482034}, 0.5610073214383534, 7)):
        rho = poly_from_edge_coeffs(rho_map)
        floor = feasibility_floor(rho, epsilon, d_v)
        panel.append((rho, epsilon, d_v, floor + 0.5 * (1.0 - floor)))
    rng = np.random.default_rng(12)
    for _ in range(6):
        d_c, d_v = int(rng.integers(3, 9)), int(rng.integers(3, 16))
        epsilon = float(rng.uniform(0.05, 0.6))
        rho = poly_from_edge_coeffs({d_c: 1.0})
        floor = min(feasibility_floor(rho, epsilon, d_v), 1.0)
        panel.append((rho, epsilon, d_v, floor + float(rng.uniform()) * (1.0 - floor)))
    return panel


def test_dual_start_matches_two_phase(monkeypatch):
    # The cold start from all mass on degree 2 is dual feasible, so it needs
    # no phase 1.  It reaches the two-phase status of the same grid LP in
    # fewer pivots over the panel, and an objective no lower.  The dual loop
    # stops within _PIVOT_TOL of the backed-off rhs, so it may end above the
    # two-phase optimum (the sweep's alpha = 0.9 gives lambda_2 = 1 where
    # two-phase gives 0.4999999999074); such a lambda must still be
    # feasible at the true alpha.
    dual = _SimplexState.dual
    start_reduced = []

    def record_start(state, cost):
        if state.pivots == 0:
            state.cost = cost
            start_reduced.append(state._reduced())
        return dual(state, cost)

    monkeypatch.setattr(_SimplexState, "dual", record_start)
    start_pivots = two_phase_pivots = 0
    for rho, epsilon, d_v, alpha in _grid_lp_panel():
        problem = _grid_lp(rho, epsilon, d_v, alpha)
        start_reduced.clear()
        state, status = lp._dual_start(problem)
        two_phase, two_phase_status = lp._two_phase(problem)
        assert len(start_reduced) == 1 and start_reduced[0].min() >= 0.0
        assert status == two_phase_status == "optimal"
        values = state.values(problem.c.size)
        objective = float(problem.c @ values)
        two_phase_objective = float(problem.c @ two_phase.values(problem.c.size))
        assert objective >= two_phase_objective - 1e-12
        assert np.all(problem.A @ values <= problem.b + lp._PIVOT_TOL)
        if objective > two_phase_objective + 1e-12:
            lam = {i + 2: float(v) for i, v in enumerate(values) if v != 0.0}
            assert min_normalized_slack(lam, rho, epsilon, alpha).min_slack >= 0.0
        if d_v == 2:
            assert state.pivots == 0 and values.tolist() == [1.0]
        start_pivots += state.pivots
        two_phase_pivots += two_phase.pivots
    assert start_pivots < two_phase_pivots


def test_dual_start_pivot_count():
    # An lp-stress-style panel: rho = x^(d_c - 1), alpha uniform between the
    # floor and 1.  The start from all mass on d_v, primal simplex on the
    # same grid LPs, took 781 pivots here; the dual start takes 140.
    rng = np.random.default_rng(1)
    pivots = 0
    for _ in range(40):
        d_c, d_v = int(rng.integers(3, 9)), int(rng.integers(3, 16))
        epsilon = float(rng.uniform(0.05, 0.6))
        rho = poly_from_edge_coeffs({d_c: 1.0})
        floor = feasibility_floor(rho, epsilon, d_v)
        alpha = floor + float(rng.uniform()) * (1.0 - floor)
        if floor > 1.0:
            continue
        state, status = lp._dual_start(_grid_lp(rho, epsilon, d_v, alpha))
        assert status == "optimal"
        pivots += state.pivots
    assert pivots <= 781 // 2


def test_basic_solution_off_the_simplex_is_a_numerical_failure(monkeypatch):
    # The loop checks the basic lambda before clipping and renormalising
    # it: a corrupted rhs of a structural basic row is reported, not
    # certified.
    dual_start = lp._dual_start

    def corrupted(problem):
        state, status = dual_start(problem)
        row = int(np.flatnonzero(state.basis < problem.c.size)[0])
        state.T[row, -1] += 1e-6
        return state, status

    monkeypatch.setattr(lp, "_dual_start", corrupted)
    res = solve_semi_infinite(SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.9, d_v=6))
    assert res.status == "numerical-failure"
    assert res.lambda_coeffs == {} and res.rate is None
    assert res.solver_iterations == 1 and res.cuts_added == 0


def test_vertex_on_the_limit_row_has_no_dust():
    # At alpha = 0.9 the optimum lambda_2 = 1 meets the limit row
    # lambda_2 epsilon rho'(1) <= alpha with zero slack.  A primal start
    # from all mass on d_v stops short of it, within the backed-off rhs, at
    # lambda_2 = 0.999999999444, lambda_3 = 5.6e-10; the dual start begins
    # there and stays.
    res = solve_semi_infinite(SolveRequest(rho=RHO_X3, epsilon=0.3, alpha=0.9, d_v=6))
    assert res.status == "optimal"
    assert res.lambda_coeffs == {2: 1.0}
    assert res.margin.min_slack >= 0.0


def test_bland_fallback_ends_beale_cycle():
    # Beale's LP: Dantzig pricing with these tie-breaks cycles through six
    # degenerate bases from the slack basis.  After _DEGENERATE_RUN
    # degenerate pivots Bland's rule takes over and reaches the optimum 5/4
    # at x = (1, 0, 1, 0).
    c = np.array([0.75, -20.0, 0.5, -6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0],
                  [0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    problem = LPStandardForm(c=c, A=A, b=np.array([0.0, 0.0, 1.0]),
                             E=np.zeros((0, 4)), d=np.zeros(0))
    state, status = lp._two_phase(problem)
    assert status == "optimal" and state.pivots > lp._DEGENERATE_RUN
    values, objective, status = simplex_solve(problem)
    assert status == "optimal" and objective == pytest.approx(1.25, abs=1e-12)
    assert values == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


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
        lp = build_discretized_lp(req, grid)
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
    lp = build_discretized_lp(req, grid)
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
