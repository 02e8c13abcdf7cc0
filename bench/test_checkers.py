"""Each answer check must reject a deliberately wrong answer.

    python3 -m pytest -q bench/test_checkers.py
"""

import pytest

from checks import KNOWN_FAILURES, check_de, check_lp, check_sweep, unexpected_failures
from instances import DEInstance, LPInstance
from referee import alpha_floor, dense_min_slack, lp_referee, reference_threshold

D_C, EPS, D_V = 4, 0.3, 6  # the reference configuration
ALPHAS = tuple(round(0.2 + 0.1 * k, 12) for k in range(9))


def _lp_instance(alpha):
    return LPInstance(d_c=D_C, d_v=D_V, epsilon=EPS, alpha=alpha)


def _move(lam, src, dst, mass):
    out = dict(lam)
    out[src] = out.get(src, 0.0) - mass
    out[dst] = out.get(dst, 0.0) + mass
    return {d: c for d, c in out.items() if c != 0.0}


def _feasible(lam, alpha, delta=1e-7):
    """The referee's grid optimum, moved a little towards all mass on D_V
    where it is not feasible on the whole interval: that lowers the DE map
    pointwise and the objective by less than 1e-7."""
    if dense_min_slack(lam, D_C, EPS, alpha) >= -1e-12:
        return lam
    out = {d: (1.0 - delta) * c for d, c in lam.items()}
    out[D_V] = out.get(D_V, 0.0) + delta
    return out


def test_lp_check_accepts_the_referee_answer():
    inst = _lp_instance(0.5)
    ref = lp_referee(D_C, EPS, D_V, 0.5)
    assert check_lp(inst, "optimal", _feasible(ref[1], 0.5), ref) is None


def test_lp_check_rejects_lambda_pushed_past_feasibility():
    inst = _lp_instance(0.5)
    ref = lp_referee(D_C, EPS, D_V, 0.5)
    top = max(ref[1])
    pushed = _move(ref[1], top, 2, 1e-3)  # lower degrees raise the DE map everywhere
    assert dense_min_slack(pushed, D_C, EPS, 0.5) < -1e-5
    assert check_lp(inst, "optimal", pushed, ref) == "slack-violated"


def test_lp_check_rejects_a_feasible_but_suboptimal_lambda():
    inst = _lp_instance(0.5)
    ref = lp_referee(D_C, EPS, D_V, 0.5)
    assert check_lp(inst, "optimal", {D_V: 1.0}, ref) == "below-referee"


def test_lp_check_judges_infeasible_and_iteration_limit_by_the_referee():
    feasible = _lp_instance(0.5)
    ref = lp_referee(D_C, EPS, D_V, 0.5)
    assert check_lp(feasible, "infeasible", {}, ref) == "false-infeasible"
    assert check_lp(feasible, "iteration-limit", {D_V: 1.0}, ref) == "iteration-limit"
    below_floor = _lp_instance(0.5 * alpha_floor(D_C, EPS, D_V))
    assert lp_referee(D_C, EPS, D_V, below_floor.alpha) is None
    assert check_lp(below_floor, "infeasible", {}, None) is None
    assert check_lp(below_floor, "optimal", {D_V: 1.0}, None) == "optimal-on-infeasible"


@pytest.mark.parametrize("lam, rho, known", [({3: 1.0}, {6: 1.0}, 0.4294398),
                                             ({2: 1.0}, {4: 1.0}, 1.0 / 3.0)])
def test_de_check_rejects_a_threshold_shifted_by_1e_3(lam, rho, known):
    ref = reference_threshold(lam, rho)
    assert ref == pytest.approx(known, abs=1e-6)
    inst = DEInstance(lam=lam, rho=rho, ref_threshold=ref)
    assert check_de(inst, ref + 5e-7, True, 0.9) is None
    assert check_de(inst, ref + 1e-3, True, 0.9) == "threshold-off"
    assert check_de(inst, ref - 1e-3, True, 0.9) == "threshold-off"
    assert check_de(inst, ref, False, 0.9) == "trace-not-converged"


def _sweep_rows():
    rows = []
    for alpha in ALPHAS:
        _, lam = lp_referee(D_C, EPS, D_V, alpha)
        lam = _feasible(lam, alpha)
        objective = sum(c / i for i, c in lam.items())
        for solver in ("lp", "sdp"):
            rows.append({"alpha": alpha, "solver": solver, "status": "optimal",
                         "rate": 1.0 - (1.0 / D_C) / objective, "lam": dict(lam)})
    return rows


def test_sweep_check_accepts_referee_rows_and_rejects_mismatched_rates():
    rows = _sweep_rows()
    assert check_sweep(rows, D_C, EPS, D_V, ALPHAS) is None
    sdp = next(r for r in rows if r["solver"] == "sdp" and r["alpha"] == 0.5)
    sdp["lam"] = _move(sdp["lam"], 2, max(sdp["lam"]), 1e-3)  # feasible, lower rate
    sdp["rate"] = 1.0 - (1.0 / D_C) / sum(c / i for i, c in sdp["lam"].items())
    assert check_sweep(rows, D_C, EPS, D_V, ALPHAS) == "lp-sdp-mismatch"


def test_sweep_check_rejects_a_rate_that_disagrees_with_its_lambda():
    rows = _sweep_rows()
    rows[0]["rate"] += 1e-6
    assert check_sweep(rows, D_C, EPS, D_V, ALPHAS) == "rate-inconsistent"


def test_only_the_known_failures_keep_a_run_correct():
    known = KNOWN_FAILURES["lp-stress"]
    idx, reason = next(iter(known.items()))
    assert unexpected_failures("lp-stress", dict(known)) == []
    assert unexpected_failures("lp-stress", {idx: reason}) == []
    other = next(i for i in range(len(known) + 1) if i not in known)
    assert unexpected_failures("lp-stress", {other: reason}) == [(other, reason)]
    wrong = "false-infeasible" if reason != "false-infeasible" else "below-referee"
    assert unexpected_failures("lp-stress", {idx: wrong}) == [(idx, wrong)]
    assert unexpected_failures("sweep", {0: "lp-sdp-mismatch"}) == [(0, "lp-sdp-mismatch")]
