"""Answer checks, run after the timed region.

Each check returns None for a correct answer or a short reason.  The
program's own certifier is never consulted: every verdict comes from
``referee``.  ``KNOWN_FAILURES`` lists, per workload, the panel operations
that fail because of a known program fault, each with its reason; any
other failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import math

from referee import (OBJECTIVE_TOL, SIMPLEX_TOL, SLACK_TOL, THRESHOLD_TOL,
                     dense_min_slack, lp_referee)

# The known program faults, by the reason a failure is counted under:
#   1: the simplex kernel and _relaxed_report return "optimal" points that
#      are suboptimal or slightly infeasible, and phase 1 of the kernel can
#      call a feasible LP infeasible;
#   2: the cutting-plane loop stops at its iteration limit on feasible LPs;
#   3: the monomial-basis expansion of f^(i-1) cancels catastrophically.
FAULT_OF_REASON = {"below-referee": 1, "slack-violated": 1, "false-infeasible": 1,
                   "iteration-limit": 2, "threshold-off": 3}

# Panel index -> reason of every operation that fails on the program as it
# stood when the benchmark was added.  A change that mends a fault removes
# its entries here; one that breaks another operation, or makes a known one
# fail for another reason, makes the run incorrect.
KNOWN_FAILURES = {
    "lp-stress": {
        0: "below-referee", 2: "iteration-limit", 3: "false-infeasible",
        6: "slack-violated", 9: "iteration-limit", 10: "iteration-limit",
        12: "slack-violated", 19: "iteration-limit", 33: "iteration-limit",
        42: "iteration-limit", 44: "below-referee", 46: "below-referee",
        47: "iteration-limit", 56: "iteration-limit", 57: "iteration-limit",
        58: "below-referee", 59: "iteration-limit", 60: "below-referee",
        61: "iteration-limit", 66: "iteration-limit", 73: "iteration-limit",
        75: "iteration-limit", 82: "below-referee", 83: "iteration-limit",
        84: "iteration-limit", 85: "iteration-limit", 86: "below-referee",
        90: "iteration-limit", 98: "slack-violated", 100: "iteration-limit",
        104: "below-referee", 107: "below-referee", 108: "iteration-limit",
        112: "below-referee", 114: "iteration-limit", 119: "iteration-limit",
        120: "iteration-limit", 126: "iteration-limit", 128: "slack-violated",
        130: "iteration-limit", 131: "below-referee", 137: "iteration-limit",
        138: "below-referee", 142: "below-referee", 144: "iteration-limit",
        145: "slack-violated", 148: "iteration-limit",
    },
    "de-analysis": dict.fromkeys((
        1, 4, 6, 7, 8, 9, 10, 13, 19, 20, 21, 24, 27, 32, 35, 37, 40, 43, 44, 45, 50,
        53, 55, 56, 63, 66, 70, 72, 75, 76, 80, 84, 89, 90, 92, 98, 99), "threshold-off"),
    "sweep": {},
}


def unexpected_failures(workload: str, failures: dict) -> list:
    """The (panel index, reason) pairs of ``failures`` that are not known."""
    known = KNOWN_FAILURES[workload]
    return sorted((idx, reason) for idx, reason in failures.items()
                  if known.get(idx) != reason)


RATE_TOL = 1e-8  # LP vs SDP rate in the sweep CSV (12 significant digits)
TOP_RATE = 0.5  # rho = x^3, eps = 0.3: lambda_2 = 1 is optimal for alpha >= 0.9


def _lambda_problem(lam: dict):
    if any(c < 0.0 or not math.isfinite(c) for c in lam.values()):
        return "lambda-negative"
    if abs(sum(lam.values()) - 1.0) > SIMPLEX_TOL:
        return "lambda-not-normalised"
    return None


def check_lp(inst, status: str, lam: dict, ref) -> str | None:
    """``ref`` is ``lp_referee(...)``: (optimum, lambda) or None if infeasible."""
    if status == "infeasible":
        return None if ref is None else "false-infeasible"
    if ref is None:
        return f"{status}-on-infeasible"
    if status == "iteration-limit":
        return "iteration-limit"
    if status != "optimal":
        return f"status-{status}"
    problem = _lambda_problem(lam)
    if problem:
        return problem
    if dense_min_slack(lam, inst.d_c, inst.epsilon, inst.alpha) < -SLACK_TOL:
        return "slack-violated"
    objective = sum(c / i for i, c in lam.items())
    if objective < ref[0] - OBJECTIVE_TOL:
        return "below-referee"
    if objective > ref[0] + OBJECTIVE_TOL:
        return "above-referee"
    return None


def check_de(inst, threshold: float, converged: bool, contraction: float) -> str | None:
    if abs(threshold - inst.ref_threshold) > THRESHOLD_TOL:
        return "threshold-off"
    if not converged:
        return "trace-not-converged"
    if not contraction < 1.0:
        return "contraction-not-below-1"
    return None


def read_sweep_csv(path) -> list[dict]:
    """Rows of the sweep CSV as dicts of floats (status and solver kept)."""
    with open(path, newline="") as fh:
        rows = []
        for rec in csv.DictReader(fh):
            row = {"alpha": float(rec["alpha"]), "solver": rec["solver"],
                   "status": rec["status"],
                   "rate": float(rec["rate"]) if rec["rate"] else None}
            row["lam"] = {int(k.split("_")[1]): float(v) for k, v in rec.items()
                          if k.startswith("lambda_") and v and float(v) != 0.0}
            rows.append(row)
        return rows


def check_sweep(rows: list[dict], d_c: int, epsilon: float, d_v: int,
                alphas) -> str | None:
    """The reference sweep: every (alpha, solver) row optimal, LP and SDP
    rates agreeing, the rate non-decreasing in alpha and 0.5 from 0.9 on,
    every lambda feasible by direct evaluation and the LP rows optimal
    against the referee."""
    want = {(round(a, 12), s) for a in alphas for s in ("lp", "sdp")}
    got = {(round(r["alpha"], 12), r["solver"]) for r in rows}
    if got != want or len(rows) != len(want):
        return "rows-missing"
    rho_mean = 1.0 / d_c
    by_solver = {"lp": [], "sdp": []}
    for r in sorted(rows, key=lambda r: r["alpha"]):
        if r["status"] != "optimal" or r["rate"] is None:
            return "not-optimal"
        problem = _lambda_problem(r["lam"])
        if problem:
            return problem
        objective = sum(c / i for i, c in r["lam"].items())
        if abs(r["rate"] - (1.0 - rho_mean / objective)) > RATE_TOL:
            return "rate-inconsistent"
        if dense_min_slack(r["lam"], d_c, epsilon, r["alpha"]) < -SLACK_TOL:
            return "slack-violated"
        if r["solver"] == "lp":
            ref = lp_referee(d_c, epsilon, d_v, r["alpha"])
            if ref is None or abs(objective - ref[0]) > OBJECTIVE_TOL:
                return "lp-off-referee"
        if r["alpha"] >= 0.9 - 1e-12 and abs(r["rate"] - TOP_RATE) > RATE_TOL:
            return "top-rate-not-0.5"
        by_solver[r["solver"]].append(r["rate"])
    for lp_rate, sdp_rate in zip(by_solver["lp"], by_solver["sdp"]):
        if abs(lp_rate - sdp_rate) > RATE_TOL:
            return "lp-sdp-mismatch"
    for rates in by_solver.values():
        if any(b < a - RATE_TOL for a, b in zip(rates, rates[1:])):
            return "rate-decreasing"
    return None
