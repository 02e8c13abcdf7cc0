"""Command-line front end.

Subcommands: optimize, sweep, simulate, threshold, verify, certify-sos.
Exit codes: 0 success, 1 infeasible, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import certify
from .desim import de_trace, threshold as de_threshold
from .experiment import (ConfigError, ExperimentConfig, emit_csv, parse_alpha_values,
                         parse_config, parse_degree_poly, run_sweep)
from .lp import SolveRequest, solve_semi_infinite
from .polynomials import (DegreeDistribution, Polynomial, bernstein_quotient_sum,
                          poly_from_edge_coeffs, rate_and_gap)
from .sos import EIG_TOL, MATCHING_TOL, build_sos_problem, check_certificate, solve_sdp
from .svgplot import NoPlottableRows, emit_svg_plot

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2


def _add_solve_flags(p: argparse.ArgumentParser, with_alpha: bool = True):
    p.add_argument("--rho", help="check-side polynomial, e.g. x^3 or 4:0.5,5:0.5")
    p.add_argument("--epsilon", type=float, help="channel erasure probability")
    p.add_argument("--dv-max", type=int, help="maximum variable-node degree")
    if with_alpha:
        p.add_argument("--alpha", type=float, help="convergence factor in (0, 1]")
    p.add_argument("--config", help="config file supplying defaults for flags")


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _solve_request(args) -> SolveRequest:
    cfg = _load_config(args.config) if args.config else None
    rho_spec = args.rho
    rho_coeffs = parse_degree_poly(rho_spec) if rho_spec else (
        cfg.rho_coeffs if cfg else None)
    epsilon = args.epsilon if args.epsilon is not None else (
        cfg.epsilon if cfg else None)
    dv = args.dv_max if args.dv_max is not None else (cfg.dv_max if cfg else None)
    alpha = getattr(args, "alpha", None)
    if alpha is None and cfg and len(cfg.alpha_values) == 1:
        alpha = cfg.alpha_values[0]
    for name, val in (("rho", rho_coeffs), ("epsilon", epsilon),
                      ("dv-max", dv), ("alpha", alpha)):
        if val is None:
            raise ConfigError(f"missing required value for {name}")
    return SolveRequest(rho=poly_from_edge_coeffs(rho_coeffs),
                        epsilon=epsilon, alpha=alpha, d_v=dv)


def _print_solution(lam: dict, rho: Polynomial, epsilon: float, alpha: float):
    rate, gap = rate_and_gap(lam, rho, epsilon)
    margin = certify.min_normalized_slack(lam, rho, epsilon, alpha)
    for i in sorted(lam):
        print(f"lambda_{i} = {lam[i]:.12g}")
    print(f"rate = {rate:.12g}")
    print(f"gap = {gap:.12g}")
    print(f"min_slack = {margin.min_slack:.12g} at x = {margin.argmin_x:.12g}")
    print(f"feasible = {margin.feasible}")


def cmd_optimize(args) -> int:
    req = _solve_request(args)
    reason = None
    if args.solver == "sdp":
        sol, _ = solve_sdp(build_sos_problem(req))
        status, lam, reason = sol.status, sol.lambda_coeffs, sol.reason
    else:
        res = solve_semi_infinite(req)
        status, lam = res.status, res.lambda_coeffs
    if status != "optimal":
        print(f"status = {status}")
        if reason:
            print(f"reason = {reason}")
        return EXIT_INFEASIBLE
    print(f"status = optimal ({args.solver})")
    _print_solution(lam, req.rho, req.epsilon, req.alpha)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if args.rho:
        cfg.rho_coeffs = parse_degree_poly(args.rho)
    if args.epsilon is not None:
        cfg.epsilon = args.epsilon
    if args.dv_max is not None:
        cfg.dv_max = args.dv_max
    if args.alpha:
        cfg.alpha_values = parse_alpha_values(args.alpha)
    if args.solver:
        cfg.solver = args.solver
    if args.out_csv:
        cfg.out_csv = args.out_csv
    if args.out_svg:
        cfg.out_svg = args.out_svg

    rows = run_sweep(cfg)
    emit_csv(rows, cfg.out_csv, cfg.dv_max)
    stem, ext = os.path.splitext(cfg.out_svg)
    try:
        emit_svg_plot(rows, "rate", cfg.out_svg)
        emit_svg_plot(rows, "gap", f"{stem}_gap{ext or '.svg'}")
    except NoPlottableRows:
        print("no feasible rows to plot", file=sys.stderr)
        return EXIT_INFEASIBLE
    n_ok = sum(1 for r in rows if r.status == "optimal")
    print(f"wrote {len(rows)} rows ({n_ok} optimal) to {cfg.out_csv}")
    return EXIT_OK


def _distribution(args) -> DegreeDistribution:
    lam = parse_degree_poly(args.lam)
    rho = parse_degree_poly(args.rho)
    return DegreeDistribution(lam, rho)


def cmd_simulate(args) -> int:
    dist = _distribution(args)
    trace = de_trace(dist, args.epsilon, target=args.target)
    lines = ["iteration,y"]
    lines.extend(f"{k},{y:.12g}" for k, y in enumerate(trace.values))
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(f"converged = {trace.converged}", file=sys.stderr)
    return EXIT_OK if trace.converged else EXIT_INFEASIBLE


def cmd_threshold(args) -> int:
    dist = _distribution(args)
    result = de_threshold(dist, args.tol)
    print(f"threshold = {result.threshold:.12g}")
    print(f"bracket_width = {result.bracket_width:.12g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    lam = parse_degree_poly(args.lam)
    rho = poly_from_edge_coeffs(parse_degree_poly(args.rho))
    margin = certify.min_normalized_slack(lam, rho, args.epsilon, args.alpha)
    print(f"min_slack = {margin.min_slack:.12g} at x = {margin.argmin_x:.12g}")
    print(f"endpoint_slack = {margin.endpoint_slack:.12g}")
    print(f"feasible = {margin.feasible}")
    return EXIT_OK if margin.feasible else EXIT_INFEASIBLE


def cmd_certify_sos(args) -> int:
    req = _solve_request(args)
    prob = build_sos_problem(req)
    sol, cert = solve_sdp(prob)
    if sol.status != "optimal" or cert is None:
        print(f"status = {sol.status}")
        print(f"reason = {sol.reason}")
        return EXIT_INFEASIBLE
    # Independent recheck: rebuild q from the returned lambda in Bernstein
    # coefficients, apart from the solver's node rows, and bound its
    # deviation from the Gram side on all of [0, 1].
    q = prob.alpha - bernstein_quotient_sum(sol.lambda_coeffs, prob.rho, prob.epsilon)
    residual = check_certificate(q, cert)
    print(f"status = optimal")
    print(f"objective = {sol.objective:.12g}")
    print(f"matching_residual = {residual:.3e}")
    print(f"min_eigenvalue = {cert.min_eigenvalue:.3e}")
    ok = residual <= MATCHING_TOL and cert.min_eigenvalue >= -EIG_TOL
    print(f"certificate_valid = {ok}")
    return EXIT_OK if ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpcdesign",
        description="Optimal-rate LDPC degree distributions on the BEC under "
                    "a fast-convergence density-evolution constraint")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="one solve; prints lambda, rate, gap, margin")
    _add_solve_flags(p)
    p.add_argument("--solver", choices=("lp", "sdp"), default="lp")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="alpha sweep; writes CSV and SVG plots")
    p.add_argument("config", help="experiment config file")
    p.add_argument("--rho")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dv-max", type=int)
    p.add_argument("--alpha", help="overrides the config alpha list/range")
    p.add_argument("--solver", choices=("lp", "sdp", "both"))
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")
    p.set_defaults(func=cmd_sweep, config_flag=False)

    p = sub.add_parser("simulate", help="DE trace for a given lambda, rho, epsilon")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--target", type=float, default=1e-6)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold", help="decoding threshold in closed form by branch and bound")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("verify", help="certify a user-supplied lambda at a given alpha")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_verify)

    text = ("SDP solve plus independent certificate recheck; the matching "
            "residual bounds the deviation of the sum of squares from the slack "
            "on [0, 1]: its largest deviation at the m + 1 Chebyshev nodes times "
            "the Lebesgue-constant bound (2/pi) ln(m + 1) + 1")
    p = sub.add_parser("certify-sos", help=text, description=text)
    _add_solve_flags(p)
    p.set_defaults(func=cmd_certify_sos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input; surface that as our input-error code.
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
