"""Command-line front end.

Subcommands: optimize, sweep, simulate, threshold, verify, certify-sos.
Exit codes: 0 success, 1 infeasible, 2 input error.  ``optimize`` is a
sweep over its one alpha (``experiment.run_sweep``) and prints that row.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import certify
from .desim import de_trace, threshold as de_threshold
from .experiment import (ConfigError, ExperimentConfig, emit_csv, parse_config,
                         parse_degree_poly, run_sweep)
from .lp import SolveRequest
from .polynomials import DegreeDistribution, bernstein_quotient_sum, poly_from_edge_coeffs
from .svgplot import NoPlottableRows, emit_svg_plot

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2


# The config keys each command takes as flags; ``--dv-max 8`` replaces the
# config's ``dv_max = 8`` line, and goes through the same check.
SOLVE_KEYS = ("rho", "epsilon", "dv_max", "alpha")
SWEEP_KEYS = SOLVE_KEYS + ("solver", "out_csv", "out_svg")


def _add_key_flags(p: argparse.ArgumentParser, keys):
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), metavar="TEXT",
                       help=f"replaces the config's '{key} = TEXT' line")


def _config(args, keys) -> ExperimentConfig:
    """The config file, if one was given, with the set flags of ``keys``
    replacing its lines."""
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return parse_config(text, flags)


def _one_alpha(cfg: ExperimentConfig) -> ExperimentConfig:
    if len(cfg.alpha_values) != 1:
        raise ConfigError(f"alpha: one value needed, got {len(cfg.alpha_values)}")
    return cfg


def _solve_request(args) -> SolveRequest:
    cfg = _one_alpha(_config(args, SOLVE_KEYS))
    return SolveRequest(rho=poly_from_edge_coeffs(cfg.rho_coeffs), epsilon=cfg.epsilon,
                        alpha=cfg.alpha_values[0], d_v=cfg.dv_max)


def cmd_optimize(args) -> int:
    cfg = _one_alpha(replace(_config(args, SOLVE_KEYS), solver=args.solver))
    (row,) = run_sweep(cfg)
    if row.status != "optimal":
        print(f"status = {row.status}")
        if row.reason:
            print(f"reason = {row.reason}")
        return EXIT_INFEASIBLE
    print(f"status = optimal ({row.solver})")
    for i, value in enumerate(row.lambdas, start=2):
        if value:
            print(f"lambda_{i} = {value:.12g}")
    print(f"rate = {row.rate:.12g}")
    print(f"gap = {row.gap:.12g}")
    margin = row.margin
    print(f"min_slack = {margin.min_slack:.12g} at x = {margin.argmin_x:.12g}")
    print(f"feasible = {margin.feasible}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config(args, SWEEP_KEYS)
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
    from .sos import EIG_TOL, MATCHING_TOL, build_sos_problem, check_certificate, solve_sdp
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
    p.add_argument("--config", help="config file; a flag replaces its line")
    _add_key_flags(p, SOLVE_KEYS)
    p.add_argument("--solver", choices=("lp", "sdp"), default="lp")
    p.set_defaults(func=cmd_optimize)

    text = ("alpha sweep; writes CSV and SVG plots.  Each flag is a config "
            "key (--dv-max for dv_max): its text replaces the file's line and "
            "is checked as that line is")
    p = sub.add_parser("sweep", help="alpha sweep; writes CSV and SVG plots",
                       description=text)
    p.add_argument("config", help="experiment config file")
    _add_key_flags(p, SWEEP_KEYS)
    p.set_defaults(func=cmd_sweep)

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
    p.add_argument("--config", help="config file; a flag replaces its line")
    _add_key_flags(p, SOLVE_KEYS)
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
