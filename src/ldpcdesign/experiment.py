"""Experiment configuration, the alpha sweep, and CSV emission.

A config is a set of ``key = value`` lines.  ``KEYS`` names every key with
the parser of its value text and its default; ``parse_config`` runs each
value through that parser, whether it came from a file line or from a CLI
flag (``--dv-max 8`` is the text of the line ``dv_max = 8``, and replaces
it).  The sweep solves every alpha with each solver (one LP solve per
alpha, one lockstep SDP solve over all of them), certifies each answer,
measures its DE trace, and emits deterministic CSV rows.  A ``SweepRow`` is
the one record of a solve: the CLI's ``optimize`` is a sweep over its one
alpha and prints that row, so its figures and the CSV's come from the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import certify
from .desim import de_trace
from .lp import SolveRequest, solve_semi_infinite
from .polynomials import DegreeDistribution, poly_from_edge_coeffs, rate_and_gap

SOLVERS = ("lp", "sdp")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    rho_coeffs: dict
    epsilon: float
    dv_max: int
    alpha_values: tuple
    solver: str = "both"
    target: float = 1e-6
    out_csv: str = "sweep.csv"
    out_svg: str = "sweep.svg"

    def solvers(self) -> tuple:
        return SOLVERS if self.solver == "both" else (self.solver,)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    solver: str
    status: str
    rate: float | None
    gap: float | None
    margin: certify.MarginReport | None
    iters: int | None  # DE iterations to the target
    lambdas: tuple  # lambda_2..lambda_dv_max, zeros included
    reason: str | None = None  # the SDP's stop (SDPSolution.reason); the LP has none


def parse_degree_poly(spec: str) -> dict:
    """Edge-perspective degree map from 'x^k' shorthand or 'j:coeff,...'."""
    spec = spec.strip()
    if spec.startswith("x"):
        if spec == "x":
            return {2: 1.0}
        if not spec.startswith("x^"):
            raise ConfigError(f"bad monomial spec {spec!r}")
        power = int(spec[2:])
        if power < 1:
            raise ConfigError(f"monomial power must be >= 1 in {spec!r}")
        return {power + 1: 1.0}
    coeffs = {}
    for part in spec.split(","):
        if ":" not in part:
            raise ConfigError(f"bad coefficient entry {part!r}")
        deg_s, coeff_s = part.split(":", 1)
        deg = int(deg_s)
        if deg in coeffs:
            raise ConfigError(f"duplicate degree {deg}")
        coeffs[deg] = float(coeff_s)
    # Both checks are written so that a NaN fails them.
    total = sum(coeffs.values())
    if not abs(total - 1.0) <= 1e-12:
        raise ConfigError(f"coefficients sum to {total}, not 1")
    if not all(c >= 0.0 for c in coeffs.values()):
        raise ConfigError("coefficients must be nonnegative")
    if any(d < 2 for d in coeffs):
        raise ConfigError("degrees must be >= 2")
    return coeffs


def parse_alpha_values(spec: str) -> tuple:
    """Alpha list from 'start:step:stop', a comma list, or a single value."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"alpha range must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError("alpha range step must be positive")
        count = int(round((stop - start) / step)) + 1
        values = tuple(start + k * step for k in range(count)
                       if start + k * step <= stop + 1e-12)
    else:
        values = tuple(float(p) for p in spec.split(","))
    if not values:
        raise ConfigError("empty alpha list")
    for a in values:
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"alpha {a} outside (0, 1]")
    return values


def _in_open_unit(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{value} outside (0, 1)")
    return value


def _dv_max(text: str) -> int:
    d_v = int(text)
    if d_v < 2:
        raise ConfigError(f"{d_v} must be >= 2")
    return d_v


def _solver(text: str) -> str:
    if text not in ("lp", "sdp", "both"):
        raise ConfigError(f"{text!r} not one of lp, sdp, both")
    return text


# key -> (parser of its text, default text or None if required), in the
# order of the ExperimentConfig fields.
KEYS = {
    "rho": (parse_degree_poly, None),
    "epsilon": (_in_open_unit, None),
    "dv_max": (_dv_max, None),
    "alpha": (parse_alpha_values, "0.2:0.1:1.0"),
    "solver": (_solver, "both"),
    "target": (_in_open_unit, "1e-6"),
    "out_csv": (str, "sweep.csv"),
    "out_svg": (str, "sweep.svg"),
}


def parse_config(text: str, flags: dict | None = None) -> ExperimentConfig:
    """The config of ``key = value`` lines in ``text``, where ``flags``
    (key -> value text) replaces the file's line for its key.  Every key,
    from either source, goes through its parser in ``KEYS``."""
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = value
    lines.update(flags or {})

    values = []
    for key, (parse, default) in KEYS.items():
        value = lines.get(key, default)
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        try:
            values.append(parse(value))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return ExperimentConfig(*values)


def _row(cfg: ExperimentConfig, req: SolveRequest, solver: str, status: str,
         lam: dict, reason: str | None = None) -> SweepRow:
    """The sweep row of one solve: certified, measured on the DE trace."""
    if status != "optimal" or not lam:
        return SweepRow(alpha=req.alpha, solver=solver, status=status, rate=None,
                        gap=None, margin=None, iters=None, lambdas=(), reason=reason)

    margin = certify.min_normalized_slack(lam, req.rho, cfg.epsilon, req.alpha)
    rate, gap = rate_and_gap(lam, req.rho, cfg.epsilon)
    dist = DegreeDistribution(lam, cfg.rho_coeffs)
    trace = de_trace(dist, cfg.epsilon, target=cfg.target)
    lambdas = tuple(lam.get(i, 0.0) for i in range(2, cfg.dv_max + 1))
    return SweepRow(alpha=req.alpha, solver=solver, status=status, rate=rate,
                    gap=gap, margin=margin, iters=trace.iterations_to_target,
                    lambdas=lambdas, reason=reason)


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """One row per (alpha, solver) pair, sorted by alpha then solver.  The
    LP rows are one ``solve_semi_infinite`` per alpha; the SDP rows are one
    lockstep ``solve_sdps`` over every alpha, which share rho, epsilon and
    d_v.  Infeasible alphas produce flagged rows rather than aborting the
    sweep."""
    rho = poly_from_edge_coeffs(cfg.rho_coeffs)
    reqs = [SolveRequest(rho=rho, epsilon=cfg.epsilon, alpha=alpha, d_v=cfg.dv_max)
            for alpha in cfg.alpha_values]
    rows = []
    if "lp" in cfg.solvers():
        for req in reqs:
            res = solve_semi_infinite(req)
            rows.append(_row(cfg, req, "lp", res.status, res.lambda_coeffs))
    if "sdp" in cfg.solvers() and reqs:
        from .sos import build_sos_problem, solve_sdps
        # The problems differ only in alpha: one build, its rows shared.
        prob = build_sos_problem(reqs[0])
        sols = solve_sdps([replace(prob, alpha=req.alpha) for req in reqs])
        rows += [_row(cfg, req, "sdp", sol.status, sol.lambda_coeffs, sol.reason)
                 for req, (sol, _) in zip(reqs, sols)]
    rows.sort(key=lambda r: (r.alpha, r.solver))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_header(d_v: int) -> str:
    lam_cols = ",".join(f"lambda_{i}" for i in range(2, d_v + 1))
    return f"alpha,solver,status,rate,gap,min_slack,iters,{lam_cols}"


def emit_csv(rows, path, d_v: int) -> None:
    """Deterministic CSV: 12 significant digits, byte-identical re-runs."""
    lines = [csv_header(d_v)]
    for r in rows:
        lambdas = list(r.lambdas) + [None] * (d_v - 1 - len(r.lambdas))
        min_slack = r.margin.min_slack if r.margin else None
        cells = [_fmt(r.alpha), r.solver, r.status, _fmt(r.rate), _fmt(r.gap),
                 _fmt(min_slack), _fmt(r.iters)] + [_fmt(v) for v in lambdas]
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
