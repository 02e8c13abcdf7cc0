"""Optimal-rate LDPC degree distributions on the BEC under a
fast-convergence density-evolution constraint.

The package exports the entry points a user calls: the two solvers, the
certifiers, the rate and DE analysis, and the sweep with its outputs.  The
result and problem types stay importable from their modules
(``ldpcdesign.lp.OptimizationResult``, ``ldpcdesign.experiment.SweepRow``,
...)."""

from .certify import feasibility_floor, min_normalized_slack
from .desim import de_trace, empirical_contraction, threshold
from .experiment import emit_csv, parse_config, run_sweep
from .lp import SolveRequest, solve_semi_infinite
from .polynomials import DegreeDistribution, poly_from_edge_coeffs, rate_and_gap
from .svgplot import emit_svg_plot

# The SDP path is imported on first use, so that the LP path, the DE
# simulator and the threshold do not load it.
_SOS_NAMES = ("build_sos_problem", "solve_sdp", "solve_sdps", "check_certificate")


def __getattr__(name):
    if name in _SOS_NAMES:
        from . import sos
        return getattr(sos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SolveRequest", "solve_semi_infinite",
    *_SOS_NAMES,
    "feasibility_floor", "min_normalized_slack",
    "DegreeDistribution", "poly_from_edge_coeffs", "rate_and_gap",
    "de_trace", "threshold", "empirical_contraction",
    "parse_config", "run_sweep", "emit_csv", "emit_svg_plot",
]
