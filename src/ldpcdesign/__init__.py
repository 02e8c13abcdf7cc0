"""Optimal-rate LDPC degree distributions on the BEC under a
fast-convergence density-evolution constraint."""

from .certify import MarginReport, feasibility_floor, min_normalized_slack
from .desim import DETrace, ThresholdResult, de_step, de_trace, empirical_contraction, threshold
from .experiment import ExperimentConfig, SweepRow, emit_csv, parse_config, run_sweep
from .lp import (LPStandardForm, OptimizationResult, SolveRequest, build_discretized_lp,
                 chebyshev_grid, simplex_solve, solve_semi_infinite)
from .polynomials import (ChannelSpec, DegreeDistribution, Polynomial, RateReport,
                          design_rate, poly_from_edge_coeffs, rate_and_gap, rate_report)
from .svgplot import emit_svg_plot

# The SDP path is imported on first use, so that the LP path, the DE
# simulator and the threshold do not load it.
_SOS_NAMES = ("SDPSolution", "SOSCertificate", "SOSProblem", "build_sos_problem",
              "check_certificate", "certificate_min_eigenvalue", "solve_sdp", "solve_sdps")


def __getattr__(name):
    if name in _SOS_NAMES:
        from . import sos
        return getattr(sos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MarginReport", "feasibility_floor", "min_normalized_slack",
    "DETrace", "ThresholdResult", "de_step", "de_trace", "empirical_contraction", "threshold",
    "ExperimentConfig", "SweepRow", "emit_csv", "parse_config", "run_sweep",
    "LPStandardForm", "OptimizationResult", "SolveRequest", "build_discretized_lp",
    "chebyshev_grid", "simplex_solve", "solve_semi_infinite",
    "ChannelSpec", "DegreeDistribution", "Polynomial", "RateReport",
    "design_rate", "poly_from_edge_coeffs", "rate_and_gap", "rate_report",
    *_SOS_NAMES,
    "emit_svg_plot",
]
