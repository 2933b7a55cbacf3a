"""Conditional risk-ratio measures for longitudinal binary outcomes.

Implements risk ratios conditioned on an earlier outcome (with log-scale
Wald intervals), exact coverage-probability computation for those
intervals by full table enumeration, a Monte-Carlo cross-check, a
population-level comparison sweep, and a dataset analysis pipeline, all
behind one CLI (`condrisk`).

Names are imported from their submodules on first use (PEP 562), so
`import condrisk` alone loads no NumPy.
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "binomial": ("binom_log_pmf",),
    "compare": ("CompareRecord", "compare_grid", "compare_point", "write_compare_csv"),
    "coverage": (
        "CoverageResult", "GridRecord", "GridSpec", "Scenario",
        "exact_coverage", "paper_grid", "parse_grid_file", "run_grid",
        "true_conditional_risks", "write_coverage_csv",
    ),
    "errors": (
        "CondRiskError", "DegenerateTableError", "DomainError",
        "ParseError", "UndefinedCorrelationError", "UndefinedMeasureError",
    ),
    "ingest": (
        "AnalysisReport", "LongitudinalDataset", "Subject", "VisitPairAnalysis",
        "analyze", "build_conditional_tables", "parse_dataset",
        "parse_long_dataset", "write_report_files",
    ),
    "mc": (
        "CohortSpec", "MCCoverage", "equal_marginal_spec", "mc_coverage",
        "oracle_record", "simulate_cohort", "write_oracle_csv",
    ),
    "measures": (
        "RiskRatioEstimate", "StratifiedTables", "StratumTable",
        "phi_correlations", "plug_in_rr0", "plug_in_rr1",
        "rr0_estimate", "rr1_estimate", "rr_crude",
        "stratum_rr_estimate", "z_quantile",
    ),
    "model": (
        "BernoulliPairParams", "rho_bounds", "stratum_risk", "stratum_risks",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    """A public name or submodule, imported on first use."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
