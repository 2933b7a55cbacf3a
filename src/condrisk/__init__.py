"""Conditional risk-ratio measures for longitudinal binary outcomes.

Implements risk ratios conditioned on an earlier outcome (with log-scale
Wald intervals), exact coverage-probability computation for those
intervals by full table enumeration, a Monte-Carlo cross-check, a
population-level comparison sweep, and a dataset analysis pipeline, all
behind one CLI (`condrisk`).
"""

from ._version import __version__
from .binomial import binom_log_pmf
from .compare import CompareRecord, compare_grid, compare_point, write_compare_csv
from .coverage import (
    CoverageResult,
    GridRecord,
    GridSpec,
    Scenario,
    exact_coverage,
    paper_grid,
    parse_grid_file,
    run_grid,
    true_conditional_risks,
    write_coverage_csv,
)
from .errors import (
    CondRiskError,
    DegenerateTableError,
    DomainError,
    ParseError,
    UndefinedCorrelationError,
    UndefinedMeasureError,
)
from .ingest import (
    AnalysisReport,
    LongitudinalDataset,
    Subject,
    VisitPairAnalysis,
    analyze,
    build_conditional_tables,
    parse_dataset,
    parse_long_dataset,
    write_report_files,
)
from .mc import (
    CohortSpec,
    MCCoverage,
    equal_marginal_spec,
    mc_coverage,
    oracle_record,
    simulate_cohort,
    write_oracle_csv,
)
from .measures import (
    RiskRatioEstimate,
    StratifiedTables,
    StratumTable,
    phi_correlations,
    plug_in_rr0,
    plug_in_rr1,
    rr0_estimate,
    rr1_estimate,
    rr_crude,
    stratum_rr_estimate,
    z_quantile,
)
from .model import (
    BernoulliPairParams,
    cond_prob_given0,
    cond_prob_given1,
    joint_prob_11,
    rho_bounds,
)

__all__ = [
    "__version__",
    "binom_log_pmf",
    "CompareRecord", "compare_grid", "compare_point", "write_compare_csv",
    "CoverageResult", "GridRecord", "GridSpec", "Scenario",
    "exact_coverage", "paper_grid", "parse_grid_file", "run_grid",
    "true_conditional_risks", "write_coverage_csv",
    "CondRiskError", "DegenerateTableError", "DomainError",
    "ParseError", "UndefinedCorrelationError", "UndefinedMeasureError",
    "AnalysisReport", "LongitudinalDataset", "Subject", "VisitPairAnalysis",
    "analyze", "build_conditional_tables", "parse_dataset",
    "parse_long_dataset", "write_report_files",
    "CohortSpec", "MCCoverage", "equal_marginal_spec", "mc_coverage",
    "oracle_record", "simulate_cohort", "write_oracle_csv",
    "RiskRatioEstimate", "StratifiedTables", "StratumTable",
    "phi_correlations", "plug_in_rr0", "plug_in_rr1",
    "rr0_estimate", "rr1_estimate", "rr_crude",
    "stratum_rr_estimate", "z_quantile",
    "BernoulliPairParams", "cond_prob_given0", "cond_prob_given1",
    "joint_prob_11", "rho_bounds",
]
