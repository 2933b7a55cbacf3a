"""Risk-ratio estimators on stratified 2x2 tables.

Observed data for a visit pair (j, k) are two exposure-by-outcome tables
at time j: one over subjects whose outcome at the earlier time k was 1,
one over those with 0.  The crude risk ratio ignores the stratification;
the conditional ratios are the time-j risk ratios within each stratum.
All confidence intervals are the usual log-scale normal-approximation
(log-Wald) intervals, symmetric on the log scale by construction, and
all of them come from log_wald_bounds.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

from .errors import DegenerateTableError, DomainError, UndefinedCorrelationError
from .model import BernoulliPairParams, stratum_risks


@dataclass(frozen=True)
class StratumTable:
    """One 2x2 exposure-by-outcome table.

    a/b: exposed with/without the outcome, c/d: non-exposed likewise.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise DegenerateTableError(f"count {name} must be a nonnegative integer, got {v!r}")

    @property
    def n_exposed(self) -> int:
        return self.a + self.b

    @property
    def n_unexposed(self) -> int:
        return self.c + self.d


@dataclass(frozen=True)
class StratifiedTables:
    """The pair of stratum tables for one visit pair: earlier outcome 1 / 0."""

    stratum1: StratumTable
    stratum0: StratumTable

    @property
    def n_exposed(self) -> int:
        return self.stratum1.n_exposed + self.stratum0.n_exposed

    @property
    def n_unexposed(self) -> int:
        return self.stratum1.n_unexposed + self.stratum0.n_unexposed


@dataclass(frozen=True)
class RiskRatioEstimate:
    """Point estimate with its log-scale SE and CI.

    ci bounds are point * exp(-+ z * log_se) where z is the standard
    normal quantile at 1 - alpha/2.
    """

    point: float
    log_se: float
    ci_lower: float
    ci_upper: float
    level: float


@lru_cache(maxsize=None)
def z_quantile(level: float) -> float:
    """Standard normal quantile at 1 - alpha/2 for a two-sided CI."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level!r}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def log_wald_bounds(a, n_e, c, n_ne, z, xp=math):
    """Log-Wald (Katz) interval of the risk ratio (a/n_e) / (c/n_ne).

    Returns (point, log_se, lower, upper), where lower and upper are
    point * exp(-+ z * log_se) (Katz et al., Biometrics 34 (1978) 469-474).
    The elementary functions come from xp: with math the arguments are
    scalars and the results Python floats; with numpy the counts may be
    arrays and everything broadcasts.  This is the only place the interval
    is written out: the estimators and the exact coverage kernel all call
    it, so an estimate and the coverage enumeration cannot disagree on
    what the interval is.
    """
    risk_e = a / n_e
    risk_ne = c / n_ne
    point = risk_e / risk_ne
    log_se = xp.sqrt((1.0 - risk_e) / (n_e * risk_e) + (1.0 - risk_ne) / (n_ne * risk_ne))
    half = z * log_se
    return point, log_se, point * xp.exp(-half), point * xp.exp(half)


def _estimate(a: int, n_e: int, c: int, n_ne: int, level: float, what: str) -> RiskRatioEstimate:
    if n_e < 1 or n_ne < 1:
        raise DegenerateTableError(f"empty exposure row in {what} table")
    if a < 1 or c < 1:
        raise DegenerateTableError(
            f"zero outcome count (a={a}, c={c}): estimate or its log undefined"
        )
    point, log_se, lower, upper = log_wald_bounds(a, n_e, c, n_ne, z_quantile(level))
    return RiskRatioEstimate(point, log_se, lower, upper, level)


def stratum_rr_estimate(a: int, n_e: int, c: int, n_ne: int, level: float = 0.95) -> RiskRatioEstimate:
    """Risk ratio (a/n_e) / (c/n_ne) with the log-scale Wald CI.

    This is the shared arithmetic behind rr1_estimate and rr0_estimate;
    the interval itself is log_wald_bounds.
    """
    return _estimate(a, n_e, c, n_ne, level, "stratum")


def rr_crude(table: StratumTable, level: float = 0.95) -> RiskRatioEstimate:
    """Crude risk ratio of a cohort 2x2 table with its log-scale Wald CI."""
    return _estimate(table.a, table.n_exposed, table.c, table.n_unexposed, level, "cohort")


def rr1_estimate(tables: StratifiedTables, level: float = 0.95) -> RiskRatioEstimate:
    """Conditional risk ratio among subjects with the earlier outcome = 1."""
    t = tables.stratum1
    return stratum_rr_estimate(t.a, t.n_exposed, t.c, t.n_unexposed, level)


def rr0_estimate(tables: StratifiedTables, level: float = 0.95) -> RiskRatioEstimate:
    """Conditional risk ratio among subjects with the earlier outcome = 0."""
    t = tables.stratum0
    return stratum_rr_estimate(t.a, t.n_exposed, t.c, t.n_unexposed, level)


def _phi(x1: int, y1: int, x0: int, y0: int) -> float:
    """Phi coefficient of the 2x2 table [[x1, y1], [x0, y0]].

    Rows are the earlier outcome (1 then 0), columns the later outcome
    (1 then 0).  Equals the Pearson correlation of the paired binary
    observations.
    """
    n1 = x1 + y1
    n0 = x0 + y0
    col_yes = x1 + x0
    col_no = y1 + y0
    if n1 == 0 or n0 == 0 or col_yes == 0 or col_no == 0:
        raise UndefinedCorrelationError(
            "zero margin: within-subject correlation undefined"
        )
    num = x1 * n0 - x0 * n1  # == x1*y0 - x0*y1
    return num / math.sqrt(float(n1) * n0 * col_yes * col_no)


def phi_correlations(
    tables: StratifiedTables, paper_literal: bool = False
) -> tuple[float, float]:
    """Within-subject outcome correlations (exposed, non-exposed).

    Each is the phi coefficient of that group's earlier-by-later outcome
    table.  paper_literal=True reproduces, for audit, the published form
    of the non-exposed denominator, which mixes in the exposed group's
    no-outcome column margin (b1+b0) instead of (d1+d0).
    """
    s1, s0 = tables.stratum1, tables.stratum0
    rho_e = _phi(s1.a, s1.b, s0.a, s0.b)
    if paper_literal:
        n1, n0 = s1.n_unexposed, s0.n_unexposed
        col_yes = s1.c + s0.c
        wrong_col = s1.b + s0.b
        if n1 == 0 or n0 == 0 or col_yes == 0 or wrong_col == 0:
            raise UndefinedCorrelationError(
                "zero margin: within-subject correlation undefined"
            )
        num = s1.c * n0 - s0.c * n1
        rho_ne = num / math.sqrt(float(n1) * n0 * col_yes * wrong_col)
    else:
        rho_ne = _phi(s1.c, s1.d, s0.c, s0.d)
    return rho_e, rho_ne


def _plug_in_rr(stratum, pi_j_e, pi_k_e, rho_e, pi_j_ne, pi_k_ne, rho_ne) -> float:
    params_e = BernoulliPairParams(pi_j_e, pi_k_e, rho_e)
    params_ne = BernoulliPairParams(pi_j_ne, pi_k_ne, rho_ne)
    return stratum_risks(params_e, params_ne, stratum)[2]


def plug_in_rr1(
    pi_j_e: float,
    pi_k_e: float,
    rho_e: float,
    pi_j_ne: float,
    pi_k_ne: float,
    rho_ne: float,
) -> float:
    """Population risk ratio at j among subjects with the earlier outcome = 1."""
    return _plug_in_rr(1, pi_j_e, pi_k_e, rho_e, pi_j_ne, pi_k_ne, rho_ne)


def plug_in_rr0(
    pi_j_e: float,
    pi_k_e: float,
    rho_e: float,
    pi_j_ne: float,
    pi_k_ne: float,
    rho_ne: float,
) -> float:
    """Population risk ratio at j among subjects with the earlier outcome = 0."""
    return _plug_in_rr(0, pi_j_e, pi_k_e, rho_e, pi_j_ne, pi_k_ne, rho_ne)
