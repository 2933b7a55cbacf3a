"""Monte-Carlo cross-validation of the exact coverage engine.

Simulates correlated binary cohorts and estimates CI coverage by
replication.  Two margin models: fixed_margin draws the stratum outcome
counts directly from the binomials the exact engine enumerates; cohort
draws full per-subject histories, so the stratum margins are random,
which is the sampling design the exact engine cannot enumerate.

Reproducibility discipline (bit-exact, platform-independent): streams
come from the counter-based Philox generator, one independent substream
per replication with 128-bit key (seed << 64) | rep.  Within one
replication the exposed group is drawn first; in cohort mode each group
consumes two uniform vectors of length n (earlier outcomes, then later
outcomes given earlier).  Counts are order-independent, so any
parallel schedule yields identical estimates.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import DomainError, UndefinedMeasureError
from .measures import StratifiedTables, StratumTable, stratum_rr_estimate
from .model import BernoulliPairParams, cond_prob_given0, cond_prob_given1

ORACLE_CSV_HEADER = (
    "n_E,n_nonE,pi_E,pi_nonE,rho_E,rho_nonE,stratum,level,"
    "margin_model,reps,seed,estimate,std_error,estimate_normalized"
)

MARGIN_MODELS = ("fixed_margin", "cohort")


@dataclass(frozen=True)
class CohortSpec:
    """Simulation input: group sizes, group parameters, seed, replications."""

    n_e: int
    n_ne: int
    params_e: BernoulliPairParams
    params_ne: BernoulliPairParams
    seed: int
    reps: int

    def __post_init__(self):
        for name in ("n_e", "n_ne"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.reps, int) or isinstance(self.reps, bool) or self.reps < 1:
            raise DomainError(f"reps must be a positive integer, got {self.reps!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def equal_marginal_spec(
    n_e: int, n_ne: int,
    pi_e: float, pi_ne: float, rho_e: float, rho_ne: float,
    seed: int, reps: int,
) -> CohortSpec:
    """CohortSpec for the coverage-study design: one marginal per group."""
    return CohortSpec(
        n_e=n_e,
        n_ne=n_ne,
        params_e=BernoulliPairParams(pi_e, pi_e, rho_e),
        params_ne=BernoulliPairParams(pi_ne, pi_ne, rho_ne),
        seed=seed,
        reps=reps,
    )


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent substream for one replication."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | rep))


def _draw_group(rng: np.random.Generator, n: int, params: BernoulliPairParams):
    """Per-subject (earlier, later) outcomes: earlier first, then conditional."""
    p_given1 = cond_prob_given1(params)
    p_given0 = cond_prob_given0(params)
    y_earlier = rng.random(n) < params.pi_k
    p_later = np.where(y_earlier, p_given1, p_given0)
    y_later = rng.random(n) < p_later
    n11 = int(np.count_nonzero(y_earlier & y_later))
    n10 = int(np.count_nonzero(y_earlier & ~y_later))
    n01 = int(np.count_nonzero(~y_earlier & y_later))
    n00 = n - n11 - n10 - n01
    return n11, n10, n01, n00


def simulate_cohort(spec: CohortSpec, rep: int = 0) -> StratifiedTables:
    """Draw one replication of the two cohorts and stratify by the earlier outcome."""
    rng = _rep_rng(spec.seed, rep)
    e11, e10, e01, e00 = _draw_group(rng, spec.n_e, spec.params_e)
    u11, u10, u01, u00 = _draw_group(rng, spec.n_ne, spec.params_ne)
    return StratifiedTables(
        stratum1=StratumTable(a=e11, b=e10, c=u11, d=u10),
        stratum0=StratumTable(a=e01, b=e00, c=u01, d=u00),
    )


def _stratum_true_risks(spec: CohortSpec, stratum: int) -> tuple[float, float, float]:
    if stratum == 1:
        p_e = cond_prob_given1(spec.params_e)
        p_ne = cond_prob_given1(spec.params_ne)
    elif stratum == 0:
        p_e = cond_prob_given0(spec.params_e)
        p_ne = cond_prob_given0(spec.params_ne)
    else:
        raise DomainError(f"stratum must be 0 or 1, got {stratum!r}")
    if p_ne <= 0.0:
        raise UndefinedMeasureError("non-exposed stratum risk is zero: true ratio undefined")
    return p_e, p_ne, p_e / p_ne


def _covers(a: int, n_e: int, c: int, n_ne: int, level: float, true_rr: float) -> bool:
    est = stratum_rr_estimate(a, n_e, c, n_ne, level)
    return est.ci_lower <= true_rr <= est.ci_upper


def _count_reps(spec: CohortSpec, stratum: int, level: float, margin_model: str,
                rep_lo: int, rep_hi: int) -> tuple[int, int]:
    """(covered, nondegenerate) counts over replications [rep_lo, rep_hi)."""
    p_e, p_ne, true_rr = _stratum_true_risks(spec, stratum)
    covered = 0
    nondegenerate = 0
    for rep in range(rep_lo, rep_hi):
        if margin_model == "fixed_margin":
            rng = _rep_rng(spec.seed, rep)
            n_e, n_ne = spec.n_e, spec.n_ne
            a = int(rng.binomial(n_e, p_e))
            c = int(rng.binomial(n_ne, p_ne))
        else:
            tables = simulate_cohort(spec, rep)
            t = tables.stratum1 if stratum == 1 else tables.stratum0
            a, c = t.a, t.c
            n_e, n_ne = t.n_exposed, t.n_unexposed
        if 1 <= a <= n_e - 1 and 1 <= c <= n_ne - 1:
            nondegenerate += 1
            if _covers(a, n_e, c, n_ne, level, true_rr):
                covered += 1
    return covered, nondegenerate


def _count_reps_args(args) -> tuple[int, int]:
    return _count_reps(*args)


@dataclass(frozen=True)
class MCCoverage:
    """Replication-based coverage estimate.

    estimate counts degenerate replications as non-covering, matching
    the exact engine's unnormalized mass; estimate_normalized divides by
    the nondegenerate count instead.
    """

    estimate: float
    std_error: float
    estimate_normalized: float
    covered: int
    nondegenerate: int
    reps: int
    true_rr: float
    margin_model: str
    stratum: int
    level: float


def mc_coverage(
    spec: CohortSpec,
    stratum: int = 1,
    level: float = 0.95,
    margin_model: str = "fixed_margin",
    threads: int = 1,
) -> MCCoverage:
    """Estimate CI coverage over spec.reps simulated replications."""
    if margin_model not in MARGIN_MODELS:
        raise DomainError(f"margin_model must be one of {MARGIN_MODELS}, got {margin_model!r}")
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level!r}")
    _, _, true_rr = _stratum_true_risks(spec, stratum)
    reps = spec.reps
    if threads <= 1 or reps < 2:
        covered, nondegenerate = _count_reps(spec, stratum, level, margin_model, 0, reps)
    else:
        bounds = [reps * i // threads for i in range(threads + 1)]
        jobs = [
            (spec, stratum, level, margin_model, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
        ]
        covered = 0
        nondegenerate = 0
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for cov, nd in pool.map(_count_reps_args, jobs):
                covered += cov
                nondegenerate += nd
    estimate = covered / reps
    std_error = math.sqrt(estimate * (1.0 - estimate) / reps)
    normalized = covered / nondegenerate if nondegenerate > 0 else math.nan
    return MCCoverage(
        estimate=estimate,
        std_error=std_error,
        estimate_normalized=normalized,
        covered=covered,
        nondegenerate=nondegenerate,
        reps=reps,
        true_rr=true_rr,
        margin_model=margin_model,
        stratum=stratum,
        level=level,
    )


@dataclass(frozen=True)
class OracleRecord:
    """One oracle CSV row: scenario identity plus the MC estimate."""

    n_e: int
    n_ne: int
    pi_e: float
    pi_ne: float
    rho_e: float
    rho_ne: float
    stratum: int
    level: float
    margin_model: str
    reps: int
    seed: int
    estimate: float
    std_error: float
    estimate_normalized: float


def oracle_record(
    n_e: int, n_ne: int,
    pi_e: float, pi_ne: float, rho_e: float, rho_ne: float,
    stratum: int, level: float, margin_model: str,
    reps: int, seed: int, threads: int = 1,
) -> OracleRecord:
    """Run the MC oracle for one equal-marginal scenario."""
    spec = equal_marginal_spec(n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne, seed, reps)
    mc = mc_coverage(spec, stratum=stratum, level=level, margin_model=margin_model, threads=threads)
    return OracleRecord(
        n_e=n_e, n_ne=n_ne, pi_e=pi_e, pi_ne=pi_ne, rho_e=rho_e, rho_ne=rho_ne,
        stratum=stratum, level=level, margin_model=margin_model,
        reps=reps, seed=seed,
        estimate=mc.estimate, std_error=mc.std_error,
        estimate_normalized=mc.estimate_normalized,
    )


def write_oracle_csv(records, out) -> None:
    """Write oracle records as CSV (12 significant digits)."""
    if hasattr(out, "write"):
        _write_oracle(records, out)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            _write_oracle(records, handle)


def _write_oracle(records, handle) -> None:
    handle.write(f"# condrisk {__version__}\n")
    handle.write(ORACLE_CSV_HEADER + "\n")
    for r in records:
        fields = [
            str(r.n_e), str(r.n_ne),
            format(r.pi_e, ".12g"), format(r.pi_ne, ".12g"),
            format(r.rho_e, ".12g"), format(r.rho_ne, ".12g"),
            str(r.stratum), format(r.level, ".12g"),
            r.margin_model, str(r.reps), str(r.seed),
            format(r.estimate, ".12g"), format(r.std_error, ".12g"),
            format(r.estimate_normalized, ".12g"),
        ]
        handle.write(",".join(fields) + "\n")
