"""Monte-Carlo cross-validation of the exact coverage engine.

Simulates correlated binary cohorts and estimates CI coverage by
replication.  Two margin models: fixed_margin draws the stratum outcome
counts directly from the binomials the exact engine enumerates; cohort
also makes the stratum sizes random, as sampling whole cohorts does,
which is the design the exact engine cannot enumerate.  The stratum
risks and the true ratio come from model.stratum_risks, as the exact
engine's do, so both check their intervals against the same ratio.

Subjects are independent, so one group's stratum table has an exact law
of two binomials: ones ~ Bin(n, pi_k) subjects have an earlier outcome
of 1, the stratum holds m = ones of them (stratum 1) or n - ones
(stratum 0), and the later outcomes in it count Bin(m, p_later), with
p_later the group's stratum_risk.  A cohort replication is therefore
four binomial draws whatever n, with the law of simulate_cohort's
subject-by-subject draw of 2 (n_e + n_ne) uniforms, which the tests use
as a cross-check.

Reproducibility discipline (bit-exact, platform-independent): streams
come from the counter-based Philox generator.  Replication r is in block
b = r // _BLOCK_REPS, and each block draws each variable v from its own
Philox with 128-bit key (seed << 64) | (4 b + v): v = 0 and 1 are the
exposed group's ones and later count, v = 2 and 3 the non-exposed
group's (fixed_margin draws only v = 1 and 3).  NumPy's binomial takes
its stream one element at a time, so a block's first k draws do not
depend on how many follow: replication r's tables do not depend on
--reps, and mc_coverage splits work only at block boundaries, so any
--threads yields identical counts.  As NEP 19 allows, the streams hold
for one NumPy version.

Layout: a block is one binomial call per variable, and its coverage is
decided at once with measures.log_wald_bounds; a bound within a
relative _NEAR of the true ratio is decided again by the scalar
interval, so the counts equal those of a loop over single replications.
Memory is O(block) whatever the number of replications and the group
sizes.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._run import MARGIN_MODELS, map_jobs, worker_count, write_table
from .errors import DomainError
from .measures import (
    StratifiedTables,
    StratumTable,
    log_wald_bounds,
    stratum_rr_estimate,
    z_quantile,
)
from .model import BernoulliPairParams, stratum_risk, stratum_risks

ORACLE_CSV_HEADER = (
    "n_E,n_nonE,pi_E,pi_nonE,rho_E,rho_nonE,stratum,level,"
    "margin_model,reps,seed,estimate,std_error,estimate_normalized"
)

# Replications per block.  It defines the streams (module docstring), so
# changing it changes the oracle's bytes; _decide's arrays are O(block)
# whatever the number of replications.
_BLOCK_REPS = 1 << 14
# Binomial draws per worker: on a 2-core VM a second worker paid off from about 2^21
# draws (BENCH_23.json: 0.4-0.6 M cohort, 1-2 M fixed_margin replications).
_DRAWS_PER_WORKER = 2 ** 21
# Widest replication simulate_cohort draws, 2 (n_e + n_ne) uniforms:
# 2^26 doubles are 512 MiB.
_MAX_COHORT_DOUBLES = 2 ** 26
# Relative distance to true_rr within which a bound is checked by the
# scalar interval.
_NEAR = 1e-12


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


def simulate_cohort(spec: CohortSpec, rep: int = 0) -> StratifiedTables:
    """Draw one replication of the two cohorts subject by subject and stratify by the earlier outcome.

    Each group, exposed first, draws n uniforms for its earlier outcomes
    (u < pi_k) and then n for its later ones (u below the stratum_risk of
    the subject's stratum).  A replication of more than
    _MAX_COHORT_DOUBLES uniforms raises DomainError before any is drawn.
    """
    width = 2 * (spec.n_e + spec.n_ne)
    if width > _MAX_COHORT_DOUBLES:
        raise DomainError(
            f"a cohort replication draws {width} uniforms, over the cap of {_MAX_COHORT_DOUBLES}; "
            "mc_coverage's cohort model draws four binomials instead"
        )
    generator = np.random.Generator(np.random.Philox(key=(spec.seed << 64) | rep))
    cells = []
    for n, params in ((spec.n_e, spec.params_e), (spec.n_ne, spec.params_ne)):
        earlier = generator.random(n) < params.pi_k
        later = generator.random(n) < np.where(earlier, stratum_risk(params, 1), stratum_risk(params, 0))
        n1, n11 = np.count_nonzero(earlier), np.count_nonzero(earlier & later)
        n01 = np.count_nonzero(later) - n11
        cells.append((int(n11), int(n1 - n11), int(n01), int(n - n1 - n01)))
    (e11, e10, e01, e00), (u11, u10, u01, u00) = cells
    return StratifiedTables(StratumTable(a=e11, b=e10, c=u11, d=u10),
                            StratumTable(a=e01, b=e00, c=u01, d=u00))


def _draw_tables(seed: int, groups, stratum: int, rep_lo: int, rep_hi: int) -> list:
    """Rows (a, n_e, c, n_ne) of replications [rep_lo, rep_hi), which lie in one block.

    groups holds (n, pi_k, p_later) of the exposed, then the non-exposed
    group.  With pi_k None the stratum size m is n (fixed_margin);
    otherwise ones ~ Bin(n, pi_k) is drawn first and m is ones in
    stratum 1, n - ones in stratum 0 (cohort).  The later count is
    Bin(m, p_later).  Each variable is drawn from the block's start, so a
    range that starts mid-block drops the leading draws.
    """
    block, skip = divmod(rep_lo, _BLOCK_REPS)
    size = rep_hi - block * _BLOCK_REPS

    def draw(variable, n, p):
        key = (seed << 64) | (4 * block + variable)
        return np.random.Generator(np.random.Philox(key=key)).binomial(n, p, size=size)

    rows = []
    for v, (n, pi_k, p_later) in zip((0, 2), groups):
        if pi_k is None:
            rows += (draw(v + 1, n, p_later)[skip:], n)
            continue
        ones = draw(v, n, pi_k)
        m = ones if stratum == 1 else n - ones
        rows += (draw(v + 1, m, p_later)[skip:], m[skip:])
    return rows


def _covers(a: int, n_e: int, c: int, n_ne: int, level: float, true_rr: float) -> bool:
    est = stratum_rr_estimate(a, n_e, c, n_ne, level)
    return est.ci_lower <= true_rr <= est.ci_upper


def _decide(a, n_e, c, n_ne, level: float, true_rr: float) -> tuple[int, int]:
    """(covered, nondegenerate) over a block of stratum tables.

    NumPy's exp may differ from math's in the last bit, so a table whose
    bound lies within a relative _NEAR of true_rr is decided again by
    _covers, the scalar interval: the counts are exactly the scalar ones.
    """
    a, n_e, c, n_ne = np.broadcast_arrays(a, n_e, c, n_ne)
    keep = (a >= 1) & (a < n_e) & (c >= 1) & (c < n_ne)
    a, n_e, c, n_ne = a[keep], n_e[keep], c[keep], n_ne[keep]
    _, _, lower, upper = log_wald_bounds(a, n_e, c, n_ne, z_quantile(level), xp=np)
    covers = (lower <= true_rr) & (true_rr <= upper)
    near = _NEAR * abs(true_rr)
    for i in np.flatnonzero((np.abs(lower - true_rr) <= near) | (np.abs(upper - true_rr) <= near)):
        covers[i] = _covers(int(a[i]), int(n_e[i]), int(c[i]), int(n_ne[i]), level, true_rr)
    return int(np.count_nonzero(covers)), int(a.size)


def _count_reps(spec: CohortSpec, stratum: int, level: float, margin_model: str,
                rep_lo: int, rep_hi: int) -> tuple[int, int]:
    """(covered, nondegenerate) counts over replications [rep_lo, rep_hi), a block at a time."""
    p_e, p_ne, true_rr = stratum_risks(spec.params_e, spec.params_ne, stratum)
    cohort = margin_model == "cohort"
    groups = [(spec.n_e, spec.params_e.pi_k if cohort else None, p_e),
              (spec.n_ne, spec.params_ne.pi_k if cohort else None, p_ne)]
    first = (rep_lo // _BLOCK_REPS + 1) * _BLOCK_REPS
    edges = [rep_lo, *range(first, rep_hi, _BLOCK_REPS), rep_hi]
    covered = 0
    nondegenerate = 0
    for lo, hi in zip(edges, edges[1:]):
        cov, nd = _decide(*_draw_tables(spec.seed, groups, stratum, lo, hi), level, true_rr)
        covered += cov
        nondegenerate += nd
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
    log=None,
) -> MCCoverage:
    """Estimate CI coverage over spec.reps simulated replications.

    log, a text handle, gets one line with the replications, the binomial
    draws (two per replication, four in cohort mode) and the workers.
    """
    if margin_model not in MARGIN_MODELS:
        raise DomainError(f"margin_model must be one of {MARGIN_MODELS}, got {margin_model!r}")
    z_quantile(level)  # checks the level
    _, _, true_rr = stratum_risks(spec.params_e, spec.params_ne, stratum)
    reps = spec.reps
    blocks = -(-reps // _BLOCK_REPS)
    draws = reps * (4 if margin_model == "cohort" else 2)
    workers = worker_count(threads, blocks, draws, _DRAWS_PER_WORKER)
    bounds = [min(reps, blocks * i // workers * _BLOCK_REPS) for i in range(workers + 1)]
    jobs = [(spec, stratum, level, margin_model, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if log is not None:
        plural = "" if workers == 1 else "s"
        log.write(f"oracle: {reps} replications, {draws} binomial draws, {workers} worker{plural}\n")
    counts = map_jobs(_count_reps_args, jobs, workers)
    covered = sum(cov for cov, _ in counts)
    nondegenerate = sum(nd for _, nd in counts)
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
    reps: int, seed: int, threads: int = 1, log=None,
) -> OracleRecord:
    """Run the MC oracle for one equal-marginal scenario; log as in mc_coverage."""
    spec = equal_marginal_spec(n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne, seed, reps)
    mc = mc_coverage(spec, stratum=stratum, level=level, margin_model=margin_model,
                     threads=threads, log=log)
    return OracleRecord(
        n_e=n_e, n_ne=n_ne, pi_e=pi_e, pi_ne=pi_ne, rho_e=rho_e, rho_ne=rho_ne,
        stratum=stratum, level=level, margin_model=margin_model,
        reps=reps, seed=seed,
        estimate=mc.estimate, std_error=mc.std_error,
        estimate_normalized=mc.estimate_normalized,
    )


def write_oracle_csv(records, out) -> None:
    """Write oracle records as CSV (12 significant digits)."""
    write_table(out, ORACLE_CSV_HEADER, (
        [
            str(r.n_e), str(r.n_ne),
            format(r.pi_e, ".12g"), format(r.pi_ne, ".12g"),
            format(r.rho_e, ".12g"), format(r.rho_ne, ".12g"),
            str(r.stratum), format(r.level, ".12g"),
            r.margin_model, str(r.reps), str(r.seed),
            format(r.estimate, ".12g"), format(r.std_error, ".12g"),
            format(r.estimate_normalized, ".12g"),
        ]
        for r in records
    ))
