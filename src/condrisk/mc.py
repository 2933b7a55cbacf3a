"""Monte-Carlo cross-validation of the exact coverage engine.

Simulates correlated binary cohorts and estimates CI coverage by
replication.  Two margin models: fixed_margin draws the stratum outcome
counts directly from the binomials the exact engine enumerates; cohort
draws full per-subject histories, so the stratum margins are random,
which is the sampling design the exact engine cannot enumerate.

Reproducibility discipline (bit-exact, platform-independent): streams
come from the counter-based Philox generator, one independent substream
per replication with 128-bit key (seed << 64) | rep.  Within one
replication the exposed group is drawn first: in fixed_margin mode a
replication is two binomial draws; in cohort mode each group consumes
two uniform vectors of length n (earlier outcomes, then later outcomes
given earlier), so a replication is 2 n_e + 2 n_ne uniforms.  Counts are
order-independent, so any parallel schedule yields identical estimates.

Layout: one Philox and one Generator serve a whole range of
replications.  Before each replication the public state setter puts the
generator back where a fresh Philox(key=(seed << 64) | rep) starts: key
[rep, seed], counter 0, an empty buffer.  Replications go in blocks.  In
cohort mode each replication's uniforms fill one row of a buffer of at
most about _BUFFER_DOUBLES doubles, and the block's stratum tables are
counted with array operations; a replication wider than the buffer is
a block of one row.  Coverage is decided for a whole block with
measures.log_wald_bounds, and a bound within a relative _NEAR of the true
ratio is decided again by the scalar interval, so the counts equal those
of a loop over single replications.  Memory is O(block) whatever the
number of replications, and a cohort replication wider than
_MAX_COHORT_DOUBLES is refused before any is drawn.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._run import map_jobs, write_table
from .errors import DomainError, UndefinedMeasureError
from .measures import (
    StratifiedTables,
    StratumTable,
    log_wald_bounds,
    stratum_rr_estimate,
    z_quantile,
)
from .model import BernoulliPairParams, cond_prob_given0, cond_prob_given1

ORACLE_CSV_HEADER = (
    "n_E,n_nonE,pi_E,pi_nonE,rho_E,rho_nonE,stratum,level,"
    "margin_model,reps,seed,estimate,std_error,estimate_normalized"
)

MARGIN_MODELS = ("fixed_margin", "cohort")

# A block of replications holds at most about this many doubles (8 MB),
# or one replication if that is wider: its uniforms plus _INTERVAL_DOUBLES
# per replication for the arrays that decide coverage.
_BUFFER_DOUBLES = 1 << 20
_INTERVAL_DOUBLES = 16
# Widest cohort replication mc_coverage runs, 2 (n_e + n_ne) uniforms:
# 2^26 doubles are 512 MiB in each worker.  fixed_margin needs no such row.
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


class _Substreams:
    """One Philox and one Generator that can start any replication's substream.

    seek(rep) puts the generator in the state a fresh
    Philox(key=(seed << 64) | rep) starts in: key [rep, seed], counter 0
    and an empty buffer, so every draw from there equals the fresh
    generator's.
    """

    def __init__(self, seed: int):
        self.bit_generator = np.random.Philox(key=seed << 64)
        self.generator = np.random.Generator(self.bit_generator)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, seed]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, rep: int) -> np.random.Generator:
        self._state["state"]["key"][0] = rep
        self.bit_generator.state = self._state
        return self.generator


def _draw_rows(streams: _Substreams, rep_lo: int, out: np.ndarray) -> None:
    """Row i of out: the first out.shape[1] uniforms of replication rep_lo + i."""
    for i, row in enumerate(out):
        streams.seek(rep_lo + i).random(out=row)


def _groups(spec: CohortSpec):
    """(offset of the group's uniforms in a replication, group size, parameters)."""
    return (0, spec.n_e, spec.params_e), (2 * spec.n_e, spec.n_ne, spec.params_ne)


def _later_risk(params: BernoulliPairParams, stratum: int) -> float:
    """Pr(later outcome | earlier outcome = stratum).

    Both conditional risks are computed, since drawing a group's later
    outcomes needs both: an earlier marginal of 0 or 1 is a DomainError
    in either stratum.
    """
    given1, given0 = cond_prob_given1(params), cond_prob_given0(params)
    return given1 if stratum == 1 else given0


def _stratum_cells(u_earlier, u_later, pi_k: float, p_later: float, stratum: int):
    """Per row: (members of the stratum, of them with the later outcome).

    u_earlier and u_later are one group's earlier and later uniforms, a
    row per replication; a subject's earlier outcome is u_earlier < pi_k
    and, in the stratum, its later outcome is u_later < p_later.
    """
    earlier = u_earlier < pi_k
    n_earlier = np.count_nonzero(earlier, axis=1)
    if stratum == 1:
        return n_earlier, np.count_nonzero(earlier & (u_later < p_later), axis=1)
    return u_earlier.shape[1] - n_earlier, np.count_nonzero(~earlier & (u_later < p_later), axis=1)


def _cohort_tables(u: np.ndarray, spec: CohortSpec, stratum: int):
    """(a, n_e, c, n_ne) of the stratum table, per row of replication uniforms."""
    (n_e, a), (n_ne, c) = (
        _stratum_cells(u[:, base:base + n], u[:, base + n:base + 2 * n],
                       params.pi_k, _later_risk(params, stratum), stratum)
        for base, n, params in _groups(spec)
    )
    return a, n_e, c, n_ne


def simulate_cohort(spec: CohortSpec, rep: int = 0) -> StratifiedTables:
    """Draw one replication of the two cohorts and stratify by the earlier outcome."""
    uniforms = np.empty((1, 2 * (spec.n_e + spec.n_ne)))
    _draw_rows(_Substreams(spec.seed), rep, uniforms)
    tables = []
    for stratum in (1, 0):
        a, n_e, c, n_ne = (int(x[0]) for x in _cohort_tables(uniforms, spec, stratum))
        tables.append(StratumTable(a=a, b=n_e - a, c=c, d=n_ne - c))
    return StratifiedTables(*tables)


def _fixed_margin_tables(streams: _Substreams, spec: CohortSpec, p_e: float, p_ne: float,
                         rep_lo: int, rep_hi: int):
    """(a, n_e, c, n_ne): two binomial draws per replication, exposed first."""
    a = np.empty(rep_hi - rep_lo, dtype=np.int64)
    c = np.empty(rep_hi - rep_lo, dtype=np.int64)
    for i, rep in enumerate(range(rep_lo, rep_hi)):
        generator = streams.seek(rep)
        a[i] = generator.binomial(spec.n_e, p_e)
        c[i] = generator.binomial(spec.n_ne, p_ne)
    return a, spec.n_e, c, spec.n_ne


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
    """(covered, nondegenerate) counts over replications [rep_lo, rep_hi).

    Replications go in blocks whose uniforms and interval arrays take at
    most about _BUFFER_DOUBLES doubles, or one replication if that is
    wider.  The counts do not depend on the block size.
    """
    p_e, p_ne, true_rr = _stratum_true_risks(spec, stratum)
    width = 0 if margin_model == "fixed_margin" else 2 * (spec.n_e + spec.n_ne)
    block = max(1, min(rep_hi - rep_lo, _BUFFER_DOUBLES // (width + _INTERVAL_DOUBLES)))
    uniforms = np.empty((block, width))
    streams = _Substreams(spec.seed)
    covered = 0
    nondegenerate = 0
    for lo in range(rep_lo, rep_hi, block):
        hi = min(lo + block, rep_hi)
        if width == 0:
            tables = _fixed_margin_tables(streams, spec, p_e, p_ne, lo, hi)
        else:
            rows = uniforms[:hi - lo]
            _draw_rows(streams, lo, rows)
            tables = _cohort_tables(rows, spec, stratum)
        cov, nd = _decide(*tables, level, true_rr)
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
) -> MCCoverage:
    """Estimate CI coverage over spec.reps simulated replications."""
    if margin_model not in MARGIN_MODELS:
        raise DomainError(f"margin_model must be one of {MARGIN_MODELS}, got {margin_model!r}")
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level!r}")
    _, _, true_rr = _stratum_true_risks(spec, stratum)
    width = 2 * (spec.n_e + spec.n_ne)
    if margin_model == "cohort" and width > _MAX_COHORT_DOUBLES:
        raise DomainError(
            f"a cohort replication draws {width} uniforms, over the cap of {_MAX_COHORT_DOUBLES}; "
            "--margin-model fixed_margin draws two binomials and needs no such buffer"
        )
    reps = spec.reps
    # Splitting into min(threads, reps) ranges leaves the same non-empty
    # ranges as splitting into threads ranges; threads below 1 run serially.
    parts = max(1, min(threads, reps))
    bounds = [reps * i // parts for i in range(parts + 1)]
    jobs = [(spec, stratum, level, margin_model, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    counts = map_jobs(_count_reps_args, jobs, threads)
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
