"""Exact coverage probabilities of the conditional risk-ratio intervals.

For a scenario with fixed stratum margins, the two outcome counts are
independent binomials.  Their risks and the population ratio come from
model.stratum_risks, each group keeping one marginal over both visits.
The engine enumerates every count pair whose stratum table has all
entries positive, builds the log-scale Wald interval of each pair with
measures.log_wald_bounds, and sums the joint probability of the pairs
whose interval covers the population ratio.
Tail pruning with a certified bound keeps large margins tractable;
prune 0 is exhaustive.

Everything the enumeration needs from one binomial margin depends only on
(n, p, prune epsilon), and a grid shares each margin among many
scenarios, so run_grid builds each distinct margin of a grid once into a
Margin table, hands each point its pair, and frees the table when the
grid is done.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from ._run import map_jobs, worker_count, write_table
from .binomial import neumaier_sum, pmf_vector, prune_window, support_bounds
from .errors import DomainError, ParseError
from .measures import z_quantile
from .model import DEFAULT_PI_AXIS, DEFAULT_RHO_AXIS, BernoulliPairParams, stratum_risk, stratum_risks

COVERAGE_CSV_HEADER = (
    "n_E,n_nonE,pi_E,pi_nonE,rho_E,rho_nonE,stratum,level,"
    "true_rr,p_c,p_c_normalized,degenerate_mass,truncation_bound"
)

DEFAULT_PRUNE = 1e-12

# truncation_bound = (t_a + t_c) * (1 + _TAIL_SLACK), t a margin's pruned
# tail mass.  Pruning skips t_a*ND_c + W_a*t_c of the computed pmfs (W the
# window mass, ND = W + t), at most (t_a + t_c) * max(ND_a, ND_c).  The
# slack covers ND above 1 (the pmf's rounding: up to 2.2e-12 at n = 10^5,
# about linear in n) and the few ulps by which the nonnegative Neumaier
# sums and the additions round down; 2^-30 ~ 9.3e-10 covers both to n ~ 10^7.
_TAIL_SLACK = 2.0 ** -30

# default study-grid sizes; the risk and correlation axes are model's
DEFAULT_N_AXIS = (500, 1000, 2000)


_SIZE_NAMES = {"exposed": "n_e", "non-exposed": "n_ne"}


def _group_risk(n, pi: float, rho: float, stratum: int, group: str) -> float:
    """One group's stratum risk, once its admissibility is checked.

    The one rule for a group of a scenario (group "exposed" or
    "non-exposed", stratum 0 or 1): n a positive int, pi in (0, 1), rho
    admissible for pi, and a stratum risk in (0, 1).  Raises DomainError.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{_SIZE_NAMES[group]} must be a positive integer, got {n!r}")
    if not 0.0 < pi < 1.0:
        raise DomainError(f"{group} marginal probability must be in (0, 1), got {pi!r}")
    p = stratum_risk(BernoulliPairParams(pi, pi, rho), stratum)
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"{group} stratum-{stratum} outcome probability {p!r} "
            "is degenerate; coverage is undefined"
        )
    return p


@dataclass(frozen=True)
class Scenario:
    """One coverage-study cell: stratum margins, group parameters, CI level.

    n_e and n_ne are the margins of the stratum table itself, so the
    exposed outcome count is Binomial(n_e, p_e) directly.  Within each
    exposure group both visits share one marginal probability.
    """

    n_e: int
    n_ne: int
    pi_e: float
    pi_ne: float
    rho_e: float
    rho_ne: float
    stratum: int = 1
    level: float = 0.95

    def __post_init__(self):
        z_quantile(self.level)  # checks the level
        _group_risk(self.n_e, self.pi_e, self.rho_e, self.stratum, "exposed")
        _group_risk(self.n_ne, self.pi_ne, self.rho_ne, self.stratum, "non-exposed")


def true_conditional_risks(scenario: Scenario) -> tuple[float, float, float]:
    """Population stratum risks (exposed, non-exposed) and their ratio."""
    return stratum_risks(
        BernoulliPairParams(scenario.pi_e, scenario.pi_e, scenario.rho_e),
        BernoulliPairParams(scenario.pi_ne, scenario.pi_ne, scenario.rho_ne),
        scenario.stratum,
    )


@dataclass(frozen=True)
class CoverageResult:
    """Probability masses from one exact enumeration.

    p_c sums covering nondegenerate pairs against the full joint
    distribution (unnormalized); noncover_mass is the examined
    complement; degenerate_mass covers excluded zero-entry tables;
    truncation_bound is an upper bound on the nondegenerate mass of the
    computed pmfs that pruning skipped (0.0 when nothing was pruned).
    """

    true_rr: float
    p_c: float
    noncover_mass: float
    degenerate_mass: float
    truncation_bound: float

    @property
    def p_c_normalized(self) -> float:
        """Coverage conditional on the table being nondegenerate."""
        nondegenerate = 1.0 - self.degenerate_mass
        if nondegenerate <= 0.0:
            return math.nan
        return self.p_c / nondegenerate


@dataclass(frozen=True)
class Margin:
    """The per-margin values of one Binomial(n, p) outcome count.

    [lo, hi] is the pruned window, empty when lo > hi, and arrays its
    _backend.window_arrays (read-only: scenarios sharing the margin share
    them; the full pmf is not kept).  tail is the mass of the counts
    0 < k < n outside the window, and atoms the mass of k = 0 plus k = n."""

    arrays: np.ndarray
    lo: int
    hi: int
    tail: float
    atoms: float


# Cap on the doubles of a grid's margin table: the 6 rows of window_arrays
# per count of each distinct margin's window, plus the n + 1 of the one pmf
# being built.  run_grid checks it from the (n, p) keys before any margin
# is built, with _window_bound for each width; 2^23 doubles are 64 MiB.
# Building a margin peaks at about 25 bytes per unit of n, 16 of them kept
# by the log-factorial table (23 MB and 0.35-0.55 s at n = 10^6, from an
# empty table, on a 2-core x86-64 VM, Python 3.11).
_MAX_MARGIN_DOUBLES = 2 ** 23


def _window_bound(n: int, p: float, prune_epsilon: float) -> int:
    """A bound on the width of Binomial(n, p)'s window, before any pmf: the counts 0 < k < n,
    and when pruned only those within support_bounds at T = ln(8 / prune_epsilon).

    Pruning drops every zero of the pmf, so the window lies within the
    span at T = 760 (support_bounds caps T there).  Beyond the span at
    T = ln(8 / prune_epsilon), each tail's exact mass is at most
    prune_epsilon / 8.  Its computed mass is within a relative 1e-9 of
    that (pmf entries to about 1e-11, the cumsum to n ulps), and rounding
    to subnormals adds under 1e-300 while prune_epsilon is normal.  So
    it stays under prune_window's budget of prune_epsilon / 4, and the
    whole tail is pruned.  A subnormal prune_epsilon overflows
    8 / prune_epsilon to inf, which keeps the span at T = 760; one whose
    budget rounds to 0 prunes nothing.
    """
    if prune_epsilon / 4.0 == 0.0:  # prune_window's budget
        lo, hi = 1, n - 1
    else:
        lo, hi = support_bounds(n, p, math.log(8.0 / prune_epsilon))
    return max(0, min(hi, n - 1) - max(lo, 1) + 1)


def _margin(n: int, p: float, prune_epsilon: float) -> Margin:
    """The Margin of Binomial(n, p) at this prune epsilon."""
    pmf = pmf_vector(n, p)
    lo, hi = prune_window(pmf, prune_epsilon)
    return Margin(
        arrays=_backend.window_arrays(pmf[lo:hi + 1], lo, n),
        lo=lo,
        hi=hi,
        tail=neumaier_sum(pmf, 1, lo) + neumaier_sum(pmf, max(lo, hi + 1), n),
        atoms=float(pmf[0]) + float(pmf[n]),
    )


def exact_coverage(scenario: Scenario, prune_epsilon: float = DEFAULT_PRUNE) -> CoverageResult:
    """Exact CI coverage for one scenario by full table enumeration: run_grid of its one-point grid.

    Sums over the count pairs (a, c), 0 < a < n_e and 0 < c < n_ne, in the
    pruned windows, reproducible to the last bit.  The degenerate mass comes
    from the four atoms (a or c at 0 or at its margin), so it is never
    negative.  The truncation bound, from the two margins' tail masses,
    bounds the skipped mass of the computed pmfs, not of the exact binomials
    (see _TAIL_SLACK).  A scenario over run_grid's caps raises DomainError.
    """
    s = scenario
    grid = GridSpec((s.n_e,), (s.n_ne,), (s.pi_e,), (s.pi_ne,), (s.rho_e,), (s.rho_ne,),
                    s.stratum, s.level, prune_epsilon)
    return run_grid(grid)[0].result


@dataclass(frozen=True)
class GridSpec:
    """Cartesian scenario grid plus the run settings shared by its points."""

    n_e_axis: tuple
    n_ne_axis: tuple
    pi_e_axis: tuple
    pi_ne_axis: tuple
    rho_e_axis: tuple
    rho_ne_axis: tuple
    stratum: int = 1
    level: float = 0.95
    prune_epsilon: float = DEFAULT_PRUNE

    def __post_init__(self):
        for name in ("n_e_axis", "n_ne_axis", "pi_e_axis", "pi_ne_axis", "rho_e_axis", "rho_ne_axis"):
            if len(getattr(self, name)) == 0:
                raise DomainError(f"grid axis {name} is empty")
        if self.stratum not in (0, 1):
            raise DomainError(f"stratum must be 0 or 1, got {self.stratum!r}")
        z_quantile(self.level)  # checks the level
        if not 0.0 <= self.prune_epsilon < 1e-6:
            raise DomainError(f"prune_epsilon must be in [0, 1e-6), got {self.prune_epsilon!r}")

    def points(self):
        """Grid points in lexicographic axis order."""
        return itertools.product(
            self.n_e_axis, self.n_ne_axis,
            self.pi_e_axis, self.pi_ne_axis,
            self.rho_e_axis, self.rho_ne_axis,
        )

    def size(self) -> int:
        out = 1
        for name in ("n_e_axis", "n_ne_axis", "pi_e_axis", "pi_ne_axis", "rho_e_axis", "rho_ne_axis"):
            out *= len(getattr(self, name))
        return out


def paper_grid() -> GridSpec:
    """The default 2025-point study grid (3x3 sizes, 5x5 risks, 3x3 correlations)."""
    return GridSpec(
        n_e_axis=DEFAULT_N_AXIS,
        n_ne_axis=DEFAULT_N_AXIS,
        pi_e_axis=DEFAULT_PI_AXIS,
        pi_ne_axis=DEFAULT_PI_AXIS,
        rho_e_axis=DEFAULT_RHO_AXIS,
        rho_ne_axis=DEFAULT_RHO_AXIS,
    )


@dataclass(frozen=True)
class GridRecord:
    """One grid point with its result, or the reason it was inadmissible."""

    n_e: int
    n_ne: int
    pi_e: float
    pi_ne: float
    rho_e: float
    rho_ne: float
    stratum: int
    level: float
    result: CoverageResult | None
    error: str | None = None


def _evaluate_batch(items) -> list:
    """The GridRecords of grid points (point, stratum, level, true_rr, margins, error), one kernel call for all.

    A flagged point has margins None; one with an empty window gets (cover, noncover) = (0, 0)."""
    runs = [margins is not None and all(m.lo <= m.hi for m in margins) for *_, margins, _ in items]
    scenarios = [(margins[0].arrays, margins[1].arrays, point[0], point[1], true_rr)
                 for (point, _, _, true_rr, margins, _), run in zip(items, runs) if run]
    sums = _backend.batch_cover_sums(scenarios, z_quantile(items[0][2]))
    records = []
    for (point, stratum, level, true_rr, margins, error), run in zip(items, runs):
        result = None
        if margins is not None:
            (a, c), (cover, noncover) = margins, next(sums) if run else (0.0, 0.0)
            # the degenerate mass: P(a or c at an atom), by inclusion-exclusion
            result = CoverageResult(true_rr, cover, noncover, a.atoms + c.atoms - a.atoms * c.atoms,
                                    (a.tail + c.tail) * (1.0 + _TAIL_SLACK))
        records.append(GridRecord(*point, stratum, level, result, error))
    return records


# Kernel work (_backend.work) per worker of run_grid: on a 2-core VM (Python 3.11, fresh
# processes) a second worker lost at 1.3 x 10^6 units, tied at 1.6 x 10^6 and won at
# 1.9 x 10^6 (paper-shaped grids, BENCH_25.json).  The kernel ran 0.05-1 us per unit
# there, 0.28 us on the paper grid, so the cap on a grid's work is about ten minutes.
_WORK_PER_WORKER = 1_600_000
_MAX_WORK = 2 ** 31


def _group_keys(n_axis, pi_axis, rho_axis, stratum: int, group: str) -> list:
    """((n, pi, rho), (n, p), None) of each admissible margin of one group, ((n, pi, rho), None, why) of the rest.

    One entry per grid value, repeats included.  A group is admissible
    exactly when _group_risk accepts it, and why is what it raises, so a
    point's error, the exposed group's why or else the non-exposed one's,
    is what its Scenario raises."""
    out = []
    for n, pi, rho in itertools.product(n_axis, pi_axis, rho_axis):
        try:
            out.append(((n, pi, rho), (n, _group_risk(n, pi, rho, stratum, group)), None))
        except DomainError as exc:
            out.append(((n, pi, rho), None, str(exc)))
    return out


def run_grid(grid: GridSpec, threads: int = 1, log=None) -> list:
    """Evaluate every grid point, in grid order, flagging inadmissible ones.

    Before any point runs, the grid's distinct (n, p) margins are built
    once into one table both groups share (none when a group has no
    admissible margin, as no point would use it); a table over
    _MAX_MARGIN_DOUBLES raises DomainError before any pmf is built.  The
    sum of each point's _backend.work comes from the two groups' window sums
    before any point is enumerated; over _MAX_WORK, it raises DomainError.
    The points run in batches of whole points with under
    _backend._BATCH_WORK units plus one point, one kernel call each, on at
    most 1 + work // _WORK_PER_WORKER workers,
    never more than threads, the CPUs or the batches.  log, a text handle,
    gets one line with the work, points and workers.  The output is
    bitwise identical for any thread count or batching.
    """
    groups = [
        _group_keys(grid.n_e_axis, grid.pi_e_axis, grid.rho_e_axis, grid.stratum, "exposed"),
        _group_keys(grid.n_ne_axis, grid.pi_ne_axis, grid.rho_ne_axis, grid.stratum, "non-exposed"),
    ]
    admissible = [[key for _, key, _ in group if key] for group in groups]
    keys = dict.fromkeys(admissible[0] + admissible[1]) if all(admissible) else {}
    largest = max((n for n, _ in keys), default=-1)  # its pmf, n + 1 doubles, is the largest being built
    doubles = largest + 1 + sum(6 * _window_bound(n, p, grid.prune_epsilon) for n, p in keys)
    if doubles > _MAX_MARGIN_DOUBLES:
        raise DomainError(
            f"the grid's margins need {doubles} doubles (distinct margins: {len(keys)}, "
            f"largest n: {largest}), over the cap of {_MAX_MARGIN_DOUBLES}; "
            f"a larger --prune (now {grid.prune_epsilon!r}) narrows the windows"
        )
    table = {(n, p): _margin(n, p, grid.prune_epsilon) for n, p in keys}
    width = {key: max(0, margin.hi - margin.lo + 1) for key, margin in table.items()}
    cols = [width[key] for key in admissible[1] if width.get(key)]
    total_cols, windows = sum(cols), len(cols)
    work = sum(_backend.work(width[key], total_cols, windows) for key in admissible[0] if key in width)
    if work > _MAX_WORK:
        raise DomainError(
            f"the grid's kernel work is {work} window rows and columns, over the cap of {_MAX_WORK}; "
            f"a larger --prune (now {grid.prune_epsilon!r}) narrows the windows"
        )
    exposed, non_exposed = ({value: (key, why) for value, key, why in group} for group in groups)
    items, sizes = [], []
    for point in grid.points():
        n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne = point
        (key_e, why_e), (key_ne, why_ne) = exposed[n_e, pi_e, rho_e], non_exposed[n_ne, pi_ne, rho_ne]
        margins = (table[key_e], table[key_ne]) if key_e and key_ne else None
        true_rr = None if margins is None else key_e[1] / key_ne[1]
        items.append((point, grid.stratum, grid.level, true_rr, margins, why_e or why_ne))
        sizes.append(0 if margins is None else _backend.work(width[key_e], width[key_ne]))
    batches = _backend.packed(items, sizes, _backend._BATCH_WORK)
    workers = worker_count(threads, len(batches), work, _WORK_PER_WORKER)
    if log is not None:
        plural = "" if workers == 1 else "s"
        log.write(f"coverage: {work} kernel rows and columns in {len(items)} points, {workers} worker{plural}\n")
    return [record for batch in map_jobs(_evaluate_batch, batches, workers) for record in batch]


def _fmt(value: float) -> str:
    return format(value, ".12g")


def write_coverage_csv(records, out) -> None:
    """Write grid records as CSV (12 significant digits, nan for flagged)."""
    write_table(out, COVERAGE_CSV_HEADER, map(_coverage_row, records))


def _coverage_row(rec: GridRecord) -> list:
    r = rec.result
    if r is None:
        tail = [math.nan] * 5
    else:
        tail = [r.true_rr, r.p_c, r.p_c_normalized, r.degenerate_mass, r.truncation_bound]
    return [
        str(rec.n_e), str(rec.n_ne),
        _fmt(rec.pi_e), _fmt(rec.pi_ne), _fmt(rec.rho_e), _fmt(rec.rho_ne),
        str(rec.stratum), _fmt(rec.level),
    ] + [_fmt(v) for v in tail]


# Each grid-file key's GridSpec field and value type.  An *_axis field
# takes values separated by spaces or commas, any other field one value.
_GRID_KEYS = {
    "n_E": ("n_e_axis", int),
    "n_nonE": ("n_ne_axis", int),
    "pi_E": ("pi_e_axis", float),
    "pi_nonE": ("pi_ne_axis", float),
    "rho_E": ("rho_e_axis", float),
    "rho_nonE": ("rho_ne_axis", float),
    "stratum": ("stratum", int),
    "level": ("level", float),
    "prune_epsilon": ("prune_epsilon", float),
}


def parse_grid_file(source) -> GridSpec:
    """Parse a plain-text grid description into a GridSpec.

    Format: one `key = values` entry per line; values separated by
    spaces or commas; `#` starts a comment.  Axis keys n_E, n_nonE,
    pi_E, pi_nonE, rho_E, rho_nonE are required; scalar keys stratum,
    level, prune_epsilon are optional.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    fields = {}
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = values', got {rawline.strip()!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _GRID_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        name, kind = _GRID_KEYS[key]
        if name in fields:
            raise ParseError(f"duplicate key {key}", line=lineno)
        axis = name.endswith("_axis")
        tokens = raw.replace(",", " ").split() if axis else [raw.strip()]
        if not tokens:
            raise ParseError(f"axis {key} has no values", line=lineno)
        values = []
        for token in tokens:
            try:
                value = kind(token)
                if name == "stratum" and value not in (0, 1):
                    raise ValueError
            except ValueError:
                raise ParseError(f"invalid value {token!r} for {key}", line=lineno) from None
            values.append(value)
        fields[name] = tuple(values) if axis else values[0]
    missing = [key for key, (name, _) in _GRID_KEYS.items() if name.endswith("_axis") and name not in fields]
    if missing:
        raise ParseError(f"missing required axis keys: {', '.join(missing)}")
    try:
        return GridSpec(**fields)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
