"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own numeric kernels:
probabilities come from scipy, sums from math.fsum, correlations from
numpy/statistics, so agreement with the package is a real cross-check.
The loop oracles keep the entry-by-entry scans that the package's
vectorised neumaier_sum and prune_window must reproduce bit for bit, the
row-by-row parsers, table count and risks that the columnar ingest must
reproduce exactly, and the replication-by-replication Monte-Carlo count
that the batched oracle must reproduce exactly.  full_pmf_vector is the
pmf evaluated at every count, which pmf_vector's evaluation on the support
alone must reproduce bit for bit.  interval_cover_sums is the coverage
kernel's documented arithmetic applied to the covered cells that
log_wald_bounds gives for every cell of the window, one row at a time.
"""

import csv
import math

import numpy as np
from scipy.stats import binom as _sbinom

from condrisk import binomial
from condrisk.coverage import true_conditional_risks
from condrisk.errors import ParseError
from condrisk.measures import StratifiedTables, StratumTable, log_wald_bounds, stratum_rr_estimate
from condrisk.model import stratum_risk, stratum_risks


def brute_coverage(scenario):
    """Exhaustive coverage sums via scipy pmf + fsum + the public estimator.

    Returns (p_c, noncover_mass, degenerate_mass).
    """
    p_e, p_ne, true_rr = true_conditional_risks(scenario)
    pa = _sbinom.pmf(np.arange(scenario.n_e + 1), scenario.n_e, p_e)
    pc = _sbinom.pmf(np.arange(scenario.n_ne + 1), scenario.n_ne, p_ne)
    cover = []
    noncover = []
    for a in range(1, scenario.n_e):
        for c in range(1, scenario.n_ne):
            est = stratum_rr_estimate(a, scenario.n_e, c, scenario.n_ne, scenario.level)
            joint = pa[a] * pc[c]
            if est.ci_lower <= true_rr <= est.ci_upper:
                cover.append(joint)
            else:
                noncover.append(joint)
    nondegen_a = math.fsum(pa[1:scenario.n_e])
    nondegen_c = math.fsum(pc[1:scenario.n_ne])
    return math.fsum(cover), math.fsum(noncover), 1.0 - nondegen_a * nondegen_c


def log_wald_window(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z):
    """(lower, upper) of log_wald_bounds for every (a, c) of the window, rows a, columns c."""
    a = np.arange(a_lo, a_hi + 1, dtype=np.float64)[:, None]
    c = np.arange(c_lo, c_hi + 1, dtype=np.float64)
    _, _, lower, upper = log_wald_bounds(a, n_e, c, n_ne, z, xp=np)
    return lower, upper


def log_wald_mask(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """Coverage mask of the window: log_wald_bounds' interval of every (a, c) against true_rr."""
    lower, upper = log_wald_window(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z)
    return (lower <= true_rr) & (true_rr <= upper)


def interval_cover_sums(pa, pc, a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """(cover, noncover) by the coverage kernel's documented sums over log_wald_mask's covered set.

    The interior columns run from the first to the last with
    c(1 - c/n_ne) >= z^2; a row's covered columns among them must be one
    run [s, e).  The row's cover is P[e] - P[s], P the prefix sums
    (np.cumsum) of the window's pmf, plus the pmf of each covered column
    outside the interior, added in column order; its noncover is P[W]
    minus that.  Each is weighted by pa[a], and the rows go to math.fsum.
    """
    covered = log_wald_mask(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr)
    c = np.arange(c_lo, c_hi + 1, dtype=np.float64)
    inside = np.flatnonzero(c * (1.0 - c / n_ne) >= z * z)
    interior = np.zeros(c.size, dtype=bool)
    if inside.size:
        interior[inside[0]:inside[-1] + 1] = True
    window = pc[c_lo:c_hi + 1]
    prefix = np.concatenate(([0.0], np.cumsum(window)))
    cover, noncover = [], []
    for a, row in zip(range(a_lo, a_hi + 1), covered):
        run = np.flatnonzero(row & interior)
        s, e = (run[0], run[-1] + 1) if run.size else (0, 0)
        assert run.size == e - s, f"row {a}: covered interior columns {run.tolist()} are not one run"
        mass = prefix[e] - prefix[s]
        for j in np.flatnonzero(row & ~interior):
            mass = mass + window[j]
        cover.append(pa[a] * mass)
        noncover.append(pa[a] * (prefix[-1] - mass))
    return math.fsum(cover), math.fsum(noncover)


def loop_log_factorial(n):
    """ln(k!) for k = 0..n as double-double (hi, lo) lists, one two-sum per log k."""

    def two_sum(x, y):
        s = x + y
        bb = s - x
        return s, (x - (s - bb)) + (y - bb)

    hi, lo = [0.0, 0.0], [0.0, 0.0]
    s, e = 0.0, 0.0
    for i in range(2, n + 1):
        s, err = two_sum(s, math.log(i))
        e = e + err
        s, e = s + e, e - ((s + e) - s)
        hi.append(s)
        lo.append(e)
    return hi[:n + 1], lo[:n + 1]


def full_pmf_vector(n, p):
    """np.exp of binomial._log_pmf at every k = 0..n, 0 < p < 1, on views of the whole table."""
    hi, lo = binomial._LFACT.arrays(n)
    k = np.arange(n + 1, dtype=np.float64)
    return np.exp(binomial._log_pmf(hi[n], lo[n], hi, lo, hi[::-1], lo[::-1], k, k[::-1], p))


def loop_neumaier_sum(values, start=0, stop=None):
    """Neumaier sum of values[start:stop], one entry at a time in index order."""
    if stop is None:
        stop = len(values)
    s = 0.0
    comp = 0.0
    for i in range(start, stop):
        x = float(values[i])
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


def loop_prune_window(pmf, eps):
    """Prune window by scanning each tail while its dropped mass stays below eps/4."""
    n = len(pmf) - 1
    lo, hi = 1, n - 1
    budget = eps / 4.0
    dropped = 0.0
    while lo <= hi and dropped + pmf[lo] < budget:
        dropped += pmf[lo]
        lo += 1
    dropped = 0.0
    while hi >= lo and dropped + pmf[hi] < budget:
        dropped += pmf[hi]
        hi -= 1
    return lo, hi


def expand_pairs(x1: int, y1: int, x0: int, y0: int):
    """Per-subject (earlier, later) binary pairs for a 2x2 stratified count."""
    earlier = [1] * (x1 + y1) + [0] * (x0 + y0)
    later = [1] * x1 + [0] * y1 + [1] * x0 + [0] * y0
    return earlier, later


def pearson_phi(x1: int, y1: int, x0: int, y0: int) -> float:
    """Pearson correlation of the expanded binary pairs (numpy oracle)."""
    earlier, later = expand_pairs(x1, y1, x0, y0)
    return float(np.corrcoef(earlier, later)[0, 1])


def random_tables(rng: np.random.Generator, low: int = 1, high: int = 40) -> StratifiedTables:
    """Stratified tables with every cell >= low (so nothing is degenerate)."""
    v = rng.integers(low, high, size=8)
    return StratifiedTables(
        stratum1=StratumTable(a=int(v[0]), b=int(v[1]), c=int(v[2]), d=int(v[3])),
        stratum0=StratumTable(a=int(v[4]), b=int(v[5]), c=int(v[6]), d=int(v[7])),
    )


def plug_in_inputs(tables: StratifiedTables):
    """Empirical plug-in parameters (pi_j, pi_k per group) from counts."""
    s1, s0 = tables.stratum1, tables.stratum0
    n_e = tables.n_exposed
    n_ne = tables.n_unexposed
    pi_j_e = (s1.a + s0.a) / n_e
    pi_k_e = s1.n_exposed / n_e
    pi_j_ne = (s1.c + s0.c) / n_ne
    pi_k_ne = s1.n_unexposed / n_ne
    return pi_j_e, pi_k_e, pi_j_ne, pi_k_ne


# Row-by-row ingest.  A parse returns (ids, exposed, outcomes, n_visits,
# dropped_incomplete, exposed_label, unexposed_label) with plain Python
# values, or raises ParseError.

def _loop_outcome(token, lineno):
    token = token.strip()
    if token == "":
        return None
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise ParseError(f"outcome value must be 0, 1, or empty, got {token!r}", line=lineno)


def _loop_labels(values_seen, exposed_value, any_rows):
    if len(values_seen) > 2:
        labels = ", ".join(repr(v) for v in values_seen)
        raise ParseError(f"exposure column has more than two values: {labels}")
    if any_rows and exposed_value not in values_seen:
        labels = ", ".join(repr(v) for v in values_seen) or "none"
        raise ParseError(
            f"exposed value {exposed_value!r} not present in exposure column (found: {labels})"
        )
    others = [v for v in values_seen if v != exposed_value]
    return exposed_value, others[0] if others else ""


def _loop_header(reader):
    for row in reader:
        if row and any(f.strip() for f in row):
            return [f.strip() for f in row]
    raise ParseError("empty file")


def _loop_result(subjects, n_visits, dropped, labels):
    return (
        tuple(sid for sid, _, _ in subjects),
        [exposed for _, exposed, _ in subjects],
        [list(outcomes) for _, _, outcomes in subjects],
        n_visits, dropped, *labels,
    )


def loop_parse_wide(handle, exposed_value):
    """The wide parser, one row and one outcome at a time."""
    reader = csv.reader(handle)
    header = _loop_header(reader)
    n_visits = len(header) - 2
    expected = ["id", "exposure"] + [f"y{i}" for i in range(1, n_visits + 1)]
    if n_visits < 2 or header != expected:
        raise ParseError(
            f"header must be id,exposure,y1,...,yT with T >= 2, got {','.join(header)}",
            line=reader.line_num,
        )
    subjects = []
    dropped = 0
    values_seen = {}
    for row in reader:
        if not row or not any(f.strip() for f in row):
            continue
        lineno = reader.line_num
        if len(row) != n_visits + 2:
            raise ParseError(f"expected {n_visits + 2} fields, got {len(row)}", line=lineno)
        sid = row[0].strip()
        label = row[1].strip()
        values_seen.setdefault(label, lineno)
        if len(values_seen) > 2:
            raise ParseError(
                f"exposure column has more than two values (third value {label!r})", line=lineno
            )
        outcomes = [_loop_outcome(tok, lineno) for tok in row[2:]]
        if any(o is None for o in outcomes):
            dropped += 1
            continue
        subjects.append((sid, label == exposed_value, outcomes))
    labels = _loop_labels(values_seen, exposed_value, any_rows=bool(subjects) or dropped > 0)
    return _loop_result(subjects, n_visits, dropped, labels)


def loop_parse_long(handle, exposed_value):
    """The long parser, one observation at a time, plus the rule that the
    largest visit may not exceed the number of observation rows."""
    reader = csv.reader(handle)
    header = _loop_header(reader)
    if header != ["id", "exposure", "visit", "y"]:
        raise ParseError(f"header must be id,exposure,visit,y, got {','.join(header)}",
                         line=reader.line_num)
    order = []
    exposure = {}
    obs = {}
    values_seen = {}
    max_visit = 0
    max_line = None
    n_rows = 0
    for row in reader:
        if not row or not any(f.strip() for f in row):
            continue
        lineno = reader.line_num
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        sid = row[0].strip()
        label = row[1].strip()
        try:
            visit = int(row[2].strip())
        except ValueError:
            raise ParseError(f"visit must be an integer, got {row[2].strip()!r}", line=lineno) from None
        if visit < 1:
            raise ParseError(f"visit must be >= 1, got {visit}", line=lineno)
        y = _loop_outcome(row[3], lineno)
        values_seen.setdefault(label, lineno)
        if len(values_seen) > 2:
            raise ParseError(
                f"exposure column has more than two values (third value {label!r})", line=lineno
            )
        if sid not in exposure:
            order.append(sid)
            exposure[sid] = label
            obs[sid] = {}
        elif exposure[sid] != label:
            raise ParseError(
                f"subject {sid!r} has conflicting exposure labels "
                f"{exposure[sid]!r} and {label!r}", line=lineno,
            )
        if visit in obs[sid]:
            raise ParseError(f"duplicate visit {visit} for subject {sid!r}", line=lineno)
        obs[sid][visit] = y
        n_rows += 1
        if visit > max_visit:
            max_visit, max_line = visit, lineno
    if max_visit > n_rows:
        raise ParseError(
            f"visit {max_visit} exceeds the number of observation rows ({n_rows}), "
            "so no subject can have every visit",
            line=max_line,
        )
    if max_visit < 2:
        raise ParseError("need outcomes for at least 2 visits")
    subjects = []
    dropped = 0
    for sid in order:
        outcomes = [obs[sid].get(v) for v in range(1, max_visit + 1)]
        if any(o is None for o in outcomes):
            dropped += 1
            continue
        subjects.append((sid, exposure[sid] == exposed_value, outcomes))
    labels = _loop_labels(values_seen, exposed_value, any_rows=bool(subjects) or dropped > 0)
    return _loop_result(subjects, max_visit, dropped, labels)


def loop_conditional_tables(exposed, outcomes, j, k):
    """[stratum 1 counts, stratum 0 counts], each [a, b, c, d], one subject at a time."""
    counts = [[0, 0, 0, 0], [0, 0, 0, 0]]  # [stratum][a, b, c, d]
    for is_exposed, ys in zip(exposed, outcomes):
        y_k = ys[k - 1]
        y_j = ys[j - 1]
        if is_exposed:
            cell = 0 if y_j == 1 else 1
        else:
            cell = 2 if y_j == 1 else 3
        counts[y_k][cell] += 1
    return [counts[1], counts[0]]


def loop_visit_risks(exposed, outcomes, n_visits):
    """(visit, exposed risk, non-exposed risk) rows, one subject at a time."""
    n_e = sum(1 for e in exposed if e)
    n_ne = sum(1 for e in exposed if not e)
    rows = []
    for visit in range(1, n_visits + 1):
        yes_e = sum(1 for e, ys in zip(exposed, outcomes) if e and ys[visit - 1] == 1)
        yes_ne = sum(1 for e, ys in zip(exposed, outcomes) if not e and ys[visit - 1] == 1)
        risk_e = yes_e / n_e if n_e else math.nan
        risk_ne = yes_ne / n_ne if n_ne else math.nan
        rows.append((visit, risk_e, risk_ne))
    return rows


# Replication-by-replication Monte-Carlo oracle: scalar draws from each
# block's fresh Philox streams, a scalar interval per replication.

def loop_rep_rng(seed, rep):
    """simulate_cohort's stream of one replication: Philox keyed (seed << 64) | rep."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | rep))


def _loop_draw_group(rng, n, params):
    """(n11, n10, n01, n00) of one group: earlier outcomes first, then later given earlier."""
    p_given1 = stratum_risk(params, 1)
    p_given0 = stratum_risk(params, 0)
    y_earlier = rng.random(n) < params.pi_k
    p_later = np.where(y_earlier, p_given1, p_given0)
    y_later = rng.random(n) < p_later
    n11 = int(np.count_nonzero(y_earlier & y_later))
    n10 = int(np.count_nonzero(y_earlier & ~y_later))
    n01 = int(np.count_nonzero(~y_earlier & y_later))
    return n11, n10, n01, n - n11 - n10 - n01


def loop_simulate_cohort(spec, rep):
    """Both stratum tables of one cohort replication, drawn from a fresh Philox."""
    rng = loop_rep_rng(spec.seed, rep)
    e11, e10, e01, e00 = _loop_draw_group(rng, spec.n_e, spec.params_e)
    u11, u10, u01, u00 = _loop_draw_group(rng, spec.n_ne, spec.params_ne)
    return StratifiedTables(
        stratum1=StratumTable(a=e11, b=e10, c=u11, d=u10),
        stratum0=StratumTable(a=e01, b=e00, c=u01, d=u00),
    )


def _cohort_group_law(n, params, stratum):
    """{(later count, stratum size): probability} of one group of n subjects.

    Enumerates the group's (n11, n10, n01, n00) multinomial over the four
    (earlier, later) outcome pairs; stratum 1 keeps (n11, n11 + n10),
    stratum 0 (n01, n01 + n00).
    """
    given1, given0 = stratum_risk(params, 1), stratum_risk(params, 0)
    pi = params.pi_k
    cells = (pi * given1, pi * (1.0 - given1), (1.0 - pi) * given0, (1.0 - pi) * (1.0 - given0))
    law = {}
    for n11 in range(n + 1):
        for n10 in range(n + 1 - n11):
            for n01 in range(n + 1 - n11 - n10):
                counts = (n11, n10, n01, n - n11 - n10 - n01)
                ways = math.factorial(n) // math.prod(math.factorial(k) for k in counts)
                prob = ways * math.prod(q ** k for q, k in zip(cells, counts))
                key = (n11, n11 + n10) if stratum == 1 else (n01, n01 + counts[3])
                law.setdefault(key, []).append(prob)
    return {key: math.fsum(probs) for key, probs in law.items()}


def exact_cohort_coverage(spec, stratum, level):
    """Coverage of the stratum interval when whole cohorts are sampled, exactly.

    Sums, over both groups' multinomial laws, the probability of the
    nondegenerate stratum tables whose scalar interval covers the true
    ratio: the unnormalized coverage the cohort oracle estimates.
    """
    _, _, true_rr = stratum_risks(spec.params_e, spec.params_ne, stratum)
    law_e = _cohort_group_law(spec.n_e, spec.params_e, stratum)
    law_ne = _cohort_group_law(spec.n_ne, spec.params_ne, stratum)
    covered = []
    for (a, n_e), p_e in law_e.items():
        for (c, n_ne), p_ne in law_ne.items():
            if 1 <= a <= n_e - 1 and 1 <= c <= n_ne - 1:
                est = stratum_rr_estimate(a, n_e, c, n_ne, level)
                if est.ci_lower <= true_rr <= est.ci_upper:
                    covered.append(p_e * p_ne)
    return math.fsum(covered)


def loop_count_reps(spec, stratum, level, margin_model, rep_lo, rep_hi, block_reps):
    """(covered, nondegenerate) over replications [rep_lo, rep_hi), one at a time.

    Replication r is in block b = r // block_reps, whose variable v is
    drawn from a fresh Philox keyed (seed << 64) | (4 b + v), one scalar
    draw per replication from the block's first replication on: v = 0 and
    1 are the exposed group's ones and later count, 2 and 3 the
    non-exposed group's.  A fixed_margin group draws its later count
    Bin(n, p) alone; a cohort group first draws ones ~ Bin(n, pi_k), and
    its later count is Bin(m, p) with m = ones (stratum 1) or n - ones
    (stratum 0).
    """
    groups = [(spec.n_e, spec.params_e), (spec.n_ne, spec.params_ne)]
    _, _, true_rr = stratum_risks(spec.params_e, spec.params_ne, stratum)
    covered = 0
    nondegenerate = 0
    for rep in range(rep_lo - rep_lo % block_reps, rep_hi):
        block, first = divmod(rep, block_reps)
        if first == 0:
            rngs = [np.random.Generator(np.random.Philox(key=(spec.seed << 64) | (4 * block + v)))
                    for v in range(4)]
        table = []
        for (n, params), (ones_rng, later_rng) in zip(groups, (rngs[:2], rngs[2:])):
            m = n
            if margin_model == "cohort":
                ones = int(ones_rng.binomial(n, params.pi_k))
                m = ones if stratum == 1 else n - ones
            table += [int(later_rng.binomial(m, stratum_risk(params, stratum))), m]
        a, n_e, c, n_ne = table
        if rep >= rep_lo and 1 <= a <= n_e - 1 and 1 <= c <= n_ne - 1:
            nondegenerate += 1
            est = stratum_rr_estimate(a, n_e, c, n_ne, level)
            if est.ci_lower <= true_rr <= est.ci_upper:
                covered += 1
    return covered, nondegenerate
