"""Reference computations the benchmark checks condrisk's outputs against.

Nothing here imports condrisk: probabilities come from scipy.stats, the
log-Wald interval is written out again in NumPy, sums use math.fsum, and
simulations draw from their own NumPy generator.  Each function states
the error it may carry, so a check can compare with a stated tolerance.
"""

import math

import numpy as np
from scipy.stats import binom, norm

# Half-width of each binomial window: this many standard deviations plus
# this many counts about the mean, which leaves out far below 1e-15 of
# the mass.  The mass really left out is computed and returned, so it
# enters a check's tolerance exactly.
WINDOW_SD = 10

# Log-scale distance within which a CI bound counts as touching the true
# ratio.  Two correct implementations may round such a cell either way
# (exp, sqrt and the normal quantile differ by an ulp between libraries),
# so the mass of these cells is returned and added to the tolerance.
AMBIGUOUS_LOG = 1e-9


def z_value(level):
    """Standard normal quantile at 1 - alpha/2."""
    return float(norm.ppf(0.5 + level / 2.0))


def stratum_risk(pi, rho, stratum):
    """Later-visit outcome probability within a stratum of the earlier outcome.

    Equal marginals pi at both visits with correlation rho give
    Pr(Y=1 | earlier 1) = pi + rho (1 - pi) and
    Pr(Y=1 | earlier 0) = (1 - rho) pi.
    """
    return pi + rho * (1.0 - pi) if stratum == 1 else (1.0 - rho) * pi


def log_wald_bounds(a, n_e, c, n_ne, z):
    """Log of the CI bounds of (a/n_e)/(c/n_ne); arrays broadcast."""
    r_e = a / n_e
    r_ne = c / n_ne
    log_point = np.log(r_e) - np.log(r_ne)
    half = z * np.sqrt((1.0 - r_e) / (n_e * r_e) + (1.0 - r_ne) / (n_ne * r_ne))
    return log_point - half, log_point + half


def _window(n, p):
    """Nondegenerate counts within WINDOW_SD standard deviations of the mean.

    Returns (counts, pmf over them, nondegenerate mass outside them).
    """
    half = WINDOW_SD * (math.sqrt(n * p * (1.0 - p)) + 1.0)
    lo = max(1, math.floor(n * p - half))
    hi = min(n - 1, math.ceil(n * p + half))
    counts = np.arange(lo, hi + 1)
    outside = 0.0
    if lo > 1:
        outside += float(binom.cdf(lo - 1, n, p) - binom.pmf(0, n, p))
    if hi < n - 1:
        outside += float(binom.sf(hi, n, p) - binom.pmf(n, n, p))
    return counts, binom.pmf(counts, n, p), max(outside, 0.0)


def exact_coverage(n_e, n_ne, p_e, p_ne, true_rr, level):
    """Coverage mass of the log-Wald CI over tables with positive entries.

    Returns a dict: p_c (mass of covering count pairs, summed with fsum
    over the windows), degenerate_mass (mass of tables with a zero
    entry), outside (nondegenerate mass the windows leave out, an upper
    bound on |p_c - true p_c| apart from rounding) and ambiguous (mass of
    cells whose bound touches the true ratio within AMBIGUOUS_LOG).
    """
    a, pa, out_a = _window(n_e, p_e)
    c, pc, out_c = _window(n_ne, p_ne)
    lower, upper = log_wald_bounds(
        a[:, None].astype(float), n_e, c[None, :].astype(float), n_ne, z_value(level)
    )
    log_rr = math.log(true_rr)
    covered = (lower <= log_rr) & (log_rr <= upper)
    touching = (np.abs(lower - log_rr) < AMBIGUOUS_LOG) | (np.abs(upper - log_rr) < AMBIGUOUS_LOG)
    mass = pa[:, None] * pc[None, :]
    nondegenerate_e = 1.0 - binom.pmf(0, n_e, p_e) - binom.pmf(n_e, n_e, p_e)
    nondegenerate_ne = 1.0 - binom.pmf(0, n_ne, p_ne) - binom.pmf(n_ne, n_ne, p_ne)
    return {
        "p_c": math.fsum(mass[covered].tolist()),
        "degenerate_mass": float(1.0 - nondegenerate_e * nondegenerate_ne),
        "outside": out_a + out_c,
        "ambiguous": math.fsum(mass[touching].tolist()),
    }


def _draw_stratum_counts(rng, reps, n, pi, rho, stratum):
    """Per replication: (stratum margin, later outcomes in it) for one group.

    Draws every subject's earlier outcome, then the later outcome given
    it, exactly as the cohort model describes a subject's history.
    """
    earlier = rng.random((reps, n)) < pi
    p_later = np.where(earlier, stratum_risk(pi, rho, 1), stratum_risk(pi, rho, 0))
    later = rng.random((reps, n)) < p_later
    in_stratum = earlier if stratum == 1 else ~earlier
    return in_stratum.sum(axis=1), (in_stratum & later).sum(axis=1)


def simulate_cohort_coverage(n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne, stratum, level,
                             reps, seed, chunk=1000):
    """Covered fraction of `reps` simulated cohorts (degenerate tables count as not covered).

    The generator is NumPy's PCG64 keyed by (seed, 'cohort'), unrelated to
    the Philox substreams condrisk uses.  Returns (estimate, std_error).
    """
    rng = np.random.Generator(np.random.PCG64([seed, 0x636F686F7274]))
    true_rr = stratum_risk(pi_e, rho_e, stratum) / stratum_risk(pi_ne, rho_ne, stratum)
    log_rr = math.log(true_rr)
    z = z_value(level)
    covered = 0
    for start in range(0, reps, chunk):
        size = min(chunk, reps - start)
        m_e, a = _draw_stratum_counts(rng, size, n_e, pi_e, rho_e, stratum)
        m_ne, c = _draw_stratum_counts(rng, size, n_ne, pi_ne, rho_ne, stratum)
        ok = (a >= 1) & (a <= m_e - 1) & (c >= 1) & (c <= m_ne - 1)
        lower, upper = log_wald_bounds(a[ok].astype(float), m_e[ok], c[ok].astype(float), m_ne[ok], z)
        covered += int(np.count_nonzero((lower <= log_rr) & (log_rr <= upper)))
    estimate = covered / reps
    return estimate, math.sqrt(estimate * (1.0 - estimate) / reps)


def _rr(a, n_e, c, n_ne, z, crude):
    """Point and CI of (a/n_e)/(c/n_ne); None when a or c is zero."""
    if a == 0 or c == 0 or n_e == 0 or n_ne == 0:
        return None
    r_e, r_ne = a / n_e, c / n_ne
    point = r_e / r_ne
    if crude:
        se = math.sqrt(1.0 / a - 1.0 / n_e + 1.0 / c - 1.0 / n_ne)
    else:
        se = math.sqrt((1.0 - r_e) / (n_e * r_e) + (1.0 - r_ne) / (n_ne * r_ne))
    return point, point * math.exp(-z * se), point * math.exp(z * se)


def _phi(later, earlier):
    """Pearson correlation of two 0/1 arrays; None when a margin is empty."""
    n = later.size
    x11 = int(np.count_nonzero(earlier & later))
    n1 = int(np.count_nonzero(earlier))
    c1 = int(np.count_nonzero(later))
    if n1 in (0, n) or c1 in (0, n):
        return None
    return (x11 * n - n1 * c1) / math.sqrt(float(n1) * (n - n1) * c1 * (n - c1))


def cohort_analysis(exposed, outcomes, level):
    """Expected analysis of complete subjects, counted from the arrays.

    exposed: bool array (subjects); outcomes: int array (subjects, visits)
    of 0/1 for complete subjects only.  Returns (risks, measures):
    risks maps (visit, group) to the risk; measures maps (j, k, name) to
    ((point, lower, upper), rho_e, rho_ne), each None where not estimable.
    Consecutive visit pairs (j, j-1), as condrisk analyzes by default.
    """
    z = z_value(level)
    y = outcomes.astype(bool)
    groups = {"E": exposed, "nonE": ~exposed}
    risks = {}
    for v in range(y.shape[1]):
        for name, rows in groups.items():
            n = int(np.count_nonzero(rows))
            risks[(v + 1, name)] = int(np.count_nonzero(y[rows, v])) / n if n else None
    measures = {}
    for j in range(2, y.shape[1] + 1):
        later, earlier = y[:, j - 1], y[:, j - 2]
        rho_e = _phi(later[exposed], earlier[exposed])
        rho_ne = _phi(later[~exposed], earlier[~exposed])
        for name, keep, crude in (("rr", np.ones_like(earlier), True),
                                  ("rr1", earlier, False), ("rr0", ~earlier, False)):
            e_rows, ne_rows = keep & exposed, keep & ~exposed
            est = _rr(int(np.count_nonzero(later & e_rows)), int(np.count_nonzero(e_rows)),
                      int(np.count_nonzero(later & ne_rows)), int(np.count_nonzero(ne_rows)),
                      z, crude)
            measures[(j, j - 1, name)] = (est, rho_e, rho_ne)
    return risks, measures
