"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own numeric kernels:
probabilities come from scipy, sums from math.fsum, correlations from
numpy/statistics, so agreement with the package is a real cross-check.
The two loop oracles keep the entry-by-entry scans that the package's
vectorised neumaier_sum and prune_window must reproduce bit for bit.
"""

import math

import numpy as np
from scipy.stats import binom as _sbinom

from condrisk.coverage import true_conditional_risks
from condrisk.measures import StratifiedTables, StratumTable, stratum_rr_estimate


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
