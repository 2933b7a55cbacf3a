"""The exact coverage kernel: a blocked NumPy enumeration of the count window.

For every pair of outcome counts (a, c) inside the retained windows the
kernel decides whether the log-scale Wald interval of
measures.log_wald_bounds (the same function the estimators call) covers
the true ratio, and accumulates the joint probability mass of the covering
and the non-covering pairs.

The interval covers RR exactly when
|log(a/n_e) - log(c/n_ne) - log RR| <= z*sqrt(v_e + v_ne), with
v = (1 - r)/(n*r) for each risk r.  That test separates: log(a/n_e) - log RR
and v_e are computed once per row (fixed a), log(c/n_ne) and v_ne once per
column, so a cell costs a subtraction, a square root and two comparisons
instead of a division and two exponentials.  A cell whose two sides lie
within _BAND of each other is decided again by log_wald_bounds itself; the
comment at _BAND shows why every other cell gets log_wald_bounds' answer
too, so the coverage mask is the one log_wald_bounds gives.

The window is processed in blocks of whole rows (fixed a) of at most
_BLOCK_CELLS cells, so working memory is O(block + n) however large the
window is.  Each row is summed with NumPy, and the row masses are combined
with math.fsum: the result depends only on the inputs, never on a block
or thread layout above it, and no BLAS call is involved.
"""

import math

import numpy as np

from .measures import log_wald_bounds

__all__ = ["cover_sums", "covered_blocks"]

_BLOCK_CELLS = 1 << 16

# Why a cell with |m| > _BAND, m = |row - col| - h, is decided as
# log_wald_bounds decides it.  Let u = 2**-53, r_e = a/n_e, r_ne = c/n_ne,
# L = log max(n_e, n_ne), and let h be the computed z*sqrt(v_e + v_ne): both
# computations form it with the same operations, so it is the same double.
# In exact arithmetic with this h, the cell is covered iff
# M = |log r_e - log r_ne - log RR| - h <= 0.
# - log_wald_bounds tests point*exp(-h) <= RR and RR <= point*exp(h).  Its
#   two quotients and the point cost 3u of relative error, exp (a few ulp)
#   and the product 5u more; in logs each test is one branch of M, moved
#   by at most 8u.
# - Here the errors are: 1u for the quotient, 4u|log r| per log, u|log RR|,
#   and one rounding of each subtraction, absolute.  A cell that could fall
#   on the other side of 0 has |m| <= _BAND, so |row - col| ~ h, and then
#   |log RR| <= 2L + h and |row| <= L + h: the total is at most
#   2u + 11uL + 3uh.
# Every r is at least 1/n, each v = 1/count - 1/n is at most 1, and z < 8.3
# for any level below 1, so h < 12.  Even at n = 10^9 (L < 21), the two
# errors add up to under 270u, about 3e-14.  If m > _BAND, M and both
# branches seen by log_wald_bounds are positive; if m < -_BAND, all are
# negative.  _BAND is about 10^4 times the sum of the two errors.
_BAND = 1e-9


def _log_risk_and_var(counts, n):
    """log(k/n) and v = (1 - r)/(n*r) at r = k/n, v as log_wald_bounds forms it."""
    risk = counts / n
    return np.log(risk), (1.0 - risk) / (n * risk)


def covered_blocks(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """Coverage masks of the window [a_lo, a_hi] x [c_lo, c_hi], by blocks of whole rows.

    Yields (a0, covered): covered[i, j] says whether the interval of
    (a0 + i, c_lo + j) covers true_rr, exactly as log_wald_bounds decides.
    The windows hold 0 < a < n_e and 0 < c < n_ne.  The mask is a buffer
    that the next block overwrites.
    """
    c = np.arange(c_lo, c_hi + 1, dtype=np.float64)
    col, col_var = _log_risk_and_var(c, n_ne)
    log_rr = math.log(true_rr)
    rows = max(1, _BLOCK_CELLS // max(1, c.size))
    shape = (max(0, min(rows, a_hi - a_lo + 1)), c.size)
    margin, half, covered = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    for start in range(a_lo, a_hi + 1, rows):
        k = min(rows, a_hi + 1 - start)
        a = np.arange(start, start + k, dtype=np.float64)
        row, row_var = _log_risk_and_var(a, n_e)
        m, h, cov = margin[:k], half[:k], covered[:k]
        np.subtract((row - log_rr)[:, None], col, out=m)
        np.abs(m, out=m)
        np.add(row_var[:, None], col_var, out=h)
        np.sqrt(h, out=h)
        h *= z
        m -= h
        np.less_equal(m, 0.0, out=cov)
        np.abs(m, out=m)
        if m.size and m.min() <= _BAND:
            i, j = np.nonzero(m <= _BAND)
            _, _, lower, upper = log_wald_bounds(a[i], n_e, c[j], n_ne, z, xp=np)
            cov[i, j] = (lower <= true_rr) & (true_rr <= upper)
        yield start, cov


def cover_sums(pa, pc, a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """Sum joint pmf mass over covering and non-covering count pairs.

    pa, pc: full float64 pmf arrays for the exposed / non-exposed outcome
    counts (index = count).  Windows are inclusive.  Returns
    (cover, noncover): per row (fixed a), pa[a] times the NumPy sum of pc
    over the covering (non-covering) c, then the rows' math.fsum.
    """
    pc_window = pc[c_lo:c_hi + 1]
    buffer = None
    cover_rows = []
    noncover_rows = []
    for start, covered in covered_blocks(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
        if buffer is None:
            buffer = np.empty(covered.shape)
        mass = buffer[:len(covered)]
        weight = pa[start:start + len(covered)]
        # For the finite, non-negative pmf, pc*1 = pc, pc*0 = 0, pc - pc = 0
        # and pc - 0 = pc exactly, so these are np.where(covered, pc, 0) and
        # then np.where(covered, 0, pc), bit for bit, in one buffer.
        np.multiply(covered, pc_window, out=mass)
        cover_rows.extend((weight * mass.sum(axis=1)).tolist())
        np.subtract(pc_window, mass, out=mass)
        noncover_rows.extend((weight * mass.sum(axis=1)).tolist())
    return math.fsum(cover_rows), math.fsum(noncover_rows)
