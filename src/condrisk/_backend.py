"""The exact coverage kernel: a blocked NumPy enumeration of the count window.

For every pair of outcome counts (a, c) inside the retained windows the
kernel builds the log-scale Wald interval with measures.log_wald_bounds
(the same function the estimators call) and accumulates the joint
probability mass of the covering and the non-covering pairs.

The window is processed in blocks of whole rows (fixed a) of at most
_BLOCK_CELLS cells, so working memory is O(block + n) however large the
window is.  Each row is summed with NumPy, and the row masses are combined
with math.fsum: the result depends only on the inputs, never on a block
or thread layout above it, and no BLAS call is involved.
"""

import math

import numpy as np

from .measures import log_wald_bounds

__all__ = ["cover_sums"]

_BLOCK_CELLS = 1 << 16


def cover_sums(pa, pc, a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """Sum joint pmf mass over covering and non-covering count pairs.

    pa, pc: full float64 pmf arrays for the exposed / non-exposed outcome
    counts (index = count).  Windows are inclusive.  Returns
    (cover, noncover): per row (fixed a), pa[a] times the NumPy sum of pc
    over the covering (non-covering) c, then the rows' math.fsum.
    """
    c = np.arange(c_lo, c_hi + 1, dtype=np.float64)
    pc_window = pc[c_lo:c_hi + 1]
    rows = max(1, _BLOCK_CELLS // max(1, c.size))
    cover_rows = []
    noncover_rows = []
    for start in range(a_lo, a_hi + 1, rows):
        stop = min(start + rows, a_hi + 1)
        a = np.arange(start, stop, dtype=np.float64)[:, None]
        _, _, lower, upper = log_wald_bounds(a, n_e, c, n_ne, z, xp=np)
        covered = (lower <= true_rr) & (true_rr <= upper)
        weight = pa[start:stop]
        cover_rows.extend((weight * np.where(covered, pc_window, 0.0).sum(axis=1)).tolist())
        noncover_rows.extend((weight * np.where(covered, 0.0, pc_window).sum(axis=1)).tolist())
    return math.fsum(cover_rows), math.fsum(noncover_rows)
