"""The exact coverage kernel: each row's covered counts as one certified interval.

For every count pair (a, c) in the retained windows the kernel decides
whether the log-scale Wald interval of measures.log_wald_bounds covers the
true ratio, and sums the joint pmf of the covering and non-covering pairs.
With d = log(a/n_e) - log RR - log(c/n_ne), h = z*sqrt(v_e + v_ne) and
v = (1 - r)/(n*r), "upper >= RR" is d + h >= 0 and "lower <= RR" is
d - h <= 0; a test within _BAND of 0 is decided again by log_wald_bounds.
In a row the upper test holds on a prefix of the columns and the lower
test on a suffix of the interior ones, so the covered interior columns
are one run [s, e): guessed by the closed form from a seed where the
point estimate is RR, then certified by probes.  Columns outside the
interior are decided one at a time (proofs at _BAND).  A row's cover is
P[e] - P[s], P the prefix sums of the non-exposed pmf window, plus the pmf
of each covered edge column in column order; its noncover is P[W] minus
that.  Each scenario's rows, times the exposed pmf, take one math.fsum.
Every per-count value comes from window_arrays, built once per margin.
Pieces of at most _BATCH_ROWS rows run in chunks of under _BATCH_WORK units
of work() plus one piece; a chunk gathers its rows from the exposed arrays
and copies each of its distinct column windows once (none if it has one),
so its memory is O(_BATCH_WORK + window).  All row arithmetic is
elementwise, so the sums never depend on the chunks or a thread layout.
"""

import itertools
import math

import numpy as np

from .measures import log_wald_bounds

__all__ = ["batch_cover_sums", "cover_sums", "packed", "window_arrays", "work"]

# Rows per piece of a scenario's window.
_BATCH_ROWS = 4096
# Work units per kernel chunk and per batch of run_grid's points (7 for the paper slice).
_BATCH_WORK = 2 ** 13

# Why a test with |m| > _BAND, m = d -+ h, is decided as log_wald_bounds
# decides it.  Let u = 2**-53, r_e = a/n_e, r_ne = c/n_ne,
# L = log max(n_e, n_ne), and h the computed z*sqrt(v_e + v_ne): both
# computations form it with the same operations, so it is the same double.
# In exact arithmetic with this h, the test is the sign of
# M = log r_e - log r_ne - log RR -+ h.
# - log_wald_bounds tests point*exp(-h) <= RR and RR <= point*exp(h).  Its
#   two quotients and the point cost 3u of relative error, exp (a few ulp)
#   and the product 5u more: in logs, M moved by at most 8u.
# - Here: 1u per quotient, 4u|log x| per log, and one rounding of each
#   subtraction, absolute.  A test that could fall on the other side of 0
#   has |m| <= _BAND, so |d| ~ h, |log RR| <= 2L + h and |row| <= L + h:
#   at most 2u + 17uL + 6uh in all.
# Every r is at least 1/n, each v = 1/count - 1/n is at most 1, and z < 8.3
# for any level below 1, so h < 12.  Even at n = 10^9 (L < 21), the two
# errors add up to under 450u, about 5e-14, and _BAND is 2*10^4 times that.
# If m > _BAND, M and the value log_wald_bounds sees are positive; if
# m < -_BAND, both are negative.
_BAND = 1e-9

# Why the tests are monotone.  Fix a; let R = log(a/n_e) - log RR,
# B = 1/a - 1/n_e >= 0, h = z*sqrt(B + 1/c - 1/n_ne), g = log(c/n_ne) - h
# and f = log(c/n_ne) + h: the upper test is g <= R, the lower f >= R.  In
# x = log c, g' >= 1 and f' = 1 - z/(2c*sqrt(B + 1/c - 1/n_ne)) >=
# 1 - z/(2*sqrt(q)), q = c(1 - c/n_ne) concave, so f' >= 1/2 between the
# interior columns: from the first to the last with q >= z^2.  So from
# column to column g grows by at least log(1 + 1/c) >= 1/n_ne, and f by
# 1/(2 n_ne) in the interior: over 5e-10 up to n_ne = 10^9, while
# log_wald_bounds' tests move by at most 8u plus h's rounding (6u of
# h < 12), about 9e-15.  So its upper test holds on a prefix of the window
# and its lower test on a suffix of the interior; rounding q moves the
# threshold by a few ulp, which the margin in f' absorbs.


def window_arrays(pmf, lo, n):
    """The kernel's read-only rows for the pmf of a Binomial(n, .) margin at the counts lo, lo + 1, ...:
    a copy of pmf, its cumsum, the counts k, log r, (1 - r)/(n*r) and k(1 - r), r = k/n as in log_wald_bounds."""
    k = np.arange(lo, lo + len(pmf), dtype=np.float64)
    risk = k / n
    arrays = np.array([pmf, np.cumsum(pmf), k, np.log(risk), (1.0 - risk) / (n * risk), k * (1.0 - risk)])
    arrays.setflags(write=False)
    return arrays


def _row_sums(pieces, z):
    """Each row's weighted (cover, noncover), as lists, over pieces (scenario, i, j): its rows i..j - 1."""
    # each distinct column window once, in order of first use
    columns = list({id(sc[1]): sc[1] for sc, _, _ in pieces}.values())
    slot = {id(w): s for s, w in enumerate(columns)}
    widths = np.array([w.shape[1] for w in columns])
    start = np.cumsum(widths) - widths
    pc, _, c, col, col_var, spread = columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)
    prefix = np.concatenate([part for w in columns for part in ((0.0,), w[1])])
    bounds = np.array([(f[0], f[-1] + 1) if (f := np.flatnonzero(spread[s:s + w] >= z * z)).size else (w, w)
                       for s, w in zip(start, widths)])
    # each row with its piece's values; window is its column window's slot, pfx its P[0] in prefix
    piece = np.repeat(np.arange(len(pieces)), [j - i for _, i, j in pieces])
    weight, _, a, row, row_var, _ = np.concatenate([sc[0][:, i:j] for sc, i, j in pieces], axis=1)
    values = [(*sc[2:], slot[id(sc[1])]) for sc, _, _ in pieces]
    n_e, n_ne, rr, window = (np.array(v)[piece] for v in zip(*values))
    first_col, width, (j0, j1) = start[window], widths[window], bounds[window].T
    c_lo, pfx, row = c[first_col], first_col + window, row - np.log(rr)

    def holds(i, j, upper):
        """The upper (or lower) test at the rows of index array i and window offsets j."""
        k = first_col[i] + j
        h = np.sqrt(row_var[i] + col_var[k]) * z
        m = row[i] - col[k] + (h if upper else -h)
        ok = m >= 0.0 if upper else m <= 0.0
        near = np.flatnonzero(np.abs(m) <= _BAND)
        if near.size:
            r = i[near]
            _, _, lower, upper_rr = log_wald_bounds(a[r], n_e[r], c[k[near]], n_ne[r], z, xp=np)
            ok[near] = rr[r] <= upper_rr if upper else lower <= rr[r]
        return ok

    def first(lo, hi, j, upper):
        """Per row, the first offset in [lo, hi) where the upper test fails or the lower holds, else hi.

        The closed form guesses it, with h at the seed j, then at each guess:
        the lower test's h a column early makes a guess exact once the one
        before is right or one too high.  Probes at the guess and one below
        settle the rows it is right for; bisection settles the others.
        """
        for _ in range(3 - upper):  # the upper test's guesses settle a step sooner
            h = np.sqrt(row_var + col_var[first_col + np.clip(j - (not upper), 0, width - 1)]) * z
            x = n_ne * np.exp(np.minimum(row + h if upper else row - h, 700.0))  # no overflow
            j = np.clip((np.floor(x) + 1.0 if upper else np.ceil(x)) - c_lo, 0, width).astype(np.int64)
        i, step = np.arange(lo.size), 0
        while (i := i[lo[i] < hi[i]]).size:
            mid = np.clip(j[i] - step if step < 2 else (lo[i] + hi[i]) >> 1, lo[i], hi[i] - 1)
            found = holds(i, mid, upper) != upper
            hi[i[found]], lo[i[~found]], step = mid[found], mid[~found] + 1, step + 1
        return lo

    seed = np.clip(np.floor(a * n_ne / (n_e * rr)) - c_lo, 0, width - 1).astype(np.int64)
    e = first(np.zeros_like(width), width.copy(), seed, True)
    s = first(j0.copy(), np.minimum(e, j1), seed, False)
    cover = prefix[pfx + np.maximum(np.minimum(e, j1), s)] - prefix[pfx + s]
    # the edge columns of each row, [0, j0) then [j1, width), in column order, added in that order
    edges = j0 + width - j1
    r = np.repeat(np.arange(edges.size), edges)
    if r.size:
        j = np.arange(r.size) - np.repeat(np.cumsum(edges) - edges, edges)  # the pair's place in its row
        j += (j >= j0[r]) * (j1 - j0)[r]
        ok = (j < e[r]) & holds(r, j, False)
        np.add.at(cover, r, np.where(ok, pc[first_col[r] + j], 0.0))
    noncover = prefix[pfx + width] - cover
    return (weight * cover).tolist(), (weight * noncover).tolist()


def work(rows, cols, windows=1):
    """The rows and columns the kernel touches for rows window rows in windows scenarios of cols
    columns in all: each piece of rows carries them all, so W_a + ceil(W_a/_BATCH_ROWS) W_c for one."""
    return windows * rows + -(-rows // _BATCH_ROWS) * cols


def packed(items, sizes, cap):
    """Consecutive items in lists, by the multiple of cap their first unit is past (so under cap plus one item)."""
    groups = itertools.groupby(zip(itertools.accumulate(sizes, initial=0), items), lambda p: p[0] // cap)
    return [[item for _, item in group] for _, group in groups]


def batch_cover_sums(scenarios, z):
    """Yield (cover, noncover) of each scenario (exposed, non_exposed, n_e, n_ne, true_rr).

    exposed and non_exposed are the window_arrays of the two outcome counts'
    windows, non-empty and within 0 < a < n_e, 0 < c < n_ne.
    """
    rows = _BATCH_ROWS
    pieces = [(sc, i, min(i + rows, sc[0].shape[1])) for sc in scenarios for i in range(0, sc[0].shape[1], rows)]
    covers, noncovers = [], []
    for chunk in packed(pieces, [work(j - i, sc[1].shape[1]) for sc, i, j in pieces], _BATCH_WORK):
        cover, noncover = map(iter, _row_sums(chunk, z))
        for sc, i, j in chunk:
            covers += itertools.islice(cover, j - i)
            noncovers += itertools.islice(noncover, j - i)
            if j == sc[0].shape[1]:
                yield math.fsum(covers), math.fsum(noncovers)
                covers, noncovers = [], []


def cover_sums(pa, pc, a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr):
    """(cover, noncover) of one scenario of pmfs pa and pc (index = count) and inclusive windows:
    batch_cover_sums of a batch of one."""
    exposed, non_exposed = window_arrays(pa[a_lo:a_hi + 1], a_lo, n_e), window_arrays(pc[c_lo:c_hi + 1], c_lo, n_ne)
    return next(batch_cover_sums([(exposed, non_exposed, n_e, n_ne, true_rr)], z))
