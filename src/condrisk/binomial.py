"""Log-space binomial pmf on a compensated log-factorial table.

A plain lgamma-based ln C(n,k) loses about a digit to cancellation at
n ~ 2000 (three ~1e4-sized terms combine to ~1e3), which is too close to
the 1e-12 relative accuracy this module promises for the log-pmf.  The
table here stores ln(n!) as an unevaluated double-double (hi, lo) pair,
accumulated with error-free two-sum transforms, so the only inaccuracy
left in ln C(n,k) is the half-ulp of each math.log(i) input term:
worst case ~5e-13 absolute at n = 2000, i.e. ~2e-13 relative on the
log-pmf at the mode.

The table grows on demand and is shared process-wide.  It holds each
pair in two array('d') columns, 16 bytes per k, and NumPy reads them as
views.  pmf_vector evaluates the log-pmf only where Bernstein's
inequality leaves the pmf a chance to be nonzero in double precision,
at most 39 sqrt(np(1-p)) + 507 counts either side of np, and stores zeros
elsewhere: bit for bit the pmf an evaluation at every count gives.
"""

import math
import threading
from array import array

import numpy as np

from .errors import DomainError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    """Error-free sum: returns (fl(a+b), exact residual). Works elementwise."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _two_prod(a, b):
    """Error-free product via Dekker splitting (no FMA assumed)."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


# ensure adds log k a block of k at a time, with no Python loop, and gets
# the pairs of adding them one at a time: with X_k the exact sum of pair
# k - 1 and the double log k, exact two-sums and per-k renormalisation
# store hi = fl(X_k), lo = X_k - hi.  Here the running sums T are one
# sequential cumsum and E, lo plus the cumsum of the residuals, is exact:
# each residual is a multiple of 2^-53 (log k > 1/2) below ulp(T)/2, so E
# stays below 2^11 ulp(T) < 1 in a (small, for small temporaries) block for
# any T < 2^41.  So T + E = X_k, one renormalisation gives hi = fl(X_k),
# and hi - T (Sterbenz) and lo = E - (hi - T) (X_k - hi < ulp(hi)/2) are exact.
_LOG_BLOCK = 1 << 11


class _LogFactorialTable:
    """ln(n!) as double-double pairs, grown on demand.

    _hi and _lo are array('d'), 8 bytes per entry.  A published array is
    never changed: ensure builds a larger one and replaces it, _lo before
    _hi, so whoever sees k < len(_hi) finds entry k in both, and arrays()
    can hand out views without copying.  Each growth adds at least a
    sixteenth of the size, so growing one k at a time costs amortized O(1)
    per entry.
    """

    def __init__(self):
        self._hi = array("d", [0.0, 0.0])  # ln 0! = ln 1! = 0
        self._lo = array("d", [0.0, 0.0])
        self._lock = threading.Lock()

    def ensure(self, n: int) -> None:
        if n < len(self._hi):
            return
        with self._lock:
            size = len(self._hi)
            if n < size:  # another thread grew it meanwhile
                return
            grown = max(n + 1, size + size // 16)
            hi, lo = array("d", [0.0]) * grown, array("d", [0.0]) * grown
            hi[:size], lo[:size] = self._hi, self._lo
            out_hi, out_lo = np.frombuffer(hi), np.frombuffer(lo)
            for k in range(size, grown, _LOG_BLOCK):
                stop = min(k + _LOG_BLOCK, grown)
                x = np.fromiter(map(math.log, range(k, stop)), np.float64, stop - k)
                t = np.add.accumulate(np.concatenate((out_hi[k - 1:k], x)))  # cumsum, uncached
                _, residual = _two_sum(t[:-1], x)  # t[1:] is its sum
                e = np.add.accumulate(np.concatenate((out_lo[k - 1:k], residual)))[1:]
                out_hi[k:stop] = t[1:] + e  # renormalize
                out_lo[k:stop] = e - (out_hi[k:stop] - t[1:])
            self._lo = lo
            self._hi = hi

    def arrays(self, n: int):
        """Read-only float64 views of ln(k!) (hi, lo) for k = 0..n."""
        self.ensure(n)
        views = np.frombuffer(self._hi)[: n + 1], np.frombuffer(self._lo)[: n + 1]
        for view in views:
            view.setflags(write=False)
        return views


_LFACT = _LogFactorialTable()


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")


def binom_log_pmf(n: int, k: int, p: float) -> float:
    """ln of the Binomial(n, p) pmf at k.

    ln C(n,k) + k ln p + (n-k) ln(1-p), combined in double-double so the
    result is accurate to well under 1e-12 relative.  p = 0 or 1 is
    treated as an exact point mass (log-pmf 0.0 at the atom, -inf off it).
    """
    if not 0 <= k <= n:
        raise DomainError(f"k must be in [0, n], got k={k}, n={n}")
    return float(log_pmf_at(n, p, np.array(k)))


def log_pmf_at(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """ln pmf of Binomial(n, p) at each count of k, an int array within [0, n].

    A bad p raises DomainError and p = 0 or 1 is a point mass, both
    before the log-factorial table grows to n.
    """
    _check_probability(p)
    if p == 0.0 or p == 1.0:
        return np.where(k == (0 if p == 0.0 else n), 0.0, -math.inf)
    hi, lo = _LFACT.arrays(n)
    r = n - k
    return _log_pmf(hi[n], lo[n], hi[k], lo[k], hi[r], lo[r], k.astype(np.float64), r.astype(np.float64), p)


def _log_pmf(hi_n, lo_n, hi_k, lo_k, hi_r, lo_r, k, r, p):
    """ln C(n,k) + k ln p + r ln(1-p), r = n - k, in double-double; works elementwise.

    (hi_x, lo_x) is ln(x!) as a double-double pair; k and r are floats.
    """
    # logC = lfact[n] - lfact[k] - lfact[r], exactly in dd
    s, e = _two_sum(hi_n, -hi_k)
    e = e + (lo_n - lo_k)
    s, e2 = _two_sum(s, -hi_r)
    e = e + e2 - lo_r
    # add k ln p and r ln(1-p) via error-free products
    for count, logterm in ((k, math.log(p)), (r, math.log1p(-p))):
        ph, pl = _two_prod(count, logterm)
        s, e2 = _two_sum(s, ph)
        e = e + e2 + pl
    return s + e


# By Bernstein's inequality (Hoeffding, JASA 58 (1963) 13-30), a
# Binomial(n, p) count X has P(|X - np| >= t) <= 2 exp(-T) at
# t = T/3 + sqrt((T/3)^2 + 2T np(1-p)).  At T = 760 the pmf of every count
# that far from np is below 2 exp(-760), so its log-pmf, computed to about
# 1e-12 relative, is below -759, and np.exp of anything below -745.2 is
# exactly 0.0.
_BERNSTEIN_EXPONENT = 760.0


def support_bounds(n: int, p: float, exponent: float = _BERNSTEIN_EXPONENT) -> tuple[int, int]:
    """[floor(np - t), ceil(np + t)] within [0, n], t at T = min(exponent, 760).

    pmf_vector's nonzero entries other than 0 and n lie in it, and each
    tail beyond it has mass at most exp(-T).
    """
    _check_probability(p)
    exponent = min(exponent, _BERNSTEIN_EXPONENT)
    third = exponent / 3.0
    t = third + math.sqrt(third * third + 2.0 * exponent * n * p * (1.0 - p))
    return max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))


def _support(n: int, p: float) -> np.ndarray:
    """The counts pmf_vector evaluates: support_bounds(n, p), and 0 and n."""
    lo, hi = support_bounds(n, p)
    # one more count at each end where an atom is outside, then the atoms there
    k = np.arange(lo - (lo > 0), hi + 1 + (hi < n))
    k[0], k[-1] = 0, n
    return k


def pmf_vector(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at every k = 0..n (exp of the log-pmf).

    The log-pmf is evaluated only at _support(n, p); every other entry is
    0.0, which is what np.exp of its log-pmf gives (see
    _BERNSTEIN_EXPONENT).  At n = 10^5 and p = 0.01 that is 2,507 of
    100,001 counts.
    """
    k = _support(n, p)
    values = np.exp(log_pmf_at(n, p, k))  # its temporaries freed before the n + 1 doubles
    pmf = np.zeros(n + 1)
    pmf[k] = values
    return pmf


def neumaier_sum(values, start: int = 0, stop: int | None = None) -> float:
    """Compensated (Neumaier) sum of values[start:stop] in ascending index order.

    Only the span from the first to the last nonzero entry is visited.
    That is exact, not an approximation: adding a zero leaves both the
    running sum and its compensation unchanged, so the underflowed tails
    of a large-n pmf can be skipped.  At n = 10^5 and p = 0.01 the span
    is 2,360 entries.  values may be a list or an array.  The sums and the
    compensations of the entry-by-entry loop, bit for bit, are sequential
    np.cumsums of the entries and of Neumaier's residual of each step.
    """
    span = np.asarray(values[start:stop], dtype=np.float64)
    nonzero = np.flatnonzero(span)
    if nonzero.size == 0:
        return 0.0
    x = span[nonzero[0]:nonzero[-1] + 1]
    total = np.cumsum(x)
    before = np.concatenate(([0.0], total[:-1]))
    residual = np.where(np.abs(before) >= np.abs(x), (before - total) + x, (x - total) + before)
    return float(total[-1] + np.cumsum(residual)[-1])


def _dropped(tail: np.ndarray, budget: float) -> int:
    """Number of leading entries of tail dropped: those whose running sum stays below budget."""
    reached = ~(np.cumsum(tail) < budget)
    return int(reached.argmax()) if reached.any() else tail.size


def prune_window(pmf: np.ndarray, eps: float) -> tuple[int, int]:
    """Index window [lo, hi] of the nondegenerate support after tail pruning.

    Degenerate endpoints k = 0 and k = n are always outside the window.
    Within [1, n-1], values are dropped from each tail while the dropped
    mass of that tail stays below eps/4, so the total pruned mass per
    margin stays below eps/2 (both margins together: below eps).
    eps = 0 keeps the window exhaustive.  The window may be empty
    (lo > hi), e.g. for n = 1.

    Each tail is one np.cumsum, which adds in index order, so its prefixes
    are exactly the running dropped masses of an entry-by-entry scan, and
    the first prefix that reaches eps/4 ends that tail.  The upper tail is
    scanned only down to lo, so the two tails never overlap.  Only the
    span from the first to the last nonzero entry of [1, n-1] is summed:
    with eps > 0 the zeros outside it keep a running mass of 0 or of the
    whole span, so they are dropped exactly when the entry-by-entry scan
    drops them.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    n = pmf.size - 1
    budget = eps / 4.0
    if budget == 0.0:
        return 1, n - 1
    nonzero = np.flatnonzero(pmf[1:n])
    if nonzero.size == 0:
        return max(1, n), n - 1
    start, stop = 1 + int(nonzero[0]), 2 + int(nonzero[-1])
    lo = start + _dropped(pmf[start:stop], budget)
    if lo == stop:  # the whole span dropped, and the zeros after it
        return n, n - 1
    return lo, stop - 1 - _dropped(pmf[lo:stop][::-1], budget)
