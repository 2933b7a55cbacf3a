"""Log-space binomial pmf on a compensated log-factorial table.

A plain lgamma-based ln C(n,k) loses about a digit to cancellation at
n ~ 2000 (three ~1e4-sized terms combine to ~1e3), which is too close to
the 1e-12 relative accuracy this module promises for the log-pmf.  The
table here stores ln(n!) as an unevaluated double-double (hi, lo) pair,
accumulated with error-free two-sum transforms, so the only inaccuracy
left in ln C(n,k) is the half-ulp of each math.log(i) input term:
worst case ~5e-13 absolute at n = 2000, i.e. ~2e-13 relative on the
log-pmf at the mode.

The table grows on demand and is shared process-wide.
"""

import math
import threading

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


class _LogFactorialTable:
    """ln(n!) as double-double pairs, grown on demand."""

    def __init__(self):
        self._hi = [0.0, 0.0]  # ln 0! = ln 1! = 0
        self._lo = [0.0, 0.0]
        self._lock = threading.Lock()
        self._arrays = (np.empty(0), np.empty(0))  # float64 copies of _hi, _lo

    def ensure(self, n: int) -> None:
        if n < len(self._hi):
            return
        with self._lock:
            hi, lo = self._hi, self._lo
            hi_append, lo_append, log = hi.append, lo.append, math.log
            s, e = hi[-1], lo[-1]
            for i in range(len(hi), n + 1):
                # _two_sum(s, log i) inlined, then e += its residual
                x = log(i)
                t = s + x
                bb = t - s
                e = e + ((s - (t - bb)) + (x - bb))
                u = t + e  # renormalize
                s, e = u, e - (u - t)
                hi_append(s)
                lo_append(e)

    def arrays(self, n: int):
        """Read-only float64 views of ln(k!) (hi, lo) for k = 0..n.

        The converted arrays are kept and rebuilt only when the table has
        grown past them, so a call costs a slice, not a list conversion.
        """
        self.ensure(n)
        hi, lo = self._arrays
        if hi.size <= n:
            with self._lock:
                hi = np.array(self._hi, dtype=np.float64)
                lo = np.array(self._lo, dtype=np.float64)
                hi.setflags(write=False)
                lo.setflags(write=False)
                self._arrays = (hi, lo)
        return hi[: n + 1], lo[: n + 1]


_LFACT = _LogFactorialTable()


def binom_log_pmf(n: int, k: int, p: float) -> float:
    """ln of the Binomial(n, p) pmf at k.

    ln C(n,k) + k ln p + (n-k) ln(1-p), combined in double-double so the
    result is accurate to well under 1e-12 relative.  p = 0 or 1 is
    treated as an exact point mass (log-pmf 0.0 at the atom, -inf off it).
    """
    if not 0 <= k <= n:
        raise DomainError(f"k must be in [0, n], got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    _LFACT.ensure(n)
    hi, lo = _LFACT._hi, _LFACT._lo
    return _log_pmf(hi[n], lo[n], hi[k], lo[k], hi[n - k], lo[n - k], float(k), float(n - k), p)


def log_pmf_vector(n: int, p: float) -> np.ndarray:
    """ln pmf of Binomial(n, p) at every k = 0..n.

    The same :func:`_log_pmf` as :func:`binom_log_pmf`, on arrays;
    the two paths agree bit-for-bit.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        out = np.full(n + 1, -math.inf)
        out[0 if p == 0.0 else n] = 0.0
        return out
    hi, lo = _LFACT.arrays(n)
    k = np.arange(n + 1, dtype=np.float64)
    return _log_pmf(hi[n], lo[n], hi, lo, hi[::-1], lo[::-1], k, k[::-1], p)


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


def pmf_vector(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at every k = 0..n (exp of the log-pmf)."""
    return np.exp(log_pmf_vector(n, p))


def neumaier_sum(values, start: int = 0, stop: int | None = None) -> float:
    """Compensated (Neumaier) sum of values[start:stop] in ascending index order.

    Only the span from the first to the last nonzero entry is visited.
    That is exact, not an approximation: adding a zero leaves both the
    running sum and its compensation unchanged, so the underflowed tails
    of a large-n pmf can be skipped.  At n = 10^5 and p = 0.01 the span
    is 2,360 entries.  values may be a list or an array.
    """
    span = np.asarray(values[start:stop], dtype=np.float64)
    nonzero = np.flatnonzero(span)
    if nonzero.size == 0:
        return 0.0
    s = 0.0
    comp = 0.0
    for x in span[nonzero[0]:nonzero[-1] + 1].tolist():
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


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
    scanned only down to lo, so the two tails never overlap.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    n = pmf.size - 1
    budget = eps / 4.0
    lo = 1 + _dropped(pmf[1:n], budget)
    hi = n - 1 - _dropped(pmf[lo:n][::-1], budget)
    return lo, hi
