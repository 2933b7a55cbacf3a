"""Log-space binomial machinery: accuracy, vector/scalar identity, pruning."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condrisk import binomial, coverage
from condrisk.binomial import (
    _LogFactorialTable,
    binom_log_pmf,
    log_pmf_at,
    neumaier_sum,
    pmf_vector,
    prune_window,
)
from condrisk.errors import DomainError

from _oracles import full_pmf_vector, loop_log_factorial, loop_neumaier_sum, loop_prune_window

mp.mp.dps = 50


def _mp_log_pmf(n, k, p):
    n, k, p = mp.mpf(n), mp.mpf(k), mp.mpf(p)
    return (
        mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
        + k * mp.log(p) + (n - k) * mp.log(1 - p)
    )


class TestLogPmf:
    def test_two_flips(self):
        assert binom_log_pmf(2, 1, 0.5) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_all_failures(self):
        assert binom_log_pmf(10, 0, 0.3) == pytest.approx(10 * math.log(0.7), rel=1e-14)

    def test_large_central_value_against_mpmath(self):
        # frozen from a 50-digit mpmath evaluation of the same expression
        oracle = -4.0263675824105603
        mine = binom_log_pmf(2000, 1000, 0.5)
        assert abs(mine - oracle) / abs(oracle) < 1e-12

    @pytest.mark.parametrize("n", [2, 17, 100, 500, 2000])
    @pytest.mark.parametrize("p", [0.01, 0.19, 0.5, 0.91, 0.99])
    def test_relative_accuracy_sweep(self, n, p):
        step = max(1, n // 7)
        for k in range(0, n + 1, step):
            mine = binom_log_pmf(n, k, p)
            oracle = _mp_log_pmf(n, k, p)
            if oracle == 0:
                assert mine == 0.0
            else:
                assert abs((mine - oracle) / oracle) < 1e-12

    def test_point_masses(self):
        assert binom_log_pmf(5, 0, 0.0) == 0.0
        assert binom_log_pmf(5, 3, 0.0) == -math.inf
        assert binom_log_pmf(5, 5, 1.0) == 0.0
        assert binom_log_pmf(5, 1, 1.0) == -math.inf

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            binom_log_pmf(5, 6, 0.5)
        with pytest.raises(DomainError):
            binom_log_pmf(5, -1, 0.5)
        with pytest.raises(DomainError):
            binom_log_pmf(5, 2, 1.5)

    def test_bad_or_degenerate_p_never_grows_the_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"table grown to {n}")

        monkeypatch.setattr(binomial._LFACT, "ensure", refuse)
        with pytest.raises(DomainError):
            binom_log_pmf(10**9, 0, 1.5)
        assert binom_log_pmf(10**9, 0, 0.0) == 0.0
        assert binom_log_pmf(10**9, 10**9, 1.0) == 0.0

    @pytest.mark.parametrize("n,p", [(1, 0.37), (23, 0.08), (500, 0.5), (2000, 0.91)])
    def test_vector_matches_scalar_bitwise(self, n, p):
        vec = log_pmf_at(n, p, np.arange(n + 1))
        for k in range(n + 1):
            assert vec[k] == binom_log_pmf(n, k, p), k

    @pytest.mark.parametrize("n,p", [(10, 0.5), (100, 0.07), (2000, 0.9)])
    def test_pmf_sums_to_one(self, n, p):
        total = math.fsum(pmf_vector(n, p))
        assert total == pytest.approx(1.0, abs=1e-13)


class TestNeumaierSum:
    def test_empty_and_single(self):
        assert neumaier_sum([]) == 0.0
        assert neumaier_sum([3.5]) == 3.5

    def test_slice_bounds(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert neumaier_sum(vals, 1, 3) == 5.0

    def test_compensation_catches_cancellation(self):
        # classic case plain summation gets wrong
        vals = [1.0, 1e100, 1.0, -1e100]
        assert neumaier_sum(vals) == 2.0

    @given(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_matches_fsum(self, vals):
        assert neumaier_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)


class TestPruneWindow:
    def test_zero_epsilon_is_exhaustive(self):
        pmf = pmf_vector(50, 0.3)
        assert prune_window(pmf, 0.0) == (1, 49)

    def test_never_includes_degenerate_endpoints(self):
        pmf = pmf_vector(4, 0.5)
        lo, hi = prune_window(pmf, 0.0)
        assert (lo, hi) == (1, 3)

    def test_empty_window_for_point_mass(self):
        pmf = pmf_vector(1, 0.5)
        lo, hi = prune_window(pmf, 0.0)
        assert lo > hi

    def test_certified_mass_bound(self):
        n, p, eps = 2000, 0.23, 1e-12
        pmf = pmf_vector(n, p)
        lo, hi = prune_window(pmf, eps)
        assert 1 <= lo <= hi <= n - 1
        dropped_lo = math.fsum(pmf[1:lo])
        dropped_hi = math.fsum(pmf[hi + 1:n])
        assert dropped_lo < eps / 4
        assert dropped_hi < eps / 4
        # pruning actually prunes something at this size
        assert hi - lo + 1 < n - 1

    def test_window_widens_as_epsilon_shrinks(self):
        pmf = pmf_vector(1000, 0.4)
        lo1, hi1 = prune_window(pmf, 1e-8)
        lo2, hi2 = prune_window(pmf, 1e-14)
        assert lo2 <= lo1 and hi2 >= hi1


EPSILONS = (0.0, 1e-14, 1e-12, 1e-8)

# entries of hand-made arrays: zero runs, dyadic values whose running sums
# are exact, and arbitrary values in [0, 1]
_ENTRY = st.one_of(
    st.just(0.0),
    st.integers(1, 40).map(lambda k: 2.0 ** -k),
    st.floats(0.0, 1.0),
)


class TestScansMatchLoopOracles:
    """prune_window and neumaier_sum equal the entry-by-entry loops exactly."""

    @given(st.integers(1, 3000), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.sampled_from(EPSILONS))
    @settings(max_examples=150, deadline=None)
    def test_on_binomial_pmfs(self, n, p, eps):
        pmf = pmf_vector(n, p)
        lo, hi = prune_window(pmf, eps)
        assert (lo, hi) == loop_prune_window(pmf, eps)
        assert neumaier_sum(pmf, 1, n) == loop_neumaier_sum(pmf, 1, n)
        assert neumaier_sum(pmf, lo, hi + 1) == loop_neumaier_sum(pmf, lo, hi + 1)
        assert neumaier_sum(pmf.tolist(), lo, hi + 1) == loop_neumaier_sum(pmf, lo, hi + 1)

    @given(st.lists(_ENTRY, max_size=40),
           st.sampled_from(EPSILONS + (1e-6, 0.5, 4.0)))
    @settings(max_examples=300, deadline=None)
    def test_window_on_hand_made_arrays(self, values, eps):
        pmf = np.array(values)
        assert prune_window(pmf, eps) == loop_prune_window(pmf, eps)

    @given(st.lists(st.integers(1, 40).map(lambda k: 2.0 ** -k), min_size=3, max_size=12),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_window_when_a_tail_sum_lands_on_the_budget(self, values, data):
        # dyadic entries of at most 40 bits sum exactly, so eps/4 is hit exactly
        pmf = np.array(values)
        n = pmf.size - 1
        cut = data.draw(st.integers(1, n - 1), label="cut")
        from_top = data.draw(st.booleans(), label="from_top")
        tail = pmf[cut:n] if from_top else pmf[1:cut + 1]
        eps = 4.0 * math.fsum(tail)
        assert np.cumsum(tail[::-1] if from_top else tail)[-1] == eps / 4.0
        lo, hi = prune_window(pmf, eps)
        assert (lo, hi) == loop_prune_window(pmf, eps)
        # the entry whose running sum reaches eps/4 is kept
        if from_top:
            assert hi >= cut
        else:
            assert lo <= cut

    @pytest.mark.parametrize("pmf,eps,window", [
        ([0.5, 0.5], 0.0, (1, 0)),                   # n = 1: empty window
        ([0.0, 0.0, 1e-300, 0.0, 0.0], 1.0, (4, 3)),  # everything dropped
        ([0.0, 0.0, 1e-3, 0.0, 0.0], 0.0, (1, 3)),    # eps = 0 drops nothing
        ([0.0, 0.0, 1e-3, 0.0, 0.0], 1e-6, (2, 2)),   # a single nonzero entry
        ([0.0], 0.0, (1, -1)),
    ])
    def test_window_edge_cases(self, pmf, eps, window):
        assert prune_window(np.array(pmf), eps) == window == loop_prune_window(pmf, eps)

    @given(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e300, 1e300)), max_size=50),
           st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=300, deadline=None)
    def test_sum_on_slices_and_lists(self, values, start, stop):
        stop = min(stop, len(values))
        start = min(start, stop)
        expected = loop_neumaier_sum(values, start, stop)
        assert neumaier_sum(values, start, stop) == expected
        assert neumaier_sum(np.array(values), start, stop) == expected
        assert neumaier_sum(values[start:stop]) == expected

    def test_sum_on_seeded_spans_with_zeros_and_tiny_values(self):
        rng = np.random.default_rng(20261020)
        for _ in range(3000):
            size = int(rng.integers(0, 300))
            values = rng.random(size) * 10.0 ** rng.integers(-300, 1, size=size)
            values[rng.random(size) < 0.3] = 0.0
            if rng.random() < 0.3:
                values *= rng.choice([-1.0, 1.0], size=size)
            start = int(rng.integers(0, size + 1))
            stop = int(rng.integers(start, size + 1))
            assert neumaier_sum(values, start, stop) == loop_neumaier_sum(values, start, stop)

    def test_sum_of_a_single_nonzero_entry_among_zeros(self):
        values = [0.0] * 7 + [0.1] + [0.0] * 5
        assert neumaier_sum(values) == 0.1 == loop_neumaier_sum(values)
        assert neumaier_sum(np.zeros(9)) == 0.0


class TestLogFactorialArrays:
    def test_table_matches_loop_oracle_bitwise(self):
        table = _LogFactorialTable()
        for n in (1, 2, 17, 1000, 10**5):  # grown in steps, as requests arrive
            table.ensure(n)
        hi, lo = loop_log_factorial(10**5)
        assert table._hi.tolist() == hi and table._lo.tolist() == lo

    @pytest.mark.parametrize("steps", [(3, 70000, 70001, 2 * 10**5), (65537, 131073), (2**20,)])
    def test_uneven_growth_matches_loop_oracle_bitwise(self, steps):
        # growths that start and end off the block boundaries, and one of 512 blocks
        table = _LogFactorialTable()
        for n in steps:
            table.ensure(n)
        hi, lo = loop_log_factorial(len(table._hi) - 1)
        assert table._hi.tolist() == hi and table._lo.tolist() == lo

    def test_arrays_are_kept_and_match_the_table(self):
        table = _LogFactorialTable()
        hi, lo = table.arrays(50)
        assert hi.tolist() == table._hi[:51].tolist() and lo.tolist() == table._lo[:51].tolist()
        again, _ = table.arrays(30)
        assert np.shares_memory(hi, again)  # no new conversion below the kept size
        grown, grown_lo = table.arrays(200)
        assert grown.tolist() == table._hi[:201].tolist() and grown_lo.tolist() == table._lo[:201].tolist()
        assert not hi.flags.writeable

    def test_growing_one_k_at_a_time_builds_few_arrays(self):
        table = _LogFactorialTable()
        growths, last, top = 0, table._hi, 20000
        for n in range(2, top + 1):
            table.ensure(n)
            if table._hi is not last:
                growths, last = growths + 1, table._hi
        assert growths < 150  # each growth adds at least a sixteenth; 20,000 at exact size
        assert len(table._hi) <= top + top // 16 + 1
        assert table._hi.tolist() == loop_log_factorial(len(table._hi) - 1)[0]

    def test_table_holds_two_doubles_per_k(self):
        tracemalloc.start()
        try:
            table = _LogFactorialTable()
            for n in (1000, 10**5):
                table.ensure(n)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 16 * (10**5 + 1) + 1024  # the lock and the two array headers: under 1 kB


# p log-uniform down to 1e-9, and the values next to and at the middle
_PROBABILITIES = st.one_of(
    st.sampled_from([0.5, 1 - 1e-9]),
    st.floats(math.log(1e-9), 0.0, exclude_max=True).map(math.exp).filter(lambda p: p < 1.0),
)


class TestSupportOnlyPmf:
    """A margin built from the support alone equals the one built from every count, bit for bit."""

    @given(n=st.one_of(st.sampled_from([1, 2, 3, 500, 2000]), st.integers(1, 2 * 10**5)),
           p=_PROBABILITIES, eps=st.sampled_from([0.0, 1e-12, 1e-8, 1e-7]))
    @settings(max_examples=60, deadline=None)
    def test_margin_equals_full_evaluation(self, n, p, eps):
        full = full_pmf_vector(n, p)
        outside = np.ones(n + 1, dtype=bool)
        outside[binomial._support(n, p)] = False
        assert not full[outside].any()
        lo, hi = loop_prune_window(full, eps)
        margin = coverage._margin(n, p, eps)
        window, counts = full[lo:hi + 1], np.arange(lo, hi + 1, dtype=np.float64)
        assert (margin.lo, margin.hi) == (lo, hi)
        assert margin.arrays[0].tobytes() == window.tobytes()
        assert margin.arrays[1].tobytes() == np.cumsum(margin.arrays[0]).tobytes() == np.cumsum(window).tobytes()
        assert margin.arrays[2].tobytes() == counts.tobytes()
        assert margin.tail == neumaier_sum(full, 1, lo) + neumaier_sum(full, max(lo, hi + 1), n)
        assert margin.atoms == float(full[0]) + float(full[n])

    @pytest.mark.parametrize("n,p", [(500, 0.3), (2000, 0.5), (3, 0.9)])
    def test_support_is_every_count_at_small_n(self, n, p):
        assert binomial._support(n, p).tolist() == list(range(n + 1))

    def test_support_at_large_n_is_a_small_share(self):
        k = binomial._support(10**5, 0.01)
        assert k[0] == 0 and k[-1] == 10**5 and k.size < 3000

    def test_margin_at_n_1e5_allocates_under_1_mb(self):
        binomial._LFACT.arrays(10**5)  # the table already grown
        tracemalloc.start()
        try:
            coverage._margin(10**5, 0.01, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the pmf itself is 0.8 MB

    def test_margin_at_n_1e5_keeps_its_window_not_its_pmf(self):
        # the full pmf is 100,001 doubles, 800 KB; the window at p = 0.01 is about 456 counts
        margin = coverage._margin(10**5, 0.01, 1e-12)
        kept = [value for value in vars(margin).values() if isinstance(value, np.ndarray)]
        assert sum(array.nbytes for array in kept) < 80_000
