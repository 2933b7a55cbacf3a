"""Exact coverage engine: enumeration, pruning, grids, CSV, grid files."""

import dataclasses
import io
import math
import pickle
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from condrisk import __version__, _backend, _run, binomial, coverage
from condrisk.binomial import pmf_vector, prune_window
from condrisk.coverage import (
    COVERAGE_CSV_HEADER,
    DEFAULT_PRUNE,
    CoverageResult,
    GridRecord,
    GridSpec,
    Scenario,
    exact_coverage,
    paper_grid,
    parse_grid_file,
    run_grid,
    true_conditional_risks,
    write_coverage_csv,
)
from condrisk.errors import DomainError, ParseError
from condrisk.measures import log_wald_bounds

from _oracles import brute_coverage, interval_cover_sums, log_wald_mask, log_wald_window
from conftest import RecordingPool


class TestScenario:
    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            Scenario(0, 10, 0.5, 0.5, 0.1, 0.1)
        with pytest.raises(DomainError):
            Scenario(10.0, 10, 0.5, 0.5, 0.1, 0.1)
        with pytest.raises(DomainError):
            Scenario(True, 10, 0.5, 0.5, 0.1, 0.1)

    def test_rejects_bad_stratum_and_level(self):
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.5, 0.5, 0.1, 0.1, stratum=2)
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.5, 0.5, 0.1, 0.1, level=1.0)

    def test_rejects_boundary_marginals(self):
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.0, 0.5, 0.1, 0.1)
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.5, 1.0, 0.1, 0.1)

    def test_rejects_inadmissible_correlation(self):
        # equal marginals 0.1 admit negative correlation only down to -1/9
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.1, 0.5, -0.5, 0.1)

    def test_rejects_degenerate_stratum_risk(self):
        # full correlation empties stratum 0 and saturates stratum 1
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.5, 0.5, 1.0, 0.1, stratum=0)
        with pytest.raises(DomainError):
            Scenario(10, 10, 0.5, 0.5, 1.0, 0.1, stratum=1)
        Scenario(10, 10, 0.5, 0.5, 0.99, 0.1, stratum=0)  # interior is fine

    def test_true_risks(self):
        s = Scenario(10, 10, 0.1, 0.1, 0.9, 0.1)
        p_e, p_ne, rr = true_conditional_risks(s)
        assert p_e == pytest.approx(0.91, rel=1e-15)
        assert p_ne == pytest.approx(0.19, rel=1e-15)
        assert rr == pytest.approx(0.91 / 0.19, rel=1e-15)
        s0 = Scenario(10, 10, 0.9, 0.1, 0.1, 0.9, stratum=0)
        p_e, p_ne, rr = true_conditional_risks(s0)
        assert p_e == pytest.approx(0.81, rel=1e-14)
        assert p_ne == pytest.approx(0.01, rel=1e-12)
        assert rr == pytest.approx(81.0, rel=1e-12)


class TestExactCoverage:
    def test_frozen_small_scenario(self):
        # independent exhaustive oracle (scipy pmf + fsum + public
        # estimator), frozen: 0.9621961775432847
        res = exact_coverage(Scenario(20, 20, 0.5, 0.5, 0.1, 0.1), prune_epsilon=0.0)
        assert res.p_c == pytest.approx(0.9621961775432847, abs=1e-12)

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(5, 7, 0.3, 0.4, 0.2, 0.1),
            Scenario(12, 9, 0.7, 0.2, 0.5, 0.3),
            Scenario(25, 25, 0.5, 0.5, 0.9, 0.9),
            Scenario(30, 18, 0.1, 0.3, 0.1, 0.5, stratum=0),
            Scenario(40, 35, 0.6, 0.6, 0.4, 0.4, level=0.9),
            Scenario(45, 20, 0.2, 0.8, 0.6, 0.1, stratum=0, level=0.99),
        ],
        ids=lambda s: f"n{s.n_e}x{s.n_ne}-s{s.stratum}",
    )
    def test_matches_brute_force(self, scenario):
        res = exact_coverage(scenario, prune_epsilon=0.0)
        p_c, noncover, degenerate = brute_coverage(scenario)
        assert res.p_c == pytest.approx(p_c, abs=1e-12)
        assert res.noncover_mass == pytest.approx(noncover, abs=1e-12)
        assert res.degenerate_mass == pytest.approx(degenerate, abs=1e-12)
        assert res.truncation_bound == 0.0

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(600, 450, 0.3, 0.2, 0.5, 0.4, stratum=1),
            Scenario(400, 700, 0.2, 0.3, 0.1, 0.6, stratum=0),
        ],
        ids=lambda s: f"n{s.n_e}x{s.n_ne}-s{s.stratum}",
    )
    def test_multi_block_window_matches_brute_force(self, scenario):
        assert scenario.n_e - 1 > 2 * 64  # rows over several kernel chunks
        with mock.patch.object(_backend, "_BATCH_ROWS", 64):
            res = exact_coverage(scenario, prune_epsilon=0.0)
        p_c, noncover, _ = brute_coverage(scenario)
        assert res.p_c == pytest.approx(p_c, abs=1e-12)
        assert res.noncover_mass == pytest.approx(noncover, abs=1e-12)

    def test_degenerate_mass_is_nonnegative_at_large_n(self):
        # 1 - (nondegenerate mass) came out near -8e-14 here
        res = exact_coverage(Scenario(20000, 20000, 0.01, 0.01, 0.5, 0.5, stratum=0))
        assert res.degenerate_mass >= 0.0

    def test_degenerate_mass_matches_tiny_atoms(self):
        # stratum-0 risk (1 - 0.4) * 0.5 = 0.3: the atoms are 0.7**n ~ 1e-77
        scenario = Scenario(500, 400, 0.5, 0.5, 0.4, 0.4, stratum=0)
        p_e, p_ne, _ = true_conditional_risks(scenario)
        atoms_a = binom.pmf(0, 500, p_e) + binom.pmf(500, 500, p_e)
        atoms_c = binom.pmf(0, 400, p_ne) + binom.pmf(400, 400, p_ne)
        expected = atoms_a + atoms_c - atoms_a * atoms_c
        assert expected > 0.0
        res = exact_coverage(scenario)
        assert res.degenerate_mass == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_masses_are_exhaustive(self):
        for prune in (0.0, 1e-12, 1e-8):
            res = exact_coverage(Scenario(300, 200, 0.3, 0.5, 0.5, 0.1), prune)
            total = res.p_c + res.noncover_mass + res.degenerate_mass + res.truncation_bound
            assert total == pytest.approx(1.0, abs=1e-9)
            assert res.truncation_bound >= 0.0

    def test_wider_level_covers_more(self):
        s95 = Scenario(150, 150, 0.3, 0.2, 0.5, 0.1)
        s99 = Scenario(150, 150, 0.3, 0.2, 0.5, 0.1, level=0.99)
        r95 = exact_coverage(s95, 0.0)
        r99 = exact_coverage(s99, 0.0)
        # intervals are nested in the level, so coverage is monotone
        assert r99.p_c > r95.p_c

    def test_pruning_is_certified(self):
        for scenario in (
            Scenario(500, 500, 0.1, 0.1, 0.9, 0.1),
            Scenario(1000, 500, 0.5, 0.3, 0.5, 0.5),
        ):
            exact = exact_coverage(scenario, 0.0)
            pruned = exact_coverage(scenario, 1e-8)
            assert pruned.truncation_bound > 0.0  # something was actually cut
            assert pruned.truncation_bound < 1e-8
            assert pruned.p_c <= exact.p_c + 1e-15
            assert exact.p_c <= pruned.p_c + pruned.truncation_bound + 1e-15

    @pytest.mark.parametrize("prune", [0.0, 1e-12, 1e-9, 5e-7])
    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(25, 25, 0.1, 0.1, 0.5, 0.5, stratum=0),
            Scenario(40, 60, 0.1, 0.3, 0.1, 0.5, stratum=0),
            Scenario(60, 60, 0.5, 0.5, 0.1, 0.1),
            Scenario(100, 80, 0.9, 0.7, 0.5, 0.1),
            Scenario(150, 150, 0.9, 0.5, 0.5, 0.1),
            Scenario(200, 100, 0.5, 0.5, 0.1, 0.9),
            Scenario(300, 200, 0.1, 0.1, 0.9, 0.1, stratum=0),
            Scenario(400, 300, 0.3, 0.2, 0.5, 0.4),
            Scenario(1, 50, 0.5, 0.3, 0.1, 0.1),
            Scenario(500, 500, 0.1, 0.1, 0.9, 0.1),
            Scenario(1000, 500, 0.5, 0.3, 0.5, 0.5),
            Scenario(2000, 1000, 0.1, 0.7, 0.1, 0.9, stratum=0),
        ],
        ids=lambda s: f"n{s.n_e}x{s.n_ne}-s{s.stratum}",
    )
    def test_truncation_bound_covers_exact_skipped_mass(self, scenario, prune):
        # exact rational arithmetic on the computed pmfs, no slack
        p_e, p_ne, _ = true_conditional_risks(scenario)
        nondegenerate_a, window_a = _exact_masses(scenario.n_e, p_e, prune)
        nondegenerate_c, window_c = _exact_masses(scenario.n_ne, p_ne, prune)
        skipped = nondegenerate_a * nondegenerate_c - window_a * window_c
        assert Fraction(exact_coverage(scenario, prune).truncation_bound) >= skipped

    def test_truncation_bound_covers_pmf_mass_above_one(self):
        # at n = 10^5, p = 0.5 the computed pmf sums to 1 + 2.2e-12, so a
        # slack of 2^-40 (9.1e-13) on the tail masses falls short
        scenario = Scenario(10**5, 10**5, 0.5, 0.5, 0.0, 0.0)
        nondegenerate, window = _exact_masses(10**5, 0.5, DEFAULT_PRUNE)
        assert nondegenerate > 1 + Fraction(2) ** -40
        skipped = nondegenerate**2 - window**2
        assert Fraction(exact_coverage(scenario).truncation_bound) >= skipped

    def test_tighter_prune_converges(self):
        scenario = Scenario(800, 800, 0.3, 0.3, 0.5, 0.5)
        loose = exact_coverage(scenario, 1e-7)
        tight = exact_coverage(scenario, 1e-12)
        exact = exact_coverage(scenario, 0.0)
        assert abs(tight.p_c - exact.p_c) <= abs(loose.p_c - exact.p_c) + 1e-16
        assert tight.truncation_bound <= loose.truncation_bound

    def test_single_subject_margins_are_all_degenerate(self):
        res = exact_coverage(Scenario(1, 1, 0.5, 0.5, 0.1, 0.1), 0.0)
        assert res.p_c == 0.0
        assert res.noncover_mass == 0.0
        assert res.degenerate_mass == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(res.p_c_normalized)

    def test_normalized_coverage(self):
        res = exact_coverage(Scenario(50, 50, 0.3, 0.3, 0.1, 0.1), 0.0)
        assert res.p_c_normalized == res.p_c / (1.0 - res.degenerate_mass)
        assert res.p_c_normalized >= res.p_c

    def test_rejects_bad_prune(self):
        s = Scenario(10, 10, 0.5, 0.5, 0.1, 0.1)
        with pytest.raises(DomainError):
            exact_coverage(s, -1e-12)
        with pytest.raises(DomainError):
            exact_coverage(s, 1e-6)


def _exact_masses(n: int, p: float, prune: float) -> tuple[Fraction, Fraction]:
    """Exact masses of 0 < k < n and of the pruned window, on the computed pmf."""
    pmf = pmf_vector(n, p)
    lo, hi = prune_window(pmf, prune)

    def mass(values):
        return sum(map(Fraction, values.tolist()), Fraction(0))

    return mass(pmf[1:n]), mass(pmf[lo:hi + 1])


def _kernel_mask(args):
    """The kernel's mask of a window of at most 52 columns: with pc[c_lo + j] = 2^-(j+1) every
    sum is exact, so each row's cover, at weight 1, holds its covered columns as binary digits."""
    a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr = args
    exposed = _backend.window_arrays(np.ones(a_hi + 1 - a_lo), a_lo, n_e)
    non_exposed = _backend.window_arrays(np.ldexp(1.0, -np.arange(1, c_hi - c_lo + 2)), c_lo, n_ne)
    rows, _ = _backend._row_sums([((exposed, non_exposed, n_e, n_ne, true_rr), 0, a_hi + 1 - a_lo)], z)
    digits = np.ldexp(np.array(rows)[:, None], np.arange(1, c_hi - c_lo + 2))
    return np.floor(digits) % 2 == 1


@st.composite
def kernel_windows(draw):
    """(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr) of a small table.

    Half the ratios are a computed bound of a cell in the window, so the
    kernel meets cells whose test is decided inside its band.
    """
    n_e, n_ne = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    a_lo = draw(st.integers(1, n_e - 1))
    a_hi = draw(st.integers(a_lo, n_e - 1))
    c_lo = draw(st.integers(1, n_ne - 1))
    c_hi = draw(st.integers(c_lo, n_ne - 1))
    z = draw(st.sampled_from((1.0, 1.96, 2.576, 3.29, 4.0)))
    if draw(st.booleans()):
        bounds = log_wald_window(a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z)[draw(st.integers(0, 1))]
        i = draw(st.integers(0, a_hi - a_lo))
        j = draw(st.integers(0, c_hi - c_lo))
        true_rr = float(bounds[i, j])
    else:
        true_rr = draw(st.floats(0.01, 100.0))
    return a_lo, a_hi, c_lo, c_hi, n_e, n_ne, z, true_rr


class TestKernel:
    @given(kernel_windows(), st.sampled_from((1, 7, 64, 4096)),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=300, deadline=None)
    def test_interval_mask_and_sums_equal_the_oracles(self, window, rows, p_e, p_ne):
        a_lo, a_hi, c_lo, c_hi, n_e, n_ne, _, _ = window
        pa, pc = pmf_vector(n_e, p_e), pmf_vector(n_ne, p_ne)
        with mock.patch.object(_backend, "_BATCH_ROWS", rows):
            mask = _kernel_mask(window)
            sums = _backend.cover_sums(pa, pc, *window)
        np.testing.assert_array_equal(mask, log_wald_mask(*window))
        assert sums == interval_cover_sums(pa, pc, *window)

    def test_ratio_on_a_bound_is_decided_again(self):
        # true_rr is put exactly on the computed bounds of 40 cells in turn;
        # the separable test lands within rounding of 0 there, so each cell
        # is decided again by log_wald_bounds and must come out covered
        n_e, n_ne, z = 30, 40, 1.96
        window = (1, n_e - 1, 1, n_ne - 1)
        lower, upper = log_wald_window(*window, n_e, n_ne, z)
        pa, pc = pmf_vector(n_e, 0.3), pmf_vector(n_ne, 0.6)
        for k in range(20):
            i, j = k + 5, 2 * k
            for true_rr in (float(lower[i, j]), float(upper[i, j])):
                args = (*window, n_e, n_ne, z, true_rr)
                with mock.patch.object(_backend, "log_wald_bounds", wraps=log_wald_bounds) as spy:
                    mask = _kernel_mask(args)
                decided = {cell for call in spy.call_args_list
                           for cell in zip(call.args[0].tolist(), call.args[2].tolist())}
                assert (i + 1.0, j + 1.0) in decided
                assert mask[i, j]
                np.testing.assert_array_equal(mask, log_wald_mask(*args))
                assert _backend.cover_sums(pa, pc, *args) == interval_cover_sums(pa, pc, *args)

    def test_batches_give_each_scenario_its_own_sums(self):
        # scenarios of several windows, one of them over the chunk size
        scenarios = []
        for n_e, n_ne, p_e, p_ne, rr in [(40, 30, 0.3, 0.6, 0.5), (300, 9, 0.5, 0.4, 1.3),
                                          (25, 200, 0.2, 0.7, 0.29), (60, 60, 0.5, 0.5, 1.0)]:
            pa, pc = pmf_vector(n_e, p_e), pmf_vector(n_ne, p_ne)
            scenarios.append((pa, pc, 1, n_e - 1, 2, n_ne - 2, n_e, n_ne, rr))
        alone = [_backend.cover_sums(*sc[:8], 2.576, sc[8]) for sc in scenarios]
        batch = [(_backend.window_arrays(pa[a_lo:a_hi + 1], a_lo, n_e),
                  _backend.window_arrays(pc[c_lo:c_hi + 1], c_lo, n_ne), n_e, n_ne, rr)
                 for pa, pc, a_lo, a_hi, c_lo, c_hi, n_e, n_ne, rr in scenarios]
        for rows in (1, 50, 4096):
            with mock.patch.object(_backend, "_BATCH_ROWS", rows):
                assert list(_backend.batch_cover_sums(batch, 2.576)) == alone


def _bits(result):
    return tuple(float(v).hex() for v in dataclasses.astuple(result))


# scenarios sharing margins: n and the stratum risk repeat across them
SHARED_MARGINS = [
    Scenario(30, 60, 0.2, 0.5, 0.1, 0.9),
    Scenario(30, 30, 0.2, 0.2, 0.1, 0.1),
    Scenario(60, 30, 0.5, 0.2, 0.9, 0.1),
    Scenario(60, 60, 0.5, 0.5, 0.9, 0.9),
    Scenario(30, 200, 0.2, 0.3, 0.1, 0.4),
]


class TestMargins:
    def test_grid_records_equal_fresh_exact_coverage(self):
        # margins repeat across points and across the two groups
        grid = GridSpec((30, 60), (30, 60), (0.2, 0.5), (0.2, 0.5), (0.1, 0.9), (0.1, 0.9), stratum=0)
        for rec in run_grid(grid):
            scenario = Scenario(rec.n_e, rec.n_ne, rec.pi_e, rec.pi_ne, rec.rho_e, rec.rho_ne, 0)
            assert _bits(rec.result) == _bits(exact_coverage(scenario, grid.prune_epsilon))

    @pytest.mark.parametrize("stratum", [1, 0])
    def test_records_do_not_depend_on_the_batches(self, stratum):
        # flagged points, an empty window (n = 1) and windows of several sizes
        grid = GridSpec((1, 30, 200), (45, 60), (0.2, 0.5), (0.3,), (0.1, 0.9), (0.5, 1.0), stratum=stratum)
        runs = []
        # one batch; the default; a point, and a row, at a time
        for rows, budget in ((10**9, 10**9), (_backend._BATCH_ROWS, _backend._BATCH_WORK), (1, 1)):
            with mock.patch.multiple(_backend, _BATCH_ROWS=rows, _BATCH_WORK=budget):
                runs.append([(r.error, r.result and _bits(r.result)) for r in run_grid(grid)])
        assert runs[0] == runs[1] == runs[2]
        assert any(error for error, _ in runs[0]) and any(bits for _, bits in runs[0])

    def test_margin_arrays_are_read_only(self):
        margin = coverage._margin(20, 0.3, 1e-12)
        assert margin.arrays.shape == (6, margin.hi + 1 - margin.lo)
        with pytest.raises(ValueError):
            margin.arrays[0, 3] = 1.0
        with pytest.raises(ValueError):
            margin.arrays[1][3] = 1.0

    def test_window_bound_holds_for_built_margins(self):
        # 516 seeded margins: n up to 10^5, p over four decades, prune epsilon in [1e-15, 1e-6)
        rng = np.random.default_rng(27)
        for _ in range(516):
            n, p = int(10 ** rng.uniform(0, 5)), float(10 ** rng.uniform(-4, 0))
            eps = float(10 ** rng.uniform(-15, -6))
            margin = coverage._margin(n, p, eps)
            assert max(0, margin.hi - margin.lo + 1) <= coverage._window_bound(n, p, eps), (n, p, eps)
        # the tail bound at the prune epsilon: 2,506 counts at T = 760 alone, a window of 456
        margin = coverage._margin(10**5, 0.01, 1e-12)
        assert (coverage._window_bound(10**5, 0.01, 1e-12), margin.hi - margin.lo + 1) == (507, 456)
        # nothing is pruned at epsilon 0, nor where epsilon / 4 rounds to 0
        for eps in (0.0, 1e-323):
            margin = coverage._margin(10**5, 0.01, eps)
            assert coverage._window_bound(10**5, 0.01, eps) == margin.hi - margin.lo + 1 == 99_999

    def test_grid_builds_each_distinct_margin_once(self, monkeypatch):
        grid = GridSpec((30, 60), (30, 60), (0.2, 0.5), (0.2, 0.5), (0.1, 0.9), (0.1, 0.9))
        distinct = set()
        for point in grid.points():
            p_e, p_ne, _ = true_conditional_risks(Scenario(*point, grid.stratum, grid.level))
            distinct |= {(point[0], p_e), (point[1], p_ne)}
        built, arrays = [], []
        pmf_vector, window_arrays = coverage.pmf_vector, _backend.window_arrays

        def counting(n, p):
            built.append((n, p))
            return pmf_vector(n, p)

        def counting_arrays(pmf, lo, n):
            arrays.append(n)
            return window_arrays(pmf, lo, n)

        monkeypatch.setattr(coverage, "pmf_vector", counting)
        monkeypatch.setattr(_backend, "window_arrays", counting_arrays)
        monkeypatch.setattr(_backend, "_BATCH_ROWS", 7)  # several pieces per scenario
        run_grid(grid)
        assert sorted(built) == sorted(distinct)
        assert sorted(arrays) == sorted(n for n, _ in distinct)
        assert len(built) < 2 * grid.size()

    def test_threads_growing_the_log_factorial_table_agree(self, monkeypatch):
        expected = [_bits(exact_coverage(s)) for s in SHARED_MARGINS]
        # a fresh table, so the threads grow it concurrently under its lock
        monkeypatch.setattr(binomial, "_LFACT", binomial._LogFactorialTable())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda: [_bits(exact_coverage(s)) for s in SHARED_MARGINS])
                           for _ in range(12)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 12


class TestGrids:
    def small_grid(self):
        return GridSpec(
            n_e_axis=(30, 60),
            n_ne_axis=(40,),
            pi_e_axis=(0.2, 0.5),
            pi_ne_axis=(0.3,),
            rho_e_axis=(0.1, 0.9),
            rho_ne_axis=(0.5,),
        )

    def test_paper_grid_shape(self):
        grid = paper_grid()
        assert grid.size() == 2025
        assert len(list(grid.points())) == 2025
        assert grid.stratum == 1 and grid.level == 0.95

    def test_rejects_empty_axis(self):
        with pytest.raises(DomainError):
            GridSpec((), (10,), (0.5,), (0.5,), (0.1,), (0.1,))

    def test_points_order_is_lexicographic(self):
        pts = list(self.small_grid().points())
        assert pts[0] == (30, 40, 0.2, 0.3, 0.1, 0.5)
        assert pts[1] == (30, 40, 0.2, 0.3, 0.9, 0.5)
        assert pts[-1] == (60, 40, 0.5, 0.3, 0.9, 0.5)

    def test_single_point_grid_matches_exact_coverage(self):
        grid = GridSpec((30,), (40,), (0.2,), (0.3,), (0.1,), (0.5,), stratum=0, level=0.9)
        [rec] = run_grid(grid)
        direct = exact_coverage(Scenario(30, 40, 0.2, 0.3, 0.1, 0.5, 0, 0.9), grid.prune_epsilon)
        assert rec.result == direct
        assert rec.error is None

    def test_parallel_run_is_bitwise_deterministic(self):
        grid = self.small_grid()
        serial = run_grid(grid, threads=1)
        parallel = run_grid(grid, threads=3)
        assert serial == parallel

    def test_workers_capped_by_points_and_cpus(self, monkeypatch, recording_pool):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(coverage, "_WORK_PER_WORKER", 1)  # work never caps here
        monkeypatch.setattr(_backend, "_BATCH_WORK", 1)  # a batch per point, so points cap too
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        grid = self.small_grid()
        serial = run_grid(grid)
        assert run_grid(grid, threads=100000) == serial
        assert run_grid(grid, threads=3) == serial
        two_points = dataclasses.replace(grid, n_e_axis=(30,), rho_e_axis=(0.1,))
        assert run_grid(two_points, threads=100000) == run_grid(two_points)
        for cpus in (None, 1):
            monkeypatch.setattr(_run, "usable_cpus", lambda: cpus)
            assert run_grid(grid, threads=100000) == serial
        assert created == [4, 3, 2]

    def test_inadmissible_points_are_flagged_not_fatal(self):
        grid = GridSpec((20,), (20,), (0.5,), (0.5,), (1.0, 0.5), (0.1,), stratum=0)
        recs = run_grid(grid)
        assert recs[0].result is None and recs[0].error
        assert recs[1].result is not None and recs[1].error is None


def _kernel_work(grid):
    """(run_grid's records, the work of its batch kernel calls' scenarios, and the work it logged)."""
    log = io.StringIO()
    with mock.patch.object(_backend, "batch_cover_sums", wraps=_backend.batch_cover_sums) as spy:
        records = run_grid(grid, log=log)
    work = sum(_backend.work(exposed.shape[1], non_exposed.shape[1])
               for call in spy.call_args_list for exposed, non_exposed, *_ in call.args[0])
    logged = int(re.fullmatch(r"coverage: (\d+) kernel rows and columns in .*\n", log.getvalue()).group(1))
    return records, work, logged


# the shape of the benchmark's coverage-paper grid (both strata, 135 points)
PAPER_SLICE = GridSpec((500, 1000, 2000), (500, 1000, 2000),
                       (0.1, 0.3, 0.5, 0.7, 0.9), (0.3,), (0.1, 0.5, 0.9), (0.5,))


class TestGridWork:
    def test_work_is_rows_plus_columns_per_piece(self, monkeypatch):
        assert _backend.work(300, 200) == 500 and _backend.work(0, 200) == 0
        monkeypatch.setattr(_backend, "_BATCH_ROWS", 64)
        assert _backend.work(129, 200) == 129 + 3 * 200
        assert _backend.work(129, 500, 4) == 4 * 129 + 3 * 500

    def test_count_equals_kernel_work_with_flagged_points(self, monkeypatch):
        # n = 1 has an empty window, rho -0.5 is inadmissible at pi 0.1,
        # rho 1.0 empties stratum 0, pi 1.0 is out of range; duplicate
        # axis values count once per point
        grid = GridSpec((1, 30, 30), (1, 25), (0.1, 0.5, 1.0), (0.3, 0.6),
                        (-0.5, 0.2, 1.0), (0.4,), stratum=0)
        for rows in (4096, 7):  # one piece per window; several
            monkeypatch.setattr(_backend, "_BATCH_ROWS", rows)
            records, kernel, logged = _kernel_work(grid)
            assert any(r.error for r in records) and any(r.result for r in records)
            assert logged == kernel > 0

    @pytest.mark.parametrize("stratum", [1, 0])
    def test_count_equals_kernel_work_on_paper_slice(self, stratum):
        _, kernel, logged = _kernel_work(dataclasses.replace(PAPER_SLICE, stratum=stratum))
        assert logged == kernel
        assert logged == {1: 52_383, 0: 44_688}[stratum]  # under one quota: no pool

    def test_paper_slice_runs_in_at_most_seven_kernel_calls(self):
        for stratum in (1, 0):
            with mock.patch.object(_backend, "_row_sums", wraps=_backend._row_sums) as chunks:
                run_grid(dataclasses.replace(PAPER_SLICE, stratum=stratum))
            assert chunks.call_count <= 7

    def test_no_admissible_group_counts_nothing_and_builds_nothing(self, monkeypatch):
        built = []
        monkeypatch.setattr(coverage, "pmf_vector", lambda n, p: built.append(n))
        grid = GridSpec((20,), (20,), (0.5,), (0.5,), (0.5,), (1.0,), stratum=0)
        records, _, logged = _kernel_work(grid)
        assert logged == 0 and built == []
        assert records[0].error

    def test_small_grid_starts_no_pool(self, monkeypatch, recording_pool):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        for stratum in (1, 0):
            run_grid(dataclasses.replace(PAPER_SLICE, stratum=stratum), threads=2)
        assert created == []

    def test_large_n_grid_with_little_work_starts_no_pool(self, monkeypatch, recording_pool):
        # 36 points at n = 10^5: 1.4 x 10^8 window cells, but 143,484 units of work
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        monkeypatch.setattr(coverage, "_evaluate_batch", lambda batch: batch)
        pi = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        log = io.StringIO()
        run_grid(GridSpec((100000,), (100000,), pi, pi, (0.5,), (0.5,)), threads=2, log=log)
        assert created == []
        assert log.getvalue() == "coverage: 143484 kernel rows and columns in 36 points, 1 worker\n"

    def test_paper_grid_gets_a_worker_per_work_quota(self, monkeypatch, recording_pool):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        # only the worker count matters here, not the points' results
        monkeypatch.setattr(coverage, "_evaluate_batch", lambda batch: batch)
        log = io.StringIO()
        run_grid(paper_grid(), threads=4, log=log)  # under one quota: no pool
        assert created == []
        assert log.getvalue() == "coverage: 653490 kernel rows and columns in 2025 points, 1 worker\n"
        monkeypatch.setattr(coverage, "_WORK_PER_WORKER", 2 ** 17)
        log = io.StringIO()
        run_grid(paper_grid(), threads=4, log=log)
        run_grid(paper_grid(), threads=2)
        assert created == [4, 2]
        assert log.getvalue() == "coverage: 653490 kernel rows and columns in 2025 points, 4 workers\n"

    def test_pool_pickles_each_margin_once_per_worker(self, monkeypatch):
        sent = []

        class PicklingPool(RecordingPool):
            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                sent.extend(pickle.dumps(task) for task in tasks)
                return map(fn, tasks)

        monkeypatch.setattr(_run, "_process_pool", lambda max_workers: PicklingPool([], max_workers))
        monkeypatch.setattr(_run, "usable_cpus", lambda: 2)
        monkeypatch.setattr(coverage, "_WORK_PER_WORKER", 1)
        monkeypatch.setattr(coverage, "_evaluate_batch", lambda batch: batch)
        items = run_grid(paper_grid(), threads=2)
        assert [item[0] for item in items] == list(paper_grid().points())
        arrays = {id(m.arrays): m.arrays.nbytes for item in items if item[4] for m in item[4]}
        assert len(sent) == 2
        # all of every distinct margin's arrays at most once per task, plus a small record per point
        assert sum(map(len, sent)) < 2 * sum(arrays.values()) + 200 * len(items)

    def test_grid_runs_on_the_batch_kernel(self):
        grid = TestGrids().small_grid()
        with mock.patch.object(_backend, "batch_cover_sums", wraps=_backend.batch_cover_sums) as batch, \
                mock.patch.object(_backend, "cover_sums", wraps=_backend.cover_sums) as single:
            records = run_grid(grid)
        assert batch.call_count == 1 and len(batch.call_args.args[0]) == len(records) == 8
        assert single.call_count == 0

    def test_log_line(self):
        log = io.StringIO()
        run_grid(TestGrids().small_grid(), threads=2, log=log)
        assert log.getvalue() == "coverage: 520 kernel rows and columns in 8 points, 1 worker\n"

    def test_work_over_the_cap_is_refused_before_the_kernel(self, monkeypatch):
        # windows 29 (n = 30), 19 (n = 20), 24 (n = 25) and 9 (n = 10) at prune 0
        grid = GridSpec((30, 20), (25, 10), (0.5,), (0.5,), (0.2,), (0.2,), prune_epsilon=0.0)
        work = 2 * (29 + 19) + (24 + 9) * 2
        built = []
        monkeypatch.setattr(coverage, "pmf_vector", lambda n, p, pmf=coverage.pmf_vector: built.append(n) or pmf(n, p))
        monkeypatch.setattr(coverage, "_MAX_WORK", work)
        assert all(r.result for r in run_grid(grid))
        monkeypatch.setattr(coverage, "_MAX_WORK", work - 1)
        built.clear()
        spy = mock.Mock(side_effect=AssertionError("kernel ran"))
        monkeypatch.setattr(_backend, "batch_cover_sums", spy)
        monkeypatch.setattr(coverage, "_evaluate_batch", spy)
        with pytest.raises(DomainError, match=rf"kernel work is {work} window rows and columns, over the cap "
                                              rf"of {work - 1}; a larger --prune \(now 0.0\)"):
            run_grid(grid)
        assert spy.call_count == 0 and sorted(built) == [10, 20, 25, 30]  # the margin table only

    def test_unpruned_n_100000_is_not_refused(self, monkeypatch):
        # 99,999 rows in 25 pieces, each carrying 99,999 columns
        grid = GridSpec((100000,), (100000,), (0.3,), (0.3,), (0.5,), (0.5,), prune_epsilon=0.0)
        monkeypatch.setattr(coverage, "_evaluate_batch", lambda batch: batch)
        log = io.StringIO()
        [item] = run_grid(grid, log=log)
        assert item[4][0].lo == 1 and item[4][0].hi == 99999
        assert log.getvalue() == f"coverage: {99999 + 25 * 99999} kernel rows and columns in 1 points, 1 worker\n"

    def test_chunk_memory_does_not_grow_with_the_points(self):
        # 2 rows and ~890 columns per point: packed by rows alone, every point went into one chunk
        def grid(pis, rhos):
            return GridSpec((3,), (20000,), pis, (0.5,), rhos, (0.5,))

        def peak(grid):
            tracemalloc.start()
            try:
                assert len(run_grid(grid)) == grid.size()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        axis = tuple(round(0.3 + 0.02 * i, 2) for i in range(20))
        small, large = grid(axis[:5], axis[:10]), grid(axis, axis)
        run_grid(small)  # the log-factorial table grows to n = 20,000 outside the traced runs
        assert large.size() == 8 * small.size() == 400
        assert peak(large) <= 1.5 * peak(small)

    def test_unpruned_n_5000_still_runs(self):
        grid = GridSpec((5000,), (5000,), (0.3,), (0.3,), (0.5,), (0.5,), prune_epsilon=0.0)
        [record] = run_grid(grid)
        assert record.result.truncation_bound == 0.0

    def test_margin_table_over_the_cap_is_refused_before_any_pmf(self, monkeypatch):
        # n = 10^8: an 800 MB pmf, and far more to build it; nothing may be allocated
        spy = mock.Mock(side_effect=AssertionError("pmf built"))
        monkeypatch.setattr(coverage, "pmf_vector", spy)
        table_size = len(binomial._LFACT._hi)
        grid = GridSpec((10**8, 30), (10**8,), (0.3,), (0.3, 0.6), (0.5,), (0.5,))
        # the pmf being built, n + 1, and 6 doubles per count of the windows' bounds
        p_3, p_6 = (coverage._group_risk(1, pi, 0.5, 1, "exposed") for pi in (0.3, 0.6))
        bounds = [coverage._window_bound(n, p, 1e-12) for n, p in [(10**8, p_3), (30, p_3), (10**8, p_6)]]
        assert bounds[1] == 29 and 100_000_001 + 6 * sum(bounds) == 100_811_651
        with pytest.raises(DomainError, match=r"need 100811651 doubles \(distinct margins: 3, "
                                              r"largest n: 100000000\), over the cap of 8388608; "
                                              r"a larger --prune \(now 1e-12\) narrows the windows"):
            run_grid(grid)
        assert spy.call_count == 0 and len(binomial._LFACT._hi) == table_size

    def test_margin_cap_passes_at_exactly_the_cap(self, monkeypatch):
        # distinct margins n = 30, 20 (exposed) and 25, 10 (non-exposed), one p: windows of
        # n - 1 counts, 6 doubles each, and the largest pmf being built, 31 doubles
        grid = GridSpec((30, 20), (25, 10), (0.5,), (0.5,), (0.2,), (0.2,))
        monkeypatch.setattr(coverage, "_MAX_MARGIN_DOUBLES", 6 * (29 + 19 + 24 + 9) + 31)
        assert all(r.result for r in run_grid(grid))
        monkeypatch.setattr(coverage, "_MAX_MARGIN_DOUBLES", 6 * (29 + 19 + 24 + 9) + 31 - 1)
        with pytest.raises(DomainError, match="need 517 doubles"):
            run_grid(grid)

    def test_one_wide_unpruned_window_is_refused_before_any_pmf(self, monkeypatch):
        # n_nonE = 8 x 10^6 at prune 0: its pmf, 8,000,001 doubles, is under the cap, and its
        # work, 7,999,999 + 2, under 2^31, but the window's arrays take 48 x 10^6 doubles
        spy = mock.Mock(side_effect=AssertionError("pmf built"))
        monkeypatch.setattr(coverage, "pmf_vector", spy)
        table_size = len(binomial._LFACT._hi)
        grid = GridSpec((3,), (8 * 10**6,), (0.3,), (0.3,), (0.5,), (0.5,), prune_epsilon=0.0)
        with pytest.raises(DomainError, match=r"need 56000007 doubles \(distinct margins: 2, "
                                              r"largest n: 8000000\), over the cap of 8388608; "
                                              r"a larger --prune \(now 0.0\)"):
            run_grid(grid)
        assert spy.call_count == 0 and len(binomial._LFACT._hi) == table_size


class TestCoverageCsv:
    def test_format(self):
        grid = GridSpec((20,), (25,), (0.5,), (0.5,), (0.1,), (0.1,))
        recs = run_grid(grid)
        buf = io.StringIO()
        write_coverage_csv(recs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# condrisk {__version__}"
        assert lines[1] == COVERAGE_CSV_HEADER
        assert len(lines) == 3
        fields = lines[2].split(",")
        assert fields[:2] == ["20", "25"]
        assert fields[6] == "1"
        # numeric payload round-trips at 12 significant digits
        res = recs[0].result
        assert float(fields[8]) == pytest.approx(res.true_rr, rel=1e-11)
        assert float(fields[9]) == pytest.approx(res.p_c, rel=1e-11)
        assert float(fields[10]) == pytest.approx(res.p_c_normalized, rel=1e-11)

    def test_flagged_rows_are_nan(self):
        rec = GridRecord(10, 10, 0.5, 0.5, 1.0, 0.1, 0, 0.95, None, "degenerate")
        buf = io.StringIO()
        write_coverage_csv([rec], buf)
        fields = buf.getvalue().splitlines()[2].split(",")
        assert [f for f in fields[8:]] == ["nan"] * 5

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "cov.csv"
        grid = GridSpec((10,), (10,), (0.5,), (0.5,), (0.1,), (0.1,))
        write_coverage_csv(run_grid(grid), out)
        lines = out.read_text().splitlines()
        assert lines[1] == COVERAGE_CSV_HEADER and len(lines) == 3


GOOD_GRID_TEXT = """\
# exact coverage study grid
n_E = 500, 1000
n_nonE = 500 1000
pi_E = 0.1 0.5
pi_nonE = 0.3
rho_E = 0.1, 0.9   # correlations
rho_nonE = 0.5

stratum = 0
level = 0.9  # a comment after a scalar
prune_epsilon = 1e-10
"""


class TestGridFileParser:
    def test_parses_full_file(self):
        grid = parse_grid_file(io.StringIO(GOOD_GRID_TEXT))
        assert grid.n_e_axis == (500, 1000)
        assert grid.n_ne_axis == (500, 1000)
        assert grid.pi_e_axis == (0.1, 0.5)
        assert grid.pi_ne_axis == (0.3,)
        assert grid.rho_e_axis == (0.1, 0.9)
        assert grid.rho_ne_axis == (0.5,)
        assert grid.stratum == 0
        assert grid.level == 0.9
        assert grid.prune_epsilon == 1e-10
        assert grid.size() == 16

    def test_scalar_defaults(self):
        text = "\n".join(
            f"{key} = {val}"
            for key, val in [
                ("n_E", "10"), ("n_nonE", "10"), ("pi_E", "0.5"),
                ("pi_nonE", "0.5"), ("rho_E", "0.1"), ("rho_nonE", "0.1"),
            ]
        )
        grid = parse_grid_file(io.StringIO(text))
        assert (grid.stratum, grid.level, grid.prune_epsilon) == (1, 0.95, 1e-12)

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(GOOD_GRID_TEXT)
        assert parse_grid_file(path).size() == 16

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("n_E 10", 1, "key = values"),
            ("n_E = 10\nn_E = 20", 2, "duplicate"),
            ("bogus = 1", 1, "unknown key"),
            ("n_E = ten", 1, "invalid value"),
            ("n_E =", 1, "no values"),
            ("stratum = 3", 1, "invalid value"),
            ("level = high", 1, "invalid value"),
            ("level = 0.9,", 1, "invalid value '0.9,' for level"),
            ("level =", 1, "invalid value '' for level"),
            ("n_E = 10\nstratum = 1 0", 2, "invalid value '1 0' for stratum"),
            ("n_E = 10 ten", 1, "invalid value 'ten' for n_E"),
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_grid_file(io.StringIO(text))
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_missing_axes_reported(self):
        with pytest.raises(ParseError, match="missing required axis keys"):
            parse_grid_file(io.StringIO("n_E = 10"))

    def test_domain_errors_surface_as_parse_errors(self):
        text = GOOD_GRID_TEXT.replace("prune_epsilon = 1e-10", "prune_epsilon = 1e-3")
        with pytest.raises(ParseError, match="prune_epsilon"):
            parse_grid_file(io.StringIO(text))
