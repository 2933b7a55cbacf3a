"""Monte-Carlo oracle: reproducibility, distributional sanity, CSV output."""

import dataclasses
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from condrisk import __version__, _run, mc
from condrisk.compare import compare_point
from condrisk.coverage import GridSpec, Scenario, exact_coverage, paper_grid, run_grid, true_conditional_risks
from condrisk.errors import DomainError
from condrisk.mc import (
    MARGIN_MODELS,
    ORACLE_CSV_HEADER,
    CohortSpec,
    equal_marginal_spec,
    mc_coverage,
    oracle_record,
    simulate_cohort,
    write_oracle_csv,
)
from condrisk.measures import log_wald_bounds, phi_correlations, stratum_rr_estimate, z_quantile
from condrisk.model import BernoulliPairParams, rho_bounds, stratum_risk, stratum_risks

from _oracles import exact_cohort_coverage, loop_count_reps, loop_simulate_cohort


def spec(n_e=100, n_ne=100, pi_e=0.5, pi_ne=0.5, rho_e=0.1, rho_ne=0.1, seed=7, reps=200):
    return equal_marginal_spec(n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne, seed, reps)


class TestSpecValidation:
    def test_rejects_bad_sizes_and_reps(self):
        params = BernoulliPairParams(0.5, 0.5, 0.1)
        with pytest.raises(DomainError):
            CohortSpec(0, 10, params, params, seed=1, reps=10)
        with pytest.raises(DomainError):
            CohortSpec(10, 10.0, params, params, seed=1, reps=10)
        with pytest.raises(DomainError):
            CohortSpec(10, 10, params, params, seed=1, reps=0)
        with pytest.raises(DomainError):
            CohortSpec(True, 10, params, params, seed=1, reps=10)
        with pytest.raises(DomainError):
            CohortSpec(10, 10, params, params, seed=1, reps=True)

    def test_rejects_bad_seed(self):
        params = BernoulliPairParams(0.5, 0.5, 0.1)
        with pytest.raises(DomainError):
            CohortSpec(10, 10, params, params, seed=-1, reps=10)
        with pytest.raises(DomainError):
            CohortSpec(10, 10, params, params, seed=2**64, reps=10)
        with pytest.raises(DomainError):
            CohortSpec(10, 10, params, params, seed=True, reps=10)
        CohortSpec(10, 10, params, params, seed=2**64 - 1, reps=10)

    def test_equal_marginal_spec_fields(self):
        s = spec(pi_e=0.3, rho_e=0.5)
        assert s.params_e == BernoulliPairParams(0.3, 0.3, 0.5)
        assert s.params_ne == BernoulliPairParams(0.5, 0.5, 0.1)


class TestSimulateCohort:
    def test_counts_conserve_group_sizes(self):
        tables = simulate_cohort(spec(n_e=83, n_ne=57), rep=3)
        assert tables.n_exposed == 83
        assert tables.n_unexposed == 57

    def test_same_seed_same_tables(self):
        assert simulate_cohort(spec(), rep=5) == simulate_cohort(spec(), rep=5)

    def test_replications_are_distinct_substreams(self):
        assert simulate_cohort(spec(), rep=0) != simulate_cohort(spec(), rep=1)
        assert simulate_cohort(spec(seed=7)) != simulate_cohort(spec(seed=8))

    def test_full_correlation_forbids_discordant_pairs(self):
        tables = simulate_cohort(spec(n_e=500, n_ne=500, rho_e=1.0, rho_ne=1.0), rep=2)
        assert tables.stratum1.b == 0  # exposed: earlier 1 forces later 1
        assert tables.stratum0.a == 0  # exposed: earlier 0 forces later 0
        assert tables.stratum1.d == 0
        assert tables.stratum0.c == 0

    def test_independence_gives_small_empirical_phi(self):
        tables = simulate_cohort(spec(n_e=4000, n_ne=4000, rho_e=0.0, rho_ne=0.0), rep=0)
        rho_e, rho_ne = phi_correlations(tables)
        bound = 3.0 / math.sqrt(4000.0)
        assert abs(rho_e) < bound
        assert abs(rho_ne) < bound

    def test_conditional_frequency_matches_model(self):
        # pi 0.1, rho 0.9: risk among earlier-positives is 0.91
        tables = simulate_cohort(spec(n_e=20000, n_ne=10, pi_e=0.1, rho_e=0.9), rep=1)
        s1 = tables.stratum1
        n1 = s1.n_exposed
        freq = s1.a / n1
        assert abs(freq - 0.91) < 3.0 * math.sqrt(0.91 * 0.09 / n1)

    def test_marginal_frequencies_match(self):
        tables = simulate_cohort(spec(n_e=20000, n_ne=20000, pi_e=0.3, pi_ne=0.7), rep=4)
        se3 = lambda p, n: 3.0 * math.sqrt(p * (1.0 - p) / n)
        earlier_e = tables.stratum1.n_exposed / 20000
        later_e = (tables.stratum1.a + tables.stratum0.a) / 20000
        earlier_ne = tables.stratum1.n_unexposed / 20000
        later_ne = (tables.stratum1.c + tables.stratum0.c) / 20000
        assert abs(earlier_e - 0.3) < se3(0.3, 20000)
        assert abs(later_e - 0.3) < se3(0.3, 20000)
        assert abs(earlier_ne - 0.7) < se3(0.7, 20000)
        assert abs(later_ne - 0.7) < se3(0.7, 20000)

    def test_replication_over_the_cap_is_refused_before_any_draw(self, monkeypatch):
        # n = 10^8 per group: 3.2 GB of uniforms, never allocated here
        spy = mock.Mock(side_effect=AssertionError("uniforms drawn"))
        monkeypatch.setattr(np.random, "Philox", spy)
        with pytest.raises(DomainError, match=r"400000000 uniforms, over the cap of 67108864"):
            simulate_cohort(spec(n_e=10**8, n_ne=10**8))
        assert spy.call_count == 0
        with pytest.raises(AssertionError, match="uniforms drawn"):  # the spy is the generator
            simulate_cohort(spec())

    def test_cap_passes_at_exactly_the_cap(self, monkeypatch):
        s = spec(n_e=30, n_ne=20)
        monkeypatch.setattr(mc, "_MAX_COHORT_DOUBLES", 2 * (30 + 20))
        assert simulate_cohort(s).n_exposed == 30
        monkeypatch.setattr(mc, "_MAX_COHORT_DOUBLES", 2 * (30 + 20) - 1)
        with pytest.raises(DomainError, match="100 uniforms"):
            simulate_cohort(s)


# (n_E, n_nonE, pi_E, pi_nonE, rho_E, rho_nonE, stratum, level), small
# enough to enumerate both groups' multinomials.
COHORT_LAW_SCENARIOS = [
    (6, 6, 0.5, 0.5, 0.3, 0.3, 1, 0.95),
    (6, 5, 0.6, 0.4, 0.2, 0.5, 1, 0.95),
    (5, 6, 0.7, 0.5, 0.5, 0.1, 1, 0.9),
    (6, 6, 0.8, 0.6, 0.0, 0.4, 1, 0.8),
    (4, 6, 0.6, 0.7, 0.6, -0.2, 1, 0.95),
    (6, 6, 0.9, 0.8, -0.1, 0.2, 1, 0.99),
    (6, 6, 0.5, 0.5, 0.3, 0.3, 0, 0.95),
    (6, 5, 0.3, 0.4, 0.2, 0.1, 0, 0.95),
    (5, 6, 0.2, 0.3, 0.5, 0.1, 0, 0.9),
    (6, 6, 0.4, 0.3, 0.0, 0.2, 0, 0.8),
    (6, 4, 0.3, 0.5, -0.3, 0.3, 0, 0.95),
    (6, 6, 0.1, 0.25, 0.05, -0.1, 0, 0.99),
]


class TestCohortLaw:
    """The cohort oracle's four binomial draws have the law of whole sampled cohorts."""

    @pytest.mark.parametrize("scenario", COHORT_LAW_SCENARIOS)
    def test_coverage_matches_the_exact_multinomial_enumeration(self, scenario):
        *sizes_and_params, stratum, level = scenario
        s = spec(*sizes_and_params, seed=5, reps=10000)
        exact = exact_cohort_coverage(s, stratum, level)
        mc = mc_coverage(s, stratum=stratum, level=level, margin_model="cohort")
        se = math.sqrt(max(exact * (1.0 - exact), 1.0 / s.reps) / s.reps)
        assert abs(mc.estimate - exact) <= 4.0 * se

    @pytest.mark.parametrize("stratum", [0, 1])
    def test_binomial_draws_match_subject_by_subject_draws(self, stratum):
        s = spec(n_e=40, n_ne=30, pi_e=0.3, pi_ne=0.6, rho_e=0.4, rho_ne=-0.2, seed=3)
        other = spec(n_e=40, n_ne=30, pi_e=0.3, pi_ne=0.6, rho_e=0.4, rho_ne=-0.2, seed=4)
        reps = 2000
        p_e, p_ne, _ = stratum_risks(s.params_e, s.params_ne, stratum)
        groups = [(s.n_e, s.params_e.pi_k, p_e), (s.n_ne, s.params_ne.pi_k, p_ne)]
        binomial = mc._draw_tables(s.seed, groups, stratum, 0, reps)
        subjects = []
        for rep in range(reps):  # another seed, so the two samples are independent
            tables = simulate_cohort(other, rep)
            t = tables.stratum1 if stratum == 1 else tables.stratum0
            subjects.append((t.a, t.n_exposed, t.c, t.n_unexposed))
        subjects = np.array(subjects).T
        # (later count, stratum size) of each group
        for x, y in zip(binomial, subjects):
            se = math.sqrt((x.var() + y.var()) / reps)
            assert abs(x.mean() - y.mean()) <= 4.0 * se


class TestMCCoverage:
    def test_seed_reproducibility(self):
        a = mc_coverage(spec(reps=400), margin_model="fixed_margin")
        b = mc_coverage(spec(reps=400), margin_model="fixed_margin")
        assert a == b

    @pytest.mark.parametrize("margin_model", MARGIN_MODELS)
    def test_thread_count_is_invisible(self, monkeypatch, margin_model):
        monkeypatch.setattr(mc, "_BLOCK_REPS", 64)  # 5 blocks
        monkeypatch.setattr(mc, "_DRAWS_PER_WORKER", 1)  # so 3 workers split them
        s = spec(n_e=60, n_ne=60, reps=300)
        serial = mc_coverage(s, margin_model=margin_model, threads=1)
        parallel = mc_coverage(s, margin_model=margin_model, threads=3)
        assert serial == parallel

    @pytest.mark.parametrize("stratum", [0, 1])
    def test_fixed_margin_tracks_exact_engine(self, stratum):
        s = spec(n_e=40, n_ne=40, reps=4000, seed=11)
        mc = mc_coverage(s, stratum=stratum, margin_model="fixed_margin")
        exact = exact_coverage(
            Scenario(40, 40, 0.5, 0.5, 0.1, 0.1, stratum=stratum), prune_epsilon=0.0
        )
        se = max(mc.std_error, 1.0 / s.reps)
        assert abs(mc.estimate - exact.p_c) <= 3.0 * se

    def test_cohort_margins_track_exact_engine_loosely(self):
        # random stratum margins recentre around n*P(stratum), so compare
        # against the exact value only through the MC uncertainty
        s = spec(n_e=200, n_ne=200, reps=1500, seed=3)
        mc = mc_coverage(s, stratum=1, margin_model="cohort")
        # stratum-1 margin is Binomial(n, pi): expected size 100
        exact = exact_coverage(Scenario(100, 100, 0.5, 0.5, 0.1, 0.1), prune_epsilon=0.0)
        assert abs(mc.estimate_normalized - exact.p_c_normalized) <= 4.0 * max(
            mc.std_error, 1.0 / s.reps
        )

    def test_single_rep_is_zero_or_one(self):
        mc = mc_coverage(spec(reps=1), margin_model="fixed_margin")
        assert mc.estimate in (0.0, 1.0)
        assert mc.std_error == 0.0
        assert mc.reps == 1

    def test_near_certain_level_covers_everything_nondegenerate(self):
        mc = mc_coverage(spec(n_e=100, n_ne=100, reps=1000), level=0.9999)
        assert mc.covered == mc.nondegenerate
        assert mc.estimate_normalized == 1.0

    def test_counts_are_consistent(self):
        mc = mc_coverage(spec(reps=500), margin_model="cohort")
        assert 0 <= mc.covered <= mc.nondegenerate <= mc.reps == 500
        assert mc.estimate == mc.covered / 500
        assert mc.estimate_normalized == mc.covered / mc.nondegenerate
        assert mc.std_error == math.sqrt(mc.estimate * (1.0 - mc.estimate) / 500)

    def test_certain_earlier_outcome_puts_the_whole_group_in_stratum_1(self):
        # pi_E = 1, rho_E = 0: ones = n_E and the exposed later risk is 1, so
        # every table has a = n_E, as in fixed_margin; only stratum 0's risk
        # given an earlier 0 is undefined
        s = equal_marginal_spec(30, 30, 1.0, 0.5, 0.0, 0.2, seed=2, reps=50)
        for margin_model in MARGIN_MODELS:
            assert mc_coverage(s, stratum=1, margin_model=margin_model).nondegenerate == 0
        with pytest.raises(DomainError):
            mc_coverage(s, stratum=0, margin_model="cohort")

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mc_coverage(spec(), margin_model="bootstrap")
        with pytest.raises(DomainError):
            mc_coverage(spec(), level=0.0)
        with pytest.raises(DomainError):
            mc_coverage(spec(), stratum=2)


class TestOneTrueRatio:
    """coverage, oracle and compare see the same true ratio, to the bit."""

    @pytest.mark.parametrize("stratum", [0, 1])
    def test_paper_grid_ratios_are_bitwise_equal(self, stratum):
        grid = paper_grid()
        for pi_e, pi_ne, rho_e, rho_ne in itertools.product(
            grid.pi_e_axis, grid.pi_ne_axis, grid.rho_e_axis, grid.rho_ne_axis,
        ):
            scenario = Scenario(500, 500, pi_e, pi_ne, rho_e, rho_ne, stratum)
            _, _, exact_rr = true_conditional_risks(scenario)
            s = equal_marginal_spec(500, 500, pi_e, pi_ne, rho_e, rho_ne, seed=1, reps=1)
            assert mc_coverage(s, stratum=stratum).true_rr == exact_rr, scenario
            record = compare_point(pi_e, pi_ne, rho_e, rho_ne)
            assert (record.rr1 if stratum == 1 else record.rr0) == exact_rr, scenario


class TestOracleCsv:
    def test_record_and_format(self):
        rec = oracle_record(
            40, 50, 0.5, 0.3, 0.1, 0.5,
            stratum=1, level=0.95, margin_model="fixed_margin",
            reps=200, seed=12,
        )
        again = oracle_record(
            40, 50, 0.5, 0.3, 0.1, 0.5,
            stratum=1, level=0.95, margin_model="fixed_margin",
            reps=200, seed=12,
        )
        assert rec == again
        buf = io.StringIO()
        write_oracle_csv([rec], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# condrisk {__version__}"
        assert lines[1] == ORACLE_CSV_HEADER
        fields = lines[2].split(",")
        assert fields[:2] == ["40", "50"]
        assert fields[8] == "fixed_margin"
        assert fields[9:11] == ["200", "12"]
        assert float(fields[11]) == pytest.approx(rec.estimate, rel=1e-11)
        assert float(fields[12]) == pytest.approx(rec.std_error, rel=1e-11)


SEEDS = (0, 1, 2**64 - 1)
REPS = (0, 1, 4095, 2**40)


class TestSubstreams:
    """simulate_cohort draws from a fresh Philox(key=(seed << 64) | rep)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_simulate_cohort_is_the_loop_draw(self, seed):
        s = spec(n_e=37, n_ne=23, pi_e=0.3, pi_ne=0.6, rho_e=0.4, rho_ne=-0.2, seed=seed)
        for rep in REPS:
            assert simulate_cohort(s, rep) == loop_simulate_cohort(s, rep)


@st.composite
def oracle_cases(draw):
    """A scenario, a replication range and a block size for _count_reps."""
    n_e = draw(st.integers(1, 60))
    n_ne = draw(st.integers(1, 60))
    pis, rhos = [], []
    for _ in range(2):
        pi = draw(st.floats(0.02, 0.98))
        lower, upper = rho_bounds(pi, pi)
        pis.append(pi)
        rhos.append(lower + (upper - lower) * draw(st.floats(0.0, 1.0)))
    stratum = draw(st.sampled_from([0, 1]))
    assume(stratum_risk(BernoulliPairParams(pis[1], pis[1], rhos[1]), stratum) > 0.0)
    s = equal_marginal_spec(n_e, n_ne, pis[0], pis[1], rhos[0], rhos[1],
                            seed=draw(st.integers(0, 2**64 - 1)), reps=1)
    margin_model = draw(st.sampled_from(MARGIN_MODELS))
    rep_lo = draw(st.sampled_from(REPS) | st.integers(0, 2**40))
    rep_hi = rep_lo + draw(st.integers(1, 12))
    block = draw(st.sampled_from([1, 2, 3, 5, mc._BLOCK_REPS]))
    level = draw(st.sampled_from([0.8, 0.95, 0.99]))
    return s, stratum, level, margin_model, rep_lo, rep_hi, block


class TestBatchedCountsAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_counts_equal_the_replication_loop(self, case):
        s, stratum, level, margin_model, rep_lo, rep_hi, block = case
        with mock.patch.object(mc, "_BLOCK_REPS", block):
            batched = mc._count_reps(s, stratum, level, margin_model, rep_lo, rep_hi)
        assert batched == loop_count_reps(s, stratum, level, margin_model, rep_lo, rep_hi, block)

    @pytest.mark.parametrize("margin_model", MARGIN_MODELS)
    @pytest.mark.parametrize("stratum", [0, 1])
    def test_many_blocks(self, monkeypatch, margin_model, stratum):
        s = spec(n_e=150, n_ne=90, pi_e=0.3, pi_ne=0.2, rho_e=0.5, rho_ne=0.3, seed=5)
        for block in (1, 7, 64, mc._BLOCK_REPS):
            expected = loop_count_reps(s, stratum, 0.95, margin_model, 10, 410, block)
            monkeypatch.setattr(mc, "_BLOCK_REPS", block)
            assert mc._count_reps(s, stratum, 0.95, margin_model, 10, 410) == expected

    @pytest.mark.parametrize("margin_model", MARGIN_MODELS)
    def test_first_replications_do_not_depend_on_reps(self, monkeypatch, margin_model):
        monkeypatch.setattr(mc, "_BLOCK_REPS", 4)
        s = spec(n_e=12, n_ne=10, pi_e=0.4, pi_ne=0.3, rho_e=0.2, rho_ne=0.1, seed=9)
        # each replication alone, drawn from its block's start
        single = [mc._count_reps(s, 1, 0.8, margin_model, r, r + 1) for r in range(23)]
        for k in range(1, 24):
            run = mc_coverage(dataclasses.replace(s, reps=k), level=0.8, margin_model=margin_model)
            assert (run.covered, run.nondegenerate) == tuple(map(sum, zip(*single[:k])))
        assert 0 < run.covered < run.nondegenerate

    @pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
    def test_bounds_at_true_ratio_are_decided_by_the_scalar_interval(self, level):
        # true_rr set to a scalar bound that the array exp rounds the other way
        a, c = (x.ravel() for x in np.meshgrid(np.arange(41), np.arange(31), indexing="ij"))
        inner = (a >= 1) & (a <= 39) & (c >= 1) & (c <= 29)
        scalar = [stratum_rr_estimate(int(x), 40, int(y), 30, level) for x, y in zip(a[inner], c[inner])]
        _, _, lower, upper = log_wald_bounds(a[inner], 40, c[inner], 30, z_quantile(level), xp=np)
        rounded_apart = [
            bound for e, lo, hi in zip(scalar, lower, upper)
            for bound, array_bound in ((e.ci_lower, lo), (e.ci_upper, hi)) if bound != array_bound
        ]
        assert len(rounded_apart) > 20
        for true_rr in rounded_apart[:20]:
            covered = sum(e.ci_lower <= true_rr <= e.ci_upper for e in scalar)
            assert mc._decide(a, 40, c, 30, level, true_rr) == (covered, 39 * 29)


class TestWorkerCap:
    def test_workers_capped_by_jobs_and_cpus(self, monkeypatch, recording_pool):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        monkeypatch.setattr(mc, "_BLOCK_REPS", 1)  # a job per replication
        monkeypatch.setattr(mc, "_DRAWS_PER_WORKER", 1)  # draws never cap here
        s = spec(n_e=20, n_ne=20, reps=30)
        serial = mc_coverage(s, threads=1)
        assert mc_coverage(s, threads=100000) == serial
        assert mc_coverage(s, threads=3) == serial
        assert mc_coverage(spec(n_e=20, n_ne=20, reps=2), threads=100000) == mc_coverage(
            spec(n_e=20, n_ne=20, reps=2))
        assert created == [4, 3, 2]

    @pytest.mark.parametrize("margin_model", MARGIN_MODELS)
    def test_a_quota_of_draws_per_worker(self, monkeypatch, recording_pool, margin_model):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", lambda: 4)
        per_rep = 4 if margin_model == "cohort" else 2
        log = io.StringIO()
        mc_coverage(spec(n_e=20, n_ne=20, reps=20_000), margin_model=margin_model, threads=2, log=log)
        assert created == []  # 2 blocks, but far from 2^21 draws
        assert log.getvalue() == f"oracle: 20000 replications, {20_000 * per_rep} binomial draws, 1 worker\n"
        monkeypatch.setattr(mc, "_DRAWS_PER_WORKER", 40_000 * per_rep // 2 + 1)
        mc_coverage(spec(n_e=20, n_ne=20, reps=40_000), margin_model=margin_model, threads=4)
        assert created == [2]  # 1 + draws // quota, under the 4 threads and 3 blocks

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_run_in_process(self, monkeypatch, recording_pool, threads):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        s = spec(n_e=20, n_ne=20, reps=30)
        assert mc_coverage(s, threads=threads) == mc_coverage(s, threads=1)
        rec = oracle_record(20, 20, 0.5, 0.5, 0.1, 0.1, 1, 0.95, "cohort", 30, 7, threads=threads)
        assert rec == oracle_record(20, 20, 0.5, 0.5, 0.1, 0.1, 1, 0.95, "cohort", 30, 7)
        assert created == []

    def test_cpus_are_the_affinity_set_not_the_host(self, monkeypatch):
        monkeypatch.setattr(_run.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(_run.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _run.usable_cpus() == 1
        assert _run.worker_count(8, 8, 8, 1) == 1
        monkeypatch.delattr(_run.os, "sched_getaffinity", raising=False)
        assert _run.usable_cpus() == 64
        assert _run.worker_count(8, 8, 8, 1) == 8
        assert _run.worker_count(8, 8, 8, 2) == 5  # 1 + work // quota

    def test_one_worker_is_decided_without_counting_cpus(self, monkeypatch, recording_pool):
        def uncounted():
            raise AssertionError("usable_cpus called")

        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        monkeypatch.setattr(_run, "usable_cpus", uncounted)
        assert _run.worker_count(1, 8, 8, 1) == 1 and _run.worker_count(8, 1, 8, 1) == 1
        assert _run.worker_count(8, 8, 1, 2) == 1
        # 16 points whose little kernel work holds the grid to one worker
        grid = GridSpec((20, 30), (20, 30), (0.3, 0.5), (0.3, 0.5), (0.5,), (0.5,))
        assert len(run_grid(grid, threads=2)) == 16
        assert mc_coverage(spec(n_e=20, n_ne=20, reps=30), threads=1).reps == 30
        assert created == []

    def test_one_cpu_or_unknown_runs_in_process(self, monkeypatch, recording_pool):
        pool, created = recording_pool
        monkeypatch.setattr(_run, "_process_pool", pool)
        s = spec(n_e=20, n_ne=20, reps=30)
        serial = mc_coverage(s, margin_model="cohort", threads=1)
        for cpus in (None, 1):
            monkeypatch.setattr(_run, "usable_cpus", lambda: cpus)
            assert mc_coverage(s, margin_model="cohort", threads=100000) == serial
        assert created == []
