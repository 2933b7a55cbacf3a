"""Monte-Carlo oracle: reproducibility, distributional sanity, CSV output."""

import io
import math

import pytest

from condrisk import __version__
from condrisk.coverage import Scenario, exact_coverage
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
from condrisk.measures import phi_correlations
from condrisk.model import BernoulliPairParams


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


class TestMCCoverage:
    def test_seed_reproducibility(self):
        a = mc_coverage(spec(reps=400), margin_model="fixed_margin")
        b = mc_coverage(spec(reps=400), margin_model="fixed_margin")
        assert a == b

    @pytest.mark.parametrize("margin_model", MARGIN_MODELS)
    def test_thread_count_is_invisible(self, margin_model):
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

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mc_coverage(spec(), margin_model="bootstrap")
        with pytest.raises(DomainError):
            mc_coverage(spec(), level=0.0)
        with pytest.raises(DomainError):
            mc_coverage(spec(), stratum=2)


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
