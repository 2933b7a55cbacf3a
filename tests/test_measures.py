"""Estimators on stratified 2x2 tables: points, CIs, correlations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condrisk.errors import DegenerateTableError, DomainError, UndefinedCorrelationError
from condrisk.measures import (
    StratifiedTables,
    StratumTable,
    phi_correlations,
    plug_in_rr0,
    plug_in_rr1,
    rr0_estimate,
    rr1_estimate,
    rr_crude,
    stratum_rr_estimate,
    z_quantile,
)

from _oracles import pearson_phi, plug_in_inputs, random_tables

counts = st.integers(min_value=1, max_value=60)


def tables_strategy():
    return st.builds(
        lambda v: StratifiedTables(
            StratumTable(v[0], v[1], v[2], v[3]), StratumTable(v[4], v[5], v[6], v[7])
        ),
        st.tuples(*([counts] * 8)),
    )


class TestTables:
    def test_rejects_negative_counts(self):
        with pytest.raises(DegenerateTableError):
            StratumTable(1, -1, 2, 3)

    def test_rejects_non_integer(self):
        with pytest.raises(DegenerateTableError):
            StratumTable(1.5, 1, 2, 3)
        with pytest.raises(DegenerateTableError):
            StratumTable(1, 1, True, 3)

    def test_margins(self):
        t = StratumTable(3, 4, 5, 6)
        assert t.n_exposed == 7
        assert t.n_unexposed == 11
        s = StratifiedTables(t, StratumTable(1, 1, 1, 1))
        assert s.n_exposed == 9
        assert s.n_unexposed == 13


class TestZQuantile:
    def test_frozen_975(self):
        # sqrt(2)*erfinv(0.95) = 1.9599639845400542355... (mpmath, 50 digits)
        assert abs(z_quantile(0.95) - 1.9599639845400542355) < 1e-10

    def test_frozen_995(self):
        assert abs(z_quantile(0.99) - 2.5758293035489007618) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            z_quantile(1.0)
        with pytest.raises(DomainError):
            z_quantile(0.0)


class TestCrudeRR:
    def test_equal_risks(self):
        assert rr_crude(StratumTable(10, 90, 10, 90)).point == 1.0

    def test_double_risk(self):
        assert rr_crude(StratumTable(20, 80, 10, 90)).point == 2.0

    def test_worked_interval(self):
        est = rr_crude(StratumTable(50, 50, 25, 75))
        assert est.point == 2.0
        assert est.log_se == pytest.approx(0.2, rel=1e-15)
        # frozen from the closed form 2*exp(-+z*0.2), cross-checked with
        # a 50-digit mpmath evaluation (1.35141796227409140..., 2.95985410262641560...)
        assert est.ci_lower == pytest.approx(1.3514179622740916, rel=1e-12)
        assert est.ci_upper == pytest.approx(2.9598541026264154, rel=1e-12)

    def test_zero_cell_raises(self):
        with pytest.raises(DegenerateTableError):
            rr_crude(StratumTable(0, 10, 5, 5))
        with pytest.raises(DegenerateTableError):
            rr_crude(StratumTable(5, 5, 0, 10))

    def test_empty_row_raises(self):
        with pytest.raises(DegenerateTableError):
            rr_crude(StratumTable(0, 0, 5, 5))


class TestConditionalRR:
    def test_rr1_worked_interval(self):
        tables = StratifiedTables(StratumTable(50, 50, 25, 75), StratumTable(1, 1, 1, 1))
        est = rr1_estimate(tables)
        # same arithmetic as the crude example: formulas coincide per stratum
        assert est.point == 2.0
        assert est.ci_lower == pytest.approx(1.3514179622740916, rel=1e-12)
        assert est.ci_upper == pytest.approx(2.9598541026264154, rel=1e-12)

    def test_rr1_simple_points(self):
        t = StratifiedTables(StratumTable(5, 5, 5, 5), StratumTable(1, 1, 1, 1))
        assert rr1_estimate(t).point == 1.0
        t = StratifiedTables(StratumTable(3, 1, 1, 3), StratumTable(1, 1, 1, 1))
        assert rr1_estimate(t).point == 3.0

    def test_rr0_points(self):
        t = StratifiedTables(StratumTable(1, 1, 1, 1), StratumTable(25, 75, 25, 75))
        assert rr0_estimate(t).point == 1.0
        t = StratifiedTables(StratumTable(1, 1, 1, 1), StratumTable(81, 19, 1, 99))
        assert rr0_estimate(t).point == pytest.approx(81.0, rel=1e-12)

    def test_rr0_zero_cell_raises(self):
        t = StratifiedTables(StratumTable(1, 1, 1, 1), StratumTable(0, 10, 5, 5))
        with pytest.raises(DegenerateTableError):
            rr0_estimate(t)

    def test_each_uses_only_its_stratum(self):
        t = StratifiedTables(StratumTable(3, 1, 1, 3), StratumTable(0, 4, 0, 4))
        assert rr1_estimate(t).point == 3.0  # stratum0 degenerate, irrelevant
        with pytest.raises(DegenerateTableError):
            rr0_estimate(t)

    @given(tables_strategy(), st.sampled_from([0.8, 0.9, 0.95, 0.99]))
    @settings(max_examples=150)
    def test_interval_invariants(self, tables, level):
        est = rr1_estimate(tables, level)
        assert est.ci_lower <= est.point <= est.ci_upper
        # symmetric on the log scale by construction
        z = z_quantile(level)
        half = z * est.log_se
        assert est.ci_lower == est.point * math.exp(-half)
        assert est.ci_upper == est.point * math.exp(half)
        assert (math.log(est.ci_upper) - math.log(est.point)) == pytest.approx(
            math.log(est.point) - math.log(est.ci_lower), abs=1e-12
        )

    @given(tables_strategy())
    @settings(max_examples=100)
    def test_widening_level_widens_interval(self, tables):
        lo = rr1_estimate(tables, 0.95)
        hi = rr1_estimate(tables, 0.99)
        assert hi.ci_lower < lo.ci_lower
        assert hi.ci_upper > lo.ci_upper

    @given(tables_strategy())
    @settings(max_examples=100)
    def test_swapping_exposure_inverts(self, tables):
        s1, s0 = tables.stratum1, tables.stratum0
        swapped = StratifiedTables(
            StratumTable(s1.c, s1.d, s1.a, s1.b), StratumTable(s0.c, s0.d, s0.a, s0.b)
        )
        est = rr1_estimate(tables)
        inv = rr1_estimate(swapped)
        assert inv.point == pytest.approx(1.0 / est.point, rel=1e-12)
        assert inv.ci_lower == pytest.approx(1.0 / est.ci_upper, rel=1e-12)
        assert inv.ci_upper == pytest.approx(1.0 / est.ci_lower, rel=1e-12)


class TestPhiCorrelations:
    def test_worked_value(self):
        tables = StratifiedTables(StratumTable(3, 1, 2, 2), StratumTable(2, 4, 1, 3))
        rho_e, _ = phi_correlations(tables)
        assert rho_e == pytest.approx(10.0 / math.sqrt(600.0), rel=1e-14)
        assert rho_e == pytest.approx(0.408248, abs=1e-6)

    def test_no_association(self):
        tables = StratifiedTables(StratumTable(5, 5, 5, 5), StratumTable(5, 5, 5, 5))
        assert phi_correlations(tables) == (0.0, 0.0)

    def test_perfect_agreement(self):
        tables = StratifiedTables(StratumTable(4, 0, 4, 0), StratumTable(0, 4, 0, 4))
        assert phi_correlations(tables) == (1.0, 1.0)

    def test_zero_margin_raises(self):
        # exposed group never has the later outcome
        tables = StratifiedTables(StratumTable(0, 5, 2, 2), StratumTable(0, 5, 1, 3))
        with pytest.raises(UndefinedCorrelationError):
            phi_correlations(tables)

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            t = random_tables(rng)
            rho_e, rho_ne = phi_correlations(t)
            s1, s0 = t.stratum1, t.stratum0
            assert rho_e == pytest.approx(pearson_phi(s1.a, s1.b, s0.a, s0.b), abs=1e-12)
            assert rho_ne == pytest.approx(pearson_phi(s1.c, s1.d, s0.c, s0.d), abs=1e-12)

    def test_paper_literal_denominator(self):
        # chosen so the exposed (b1+b0=5) and non-exposed (d1+d0=4)
        # no-outcome margins differ, making the two forms distinguishable
        tables = StratifiedTables(StratumTable(3, 1, 2, 2), StratumTable(2, 4, 1, 2))
        s1, s0 = tables.stratum1, tables.stratum0
        _, rho_ne = phi_correlations(tables, paper_literal=True)
        n1, n0 = s1.n_unexposed, s0.n_unexposed
        num = s1.c * n0 - s0.c * n1
        # literal published form mixes in the exposed no-outcome margin
        expected = num / math.sqrt(n1 * n0 * (s1.c + s0.c) * (s1.b + s0.b))
        assert rho_ne == pytest.approx(expected, rel=1e-14)
        _, corrected = phi_correlations(tables)
        assert corrected != pytest.approx(rho_ne, rel=1e-6)


class TestPlugIn:
    def test_worked_example_low_risk(self):
        value = plug_in_rr1(0.1, 0.1, 0.9, 0.1, 0.1, 0.1)
        assert value == pytest.approx(0.91 / 0.19, abs=1e-9)

    def test_worked_example_given0(self):
        value = plug_in_rr0(0.9, 0.9, 0.1, 0.1, 0.1, 0.9)
        assert value == pytest.approx(81.0, abs=1e-9)

    def test_symmetry_gives_one(self):
        assert plug_in_rr1(0.3, 0.4, 0.2, 0.3, 0.4, 0.2) == pytest.approx(1.0, rel=1e-15)
        assert plug_in_rr0(0.3, 0.4, 0.2, 0.3, 0.4, 0.2) == pytest.approx(1.0, rel=1e-15)

    def test_independence_collapse(self):
        assert plug_in_rr1(0.5, 0.5, 0.0, 0.25, 0.25, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert plug_in_rr0(0.5, 0.5, 0.0, 0.25, 0.25, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_denominator_raises(self):
        # non-exposed conditional risk is exactly zero at full correlation
        with pytest.raises(DomainError):
            plug_in_rr0(0.5, 0.5, 0.0, 0.5, 0.5, 1.0)

    @given(tables_strategy())
    @settings(max_examples=200)
    def test_plug_in_identity(self, tables):
        # feeding the empirical marginals and correlations through the
        # population formula reproduces the count-ratio estimator
        pi_j_e, pi_k_e, pi_j_ne, pi_k_ne = plug_in_inputs(tables)
        rho_e, rho_ne = phi_correlations(tables)
        assert plug_in_rr1(pi_j_e, pi_k_e, rho_e, pi_j_ne, pi_k_ne, rho_ne) == pytest.approx(
            rr1_estimate(tables).point, rel=1e-10
        )
        assert plug_in_rr0(pi_j_e, pi_k_e, rho_e, pi_j_ne, pi_k_ne, rho_ne) == pytest.approx(
            rr0_estimate(tables).point, rel=1e-10
        )


class TestSharedStratumEstimate:
    def test_matches_rr1_bitwise(self):
        tables = StratifiedTables(StratumTable(17, 13, 11, 29), StratumTable(1, 1, 1, 1))
        direct = stratum_rr_estimate(17, 30, 11, 40)
        via = rr1_estimate(tables)
        assert (direct.point, direct.ci_lower, direct.ci_upper) == (
            via.point, via.ci_lower, via.ci_upper
        )

    def test_degenerate_margins(self):
        with pytest.raises(DegenerateTableError):
            stratum_rr_estimate(0, 10, 5, 10)
        with pytest.raises(DegenerateTableError):
            stratum_rr_estimate(5, 10, 0, 10)
