"""Bivariate Bernoulli model: admissibility bounds and stratum risks."""

import math

import pytest
from hypothesis import given, strategies as st

from condrisk.errors import DomainError, UndefinedMeasureError
from condrisk.model import BernoulliPairParams, rho_bounds, stratum_risk, stratum_risks


class TestRhoBounds:
    def test_symmetric_half(self):
        lo, hi = rho_bounds(0.5, 0.5)
        assert lo == -1.0
        assert hi == 1.0

    def test_complementary_marginals(self):
        # 0.9 = 1 - 0.1: rho = -1 means the outcomes are exact complements,
        # which is a valid joint distribution, so the lower bound reaches -1
        # (the independent-derivation correction of the documented example).
        lo, hi = rho_bounds(0.9, 0.1)
        assert lo == pytest.approx(-1.0, abs=5e-15)
        assert hi == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_mirrored_arguments(self):
        lo, hi = rho_bounds(0.1, 0.9)
        lo2, hi2 = rho_bounds(0.9, 0.1)
        assert lo == pytest.approx(lo2, rel=1e-14)
        assert hi == pytest.approx(hi2, rel=1e-14)

    def test_equal_marginals_structure(self):
        # equal marginals admit the full positive range
        lo, hi = rho_bounds(0.3, 0.3)
        assert hi == 1.0
        assert lo == pytest.approx(-3.0 / 7.0, rel=1e-14)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            rho_bounds(0.0, 0.5)
        with pytest.raises(DomainError):
            rho_bounds(0.5, 1.0)

    @given(
        pi_j=st.floats(0.01, 0.99),
        pi_k=st.floats(0.01, 0.99),
        t=st.floats(0.0, 1.0),
    )
    def test_bounds_yield_valid_joints(self, pi_j, pi_k, t):
        lo, hi = rho_bounds(pi_j, pi_k)
        assert lo <= 0.0 <= hi
        rho = lo + t * (hi - lo)
        params = BernoulliPairParams(pi_j, pi_k, rho)
        # the risk the model derives in either stratum stays inside [0, 1]
        for stratum in (0, 1):
            assert 0.0 <= stratum_risk(params, stratum) <= 1.0


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            BernoulliPairParams(-0.1, 0.5, 0.0)
        with pytest.raises(DomainError):
            BernoulliPairParams(0.5, 1.5, 0.0)
        with pytest.raises(DomainError):
            BernoulliPairParams(0.5, 0.5, 1.5)

    def test_rejects_inadmissible_rho(self):
        # below the lower admissibility bound for these marginals
        with pytest.raises(DomainError):
            BernoulliPairParams(0.1, 0.1, -0.5)

    def test_degenerate_marginal_requires_independence(self):
        BernoulliPairParams(0.0, 0.5, 0.0)  # fine
        with pytest.raises(DomainError):
            BernoulliPairParams(0.0, 0.5, 0.3)


class TestConditionals:
    def test_worked_example_given1(self):
        # pi = 0.1 with correlation 0.9 / 0.1 leaves conditionals 0.91 / 0.19
        assert stratum_risk(BernoulliPairParams(0.1, 0.1, 0.9), 1) == pytest.approx(0.91, abs=1e-12)
        assert stratum_risk(BernoulliPairParams(0.1, 0.1, 0.1), 1) == pytest.approx(0.19, abs=1e-12)

    def test_worked_example_given0(self):
        assert stratum_risk(BernoulliPairParams(0.9, 0.9, 0.1), 0) == pytest.approx(0.81, abs=1e-12)
        assert stratum_risk(BernoulliPairParams(0.1, 0.1, 0.9), 0) == pytest.approx(0.01, abs=1e-12)

    def test_independence_collapses_to_marginal(self):
        params = BernoulliPairParams(0.37, 0.62, 0.0)
        assert stratum_risk(params, 1) == pytest.approx(0.37, abs=1e-15)
        assert stratum_risk(params, 0) == pytest.approx(0.37, abs=1e-15)

    def test_perfect_correlation_equal_marginals(self):
        params = BernoulliPairParams(0.5, 0.5, 1.0)
        assert stratum_risk(params, 1) == 1.0
        assert stratum_risk(params, 0) == 0.0

    def test_conditioning_on_null_event(self):
        with pytest.raises(DomainError):
            stratum_risk(BernoulliPairParams(0.5, 0.0, 0.0), 1)
        with pytest.raises(DomainError):
            stratum_risk(BernoulliPairParams(0.5, 1.0, 0.0), 0)

    @pytest.mark.parametrize("stratum", [-1, 2, 0.5, None])
    def test_rejects_a_stratum_other_than_0_or_1(self, stratum):
        with pytest.raises(DomainError, match="stratum must be 0 or 1"):
            stratum_risk(BernoulliPairParams(0.3, 0.3, 0.1), stratum)

    def test_equal_marginal_form_is_the_closer_one(self):
        # the exact value is 0.03; the general form cancels to 0.029999999999999916
        assert stratum_risk(BernoulliPairParams(0.3, 0.3, 0.9), 0) == 0.029999999999999992

    def test_unequal_marginals_use_the_general_form(self):
        pi_j, pi_k, rho = 0.3, 0.4, 0.2
        params = BernoulliPairParams(pi_j, pi_k, rho)
        assert stratum_risk(params, 1) == pi_j + rho * math.sqrt(pi_j * (1.0 - pi_j) * (1.0 - pi_k) / pi_k)
        assert stratum_risk(params, 0) == pi_j - rho * math.sqrt(pi_j * (1.0 - pi_j) * pi_k / (1.0 - pi_k))

    @given(pi=st.floats(0.001, 0.999), t=st.floats(0.0, 1.0), stratum=st.sampled_from([0, 1]))
    def test_equal_marginal_form_matches_the_general_formula(self, pi, t, stratum):
        lo, hi = rho_bounds(pi, pi)
        rho = lo + t * (hi - lo)
        p, q = (pi, 1.0 - pi) if stratum == 1 else (1.0 - pi, pi)
        shift = rho * math.sqrt(pi * (1.0 - pi) * q / p)
        general = pi + shift if stratum == 1 else pi - shift
        # Near 0 the general form cancels, so the gap is bounded relative to
        # the size of its terms, not of the result (largest seen: 3.7e-16).
        assert abs(stratum_risk(BernoulliPairParams(pi, pi, rho), stratum) - general) <= (
            1e-15 * (pi + abs(shift))
        )

    def test_ratio_of_the_two_groups(self):
        params_e = BernoulliPairParams(0.1, 0.1, 0.9)
        params_ne = BernoulliPairParams(0.1, 0.1, 0.1)
        p_e, p_ne, ratio = stratum_risks(params_e, params_ne, 1)
        assert (p_e, p_ne) == (stratum_risk(params_e, 1), stratum_risk(params_ne, 1))
        assert ratio == p_e / p_ne

    def test_ratio_undefined_at_a_zero_non_exposed_risk(self):
        params = BernoulliPairParams(0.5, 0.5, 1.0)
        with pytest.raises(UndefinedMeasureError):
            stratum_risks(params, params, 0)

    @given(
        pi_j=st.floats(0.01, 0.99),
        pi_k=st.floats(0.01, 0.99),
        t=st.floats(0.001, 0.999),
    )
    def test_total_probability(self, pi_j, pi_k, t):
        lo, hi = rho_bounds(pi_j, pi_k)
        params = BernoulliPairParams(pi_j, pi_k, lo + t * (hi - lo))
        # averaging the stratum risks over the earlier outcome recovers pi_j
        total = stratum_risk(params, 1) * pi_k + stratum_risk(params, 0) * (1.0 - pi_k)
        assert total == pytest.approx(pi_j, abs=1e-12)
