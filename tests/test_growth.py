import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket.growth import (
    OutOfValidityRegion,
    WalkSpec,
    binomial_cdf,
    binomial_pmf,
    chernoff_lower,
    chernoff_upper,
    kelly_fraction_even_odds,
    kl_divergence,
    log_binomial_cdf,
    prob_growth_below,
    rate_per_step,
    sensitivity_bias,
    sensitivity_fraction,
    threshold_steps,
)

from oracles import even_odds_argmax, exact_binomial_cdf


class TestWalkSpec:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            WalkSpec(0, 0.5)
        with pytest.raises(ValueError):
            WalkSpec(2.5, 0.5)

    def test_rejects_boundary_bias(self):
        with pytest.raises(ValueError):
            WalkSpec(10, 0.0)
        with pytest.raises(ValueError):
            WalkSpec(10, 1.0)


class TestBinomialPmf:
    def test_single_step(self):
        assert binomial_pmf(WalkSpec(1, 0.37), 1) == pytest.approx(0.37, abs=1e-15)

    def test_all_heads(self):
        assert binomial_pmf(WalkSpec(10, 0.6), 10) == pytest.approx(
            0.6 ** 10, rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_normalization(self, n):
        spec = WalkSpec(n, 0.6)
        total = math.fsum(binomial_pmf(spec, k) for k in range(n + 1))
        assert abs(total - 1.0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_pmf(WalkSpec(10, 0.5), 11)
        with pytest.raises(ValueError):
            binomial_pmf(WalkSpec(10, 0.5), -1)


class TestBinomialCdf:
    def test_zero_upsteps(self):
        assert binomial_cdf(WalkSpec(10, 0.6), 0) == pytest.approx(
            0.4 ** 10, rel=1e-13
        )

    def test_full_support(self):
        assert binomial_cdf(WalkSpec(10, 0.6), 10) == 1.0

    def test_below_support(self):
        assert binomial_cdf(WalkSpec(10, 0.6), -0.5) == 0.0

    def test_floor_semantics(self):
        spec = WalkSpec(10, 0.6)
        assert binomial_cdf(spec, 4.0) == binomial_cdf(spec, 4.97)

    def test_against_rational_oracle(self):
        for n in (3, 10, 17, 30):
            spec = WalkSpec(n, 0.6)
            for k in range(n + 1):
                exact = float(exact_binomial_cdf(n, 0.6, k))
                assert binomial_cdf(spec, k) == pytest.approx(exact, rel=1e-12)

    def test_monotone_in_k(self):
        spec = WalkSpec(25, 0.3)
        values = [binomial_cdf(spec, k) for k in range(26)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50)
    def test_cdf_in_unit_interval(self, n, p):
        spec = WalkSpec(n, p)
        for k in (0, n // 2, n):
            assert 0.0 <= binomial_cdf(spec, k) <= 1.0


class TestKlDivergence:
    def test_zero_at_equal(self):
        for p in (0.1, 0.5, 0.9):
            assert kl_divergence(p, p) == 0.0

    def test_known_value(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(0.5, 0.25) == pytest.approx(expected, abs=1e-15)
        assert kl_divergence(0.5, 0.25) == pytest.approx(0.14384, abs=1e-5)

    def test_zero_log_zero_convention(self):
        for p in (0.2, 0.7):
            assert kl_divergence(0.0, p) == pytest.approx(
                -math.log(1.0 - p), abs=1e-15
            )
            assert kl_divergence(1.0, p) == pytest.approx(-math.log(p), abs=1e-15)

    def test_nonnegative_and_convex(self):
        grid = np.arange(0.0, 1.0001, 0.01)
        for p in (0.2, 0.5, 0.8):
            values = np.array([kl_divergence(a, p) for a in grid])
            assert (values >= 0.0).all()
            second_diff = values[2:] - 2.0 * values[1:-1] + values[:-2]
            assert (second_diff >= -1e-12).all()

    def test_rejects_boundary_reference(self):
        with pytest.raises(ValueError):
            kl_divergence(0.5, 0.0)


class TestChernoffBounds:
    def test_upper_is_one_at_the_mean(self):
        assert chernoff_upper(WalkSpec(10, 0.5), 5) == 1.0

    def test_upper_known_value(self):
        spec = WalkSpec(10, 0.6)
        value = chernoff_upper(spec, 4)
        assert value == pytest.approx(math.exp(-10 * kl_divergence(0.4, 0.6)))
        assert value == pytest.approx(0.4445, abs=1e-4)
        assert binomial_cdf(spec, 4) <= value

    def test_upper_dominates_exact(self):
        spec = WalkSpec(20, 0.6)
        assert chernoff_upper(spec, 8) == pytest.approx(0.1976, abs=1e-4)
        assert binomial_cdf(spec, 8) <= chernoff_upper(spec, 8)

    def test_lower_known_value(self):
        spec = WalkSpec(10, 0.6)
        value = chernoff_lower(spec, 4)
        assert value == pytest.approx(0.09938, abs=1e-5)
        assert value <= binomial_cdf(spec, 4)

    def test_lower_at_zero_divergence(self):
        assert chernoff_lower(WalkSpec(2, 0.5), 1) == 0.5
        assert binomial_cdf(WalkSpec(2, 0.5), 1) == pytest.approx(0.75)

    def test_lower_bigger_case(self):
        spec = WalkSpec(30, 0.7)
        assert chernoff_lower(spec, 15) <= binomial_cdf(spec, 15)

    def test_sandwich_small_grid(self):
        for n in range(1, 16):
            for p in (0.3, 0.6, 0.9):
                for k in range(1, int(n * p) + 1):
                    exact = float(exact_binomial_cdf(n, p, k))
                    assert chernoff_lower(WalkSpec(n, p), k) <= exact + 1e-15
                    assert exact <= chernoff_upper(WalkSpec(n, p), k) + 1e-15

    def test_validity_region_enforced(self):
        spec = WalkSpec(10, 0.4)
        with pytest.raises(OutOfValidityRegion):
            chernoff_upper(spec, 5)
        with pytest.raises(OutOfValidityRegion):
            chernoff_lower(spec, 0)


class TestRatePerStep:
    def test_matches_direct_log(self):
        spec = WalkSpec(10, 0.5)
        f = binomial_cdf(spec, 5)
        assert f == pytest.approx(0.6230, abs=1e-4)
        assert rate_per_step(spec, 5) == pytest.approx(-math.log(f) / 10.0)

    def test_sandwiched_by_divergence(self):
        # the bounds put the rate within [D, D + log(2N)/(2N)] on the
        # lower tail
        spec = WalkSpec(1000, 0.6)
        rate = rate_per_step(spec, 400)
        d = kl_divergence(0.4, 0.6)
        assert d - 1e-12 <= rate <= d + math.log(2000.0) / 2000.0
        assert rate == pytest.approx(d, abs=0.004)

    def test_zero_at_full_support(self):
        assert rate_per_step(WalkSpec(10, 0.6), 10) == 0.0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            rate_per_step(WalkSpec(10, 0.6), -1)


class TestThresholdSteps:
    def test_all_down_path(self):
        n, f = 10, 0.3
        q_target = n * math.log1p(-f)
        assert threshold_steps(f, WalkSpec(n, 0.5), q_target) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_all_up_path(self):
        n, f = 10, 0.3
        q_target = n * math.log1p(f)
        assert threshold_steps(f, WalkSpec(n, 0.5), q_target) == pytest.approx(
            float(n), abs=1e-12
        )

    def test_break_even_at_half_kelly(self):
        assert threshold_steps(0.5, WalkSpec(10, 0.5), 0.0) == pytest.approx(
            10.0 * math.log(2.0) / math.log(3.0), abs=1e-12
        )

    def test_log_wealth_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = rng.uniform(0.01, 0.99)
            n = int(rng.integers(1, 500))
            k_true = rng.uniform(0.0, n)
            q_target = k_true * math.log1p(f) + (n - k_true) * math.log1p(-f)
            k_q = threshold_steps(f, WalkSpec(n, 0.5), q_target)
            recovered = k_q * math.log1p(f) + (n - k_q) * math.log1p(-f)
            assert abs(recovered - q_target) < 1e-10

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            threshold_steps(0.0, WalkSpec(10, 0.5), 0.0)
        with pytest.raises(ValueError):
            threshold_steps(1.0, WalkSpec(10, 0.5), 0.0)

    @pytest.mark.parametrize("q_target", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_target(self, q_target):
        with pytest.raises(ValueError, match=r"\bQ\b"):
            threshold_steps(0.5, WalkSpec(10, 0.5), q_target)

    def test_rejects_target_whose_step_count_overflows(self):
        with pytest.raises(ValueError, match=r"\bQ\b"):
            threshold_steps(0.01, WalkSpec(10, 0.5), 1e308)


class TestProbGrowthBelow:
    def test_unreachable_threshold(self):
        n, f = 10, 0.2
        assert prob_growth_below(f, WalkSpec(n, 0.6), n * math.log1p(-f) - 1.0) == 0.0

    def test_certain_threshold(self):
        n, f = 10, 0.2
        assert prob_growth_below(f, WalkSpec(n, 0.6), n * math.log1p(f)) == 1.0

    def test_break_even_probability(self):
        spec = WalkSpec(10, 0.6)
        k_q = threshold_steps(0.2, spec, 0.0)
        assert k_q == pytest.approx(5.503, abs=1e-3)
        expected = float(exact_binomial_cdf(10, 0.6, 5))
        value = prob_growth_below(0.2, spec, 0.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.3669, abs=1e-4)


class TestSensitivityBias:
    def test_vanishes_at_the_mean(self):
        spec = WalkSpec(10, 0.5)
        _, first_order = sensitivity_bias(5, spec, 0.01)
        assert first_order == 0.0

    def test_linear_coefficient(self):
        spec = WalkSpec(10, 0.6)
        exact, first_order = sensitivity_bias(4, spec, 0.01)
        assert first_order == pytest.approx(0.2 / 0.24 * 0.01, abs=1e-12)
        # error halves quadratically
        exact_half, first_half = sensitivity_bias(4, spec, 0.005)
        err = abs(exact - first_order)
        err_half = abs(exact_half - first_half)
        assert err / err_half == pytest.approx(4.0, abs=0.3)

    def test_sign_flip(self):
        spec = WalkSpec(10, 0.6)
        _, plus = sensitivity_bias(4, spec, 0.01)
        _, minus = sensitivity_bias(4, spec, -0.01)
        assert plus == -minus

    def test_rejects_escape_from_unit_interval(self):
        with pytest.raises(ValueError):
            sensitivity_bias(4, WalkSpec(10, 0.6), 0.5)


class TestSensitivityFraction:
    def test_zero_at_zero(self):
        assert sensitivity_fraction(0.6, 0.0) == (0.0, 0.0)

    def test_symmetric_closed_form(self):
        # at p = 1/2 the exact loss is log(1 - eps^2)/2, which pins the
        # quadratic coefficient at -1/(8 p (1-p)) = -1/2
        exact, quadratic = sensitivity_fraction(0.5, 0.1)
        assert exact == pytest.approx(0.5 * math.log(1.0 - 0.01), abs=1e-15)
        assert quadratic == pytest.approx(-0.005, abs=1e-15)
        assert abs(exact - quadratic) < 3e-5

    def test_quadratic_coefficient_off_center(self):
        exact, quadratic = sensitivity_fraction(0.6, 0.05)
        assert quadratic == pytest.approx(-0.05 ** 2 / (8.0 * 0.24), abs=1e-12)
        assert exact <= 0.0
        assert abs(exact - quadratic) < 1e-4

    def test_cubic_error_decay(self):
        for p in (0.55, 0.6, 0.7):
            err = abs(np.subtract(*sensitivity_fraction(p, 0.02)))
            err_half = abs(np.subtract(*sensitivity_fraction(p, 0.01)))
            assert err / err_half > 3.5

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            sensitivity_fraction(0.9, 0.3)


class TestKellyFractionEvenOdds:
    def test_values(self):
        assert kelly_fraction_even_odds(0.5) == 0.0
        assert kelly_fraction_even_odds(0.75) == 0.5
        assert kelly_fraction_even_odds(0.25) == -0.5

    def test_matches_grid_argmax(self):
        for p in (0.55, 0.6, 0.8):
            assert kelly_fraction_even_odds(p) == pytest.approx(
                even_odds_argmax(p), abs=1e-5
            )


class TestLogCdfLargeHorizon:
    def test_no_underflow_at_ten_thousand_steps(self):
        spec = WalkSpec(10000, 0.6)
        log_f = log_binomial_cdf(spec, 4000)
        assert log_f < -700.0  # plain float CDF would underflow to 0
        assert math.isfinite(log_f)
        assert rate_per_step(spec, 4000) == pytest.approx(-log_f / 10000.0)
