import functools
import itertools
import math
import re
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kellymarket import growth
from kellymarket.growth import (
    LOOP_MAX_STEPS,
    WINDOW_MAX_TERMS,
    OutOfValidityRegion,
    WalkSpec,
    _stirlerr,
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

from oracles import (
    DIVERGENCE_DPS,
    big_integer_log_binomial_cdf,
    even_odds_argmax,
    exact_binomial_cdf,
    mpmath_bias_sensitivity,
    mpmath_fraction_sensitivity,
    mpmath_kl_divergence,
    mpmath_log_binomial_cdf,
    mpmath_log_binomial_pmf,
)


class TestWalkSpec:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            WalkSpec(0, 0.5)
        with pytest.raises(ValueError):
            WalkSpec(2.5, 0.5)

    def test_steps_within_the_float_range(self):
        largest = int(sys.float_info.max)
        assert WalkSpec(largest, 0.5).steps == largest
        with pytest.raises(ValueError, match="^steps is beyond the float range$"):
            WalkSpec(10 ** 400, 0.5)

    def test_rejects_boundary_bias(self):
        with pytest.raises(ValueError):
            WalkSpec(10, 0.0)
        with pytest.raises(ValueError):
            WalkSpec(10, 1.0)


# int() of inf, NaN or a string raises an error that names no parameter,
# and a string, None or a list would reach a raw comparison
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5,
                                   "ten", None, [3], "10"])
@pytest.mark.parametrize("call, message", [
    (lambda v: WalkSpec(v, 0.5), "steps must be a positive integer"),
    (lambda v: binomial_pmf(WalkSpec(10, 0.5), v),
     r"k must be an integer in \[0, 10\]"),
    (lambda v: sensitivity_bias(v, WalkSpec(10, 0.6), 0.01),
     r"k must be an integer in \[0, 10\]"),
    (lambda v: chernoff_upper(WalkSpec(10, 0.6), v), "k must be an integer"),
    (lambda v: chernoff_lower(WalkSpec(10, 0.6), v), "k must be an integer"),
], ids=["steps", "binomial_pmf", "sensitivity_bias", "chernoff_upper",
        "chernoff_lower"])
def test_integer_parameter_refused_by_name(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}, got {re.escape(repr(value))}$"):
        call(value)


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
        for k in (11, -1):
            with pytest.raises(
                    ValueError, match=rf"^k must be an integer in \[0, 10\], got {k}$"):
                binomial_pmf(WalkSpec(10, 0.5), k)


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

    @pytest.mark.parametrize("n", [10, 1000])
    def test_infinite_k_follows_the_floor(self, n):
        spec = WalkSpec(n, 0.6)
        assert log_binomial_cdf(spec, -math.inf) == -math.inf
        assert log_binomial_cdf(spec, math.inf) == 0.0
        assert binomial_cdf(spec, -math.inf) == 0.0
        assert binomial_cdf(spec, math.inf) == 1.0
        assert rate_per_step(spec, math.inf) == 0.0
        assert log_binomial_cdf(spec, 10 ** 400) == 0.0  # beyond any float
        assert log_binomial_cdf(spec, -10 ** 400) == -math.inf

    @pytest.mark.parametrize("n", [10, 1000])
    def test_nan_k_is_refused_naming_k(self, n):
        spec = WalkSpec(n, 0.6)
        for func in (log_binomial_cdf, binomial_cdf, rate_per_step):
            with pytest.raises(ValueError, match=r"\bk\b"):
                func(spec, math.nan)

    # at N = 1e308 and p = 0.99999 every term underflows, the largest too;
    # the others overflow or underflow a pmf ratio on the way out
    @pytest.mark.parametrize("n, p, k", [
        (10 ** 308, 0.99999, 0), (10 ** 308, 0.99999, 5),
        (9 * 10 ** 307, 0.75, 1), (9 * 10 ** 307, 0.75, 99),
        (55, 5e-324, 54), (10 ** 6, 5e-324, 999_999),
    ], ids=["1e308-k0", "1e308-k5", "9e307-k1", "9e307-k99", "N55-subnormal",
            "N1e6-subnormal"])
    def test_tails_beyond_the_float_range_warn_nothing(self, n, p, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_f = log_binomial_cdf(WalkSpec(n, p), k)
        assert log_f == pytest.approx(mpmath_log_binomial_cdf(n, p, k),
                                      rel=1e-12, abs=1e-300)

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

    @pytest.mark.parametrize("a", [0.3, 1.0, 1e-3])
    @pytest.mark.parametrize("p", [2.2250738585e-313, 1e-320, 5e-324])
    def test_subnormal_reference(self, a, p):
        # a / p overflows; a log(a) - a log(p) does not
        with mpmath.workdps(50):
            x, y = mpmath.mpf(a), mpmath.mpf(p)
            want = x * mpmath.log(x / y)
            if a < 1.0:
                want += (1 - x) * mpmath.log((1 - x) / (1 - y))
        assert kl_divergence(a, p) == pytest.approx(float(want), rel=1e-14)


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

    def test_subnormal_bias(self):
        # the slope (p - k/N) / (p (1-p)) overflows at this p
        spec = WalkSpec(10, 2.2250738585e-313)
        assert sensitivity_bias(3, spec, 0.0) == (0.0, 0.0)
        exact, first_order = sensitivity_bias(3, spec, 1e-320)
        with mpmath.workdps(50):
            p, a = mpmath.mpf(spec.bias), mpmath.mpf(0.3)
            eps = mpmath.mpf(spec.bias + 1e-320) - p
            assert first_order == pytest.approx(
                float((p - a) / (p * (1 - p)) * eps), rel=1e-14)
        # exact is a difference of two divergences near 213
        assert exact == pytest.approx(first_order, rel=1e-3)


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


# The divergence grid: prices from the smallest subnormal to 1 - 2^-52,
# and edges from 1e-1 to 1e-300 taken both ways from the price.
GRID_PRICES = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100,
               1e-20, 1e-8, 1e-3, 0.1, 0.25, 0.3, 0.5, 0.6, 0.7, 0.9, 0.999,
               1.0 - 1e-8, 1.0 - 2.0 ** -52]
GRID_EDGES = [sign * edge for edge in (1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-30,
                                       1e-100, 1e-200, 1e-300)
              for sign in (1.0, -1.0)]
GRID_OUTCOMES = [(0, 10), (3, 10), (1, 2), (7, 10), (10, 10)]  # (k, N)
# Units in the last place allowed on every cell, normal or not; the worst
# cells read 1.46 (divergence), 2.66 (bias) and 1.16 (fraction).
ULP_BUDGET = 3.0


def ulps(got, want, unit=None):
    """|got - want| in units in the last place of ``unit``, by default of
    the reference rounded to a double (5e-324 where it underflows)."""
    with mpmath.workdps(DIVERGENCE_DPS):
        return float(abs(mpmath.mpf(got) - want)
                     / math.ulp(float(want if unit is None else unit)))


class TestDivergencesAgainstOracle:
    def test_kl_divergence(self):
        misses = []
        for p in GRID_PRICES:
            for a in (p + edge for edge in GRID_EDGES):
                if 0.0 <= a <= 1.0:
                    got = kl_divergence(a, p)
                    if ulps(got, mpmath_kl_divergence(a, p)) > ULP_BUDGET:
                        misses.append((a, p, got))
        assert misses == []

    def test_sensitivity_fraction(self):
        misses, cells = [], 0
        for p in GRID_PRICES:
            for eps in GRID_EDGES:
                # -1 < 2p - 1 + eps < 1, decided exactly: 2p - 1 rounds to
                # -1 at p = 1e-20 although 2p - 1 + 1e-30 lies inside
                if not 0 < 2 * Fraction(p) + Fraction(eps) < 2:
                    with pytest.raises(ValueError, match="2p-1"):
                        sensitivity_fraction(p, eps)
                    continue
                cells += 1
                exact, _ = sensitivity_fraction(p, eps)
                if ulps(exact, mpmath_fraction_sensitivity(p, eps)) > ULP_BUDGET:
                    misses.append((p, eps, exact))
        assert misses == []
        assert cells > 250

    # Next to the end of the range the shrinking argument (1 - f - eps, or
    # 1 - p - eps) is tiny, and the rounding of 2 - 2p (or 1 - p) in it is
    # not: at p = 0.25 + 3 * 2^-54, 2 - 2p rounds to 1.5, and with eps =
    # 1.5 - 2^-51 the loss is finite although 2 - 2p - eps in floats is 0.
    @pytest.mark.parametrize("p, eps", [
        (0.25 + 3 * 2.0 ** -54, 1.5 - 2.0 ** -51),
        (0.25 + 3 * 2.0 ** -54, 1.5 - 3 * 2.0 ** -52),
        (0.1, math.nextafter(1.8, 0.0)),
        (0.3, -math.nextafter(0.6, 0.0)),
    ])
    def test_sensitivity_fraction_next_to_a_full_stake(self, p, eps):
        exact, _ = sensitivity_fraction(p, eps)
        assert ulps(exact, mpmath_fraction_sensitivity(p, eps)) <= ULP_BUDGET

    @pytest.mark.parametrize("k", [0, 3, 10])
    @pytest.mark.parametrize("p, eps", [
        (0.6, math.nextafter(0.4, 0.0)),  # p + eps rounds to 1
        (0.6, 0.4 - 2.0 ** -53),
        (0.1, math.nextafter(0.9, 0.0)),
        (0.75, math.nextafter(0.25, 0.0)),  # p + eps rounds to 1
        (0.3, -math.nextafter(0.3, 0.0)),
    ])
    def test_sensitivity_bias_next_to_the_ends(self, k, p, eps):
        exact, _ = sensitivity_bias(k, WalkSpec(10, p), eps)
        want = mpmath_bias_sensitivity(k / 10, p, eps)
        assert ulps(exact, want) <= ULP_BUDGET

    @staticmethod
    def bias_cells(crossing):
        """Grid cells (k, N, p, eps) inside the range whose k/N does or does
        not lie strictly between p and p + eps; every cell outside the range
        must be refused."""
        cells = []
        for (k, n), p, eps in itertools.product(GRID_OUTCOMES, GRID_PRICES,
                                                GRID_EDGES):
            if not 0 < Fraction(p) + Fraction(eps) < 1:
                with pytest.raises(ValueError, match="p \\+ eps"):
                    sensitivity_bias(k, WalkSpec(n, p), eps)
            elif (min(p, p + eps) < k / n < max(p, p + eps)) == crossing:
                cells.append((k, n, p, eps))
        return cells

    def test_sensitivity_bias(self):
        misses, cells = [], self.bias_cells(crossing=False)
        for k, n, p, eps in cells:
            exact, _ = sensitivity_bias(k, WalkSpec(n, p), eps)
            if ulps(exact, mpmath_bias_sensitivity(k / n, p, eps)) > ULP_BUDGET:
                misses.append((k, n, p, eps, exact))
        assert misses == []
        assert len(cells) > 1000

    def test_sensitivity_bias_where_the_loss_changes_sign(self):
        # Where k/N lies strictly between p and p + eps, exact passes
        # through zero as k/N moves: it is first_order less remainders of
        # about its size, so no double resolves it to units in its own
        # last place (k/N = 0.3, p = 0.25, eps = 0.1 is about 12 of them
        # off).  These cells are held to the same budget in units in the
        # last place of first_order, the size of the terms that cancel.
        misses, cells = [], self.bias_cells(crossing=True)
        for k, n, p, eps in cells:
            exact, first_order = sensitivity_bias(k, WalkSpec(n, p), eps)
            want = mpmath_bias_sensitivity(k / n, p, eps)
            if ulps(exact, want, first_order) > ULP_BUDGET:
                misses.append((k, n, p, eps, exact))
        assert misses == []
        assert cells


PRICES = st.floats(5e-324, 1.0 - 2.0 ** -52)
EDGES = st.builds(lambda e, sign: sign * e, st.floats(1e-300, 1.0),
                  st.sampled_from([1.0, -1.0]))


class TestLossSigns:
    @given(p=PRICES, eps=EDGES)
    @settings(max_examples=300, deadline=None)
    def test_fraction_loss_is_never_positive(self, p, eps):
        assume(0 < 2 * Fraction(p) + Fraction(eps) < 2)  # -1 < 2p - 1 + eps < 1
        assert sensitivity_fraction(p, eps)[0] <= 0.0

    @given(n=st.integers(1, 1000), data=st.data(), p=PRICES, eps=EDGES)
    @settings(max_examples=300, deadline=None)
    def test_bias_remainder_is_never_negative(self, n, data, p, eps):
        # within |eps| <= min(p, 1 - p), where exact is first_order plus
        # the remainder
        eps = math.copysign(min(abs(eps), p, 1.0 - p), eps)
        assume(0.0 < p + eps < 1.0)
        k = data.draw(st.integers(0, n))
        exact, first_order = sensitivity_bias(k, WalkSpec(n, p), eps)
        assert exact - first_order >= 0.0


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


# The exact-tail grid: N log-uniform from just above the term-loop crossover
# to 10^5 (seeded), plus 3 x 10^4 and 10^5 themselves; p from 1e-9 to
# 1 - 1e-9; k at both ends of the support and at fixed distances, in
# standard deviations, below and above the mean.
_GRID_RNG = np.random.default_rng(4)
GRID_N = sorted({LOOP_MAX_STEPS + 1, 30_000, 100_000, *(
    int(x) for x in np.exp(_GRID_RNG.uniform(
        math.log(LOOP_MAX_STEPS + 2), math.log(1e5), 5)))})
GRID_P = (1e-9, 0.05, 0.3, 0.5, 0.6, 0.95, 1.0 - 1e-9)

# One bound for every cell: 1e-11 absolute on log P, i.e. 1e-11 relative
# on P (the benchmark's target for growth.max_rel_err), plus 4 units in the
# last place of the reference, which only counts where |log P| > ~10^4 and
# the spacing of doubles alone is wider than 1e-11.
LOG_CDF_TOL = 1e-11


def grid_k(n, p):
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    ks = [0, n - 1]
    ks += [math.floor(mean - z * sd) for z in (0.5, 2.5, 10.0, 40.0)]
    ks += [math.floor(mean + z * sd) for z in (1.0, 3.0)]
    return sorted({min(max(k, 0), n - 1) for k in ks})


@functools.lru_cache(maxsize=None)
def mpmath_reference(n, p, k):
    return mpmath_log_binomial_cdf(n, p, k)


def grid_misses(log_cdf, n):
    """Grid cells at horizon n where ``log_cdf(n, p, k)`` misses the
    50-digit reference by more than the bound."""
    misses = []
    for p in GRID_P:
        for k in grid_k(n, p):
            got, ref = log_cdf(n, p, k), mpmath_reference(n, p, k)
            if not abs(got - ref) <= LOG_CDF_TOL + 4.0 * math.ulp(ref):
                misses.append((p, k, got, ref))
    return misses


class TestLogCdfAgainstOracles:
    def test_bit_identical_to_the_big_integer_loop_up_to_the_crossover(self):
        assert LOOP_MAX_STEPS >= 10  # the pinned CLI golden runs at N = 10
        for n in range(1, LOOP_MAX_STEPS + 1):
            for p in (1e-9, 0.05, 0.5, 0.6, 1.0 - 1e-9):
                spec = WalkSpec(n, p)
                for k in range(n):
                    assert log_binomial_cdf(spec, k) == \
                        big_integer_log_binomial_cdf(n, p, k), (n, p, k)

    # 10^6 costs the oracle about 3 s and 10^7 about 8 s; an anchor whose
    # rounding grows with N, such as a sum of min(m, N - m) logs, breaks
    # the bound there first
    @pytest.mark.parametrize("n", [*GRID_N, 10 ** 6, 10 ** 7])
    def test_matches_mpmath(self, n):
        assert grid_misses(
            lambda n, p, k: log_binomial_cdf(WalkSpec(n, p), k), n) == []

    # N p = 10^7 (or N (1 - p)), 10 and 40 standard deviations below the
    # mean: windows of at most about 10^4 terms.  From N = 2^27 up, n times
    # a 26-bit half of p can need more than 53 bits; with only p split, the
    # anchor missed by up to 7e-4 at 10^15 with p near 1
    @pytest.mark.parametrize("n", [2 ** 26 + 3, 10 ** 9, 10 ** 12, 10 ** 15])
    def test_deep_tails_of_long_horizons_match_mpmath(self, n):
        misses = []
        for p in (1e7 / n, 1.0 - 1e7 / n):
            sd = math.sqrt(n * p * (1.0 - p))
            for z in (10.0, 40.0):
                k = math.floor(n * p - z * sd)
                got, ref = log_binomial_cdf(WalkSpec(n, p), k), mpmath_reference(n, p, k)
                if not abs(got - ref) <= LOG_CDF_TOL + 4.0 * math.ulp(ref):
                    misses.append((p, k, got, ref))
        assert misses == []

    def test_the_walk_bound_never_cuts_a_walk_short(self, monkeypatch):
        # the cap is decided on _walk_bound before the walk: lifted to the
        # most steps each walk can take, the walks stop at the same terms
        cells = [(n, p, k) for n in (55, 1000, 30_000, 10 ** 6)
                 for p in (1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9) for k in grid_k(n, p)]
        bounded = [log_binomial_cdf(WalkSpec(*cell[:2]), cell[2]) for cell in cells]
        monkeypatch.setattr(growth, "_walk_bound", lambda n, m, x: m)
        monkeypatch.setattr(growth, "WINDOW_MAX_TERMS", 10 ** 7)
        assert [log_binomial_cdf(WalkSpec(*cell[:2]), cell[2]) for cell in cells] == bounded

    def test_a_window_past_the_cap_is_refused_naming_n(self):
        # about 1.4 x 10^8 terms at N = 10^15 near the mode; refused before
        # the walk, so at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^N = 1000000000000000 steps: .* "
                                             rf"over the cap of {WINDOW_MAX_TERMS}$"):
            log_binomial_cdf(WalkSpec(10 ** 15, 0.5), 5 * 10 ** 14 - 1)
        assert time.perf_counter() - start < 0.1

    def test_a_billion_steps_near_the_mode(self):
        # about 80 ms on a 2-core x86 box, a window of about 1.4 x 10^5
        # terms; an array of all k + 1 log pmf terms needs 3.7 GiB here
        spec = WalkSpec(10 ** 9, 0.5)
        start = time.perf_counter()
        log_f = log_binomial_cdf(spec, 499_999_999)
        elapsed = time.perf_counter() - start
        assert math.isfinite(log_f)
        assert chernoff_lower(spec, 499_999_999) <= math.exp(log_f) \
            <= chernoff_upper(spec, 499_999_999)
        assert elapsed < 2.0

    @pytest.mark.parametrize("n", [n for n in GRID_N if n <= 30_000])
    def test_big_integer_loop_meets_the_same_bound(self, n):
        # the bound is not fitted to the window: the exact-coefficient
        # loop it replaces meets it too, where it is affordable
        assert grid_misses(big_integer_log_binomial_cdf, n) == []

    def test_hundred_thousand_steps_within_budget(self):
        # a few ms on a 2-core x86 box; the big-integer loop took 1.7 s
        spec = WalkSpec(100_000, 0.6)
        for k in (59_000, 99_999):
            start = time.perf_counter()
            log_f = log_binomial_cdf(spec, k)
            elapsed = time.perf_counter() - start
            assert math.isfinite(log_f)
            assert elapsed < 0.15


class TestPmfAgainstOracles:
    def test_bit_identical_to_the_big_integer_expression_up_to_the_crossover(self):
        for n in range(1, LOOP_MAX_STEPS + 1):
            for p in (1e-9, 0.05, 0.5, 0.6, 1.0 - 1e-9):
                for k in range(n + 1):
                    assert binomial_pmf(WalkSpec(n, p), k) == math.exp(
                        math.log(math.comb(n, k)) + k * math.log(p)
                        + (n - k) * math.log1p(-p)), (n, p, k)

    @pytest.mark.parametrize("n", [*GRID_N, 10 ** 6, 10 ** 7])
    def test_matches_mpmath(self, n):
        misses = []
        for p in GRID_P:
            mode = math.floor((n + 1) * p)
            for k in {*grid_k(n, p), min(mode, n), n}:
                ref = mpmath_log_binomial_pmf(n, p, k)
                got = binomial_pmf(WalkSpec(n, p), k)
                if ref < -746.0:  # below the smallest subnormal
                    ok = got == 0.0
                elif ref < -700.0:  # subnormal or near it: relative error grows
                    ok = got == pytest.approx(math.exp(ref), rel=1e-6)
                else:
                    ok = abs(math.log(got) - ref) <= \
                        LOG_CDF_TOL + 4.0 * math.ulp(ref)
                if not ok:
                    misses.append((p, k, got, ref))
        assert misses == []

    def test_hundred_thousand_steps_within_budget(self):
        # about 5 us on a 2-core x86 box; log(comb(n, k)) on the big
        # integer took 150-210 ms
        spec = WalkSpec(100_000, 0.6)
        for k in (59_000, 60_000):
            start = time.perf_counter()
            value = binomial_pmf(spec, k)
            elapsed = time.perf_counter() - start
            assert value > 0.0
            assert elapsed < 0.05

    def test_ten_million_steps_in_constant_time(self):
        # about 5 us on a 2-core x86 box, as at 10^5; a sum of
        # min(k, N - k) logs took 200 ms here
        spec = WalkSpec(10 ** 7, 0.5)
        for k in (4_999_000, 5_000_000):
            start = time.perf_counter()
            value = binomial_pmf(spec, k)
            elapsed = time.perf_counter() - start
            assert value > 0.0
            assert elapsed < 0.01


@pytest.mark.parametrize("n", [*range(1, 16), 16, 17, 35, 80, 500, 10 ** 4, 10 ** 7])
def test_stirling_error_matches_mpmath(n):
    # log(n!) - (n + 1/2) log n + n - log(2 pi) / 2: computed directly
    # below 16 (cancelling about 13 bits) and by the series from 16 up
    with mpmath.workdps(50):
        x = mpmath.mpf(n)
        want = mpmath.loggamma(x + 1) - (x + 0.5) * mpmath.log(x) + x \
            - mpmath.log(2 * mpmath.pi) / 2
    assert abs(_stirlerr(n) - float(want)) <= (1e-14 if n < 16 else 3e-14 * float(want))
