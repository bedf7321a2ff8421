import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket.kelly import (
    even_odds_growth_rate,
    log_utility,
    log_utility_alpha,
    odds_to_probability,
    optimal_fraction,
    optimal_fraction_alpha,
    probability_to_odds,
)

from oracles import (
    central_difference,
    even_odds_argmax,
    signed_utility,
    utility_alpha_argmax,
    utility_argmax,
)


class TestOdds:
    def test_half_is_even_odds(self):
        assert probability_to_odds(0.5) == 1.0

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            probability_to_odds(0.0)
        with pytest.raises(ValueError):
            probability_to_odds(1.0)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert odds_to_probability(probability_to_odds(p)) == pytest.approx(
            p, abs=1e-12
        )


class TestLogUtility:
    def test_no_bet_no_utility(self):
        assert log_utility(0.5, 0.5, 0.0) == 0.0

    def test_direct_evaluation(self):
        # mpmath 50-digit evaluation of
        # 0.7*log(1 + 0.25*(2/3)) + 0.3*log(0.75)
        expected = 0.021600854143546396
        assert log_utility(0.7, 0.6, 0.25) == pytest.approx(expected, abs=1e-15)

    def test_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        q, p, f = mp.mpf("0.7"), mp.mpf("0.6"), mp.mpf("0.25")
        expected = (1 - q) * mp.log(1 - f) + q * mp.log(1 + f * (1 - p) / p)
        assert log_utility(0.7, 0.6, 0.25) == pytest.approx(
            float(expected), abs=1e-15
        )

    @pytest.mark.parametrize("f", [-0.9, -0.3, 0.0, 0.3, 0.9])
    def test_even_odds_symmetric_form(self, f):
        assert log_utility(0.5, 0.5, f) == pytest.approx(
            0.5 * math.log(1.0 - f * f), abs=1e-14
        )

    def test_branches_agree_at_zero(self):
        assert log_utility(0.7, 0.6, 0.0) == log_utility(0.7, 0.6, -0.0) == 0.0

    def test_rejects_boundary_price(self):
        with pytest.raises(ValueError):
            log_utility(0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            log_utility(0.5, 1.0, 0.1)

    def test_rejects_ruinous_fraction(self):
        with pytest.raises(ValueError):
            log_utility(0.7, 0.6, 1.0)

    def test_full_stake_allowed_for_certain_bettor(self):
        assert log_utility(1.0, 0.6, 1.0) == pytest.approx(-math.log(0.6))


class TestOptimalFraction:
    def test_no_edge_no_bet(self):
        for p in (0.2, 0.5, 0.8):
            assert optimal_fraction(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_certain_bettor_stakes_everything(self):
        assert optimal_fraction(1.0, 0.6) == 1.0
        assert optimal_fraction(0.0, 0.6) == -1.0

    def test_known_values(self):
        assert optimal_fraction(0.7, 0.6) == pytest.approx(0.25, abs=1e-12)
        assert optimal_fraction(0.2, 0.5) == pytest.approx(-0.6, abs=1e-12)

    @pytest.mark.parametrize(
        "q,p", [(0.7, 0.6), (0.2, 0.5), (0.9, 0.3), (0.05, 0.6), (0.55, 0.5)]
    )
    def test_matches_grid_search(self, q, p):
        assert optimal_fraction(q, p) == pytest.approx(
            utility_argmax(q, p), abs=1e-5
        )

    def test_odds_form_identity(self):
        qs = np.arange(0.01, 1.0, 0.01)
        ps = np.arange(0.01, 1.0, 0.01)
        for q in qs:
            for p in ps:
                if q < p:
                    continue
                big_q = q / (1.0 - q)
                big_p = p / (1.0 - p)
                assert abs(optimal_fraction(q, p) - (big_q - big_p) / (1.0 + big_q)) < 1e-12

    def test_antisymmetry(self):
        for q in np.arange(0.05, 1.0, 0.05):
            for p in np.arange(0.05, 1.0, 0.05):
                assert optimal_fraction(q, p) == pytest.approx(
                    -optimal_fraction(1.0 - q, 1.0 - p), abs=1e-12
                )

    def test_monotone_in_belief(self):
        for p in (0.2, 0.5, 0.8):
            fracs = [optimal_fraction(q, p) for q in np.arange(0.01, 1.0, 0.01)]
            assert all(b > a for a, b in zip(fracs, fracs[1:]))

    def test_beats_every_other_fraction(self):
        grid = np.arange(0.0, 1.0, 1e-3)
        for q, p in [(0.7, 0.6), (0.9, 0.4), (0.55, 0.5)]:
            best = log_utility(q, p, optimal_fraction(q, p))
            assert (signed_utility(q, p, grid) <= best + 1e-12).all()

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=300)
    def test_always_a_valid_fraction(self, q, p):
        f = optimal_fraction(q, p)
        assert -1.0 <= f <= 1.0


def mpmath_fraction(q, p):
    """The signed Kelly fraction in 50-digit arithmetic, inputs taken at
    their exact binary values, from the maximizer of the utility: the long
    fraction q - p (1-q)/(1-p), or minus the complement's."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, p = mp.mpf(q), mp.mpf(p)
        if q >= p:
            return q - p * (1 - q) / (1 - p)
        return -((1 - q) - (1 - p) * q / p)


class TestFractionNearTheDiagonal:
    PRICES = (1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9)
    GAPS = (1e-12, 3e-11, 1e-9, 1e-7, 1e-5, 1e-3, 0.1)

    def test_within_two_ulp_of_mpmath(self):
        for p in self.PRICES:
            for gap in self.GAPS:
                for q in (p + gap, p - gap, p, 0.0, 1.0):
                    if not 0.0 <= q <= 1.0:
                        continue
                    want = mpmath_fraction(q, p)
                    assert abs(optimal_fraction(q, p) - float(want)) <= \
                        2 * math.ulp(float(want)), (q, p)


def mpmath_utility(q, p, f):
    """log_utility in 50-digit arithmetic, inputs at their binary values."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, p, f = mp.mpf(q), mp.mpf(p), mp.mpf(f)
        if f < 0:
            q, p, f = 1 - q, 1 - p, -f
        loss = 0 if q == 1 else (1 - q) * mp.log(1 - f)
        return float(loss + q * mp.log(1 + f * (1 - p) / p))


class TestLogUtilityEdges:
    def test_representable_payouts_keep_their_bits(self):
        for q in (0.0, 0.3, 0.5, 0.9, 1.0):
            for p in (1e-9, 0.01, 0.3, 0.5, 0.8, 0.99):
                for f in (-1.0, -0.6, -1e-3, 0.0, 1e-3, 0.25, 0.9, 1.0):
                    qq, pp, ff = (1.0 - q, 1.0 - p, -f) if f < 0 else (q, p, f)
                    if ff == 1.0 and qq < 1.0:
                        continue
                    loss = 0.0 if qq == 1.0 else (1.0 - qq) * math.log1p(-ff)
                    assert log_utility(q, p, f) == \
                        loss + qq * math.log1p(ff * (1.0 - pp) / pp)

    @pytest.mark.parametrize("q,f", [(1.0, 1.0), (0.3, 0.5), (0.9, 1e-3)])
    @pytest.mark.parametrize("p", [1e-320, 5e-324, 2.2250738585e-313])
    def test_subnormal_price(self, q, p, f):
        # f (1-p)/p overflows; the utility, about q log(f/p), does not
        assert log_utility(q, p, f) == pytest.approx(mpmath_utility(q, p, f),
                                                     rel=1e-14)


class TestOptimalFractionAlpha:
    def test_alpha_one_matches_standard(self):
        for q in np.arange(0.05, 1.0, 0.05):
            for p in np.arange(0.05, 1.0, 0.05):
                expected = max(optimal_fraction(q, p), 0.0)
                assert optimal_fraction_alpha(q, p, 1.0) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_even_odds_any_alpha_no_bet(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert optimal_fraction_alpha(0.5, 0.5, alpha) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_power_payout_value(self):
        # closed form q - (1-q) (p/(1-p))^alpha = 0.9 - 0.1*2 = 0.7,
        # confirmed by the grid-search oracle below
        assert optimal_fraction_alpha(0.9, 0.8, 0.5) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize(
        "q,p,alpha", [(0.9, 0.8, 0.5), (0.8, 0.6, 2.0), (0.7, 0.5, 0.25)]
    )
    def test_matches_grid_search(self, q, p, alpha):
        assert optimal_fraction_alpha(q, p, alpha) == pytest.approx(
            utility_alpha_argmax(q, p, alpha), abs=1e-5
        )

    def test_clamped_at_zero_when_no_edge(self):
        assert optimal_fraction_alpha(0.5, 0.9, 0.2) == 0.0

    @pytest.mark.parametrize(
        "q,p,alpha", [(0.9, 0.8, 0.5), (0.8, 0.6, 2.0), (0.85, 0.7, 1.3)]
    )
    def test_first_order_condition(self, q, p, alpha):
        f = optimal_fraction_alpha(q, p, alpha)
        if f <= 0.0:
            pytest.skip("clamped solution has no interior stationary point")
        deriv = central_difference(
            lambda x: log_utility_alpha(q, p, x, alpha), f, 1e-6
        )
        assert abs(deriv) < 1e-8


def mpmath_alpha(q, p, alpha, f=None):
    """The power-payout fraction (clamped to [0, 1]) and its utility in
    50-digit arithmetic, inputs taken at their exact binary values."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, p, alpha = mp.mpf(q), mp.mpf(p), mp.mpf(alpha)
        if f is None:
            f = min(max(q - (1 - q) * (p / (1 - p)) ** alpha, 0), 1)
        f = mp.mpf(f)
        loss = 0 if q == 1 else (1 - q) * mp.log(1 - f)
        return float(f), float(loss + q * mp.log(1 + f * ((1 - p) / p) ** alpha))


class TestPowerPayoutOverflow:
    """((1-p)/p)^alpha beyond the float range: p < 1/2 makes the payout
    huge, p > 1/2 makes the fraction's odds power huge."""

    @pytest.mark.parametrize("q,p,alpha", [
        (0.9, 0.01, 200.0), (1.0, 0.01, 200.0), (0.5, 1e-3, 150.0),
        (0.9, 0.99, 400.0), (1.0, 0.99, 400.0), (0.3, 0.999, 1e4),
    ])
    def test_matches_mpmath(self, q, p, alpha):
        f, utility = mpmath_alpha(q, p, alpha)
        assert optimal_fraction_alpha(q, p, alpha) == f
        assert log_utility_alpha(q, p, f, alpha) == pytest.approx(
            utility, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("f", [1e-3, 0.5, 1.0])
    def test_subnormal_price(self, f):
        # (1-p)/p itself overflows; the log of the payout does not
        q, p, alpha = 1.0, 1e-320, 0.01
        assert log_utility_alpha(q, p, f, alpha) == pytest.approx(
            mpmath_alpha(q, p, alpha, f)[1], rel=1e-14)

    def test_alpha_beyond_even_the_log_exits_naming_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            log_utility_alpha(0.9, 0.01, 0.9, 1e308)

    def test_representable_payouts_keep_their_bits(self):
        for q in (0.0, 0.3, 0.9, 1.0):
            for p in (0.01, 0.3, 0.5, 0.8, 0.99):
                for alpha in (0.0, 0.25, 1.0, 3.0, 100.0):
                    f = optimal_fraction_alpha(q, p, alpha)
                    assert f == max(q - (1.0 - q) * (p / (1.0 - p)) ** alpha,
                                    0.0)
                    if f == 1.0 and q < 1.0:
                        continue
                    loss = 0.0 if q == 1.0 else (1.0 - q) * math.log1p(-f)
                    assert log_utility_alpha(q, p, f, alpha) == \
                        loss + q * math.log1p(f * ((1.0 - p) / p) ** alpha)


class TestEvenOddsGrowthRate:
    def test_no_bet(self):
        assert even_odds_growth_rate(0.5, 0.0) == 0.0

    def test_known_value(self):
        assert even_odds_growth_rate(0.6, 0.2) == pytest.approx(
            0.6 * math.log(1.2) + 0.4 * math.log(0.8), abs=1e-15
        )
        assert even_odds_growth_rate(0.6, 0.2) == pytest.approx(0.020136, abs=1e-6)

    def test_maximized_at_kelly_fraction(self):
        for p in (0.55, 0.6, 0.75, 0.9):
            assert even_odds_argmax(p) == pytest.approx(2.0 * p - 1.0, abs=1e-5)

    def test_rejects_unit_fraction(self):
        with pytest.raises(ValueError):
            even_odds_growth_rate(0.6, 1.0)
        with pytest.raises(ValueError):
            even_odds_growth_rate(0.6, -1.0)
