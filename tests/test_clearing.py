import copy
import math
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellymarket import clearing
from kellymarket.clearing import (
    Investor,
    MarketPopulation,
    NoInteriorClearing,
    aggregate_exposure,
    clearing_price,
    confident_no_capital,
    confident_yes_capital,
    mean_belief,
    mean_belief_confident_no,
    mean_belief_confident_yes,
    signed_exposure,
)
from kellymarket.clearing import _quadratic_root

from oracles import (
    bisection_clearing_price,
    kelly_exposure,
    multi_pass_clearing_price,
)


def pop(*pairs):
    return MarketPopulation(tuple(Investor(c, q) for c, q in pairs))


def random_population(rng):
    size = int(rng.integers(1, 51))
    capitals = rng.uniform(0.01, 100.0, size)
    beliefs = rng.uniform(0.01, 0.99, size)
    return pop(*zip(capitals, beliefs))


class TestInvestor:
    def test_rejects_nonpositive_capital(self):
        with pytest.raises(ValueError):
            Investor(0.0, 0.5)
        with pytest.raises(ValueError):
            Investor(-1.0, 0.5)

    def test_rejects_bad_belief(self):
        with pytest.raises(ValueError):
            Investor(1.0, 1.5)

    def test_extreme_beliefs_admitted(self):
        assert Investor(1.0, 0.0).belief == 0.0
        assert Investor(1.0, 1.0).belief == 1.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            MarketPopulation(())

    def test_investor_has_no_instance_dict(self):
        assert not hasattr(Investor(1.0, 0.5), "__dict__")

    def test_population_arrays_are_read_only(self):
        population = pop((2.0, 0.25), (3.0, 1.0))
        assert population.capitals.tolist() == [2.0, 3.0]
        assert population.beliefs.tolist() == [0.25, 1.0]
        for array in (population.capitals, population.beliefs):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_arrays_do_not_enter_equality_or_hash(self):
        a, b = pop((2.0, 0.25), (3.0, 1.0)), pop((2.0, 0.25), (3.0, 1.0))
        assert a == b and hash(a) == hash(b)


class TestPopulation:
    def test_scaled_is_one_multiply(self):
        # rebuilding and re-checking one record per investor took ~200 ms
        rng = np.random.default_rng(3)
        market = pop(*zip((rng.pareto(1.5, 100_000) + 1.0).tolist(),
                          rng.uniform(0.0, 1.0, 100_000).tolist()))
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            scaled = market.scaled(2.5)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.05
        assert np.array_equal(scaled.capitals, market.capitals * 2.5)
        assert np.array_equal(scaled.beliefs, market.beliefs)

    @pytest.mark.parametrize("pairs, factor, got", [
        (((1e308, 0.5),), 10.0, "inf"),
        (((1.0, 0.5), (1e300, 0.2), (2e300, 0.9)), 1e10, "inf"),
        (((5e-324, 0.5), (1e308, 0.5)), 2.0, "inf"),
        (((0.25, 0.5),), 5e-324, "0.0"),
        (((1.0, 0.5), (1e-300, 0.3)), 1e-30, "0.0"),
        (((5e-324, 0.5), (1e308, 0.5)), 0.5, "0.0"),
    ])
    def test_scaled_out_of_range_messages(self, pairs, factor, got):
        message = f"capital must be a positive finite number, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pop(*pairs).scaled(factor)

    def test_scaled_equals_its_rebuilt_records(self):
        scaled = pop((2.0, 0.25), (3.0, 1.0), (0.5, -0.0)).scaled(3.0)
        rebuilt = MarketPopulation(scaled.investors)
        assert rebuilt == scaled and hash(rebuilt) == hash(scaled)
        assert scaled.investors == (Investor(6.0, 0.25), Investor(9.0, 1.0),
                                    Investor(1.5, 0.0))
        # equal records, whatever the sign of a zero belief
        assert pop((1.0, 0.0)) == pop((1.0, -0.0))
        assert hash(pop((1.0, 0.0))) == hash(pop((1.0, -0.0)))
        assert pop((1.0, 0.5)) != pop((1.0, 0.5), (1.0, 0.5))
        assert pop((1.0, 0.5)) != pop((2.0, 0.5)) != pop((2.0, 0.25))

    def test_scaled_population_is_frozen(self):
        scaled = pop((2.0, 0.25), (3.0, 1.0)).scaled(3.0)
        for array in (scaled.capitals, scaled.beliefs):
            with pytest.raises(ValueError):
                array[0] = 0.5
        for name in ("capitals", "beliefs", "investors", "other"):
            with pytest.raises(AttributeError):
                setattr(scaled, name, np.ones(2))
        assert scaled.capitals.tolist() == [6.0, 9.0]

    @pytest.mark.parametrize("restore", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy,
    ])
    def test_copies_stay_frozen(self, restore):
        market = pop((2.0, 0.25), (3.0, 0.75))
        for original in (market, market.scaled(3.0)):
            restored = restore(original)
            assert restored == original
            # the state is the two arrays; the unit is taken again on restore
            assert original.__getstate__().keys() == {"capitals", "beliefs"}
            assert clearing_price(restored) == clearing_price(original)
            for population in (original, restored):
                for array in (population.capitals, population.beliefs,
                              population._unit_capitals):
                    assert not array.flags.writeable
            for name in ("capitals", "beliefs", "investors", "other"):
                with pytest.raises(AttributeError):
                    setattr(restored, name, np.ones(2))

    def test_solves_and_sums_build_no_investor(self, monkeypatch):
        market = pop((2.0, 0.25), (3.0, 0.75), (1.0, 0.0))
        built = []
        monkeypatch.setattr(Investor, "__post_init__",
                            lambda self: built.append(self))
        scaled = market.scaled(3.0)
        clearing_price(scaled)
        mean_belief(scaled)
        aggregate_exposure(scaled, 0.4)
        scaled.total_capital
        assert built == []
        assert len(scaled.investors) == len(built) == 3

    def test_solves_and_sums_take_the_unit_once(self, monkeypatch):
        # a rescale per call would copy every capital 53 times here
        rng = np.random.default_rng(15)
        market = pop(*zip((rng.pareto(1.5, 300) + 1.0).tolist(),
                          rng.uniform(0.0, 1.0, 300).tolist())).scaled(1e-300)
        ldexp, calls = np.ldexp, []
        monkeypatch.setattr(np, "ldexp",
                            lambda *args: calls.append(args) or ldexp(*args))
        for p in np.linspace(0.02, 0.98, 50).tolist():
            aggregate_exposure(market, p)
        clearing_price(market)
        mean_belief(market)
        market.total_capital
        assert calls == []

    def test_sums_beyond_the_float_range(self):
        # fsum over the dollar capitals raised "intermediate overflow"
        assert mean_belief(pop((1e308, 0.3), (1e308, 0.7))) == 0.5
        assert aggregate_exposure(
            pop((1e308, 1.0), (1e308, 1.0), (1e308, 0.0)), 0.5) == 1e308
        with pytest.raises(ValueError, match="^total capital is beyond the"):
            pop((1e308, 0.3), (1e308, 0.7)).total_capital
        with pytest.raises(ValueError, match="^aggregate exposure is beyond the"):
            aggregate_exposure(pop((1e308, 1.0), (1e308, 1.0)), 0.5)


class TestSignedExposure:
    def test_certain_no_is_fully_short(self):
        for p in (0.1, 0.5, 0.9):
            assert signed_exposure(Investor(1.0, 0.0), p) == -1.0

    def test_certain_yes_is_fully_long(self):
        for p in (0.1, 0.5, 0.9):
            assert signed_exposure(Investor(1.0, 1.0), p) == 1.0

    def test_zero_at_the_price(self):
        assert signed_exposure(Investor(5.0, 0.4), 0.4) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_rejects_boundary_price(self):
        with pytest.raises(ValueError):
            signed_exposure(Investor(1.0, 0.5), 0.0)

    def test_matches_a_one_investor_market(self):
        prices = (1e-9, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-9)
        for p in prices:
            for q in (0.0, 1e-9, 0.2, 0.3, 0.5, 0.7, 0.99, 1.0,
                      p + 1e-12, p - 1e-12, np.nextafter(p, 1.0)):
                if not 0.0 <= q <= 1.0:
                    continue
                for c in (1e-3, 1.0, 7.3, 1e6):
                    investor = Investor(c, float(q))
                    assert signed_exposure(investor, p) == aggregate_exposure(
                        MarketPopulation((investor,)), p), (c, q, p)


class TestAggregateExposure:
    def test_sign_follows_belief(self):
        assert aggregate_exposure(pop((1.0, 0.7)), 0.5) > 0.0
        assert aggregate_exposure(pop((1.0, 0.3)), 0.5) < 0.0

    def test_symmetric_pair_cancels(self):
        for q in (0.1, 0.3, 0.45):
            assert aggregate_exposure(
                pop((1.0, q), (1.0, 1.0 - q)), 0.5
            ) == pytest.approx(0.0, abs=1e-15)

    def test_constructed_two_investor_market_clears(self):
        # capital (1-p)/(q-p) = 3 at q=0.6, p=0.4 offsets one certain-no dollar
        assert aggregate_exposure(pop((3.0, 0.6), (1.0, 0.0)), 0.4) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_non_increasing_in_price(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            population = random_population(rng)
            grid = np.arange(0.001, 1.0, 0.001)
            values = [aggregate_exposure(population, p) for p in grid]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMeanBelief:
    def test_single_investor(self):
        assert mean_belief(pop((2.5, 0.37))) == 0.37

    def test_capital_weighting(self):
        assert mean_belief(pop((3.0, 0.6), (1.0, 0.0))) == pytest.approx(
            0.45, abs=1e-15
        )

    def test_extreme_symmetric(self):
        assert mean_belief(pop((1.0, 0.0), (1.0, 1.0))) == 0.5

    def test_shared_belief_is_exact(self):
        # the weighted sum alone rounds to 0.10000000000000002
        assert mean_belief(pop((1.0, 0.1), (1.0, 0.1), (1.0, 0.1))) == 0.1
        rng = np.random.default_rng(5)
        for _ in range(2000):
            size, q = int(rng.integers(2, 10)), float(rng.uniform(0.01, 0.99))
            market = pop(*((c, q) for c in rng.uniform(0.01, 100.0, size)))
            assert mean_belief(market) == clearing_price(market).mean_belief == q


class TestClearingPrice:
    def test_shared_belief_is_the_price(self):
        result = clearing_price(pop((1.0, 0.3), (2.0, 0.3), (5.0, 0.3)))
        assert result.price == 0.3
        assert result.exposures == (0.0, 0.0, 0.0)
        assert result.gap == 0.0

    def test_shared_extreme_belief_has_no_price(self):
        with pytest.raises(NoInteriorClearing):
            clearing_price(pop((1.0, 0.0), (2.0, 0.0)))
        with pytest.raises(NoInteriorClearing):
            clearing_price(pop((1.0, 1.0)))

    def test_recovers_constructed_price(self):
        result = clearing_price(pop((3.0, 0.6), (1.0, 0.0)))
        assert result.price == pytest.approx(0.4, abs=1e-9)
        assert result.mean_belief == pytest.approx(0.45, abs=1e-12)
        assert result.gap == pytest.approx(0.05, abs=1e-9)

    def test_recovers_constructed_price_yes_side(self):
        # under the complement-contract convention the capital offsetting
        # one confident-yes dollar is p/(p-q)
        for q, p in [(0.2, 0.6), (0.1, 0.3), (0.5, 0.8)]:
            result = clearing_price(pop((p / (p - q), q), (1.0, 1.0)))
            assert result.price == pytest.approx(p, abs=1e-9)

    def test_capital_scaling_leaves_price_alone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            population = random_population(rng)
            try:
                base = clearing_price(population)
            except NoInteriorClearing:
                continue
            for lam in (0.1, 7.0, 1000.0):
                scaled = clearing_price(population.scaled(lam))
                assert abs(scaled.price - base.price) < 1e-12

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            result = clearing_price(random_population(rng))
            assert abs(result.residual) < 1e-9
            assert math.fsum(result.exposures) == result.residual
            assert result.gap == result.mean_belief - result.price

    def test_default_tolerance_scales_with_capital(self):
        # 200 investors with $10^6 and up: the residual's rounding is ~1e-8
        # dollars, so a fixed $1e-9 default refused almost all of them
        rng = np.random.default_rng(5)
        refused_at_a_dollar_tolerance = 0
        for _ in range(50):
            capitals = 1e6 * (1.0 + rng.pareto(1.5, 200))
            market = pop(*zip(capitals.tolist(), rng.uniform(0, 1, 200).tolist()))
            result = clearing_price(market)
            assert abs(result.residual) <= 1e-9 * market.total_capital
            in_millions = clearing_price(market.scaled(1e-6))
            assert result.price == pytest.approx(in_millions.price, abs=1e-12)
            try:
                clearing_price(market, 1e-9)  # an explicit tol is in dollars
            except ValueError as exc:
                assert "exceeds tolerance 1e-09" in str(exc)
                refused_at_a_dollar_tolerance += 1
        assert refused_at_a_dollar_tolerance > 25

    def test_error_messages_are_in_dollars(self):
        # the solve runs in units of a power of two; its messages do not
        with pytest.raises(NoInteriorClearing, match=(
                r": -2\.998e\+06 at the lower end, -3e\+06 at the upper end")):
            clearing_price(pop((1e6, 0.0), (2e6, 1e-12)))
        rng = np.random.default_rng(5)
        capitals = 1e6 * (1.0 + rng.pareto(1.5, 200))
        market = pop(*zip(capitals.tolist(), rng.uniform(0, 1, 200).tolist()))
        with pytest.raises(ValueError, match="exceeds tolerance 1e-12") as info:
            clearing_price(market, 1e-12)
        residual = re.search(r"residual (\S+)", str(info.value)).group(1)
        assert abs(float(residual)) > 1e-12

    def test_extreme_beliefs_with_imbalance(self):
        # all-or-nothing beliefs: one-sided demand is price-independent, so
        # the tiniest capital imbalance admits no interior clearing price,
        # while the mean belief barely moves off one half
        eps = 1e-6
        population = pop((1.0 + eps, 1.0), (1.0, 0.0))
        with pytest.raises(NoInteriorClearing):
            clearing_price(population)
        assert abs(mean_belief(population) - 0.5) < eps / 2 + 1e-12

    def test_settlement_stakes_match(self):
        # at clearing the dollars staked long equal the dollars staked on
        # the complement, so on either outcome the losing side forfeits
        # exactly the winning side's stake
        rng = np.random.default_rng(17)
        for _ in range(10):
            result = clearing_price(random_population(rng))
            long_stake = sum(e for e in result.exposures if e > 0)
            short_stake = -sum(e for e in result.exposures if e < 0)
            assert abs(long_stake - short_stake) <= 1e-9
            lost_if_yes = short_stake   # complement holders forfeit stakes
            lost_if_no = long_stake     # event holders forfeit stakes
            assert lost_if_yes == pytest.approx(long_stake, abs=1e-9)
            assert lost_if_no == pytest.approx(short_stake, abs=1e-9)


class TestClosedForms:
    def test_confident_no_capital_values(self):
        assert confident_no_capital(0.6, 0.4) == pytest.approx(3.0, abs=1e-12)
        assert confident_no_capital(1.0, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_confident_no_capital_pole(self):
        with pytest.raises(ValueError):
            confident_no_capital(0.4, 0.4)
        with pytest.raises(ValueError):
            confident_no_capital(0.4 + 1e-13, 0.4)

    def test_confident_yes_capital_values(self):
        assert confident_yes_capital(0.2, 0.6) == pytest.approx(1.0, abs=1e-12)
        assert confident_yes_capital(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_confident_yes_capital_pole(self):
        with pytest.raises(ValueError):
            confident_yes_capital(0.6, 0.6)

    def test_mean_belief_confident_no_values(self):
        assert mean_belief_confident_no(0.6, 0.4) == pytest.approx(0.45, abs=1e-12)
        assert mean_belief_confident_no(1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
        value = mean_belief_confident_no(0.9, 0.1)
        assert value == pytest.approx(0.81 / 1.7, abs=1e-12)
        assert 0.0 <= value <= 0.5

    def test_mean_belief_confident_no_matches_population(self):
        for q in (0.5, 0.7, 0.95, 1.0):
            for p in (0.2, 0.4, 0.45):
                capital = confident_no_capital(q, p)
                population = pop((capital, q), (1.0, 0.0))
                assert mean_belief_confident_no(q, p) == pytest.approx(
                    mean_belief(population), abs=1e-12
                )

    def test_mean_belief_confident_yes_is_the_price(self):
        for q in (0.0, 0.2, 0.4):
            for p in (0.5, 0.6, 0.9):
                assert mean_belief_confident_yes(q, p) == p
                capital = confident_yes_capital(q, p)
                population = pop((capital, q), (1.0, 1.0))
                assert mean_belief(population) == pytest.approx(p, abs=1e-12)

    def test_range_sides(self):
        for p in (0.1, 0.3, 0.49):
            for q in np.linspace(p + 1e-3, 1.0, 50):
                assert 0.0 <= mean_belief_confident_no(q, p) <= 0.5 + 1e-12
        for p in (0.51, 0.9):
            for q in np.linspace(p + 1e-3, 1.0, 50):
                assert 0.5 - 1e-12 <= mean_belief_confident_no(q, p) <= 1.0


# Beliefs for the property test: anywhere in [0, 1], exactly 0 or 1, or
# within a few 1e-9 of either end of the price bracket (1e-9, 1 - 1e-9).
_NEAR_END = st.floats(0.0, 3e-9)
_BELIEF = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                    _NEAR_END, _NEAR_END.map(lambda x: 1.0 - x))
# Pareto capital with tail index 1.5 and minimum 1, by inverse transform.
_CAPITAL = st.floats(0.0, 0.999).map(lambda u: (1.0 - u) ** (-1.0 / 1.5))


@st.composite
def _populations(draw):
    """Capitals and beliefs; about half the beliefs repeat a few shared
    values, so ties are common."""
    shared = draw(st.lists(_BELIEF, min_size=1, max_size=4))
    size = draw(st.integers(1, 30))
    beliefs = [draw(st.sampled_from(shared)) if draw(st.booleans())
               else draw(_BELIEF) for _ in range(size)]
    return [draw(_CAPITAL) for _ in range(size)], beliefs


def _price_slack(capitals, beliefs, p):
    """1e-12, widened where the root is ill-conditioned: rounding in the
    sum of exposures (a few ulps of their total size) moves the root by
    that much over the slope of aggregate exposure at ``p``."""
    slope = math.fsum(c * (1.0 - q) / (1.0 - p) ** 2 if q >= p else c * q / p ** 2
                      for c, q in zip(capitals, beliefs))
    size = math.fsum(abs(c * (q - p)) / ((1.0 - p) if q >= p else p)
                     for c, q in zip(capitals, beliefs))
    return 1e-12 + 16 * np.finfo(float).eps * size / slope if slope > 0.0 else math.inf


class TestClosedFormSolver:
    @given(_populations())
    @settings(max_examples=300, deadline=None)
    # root 7.5e-9 below 1: only the nearest double clears to 1e-9
    @example(([1.0, 1.0, 1.0, 1.0, 2.5198420997897464],
              [0.0, 0.0, 0.0, 1.0, 0.9999999984605421]))
    # exposure nearly flat in the price: the root is ill-conditioned
    @example(([1.000000001544893, 1.0], [1.4162875592985533e-09, 1.0]))
    @example(([1.0, 1.0], [0.0, 1.0]))
    def test_agrees_with_bisection(self, population):
        capitals, beliefs = population
        market = pop(*zip(capitals, beliefs))
        want = bisection_clearing_price(capitals, beliefs)
        tol = 1e-9
        try:
            result = clearing_price(market, tol)
        except NoInteriorClearing:
            assert want is None
            return
        except ValueError:
            # the residual check failed: then no double next to the
            # bisection's price clears to tol either
            assert want is not None
            near = (np.nextafter(want, 0.0), want, np.nextafter(want, 1.0))
            assert min(abs(kelly_exposure(capitals, beliefs, float(p)))
                       for p in near) > tol
            return
        assert want is not None
        slack = _price_slack(capitals, beliefs, want)
        assert abs(result.price - want) <= slack
        assert abs(result.residual) <= tol
        for lam in (0.1, 7.0, 1000.0):
            scaled = clearing_price(market.scaled(lam), tol * lam)
            assert abs(scaled.price - result.price) <= slack

    def test_quadratic_root_picks_and_keeps_the_segment_root(self):
        # (p - 0.2)(p - 0.7) = p^2 - 0.9 p + 0.14 has a root in each segment
        assert _quadratic_root(1.0, -0.9, 0.14, 0.1, 0.3) == pytest.approx(0.2)
        assert _quadratic_root(1.0, -0.9, 0.14, 0.5, 0.8) == pytest.approx(0.7)
        # linear: -2 p + 1
        assert _quadratic_root(0.0, -2.0, 1.0, 0.4, 0.6) == 0.5
        # a root just outside the segment is clamped to its nearer end
        assert _quadratic_root(1.0, -0.9, 0.14, 0.2 + 1e-15, 0.3) == 0.2 + 1e-15
        assert _quadratic_root(1.0, -0.9, 0.14, 0.1, 0.2 - 1e-15) == 0.2 - 1e-15
        # no root but p = 0: the price stays inside the segment
        assert _quadratic_root(0.0, 0.0, 0.0, 0.25, 0.5) == 0.25

    def test_root_at_a_belief(self):
        # the 0.4-believer holds nothing at the clearing price 0.4
        result = clearing_price(pop((3.0, 0.6), (5.0, 0.4), (1.0, 0.0)))
        assert result.price == pytest.approx(0.4, abs=1e-15)
        assert result.exposures[1] == pytest.approx(0.0, abs=1e-14)

    def test_root_near_one_is_the_nearest_double(self):
        # three confident-no dollars against one confident-yes dollar and
        # 2.52 dollars at belief 1 - 1.54e-9 clear 7.5e-9 below 1, where
        # one ulp of the price moves aggregate exposure by about 7.7e-9
        capitals = [1.0, 1.0, 1.0, 1.0, 2.5198420997897464]
        beliefs = [0.0, 0.0, 0.0, 1.0, 0.9999999984605421]
        result = clearing_price(pop(*zip(capitals, beliefs)))
        assert result.price == bisection_clearing_price(capitals, beliefs)
        assert abs(result.residual) <= 1e-9

    @given(_populations(), st.sampled_from([-1000, -300, 300, 1000]))
    @settings(max_examples=200, deadline=None)
    @example(([1.0, 1.0], [0.3, 0.7]), 1000)
    def test_power_of_two_capitals_keep_every_bit(self, population, k):
        # Pareto capitals lie in [1, 100], so 2^-1000 keeps them normal and
        # 2^1000 keeps every sum of them finite
        capitals, beliefs = population
        market = pop(*zip(capitals, beliefs))
        scaled = pop(*zip([math.ldexp(c, k) for c in capitals], beliefs))
        try:
            result = clearing_price(market)
        except ValueError as exc:  # no interior price, or the residual check
            with pytest.raises(type(exc)):
                clearing_price(scaled)
            return
        got = clearing_price(scaled)
        assert (got.price, got.mean_belief, got.gap) == \
            (result.price, result.mean_belief, result.gap)
        assert mean_belief(scaled) == got.mean_belief
        assert abs(got.residual) <= 1e-9 * math.fsum(scaled.capitals)
        if k > 0:
            assert got.exposures == tuple(math.ldexp(x, k) for x in result.exposures)
            assert got.residual == math.ldexp(result.residual, k)

    @pytest.mark.parametrize("capital", [1e308, 1e-320])
    def test_extreme_capitals(self, capital):
        # the default tolerance overflowed at 1e308 and underflowed at 1e-320
        result = clearing_price(pop((capital, 0.3), (capital, 0.7)))
        assert result.price == pytest.approx(0.5, abs=1e-15)
        assert result.mean_belief == pytest.approx(0.5, abs=1e-15)
        # 1e-320 carries about 11 significant bits
        assert result.exposures == pytest.approx((-0.4 * capital, 0.4 * capital),
                                                 rel=1e-3)

    def test_hundred_thousand_investors_within_budget(self):
        # about 0.1 s on a 2-core x86 box; bisection took seconds
        rng = np.random.default_rng(5)
        capitals = rng.pareto(1.5, 100_000) + 1.0
        beliefs = rng.uniform(0.0, 1.0, 100_000)
        market = pop(*zip(capitals.tolist(), beliefs.tolist()))
        tol = 1e-12 * math.fsum(capitals)
        start = time.perf_counter()
        result = clearing_price(market, tol)
        elapsed = time.perf_counter() - start
        assert abs(result.residual) <= tol
        assert elapsed < 1.5


# beliefs at, just inside and just outside the ends of the price bracket
_BRACKET_BELIEFS = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9, 5e-10])


def _oracle_markets(rng, count):
    """Seeded capitals and beliefs, eight kinds in turn: uniform beliefs,
    a share at the bracket beliefs, only bracket beliefs, one shared
    belief, equal capital on beliefs 0 and 1 (the lower end clears exactly;
    a nudge or a little capital inside brings it near zero), every belief
    on one side of a bracket end, a tight cluster, and only beliefs 0 and
    1.  Capitals are shifted by 10^300 or 10^-300 a third of the time each."""
    for i in range(count):
        n = int(rng.integers(2, 41))
        capitals = rng.pareto(1.5, n) + rng.uniform(0.01, 1.0)
        beliefs = rng.uniform(0.0, 1.0, n)
        kind = i % 8
        if kind == 1:
            some = rng.random(n) < 0.4
            beliefs[some] = rng.choice(_BRACKET_BELIEFS, some.sum())
        elif kind == 2:
            beliefs = rng.choice(_BRACKET_BELIEFS, n)
        elif kind == 3:
            beliefs = np.full(n, rng.choice([rng.uniform(), 0.0, 1.0, 1e-9]))
        elif kind == 4:
            half = n // 2
            beliefs[:half], beliefs[half:2 * half] = 0.0, 1.0
            capitals[:2 * half] = 1.0
            capitals[2 * half:] *= rng.choice([1.0, 1e-6, 1e-12])
            if rng.random() < 0.5:
                capitals[0] = np.nextafter(1.0, rng.choice([0.0, 2.0]))
        elif kind == 5:
            beliefs = rng.choice([0.0, 5e-10] if rng.random() < 0.5
                                 else [1.0, 1.0 - 5e-10], n)
        elif kind == 6:
            beliefs = np.clip(rng.normal(rng.uniform(0.2, 0.8), 0.01, n), 0.0, 1.0)
        elif kind == 7:
            beliefs = rng.integers(0, 2, n).astype(float)
        yield capitals * rng.choice([1.0, 1e300, 1e-300]), beliefs


def _outcome(solve, market, tol):
    """A result's bits, or the type and message of what was raised."""
    try:
        result = solve(market, tol)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(x.hex() for x in (result.price, result.mean_belief, result.gap,
                                   result.residual, *result.exposures))


class TestSinglePass:
    def test_matches_the_multi_pass_solver_bit_for_bit(self):
        seen = set()
        for capitals, beliefs in _oracle_markets(np.random.default_rng(2024), 3000):
            market = pop(*zip(capitals.tolist(), beliefs.tolist()))
            for tol in (None, 1e-9, 1e300):
                got = _outcome(clearing_price, market, tol)
                assert got == _outcome(multi_pass_clearing_price, market, tol), \
                    (capitals.tolist(), beliefs.tolist(), tol)
                seen.add(got[0] if isinstance(got[0], type) else
                         "lower end" if got[0] == (1e-9).hex() else "interior")
        assert seen == {NoInteriorClearing, ValueError, "lower end", "interior"}

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_clears_at_the_upper_bracket_end(self, scale):
        # at 1 - 1e-9 the sure no and the sure yes cancel, and the third
        # investor's belief is the price: exposure there is exactly zero
        market = pop((scale, 0.0), (scale, 1.0), (2 * scale, 1.0 - 1e-9))
        result = clearing_price(market)
        assert (result.price, result.residual) == (1.0 - 1e-9, 0.0)
        assert result.exposures == (-scale, scale, 0.0)
        assert _outcome(clearing_price, market, None) == \
            _outcome(multi_pass_clearing_price, market, None)

    def test_reads_an_interior_market_in_one_pass(self, monkeypatch):
        # beliefs inside the bracket: the prefix sums settle both ends
        rng = np.random.default_rng(7)
        n = 200
        market = pop(*zip(rng.pareto(1.5, n) + 1.0, rng.uniform(0.01, 0.99, n)))
        want = clearing_price(market)
        fsum, lengths = math.fsum, []

        def counted(values):
            lengths.append(len(values))
            return fsum(values)

        def refused(*args):
            raise AssertionError("a second pass over the population")

        monkeypatch.setattr(clearing, "_aggregate", refused)
        monkeypatch.setattr(clearing, "mean_belief", refused)
        monkeypatch.setattr(math, "fsum", counted)
        assert clearing_price(market) == want
        # the two totals and the residual over all n, and the four
        # coefficient sums split at the root's segment: 5n values in all
        assert lengths.count(n) <= 5
        assert sum(length for length in lengths if length > 3) == 5 * n
