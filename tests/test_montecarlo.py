import math

import numpy as np
import pytest

from kellymarket import montecarlo
from kellymarket.growth import WalkSpec, binomial_pmf, prob_growth_below
from kellymarket.kelly import even_odds_growth_rate
from kellymarket.montecarlo import (
    BULK_MAX_STEPS,
    SimConfig,
    compare_strategies,
    run,
    threshold_validation,
    threshold_z,
)

from oracles import per_path_up_steps, philox_key


class TestSimConfig:
    def test_rejects_ruinous_fraction(self):
        with pytest.raises(ValueError):
            SimConfig(WalkSpec(10, 0.5), 1.0, 100, 1)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            SimConfig(WalkSpec(10, 0.5), -0.1, 100, 1)

    def test_rejects_bad_paths_or_seed(self):
        with pytest.raises(ValueError):
            SimConfig(WalkSpec(10, 0.5), 0.1, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(WalkSpec(10, 0.5), 0.1, 10, -1)

    def test_rejects_paths_beyond_one_spawn_key_word(self):
        SimConfig(WalkSpec(10, 0.5), 0.1, 2 ** 32 - 1, 1)
        with pytest.raises(ValueError, match="paths"):
            SimConfig(WalkSpec(10, 0.5), 0.1, 2 ** 32, 1)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match=r"\bQ\b"):
            SimConfig(WalkSpec(10, 0.5), 0.1, 10, 1, threshold)


class TestRun:
    def test_zero_fraction_is_exactly_flat(self):
        result = run(SimConfig(WalkSpec(20, 0.6), 0.0, 500, 9))
        assert result.mean_log_growth_per_step == 0.0
        assert result.std_error == 0.0

    def test_near_certain_walk_is_deterministic(self):
        # bias within one ulp of 1: every flip comes up heads
        result = run(SimConfig(WalkSpec(10, 1.0 - 1e-12), 0.5, 200, 5))
        assert result.mean_log_growth_per_step == pytest.approx(
            math.log(1.5), abs=1e-12
        )
        assert result.std_error < 1e-15
        assert result.up_step_histogram[-1] == 200

    def test_mean_growth_matches_analytic(self):
        config = SimConfig(WalkSpec(50, 0.6), 0.2, 20000, 42)
        result = run(config)
        analytic = even_odds_growth_rate(0.6, 0.2)
        assert abs(result.mean_log_growth_per_step - analytic) < 3 * result.std_error

    def test_histogram_accounts_for_every_path(self):
        config = SimConfig(WalkSpec(12, 0.35), 0.1, 3000, 7)
        result = run(config)
        assert sum(result.up_step_histogram) == 3000
        assert len(result.up_step_histogram) == 13

    def test_histogram_matches_pmf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        n, paths = 10, 20000
        config = SimConfig(WalkSpec(n, 0.6), 0.1, paths, 123)
        result = run(config)
        expected = np.array(
            [binomial_pmf(config.walk, k) * paths for k in range(n + 1)]
        )
        observed = np.array(result.up_step_histogram, dtype=float)
        # merge sparse bins so the chi-squared approximation is sound
        keep = expected > 5.0
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        stat = ((observed - expected) ** 2 / expected).sum()
        cutoff = scipy_stats.chi2.ppf(0.999, df=len(expected) - 1)
        assert stat < cutoff


class TestEngineAgainstPerPathStreams:
    """The vectorised engine against one numpy Philox stream per path."""

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 40 + 3, 2 ** 64 - 1])
    @pytest.mark.parametrize("offset", [0, 1, 2 ** 32 - 1])
    def test_keys_match_seed_sequence(self, seed, offset):
        stop = min(offset + 3, 2 ** 32)
        k0, k1 = montecarlo._philox_keys(seed, offset, stop)
        for j, i in enumerate(range(offset, stop)):
            assert (int(k0[j]), int(k1[j])) == philox_key(seed, i)

    @pytest.mark.parametrize("steps", [
        1, 53, BULK_MAX_STEPS - 1, BULK_MAX_STEPS, BULK_MAX_STEPS + 1, 5000,
    ])
    def test_counts_match_per_path_streams(self, steps):
        walk = WalkSpec(steps, 0.6)
        got = montecarlo._path_up_steps(walk, 23, 7, path_offset=5)
        assert np.array_equal(got, per_path_up_steps(walk, 23, 7, path_offset=5))

    @pytest.mark.parametrize("bias", [1.0 - 1e-12, 1e-9])
    @pytest.mark.parametrize("steps", [40, BULK_MAX_STEPS + 40])
    def test_extreme_bias(self, bias, steps):
        walk = WalkSpec(steps, bias)
        got = montecarlo._path_up_steps(walk, 50, 3)
        assert np.array_equal(got, per_path_up_steps(walk, 50, 3))

    @pytest.mark.parametrize("bias", [0.6, 0.5, 1e-9, 1.0 - 1e-12])
    def test_flip_limit_agrees_with_the_double_at_the_boundary(self, bias):
        # a word is up when numpy's double (word >> 11) * 2**-53 is below p
        edge = math.floor(bias * 2.0 ** 53)
        for top in (edge - 1, edge, edge + 1):
            word = top << 11 | 0x7FF
            assert (word < montecarlo._below(bias)) == (top * 2.0 ** -53 < bias)

    def test_counts_near_the_last_path_index(self):
        walk = WalkSpec(9, 0.45)
        offset = 2 ** 32 - 4
        got = montecarlo._path_up_steps(walk, 4, 2 ** 64 - 1, path_offset=offset)
        assert np.array_equal(
            got, per_path_up_steps(walk, 4, 2 ** 64 - 1, path_offset=offset))

    # each case leaves a partial last chunk: chunks of 21, 3 and 64 paths
    # under a 64-element limit, and of 585 paths under the default one
    @pytest.mark.parametrize("steps, limit, paths", [
        (10, 64, 97), (BULK_MAX_STEPS, 64, 97), (BULK_MAX_STEPS + 1, 64, 97),
        (53, montecarlo._CHUNK_ELEMENTS, 1177),
    ])
    def test_paths_not_a_multiple_of_the_chunk(self, steps, limit, paths,
                                               monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", limit)
        walk = WalkSpec(steps, 0.55)
        got = montecarlo._path_up_steps(walk, paths, 11)
        assert np.array_equal(got, per_path_up_steps(walk, paths, 11))

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_workers_split_matches_per_path_streams(self, workers):
        config = SimConfig(WalkSpec(15, 0.55), 0.15, 101, 77)
        got = montecarlo._up_steps(config, workers)
        assert np.array_equal(got, per_path_up_steps(config.walk, 101, 77))


class TestReproducibility:
    def test_identical_config_identical_result(self):
        config = SimConfig(WalkSpec(15, 0.55), 0.15, 2000, 77, threshold=0.0)
        assert run(config) == run(config)

    def test_worker_count_does_not_matter(self):
        config = SimConfig(WalkSpec(15, 0.55), 0.15, 2001, 77, threshold=0.0)
        base = run(config, workers=1)
        for workers in (2, 3, 7):
            assert run(config, workers=workers) == base

    def test_seed_matters(self):
        walk = WalkSpec(15, 0.55)
        a = run(SimConfig(walk, 0.15, 2000, 1))
        b = run(SimConfig(walk, 0.15, 2000, 2))
        assert a != b


class TestCompareStrategies:
    def make(self, f, threshold=None):
        return SimConfig(WalkSpec(30, 0.6), f, 20000, 99, threshold=threshold)

    def test_single_config_matches_run(self):
        config = self.make(0.2)
        rows = compare_strategies([config])
        assert rows[0].result == run(config)
        assert rows[0].mean_diff_vs_first == 0.0

    def test_rejects_mismatched_walks(self):
        a = SimConfig(WalkSpec(30, 0.6), 0.1, 100, 1)
        b = SimConfig(WalkSpec(31, 0.6), 0.2, 100, 1)
        with pytest.raises(ValueError):
            compare_strategies([a, b])

    def test_kelly_beats_perturbed_fraction(self):
        f_star = 0.2  # 2p - 1 at p = 0.6
        rows = compare_strategies([self.make(f_star), self.make(f_star + 0.1)])
        diff = rows[1].mean_diff_vs_first
        analytic = even_odds_growth_rate(0.6, 0.3) - even_odds_growth_rate(0.6, 0.2)
        assert diff < 0.0
        assert abs(diff - analytic) < 3 * rows[1].se_diff_vs_first

    def test_misestimated_bias_growth_gap(self):
        # fraction chosen for bias p + eps while the world runs at p
        p, eps = 0.6, 0.05
        f_true = 2.0 * p - 1.0
        f_mis = 2.0 * (p + eps) - 1.0
        rows = compare_strategies([self.make(f_true), self.make(f_mis)])
        analytic = even_odds_growth_rate(p, f_mis) - even_odds_growth_rate(p, f_true)
        assert abs(rows[1].mean_diff_vs_first - analytic) < 3 * rows[1].se_diff_vs_first

    def test_analytic_columns(self):
        rows = compare_strategies([self.make(0.2, threshold=0.0)])
        assert rows[0].growth_rate == even_odds_growth_rate(0.6, 0.2)
        assert rows[0].prob_below == prob_growth_below(0.2, WalkSpec(30, 0.6), 0.0)


class TestThresholdValidation:
    def test_unreachable_threshold(self):
        walk = WalkSpec(10, 0.6)
        config = SimConfig(walk, 0.2, 5000, 21,
                           threshold=10 * math.log1p(-0.2) - 1.0)
        empirical, exact, z = threshold_validation(config)
        assert empirical == exact == 0.0
        assert z == 0.0

    def test_certain_threshold(self):
        walk = WalkSpec(10, 0.6)
        config = SimConfig(walk, 0.2, 5000, 21, threshold=10 * math.log1p(0.2))
        empirical, exact, z = threshold_validation(config)
        assert empirical == exact == 1.0
        assert z == 0.0

    def test_break_even_frequency(self):
        config = SimConfig(WalkSpec(10, 0.6), 0.2, 100000, 4242, threshold=0.0)
        empirical, exact, z = threshold_validation(config)
        assert exact == pytest.approx(0.3669, abs=1e-4)
        assert abs(empirical - exact) < 0.006
        assert abs(z) < 4.0

    def test_threshold_z_reuses_a_run(self):
        config = SimConfig(WalkSpec(12, 0.6), 0.2, 3000, 5, threshold=0.0)
        assert threshold_z(config, run(config)) == threshold_validation(config)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            threshold_validation(SimConfig(WalkSpec(10, 0.6), 0.2, 100, 1))
