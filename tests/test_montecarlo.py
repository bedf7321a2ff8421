import math
import re

import numpy as np
import pytest

from kellymarket import _walks, montecarlo
from kellymarket.growth import WalkSpec, binomial_pmf, prob_growth_below, threshold_steps
from kellymarket.kelly import even_odds_growth_rate
from kellymarket._walks import BULK_MAX_STEPS
from kellymarket.montecarlo import (
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
        with pytest.raises(ValueError, match="^seed must be"):
            SimConfig(WalkSpec(10, 0.5), 0.1, 10, 2 ** 64)

    def test_rejects_paths_beyond_one_spawn_key_word(self):
        SimConfig(WalkSpec(10, 0.5), 0.1, 2 ** 32 - 1, 1)
        with pytest.raises(ValueError, match="paths"):
            SimConfig(WalkSpec(10, 0.5), 0.1, 2 ** 32, 1)

    # int() of inf, NaN or a string raises an error that names no parameter
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5,
                                       "ten", None, [3], "10"])
    @pytest.mark.parametrize("field, message", [
        ("paths", "paths must be a positive integer"),
        ("seed", "seed must be an unsigned 64-bit integer"),
    ])
    def test_integer_field_refused_by_name(self, field, message, value):
        fields = {"paths": 10, "seed": 1, field: value}
        with pytest.raises(ValueError,
                           match=f"^{message}, got {re.escape(repr(value))}$"):
            SimConfig(WalkSpec(10, 0.5), 0.1, **fields)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match=r"\bQ\b"):
            SimConfig(WalkSpec(10, 0.5), 0.1, 10, 1, threshold)

    @pytest.mark.parametrize("walk", [(10, 0.6), None, "WalkSpec(10, 0.6)"])
    def test_rejects_a_walk_that_is_not_a_walk_spec(self, walk):
        with pytest.raises(ValueError,
                           match=f"^walk must be a WalkSpec, got {re.escape(repr(walk))}$"):
            SimConfig(walk, 0.2, 100, 1)

    def test_rejects_a_walk_over_the_step_cap_naming_n(self):
        # only checked, never run: a walk at the cap peaks near 1 GiB
        assert montecarlo._MAX_STEPS >= 10 ** 7
        SimConfig(WalkSpec(montecarlo._MAX_STEPS, 0.5), 0.1, 1, 1)
        over = montecarlo._MAX_STEPS + 1
        with pytest.raises(ValueError, match=f"^N = {over} steps is over the cap of "
                                             f"{montecarlo._MAX_STEPS} "):
            SimConfig(WalkSpec(over, 0.5), 0.1, 1, 1)


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

    # the last case is one full chunk of keys, ending at the last path index
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 40 + 3, 2 ** 64 - 1])
    @pytest.mark.parametrize("offset, stop", [
        (0, 3), (1, 4), (2 ** 32 - 1, 2 ** 32),
        (2 ** 32 - _walks._CHUNK_ELEMENTS, 2 ** 32),
    ])
    def test_keys_match_seed_sequence(self, seed, offset, stop):
        k0, k1 = _walks._philox_keys(_walks._seed_pool(seed), offset, stop)
        assert len(k0) == len(k1) == stop - offset
        for j, i in enumerate(range(offset, stop)):
            assert (int(k0[j]), int(k1[j])) == philox_key(seed, i)

    def test_seed_pool_matches_seed_sequence(self):
        rng = np.random.default_rng(2507)
        seeds = [0, 1, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1,
                 *(int(s) for s in rng.integers(0, 2 ** 20, 250)),
                 *(int(s) for s in rng.integers(0, 2 ** 64, 250, dtype=np.uint64))]
        for seed in seeds:
            assert _walks._seed_pool(seed) == tuple(
                np.random.SeedSequence(seed).pool.tolist()), seed

    # around the crossover, the crossover before it was re-measured, and the
    # native kernel's switch from batched to per-path counting
    @pytest.mark.parametrize("steps", [
        1, 53, BULK_MAX_STEPS - 1, BULK_MAX_STEPS, BULK_MAX_STEPS + 1, 71, 72, 73,
        _walks._BATCH_MAX_STEPS, _walks._BATCH_MAX_STEPS + 1, 5000,
    ])
    def test_counts_match_per_path_streams(self, steps):
        walk = WalkSpec(steps, 0.6)
        got = _walks._path_up_steps(walk, 28, 7)[5:]
        assert np.array_equal(got, per_path_up_steps(walk, 23, 7, path_offset=5))

    @pytest.mark.parametrize("bias", [1.0 - 1e-12, 1e-9])
    @pytest.mark.parametrize("steps", [40, BULK_MAX_STEPS + 40])
    def test_extreme_bias(self, bias, steps):
        walk = WalkSpec(steps, bias)
        got = _walks._path_up_steps(walk, 50, 3)
        assert np.array_equal(got, per_path_up_steps(walk, 50, 3))

    @pytest.mark.parametrize("bias", [0.6, 0.5, 1e-9, 1.0 - 1e-12])
    def test_flip_limit_agrees_with_the_double_at_the_boundary(self, bias):
        # a word is up when numpy's double (word >> 11) * 2**-53 is below p
        edge = math.floor(bias * 2.0 ** 53)
        for top in (edge - 1, edge, edge + 1):
            word = top << 11 | 0x7FF
            assert (word < _walks._below(bias)) == (top * 2.0 ** -53 < bias)

    def test_counts_near_the_last_path_index(self):
        seed, offset = 2 ** 64 - 1, 2 ** 32 - 4
        keys = _walks._philox_keys(_walks._seed_pool(seed), offset, 2 ** 32)
        for kernel, steps in ((_walks._bulk_up_steps, 9),
                              (_walks._native_up_steps, BULK_MAX_STEPS + 1)):
            walk = WalkSpec(steps, 0.45)
            got = kernel(keys, walk.steps, walk.bias)
            assert np.array_equal(
                got, per_path_up_steps(walk, 4, seed, path_offset=offset)), steps

    # native walks of at most 3 x 45 words a batch: 4 and 8 paths leave a
    # partial last batch, one path is a batch of its own, and so is each
    # path of a walk longer than the word limit
    @pytest.mark.parametrize("steps, words, paths", [
        (45, 3 * 45, 1), (45, 3 * 45, 4), (45, 3 * 45, 8), (45, 44, 5),
    ])
    def test_native_batches(self, steps, words, paths, monkeypatch):
        monkeypatch.setattr(_walks, "_CHUNK_ELEMENTS", words)
        walk = WalkSpec(steps, 0.55)
        keys = _walks._philox_keys(_walks._seed_pool(13), 0, paths)
        got = _walks._native_up_steps(keys, walk.steps, walk.bias)
        assert np.array_equal(got, per_path_up_steps(walk, paths, 13))

    # each case leaves a partial last chunk: chunks of 21, 5 and 64 paths
    # under a 64-element limit, of 146 paths under a 146-element one, and
    # of 744 paths under the default one; native batches of 2 paths under
    # the 146-element limit, and of 154 under the default one, leave a
    # partial last batch too
    @pytest.mark.parametrize("steps, limit, paths", [
        (10, 64, 97),
        (BULK_MAX_STEPS, 64, 97),
        (BULK_MAX_STEPS + 1, 64, 97),
        (73, 146, 201),
        (BULK_MAX_STEPS, _walks._CHUNK_ELEMENTS, 1177),
        (53, _walks._CHUNK_ELEMENTS, 1177),
    ])
    def test_paths_not_a_multiple_of_the_chunk(self, steps, limit, paths, monkeypatch):
        monkeypatch.setattr(_walks, "_CHUNK_ELEMENTS", limit)
        walk = WalkSpec(steps, 0.55)
        got = _walks._path_up_steps(walk, paths, 11)
        assert np.array_equal(got, per_path_up_steps(walk, paths, 11))

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_workers_split_matches_per_path_streams(self, workers):
        config = SimConfig(WalkSpec(15, 0.55), 0.15, 101, 77)
        got = run(config, workers).up_step_histogram
        expected = np.bincount(per_path_up_steps(config.walk, 101, 77), minlength=16)
        assert got == tuple(expected.tolist())


# pairwise summation changes its order at 8 and 128 values
AGGREGATE_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 250, 4000, 20000]


class TestAggregation:
    """The direct reductions against numpy's ``mean()``, ``std(ddof=1)``
    and the mean of a bool array, bit for bit."""

    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e12])
    @pytest.mark.parametrize("size", AGGREGATE_SIZES)
    def test_same_bits_as_numpy(self, size, offset):
        rng = np.random.default_rng(size)
        values = offset + rng.standard_normal(size) * rng.choice([1e-3, 1.0, 1e3], size)
        mean = _walks._mean(values)
        assert mean.hex() == float(values.mean()).hex()
        expected = float(values.std(ddof=1) / math.sqrt(size)) if size > 1 else 0.0
        assert _walks._std_error(values, mean).hex() == expected.hex()

    # five strategies, f = 0 and a config without a threshold among them;
    # the last path count spans more than one chunk of keys
    @pytest.mark.parametrize("paths", [*AGGREGATE_SIZES, _walks._CHUNK_ELEMENTS + 1])
    def test_results_keep_numpy_bits(self, paths):
        walk, seed = WalkSpec(30, 0.55), 1000 + paths
        configs = [SimConfig(walk, f, paths, seed, q) for f, q in (
            (0.1, -0.5), (0.0, -0.5), (0.35, -0.5), (0.2, None), (0.6, 0.25))]
        rows = compare_strategies(configs)
        up_steps = _walks._path_up_steps(walk, paths, seed)

        def per_step_growth(f):
            n = walk.steps
            return (up_steps * math.log1p(f) + (n - up_steps) * math.log1p(-f)) / n

        def std_error(values):
            return float(values.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0

        first = per_step_growth(configs[0].fraction)
        for config, row in zip(configs, rows):
            f, q = config.fraction, config.threshold
            per_step = per_step_growth(f)
            diff = per_step - first
            if q is None:
                hit = None
            elif f == 0.0:
                hit = float(q >= 0.0)
            else:
                hit = float(np.mean(up_steps <= threshold_steps(f, walk, q)))
            assert row.result == run(config)
            assert (row.result.mean_log_growth_per_step, row.result.std_error,
                    row.result.threshold_hit_fraction,
                    row.mean_diff_vs_first, row.se_diff_vs_first) == (
                float(per_step.mean()), std_error(per_step), hit,
                float(diff.mean()), std_error(diff))


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

    def test_rejects_no_configs(self):
        with pytest.raises(ValueError, match="need at least one config"):
            compare_strategies([])

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

    @pytest.mark.parametrize("k", range(11))
    def test_targets_on_a_reachable_log_wealth(self, k):
        # Q is the log-wealth after k up-steps, so it sits on a histogram
        # bin: the hit count and the exact tail must count that bin alike
        f, walk = 0.2, WalkSpec(10, 0.6)
        q = k * math.log1p(f) + (10 - k) * math.log1p(-f)
        config = SimConfig(walk, f, 2000, 42, threshold=q)
        result = run(config)
        empirical, exact, z = threshold_z(config, result)
        below = math.floor(threshold_steps(f, walk, q))
        assert empirical == sum(result.up_step_histogram[:below + 1]) / 2000
        assert abs(z) < 4.0

    def test_flat_stake_hits_every_target_from_zero_up(self):
        walk = WalkSpec(10, 0.6)
        for q, hit in ((0.0, 1.0), (5e-324, 1.0), (-5e-324, 0.0)):
            assert run(SimConfig(walk, 0.0, 50, 3, q)).threshold_hit_fraction == hit

    def test_target_whose_step_count_overflows_is_refused_naming_q(self):
        config = SimConfig(WalkSpec(10, 0.6), 1e-300, 10, 1, threshold=1e300)
        with pytest.raises(ValueError, match=re.escape("Q (log-wealth target)")):
            run(config)

    def test_threshold_z_reuses_a_run(self):
        config = SimConfig(WalkSpec(12, 0.6), 0.2, 3000, 5, threshold=0.0)
        assert threshold_z(config, run(config)) == threshold_validation(config)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            threshold_validation(SimConfig(WalkSpec(10, 0.6), 0.2, 100, 1))

    def test_requires_a_fraction_inside_0_1(self):
        config = SimConfig(WalkSpec(10, 0.6), 0.0, 100, 1, threshold=0.0)
        with pytest.raises(ValueError, match=re.escape("needs f in (0, 1)")):
            threshold_validation(config)
