"""The benchmark's checkers must flag wrong outputs.

Each test feeds a checker a correct output, which must pass, and a
corrupted one, which must be flagged.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kellymarket import clearing, growth, montecarlo  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Raised  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    with checks.Oracle() as o:
        yield o


def _population(n=40, seed=3):
    capitals, beliefs = workloads.population_arrays(
        np.random.default_rng(seed), n, "uniform")
    return workloads.to_population(capitals, beliefs), capitals, beliefs


class TestClearing:
    def test_solution_passes_and_perturbed_price_fails(self, oracle):
        pop, capitals, beliefs = _population()
        tol = workloads.residual_tol(capitals)
        result = clearing.clearing_price(pop, tol=tol)
        assert checks.check_clearing(result, capitals, beliefs, tol, oracle) == []
        moved = result.__class__(price=result.price * (1 + 1e-6),
                                 exposures=result.exposures,
                                 mean_belief=result.mean_belief,
                                 gap=result.gap, residual=result.residual)
        assert checks.check_clearing(moved, capitals, beliefs, tol, oracle)

    def test_no_interior_only_for_degenerate_markets(self, oracle):
        _, capitals, beliefs = _population()
        raised = Raised("NoInteriorClearing", "no sign change")
        assert checks.check_clearing(raised, capitals, beliefs, 1e-9, oracle)
        capitals, beliefs = workloads.degenerate_arrays(
            np.random.default_rng(1), 30, "imbalance")
        assert checks.check_clearing(raised, capitals, beliefs, 1e-9, oracle) == []
        assert oracle.peaks["clearing.no_interior"] >= 1

    def test_demand_curve(self, oracle):
        pop, capitals, beliefs = _population()
        prices = workloads.CURVE_PRICES
        curve = [clearing.aggregate_exposure(pop, p) for p in prices]
        assert checks.check_curve(curve, capitals, beliefs, prices) == []
        curve[7] += 1e-3 * sum(capitals)
        assert checks.check_curve(curve, capitals, beliefs, prices)

    def test_population_stats(self, oracle):
        pop, capitals, beliefs = _population()
        scaled = pop.scaled(2.5)
        good = (clearing.mean_belief(pop), clearing.mean_belief(scaled),
                scaled.total_capital)
        assert checks.check_population_stats(good, capitals, beliefs, 2.5) == []
        assert checks.check_population_stats(
            (good[0], good[1] * 1.001, good[2]), capitals, beliefs, 2.5)


class TestGrowth:
    def test_logcdf_relative_error(self, oracle):
        spec = growth.WalkSpec(1000, 0.6)
        value = growth.log_binomial_cdf(spec, 560)
        fresh = checks.Oracle()
        assert checks.check_logcdf(value, 1000, 0.6, 560, fresh) == []
        assert fresh.peaks["growth.max_rel_err"] < 1e-12
        fresh.close()
        assert checks.check_logcdf(value * (1 + 1e-6), 1000, 0.6, 560, oracle)

    def test_bounds_must_sandwich_the_tail(self, oracle):
        spec, k = growth.WalkSpec(500, 0.6), 280
        good = {"exact_cdf": growth.binomial_cdf(spec, k),
                "upper": growth.chernoff_upper(spec, k),
                "lower": growth.chernoff_lower(spec, k),
                "rate_per_step": growth.rate_per_step(spec, k)}
        assert checks.check_bounds(good, 500, 0.6, k, oracle) == []
        assert checks.check_bounds(dict(good, upper=good["exact_cdf"] / 2),
                                   500, 0.6, k, oracle)
        assert checks.check_bounds(dict(good, exact_cdf=good["exact_cdf"] * 1.01),
                                   500, 0.6, k, oracle)

    def test_prob_below(self, oracle):
        n, p, f = 200, 0.6, 0.3
        target = workloads.log_wealth_target(n, f, 110)
        value = growth.prob_growth_below(f, growth.WalkSpec(n, p), target)
        assert checks.check_prob_below(value, f, n, p, target, oracle) == []
        assert checks.check_prob_below(value * 1.0001, f, n, p, target, oracle)


class TestMonteCarlo:
    def _config(self):
        n, p, f = 30, 0.6, 0.2
        target = workloads.log_wealth_target(n, f, 16)
        cfg = montecarlo.SimConfig(growth.WalkSpec(n, p), f, 2000, 5, target)
        return cfg, (n, p, f, 2000, target)

    def test_threshold_z_of_ten_is_flagged(self, oracle):
        cfg, args = self._config()
        empirical, exact, z = montecarlo.threshold_validation(cfg)
        assert checks.check_threshold((empirical, exact, z), *args, oracle) == []
        se = math.sqrt(exact * (1 - exact) / cfg.paths)
        far = exact + 10 * se
        far = round(far * cfg.paths) / cfg.paths
        assert checks.check_threshold((far, exact, (far - exact) / se), *args, oracle)
        assert oracle.peaks["montecarlo.max_abs_z"] > 9

    def test_histogram_must_sum_to_paths(self, oracle):
        cfg, args = self._config()
        result = montecarlo.run(cfg)
        assert checks.check_sim(result, *args, oracle) == []
        hist = list(result.up_step_histogram)
        hist[3] += 1
        broken = result.__class__(result.mean_log_growth_per_step, result.std_error,
                                  result.threshold_hit_fraction, result.paths,
                                  tuple(hist))
        assert checks.check_sim(broken, *args, oracle)

    def test_hit_count_far_from_exact_is_flagged(self, oracle):
        cfg, args = self._config()
        result = montecarlo.run(cfg)
        moved = result.__class__(result.mean_log_growth_per_step, result.std_error,
                                 result.threshold_hit_fraction + 0.1, result.paths,
                                 result.up_step_histogram)
        assert checks.check_sim(moved, *args, oracle)

    def test_one_hit_in_a_tiny_tail_is_not_flagged(self, oracle):
        n, p, f = 60, 0.6, 0.1
        target = workloads.log_wealth_target(n, f, 15)
        cfg = montecarlo.SimConfig(growth.WalkSpec(n, p), f, 2000, 5, target)
        result = montecarlo.run(cfg)
        assert result.threshold_hit_fraction == 0.0
        one_hit = result.__class__(result.mean_log_growth_per_step, result.std_error,
                                   1 / 2000, result.paths, result.up_step_histogram)
        assert checks.check_sim(one_hit, n, p, f, 2000, target, oracle) == []

    def test_golden_digits(self, oracle):
        g = checks.GOLDEN
        cfg = montecarlo.SimConfig(growth.WalkSpec(g["N"], g["p"]), g["f"],
                                   g["paths"], g["seed"], g["Q"])
        tv, sim = montecarlo.threshold_validation(cfg), montecarlo.run(cfg)
        assert checks.check_golden((tv, sim), oracle) == []
        off = (tv[0] + 1 / g["paths"], tv[1], tv[2])
        assert checks.check_golden((off, sim), oracle)

    def test_comparison_rows_share_flips(self, oracle):
        cfg, (n, p, _, paths, target) = self._config()
        fractions = [0.1, 0.2, 0.3]
        configs = [montecarlo.SimConfig(cfg.walk, x, paths, cfg.seed, target)
                   for x in fractions]
        rows = montecarlo.compare_strategies(configs)
        assert checks.check_comparison(rows, n, p, fractions, paths, target, oracle) == []
        assert checks.check_comparison(rows[::-1], n, p, fractions, paths, target, oracle)


class TestCli:
    record = {"f": 0.5, "N": 10, "Q": 0.0, "k_q": 5.0}

    def test_matching_record_passes(self):
        line = json.dumps(self.record) + "\n"
        assert checks.check_cli((0, line, ""), [self.record], oracle) == []

    def test_non_json_line_is_flagged(self):
        line = '{"f": 0.5, "N": 10, "Q": inf, "k_q": inf}\n'
        assert checks.check_cli((0, line, ""), [self.record], {2: r"\bQ\b"})

    def test_nan_token_is_flagged(self):
        line = '{"f": 0.5, "N": 10, "Q": NaN, "k_q": NaN}\n'
        assert checks.check_cli((0, line, ""), [self.record], oracle)

    def test_wrong_value_is_flagged(self):
        line = json.dumps(dict(self.record, k_q=5.000001)) + "\n"
        assert checks.check_cli((0, line, ""), [self.record], oracle)

    def test_error_must_name_the_input(self):
        errors = {2: r"\bQ\b"}
        rejected = Raised("ValueError", "bad Q")
        named = (2, "", "error: Q must be finite, got nan\n")
        assert checks.check_cli(named, rejected, errors) == []
        opaque = (2, "", "error: cannot convert float NaN to integer\n")
        assert checks.check_cli(opaque, rejected, errors)
        assert checks.check_cli((3, "", "error: Q\n"), rejected, errors)

    def test_exit_zero_when_the_library_rejects(self):
        line = json.dumps(self.record) + "\n"
        assert checks.check_cli((0, line, ""), Raised("ValueError", "x"), oracle)

    def test_golden_line(self):
        assert checks.check_golden_line((0, checks.GOLDEN_LINE, "")) == []
        assert checks.check_golden_line(
            (0, checks.GOLDEN_LINE.replace("0.361", "0.362"), ""))


def test_self_time_excludes_child_spans():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("growth.call", terms=3):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tr.self_times()
    assert own[1] >= 0.02
    assert own[0] == pytest.approx(0.01, abs=0.008)
    totals = tr.layer_totals()
    assert totals["growth"]["calls"] == 1 and totals["growth"]["terms"] == 3
