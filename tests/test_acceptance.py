"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line (visible with ``pytest -s``
or on failure) and enforces its tolerance exactly as stated.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from kellymarket.clearing import (
    Investor,
    MarketPopulation,
    NoInteriorClearing,
    clearing_price,
    confident_no_capital,
    mean_belief,
    mean_belief_confident_no,
    mean_belief_confident_yes,
)
from kellymarket.growth import (
    WalkSpec,
    chernoff_lower,
    chernoff_upper,
    kl_divergence,
    rate_per_step,
    sensitivity_bias,
    sensitivity_fraction,
    threshold_steps,
)
from kellymarket.kelly import even_odds_growth_rate, optimal_fraction
from kellymarket.montecarlo import (
    SimConfig,
    compare_strategies,
    run,
    threshold_validation,
)

from oracles import exact_binomial_cdf, signed_utility


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_01_kelly_closed_form_matches_grid_search():
    t0 = time.time()
    qs = np.arange(0.01, 1.0, 0.01)
    ps = np.arange(0.01, 1.0, 0.01)
    coarse = np.arange(-1.0 + 1e-9, 1.0, 1e-3)
    worst = 0.0
    for q in qs:
        for p in ps:
            closed = optimal_fraction(q, p)
            best = coarse[int(np.argmax(signed_utility(q, p, coarse)))]
            fine = np.arange(max(-1.0 + 1e-9, best - 2e-3),
                             min(1.0 - 1e-9, best + 2e-3), 1e-6)
            best = fine[int(np.argmax(signed_utility(q, p, fine)))]
            worst = max(worst, abs(closed - best))
            assert abs(closed - best) < 1e-5
            # antisymmetry and the odds-ratio form of the same fraction
            assert abs(closed + optimal_fraction(1.0 - q, 1.0 - p)) < 1e-12
            if q >= p:
                big_q, big_p = q / (1.0 - q), p / (1.0 - p)
                assert abs(closed - (big_q - big_p) / (1.0 + big_q)) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("1 Kelly closed form", f"(max |closed-grid| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_two_investor_clearing():
    t0 = time.time()
    rng = np.random.default_rng(2026)

    # confident-no regime: Eq-style capital (1-p)/(q-p) clears exactly
    for _ in range(50):
        p = rng.uniform(0.05, 0.95)
        q = rng.uniform(p + 0.01, 1.0)
        capital = confident_no_capital(q, p)
        result = clearing_price(MarketPopulation(
            (Investor(capital, q), Investor(1.0, 0.0))
        ))
        assert abs(result.price - p) < 1e-9
        assert abs(result.mean_belief - mean_belief_confident_no(q, p)) < 1e-12

    # confident-yes regime: under the complement-contract convention the
    # offsetting capital is p/(p-q); the closed-form mean belief of the
    # odds-derived construction is the price itself
    for _ in range(50):
        p = rng.uniform(0.05, 0.95)
        q = rng.uniform(0.0, p - 0.01) if p > 0.02 else 0.0
        result = clearing_price(MarketPopulation(
            (Investor(p / (p - q), q), Investor(1.0, 1.0))
        ))
        assert abs(result.price - p) < 1e-9
        assert abs(mean_belief_confident_yes(q, p) - p) < 1e-12
        closed_capital = (1.0 - p) / (p - q)
        population = MarketPopulation(
            (Investor(closed_capital, q), Investor(1.0, 1.0))
        )
        assert abs(mean_belief(population) - p) < 1e-12

    # mean-belief range: for each p the sweep over q in (p, 1] spans
    # between p and 1/2, staying inside [0, 1/2] below even odds and
    # [1/2, 1] above it; the far endpoints 0 and 1 are approached as the
    # price itself approaches the boundary
    for p in (0.1, 0.3, 0.49, 0.51, 0.9):
        sweep = [mean_belief_confident_no(q, p)
                 for q in np.linspace(p + 1e-6, 1.0, 2000)]
        lo_lim, hi_lim = (0.0, 0.5) if p < 0.5 else (0.5, 1.0)
        if p == 0.5:
            lo_lim = hi_lim = 0.5
        assert all(lo_lim - 1e-12 <= v <= hi_lim + 1e-12 for v in sweep)
        assert abs(min(sweep) - min(p, 0.5)) < 1e-3
        assert abs(max(sweep) - max(p, 0.5)) < 1e-3
    assert abs(mean_belief_confident_no(1e-6 + 1e-9, 1e-6) - 0.0) < 1e-3
    assert abs(mean_belief_confident_no(1.0 - 1e-6 + 1e-9, 1.0 - 1e-6) - 1.0) < 1e-3

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("2 two-investor clearing", f"({elapsed:.1f}s)")


def test_criterion_03_capital_scale_invariance():
    t0 = time.time()
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        size = int(rng.integers(1, 51))
        capitals = rng.uniform(0.01, 100.0, size)
        beliefs = rng.uniform(0.01, 0.99, size)
        population = MarketPopulation(
            tuple(Investor(c, b) for c, b in zip(capitals, beliefs))
        )
        try:
            base = clearing_price(population)
        except NoInteriorClearing:
            continue
        for lam in (0.1, 7.0, 1000.0):
            scaled = clearing_price(population.scaled(lam))
            assert abs(scaled.price - base.price) < 1e-12
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("3 capital-scale invariance", f"({elapsed:.1f}s)")


def test_criterion_04_bound_sandwich_exhaustive():
    t0 = time.time()
    violations = 0
    for n in range(1, 31):
        spec_cache = {}
        for p in [round(0.1 * i, 1) for i in range(1, 10)]:
            spec = spec_cache.setdefault(p, WalkSpec(n, p))
            for k in range(0, int(math.floor(n * p)) + 1):
                exact = float(exact_binomial_cdf(n, p, k))
                upper = chernoff_upper(spec, k)
                if k >= 1:
                    lower = chernoff_lower(spec, k)
                else:
                    lower = math.exp(-n * kl_divergence(0.0, p)) / math.sqrt(2.0 * n)
                # the bounds are tight equalities at k = 0 and k = Np;
                # allow 1-ulp-scale rounding in the float evaluation
                if not lower * (1.0 - 1e-12) <= exact <= upper * (1.0 + 1e-12):
                    violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("4 bound sandwich", f"(0 violations, {elapsed:.1f}s)")


def test_criterion_05_rate_convergence():
    t0 = time.time()
    n, p, a = 10000, 0.6, 0.4
    rate = rate_per_step(WalkSpec(n, p), int(a * n))
    envelope = math.log(2.0 * n) / (2.0 * n)
    gap = abs(rate - kl_divergence(a, p))
    assert gap < envelope
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("5 rate convergence", f"(|rate-D| {gap:.2e} < {envelope:.2e}, {elapsed:.1f}s)")


def test_criterion_06_threshold_identity():
    rng = np.random.default_rng(6)
    done = 0
    while done < 1000:
        f = rng.uniform(0.01, 0.99)
        n = int(rng.integers(1, 1000))
        target = rng.uniform(n * math.log1p(-f), n * math.log1p(f))
        k_q = threshold_steps(f, WalkSpec(n, 0.5), target)
        if not 0.0 <= k_q <= n:
            continue
        realized = k_q * math.log1p(f) + (n - k_q) * math.log1p(-f)
        assert abs(realized - target) < 1e-10
        done += 1
    _report("6 threshold identity")


def test_criterion_07_sensitivity_orders():
    # bias: first-order error contracts ~4x under eps halving
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        n = int(rng.integers(5, 200))
        p = rng.uniform(0.1, 0.9)
        k = int(rng.integers(0, n + 1))
        if abs(k / n - p) < 0.02:   # coefficient vanishes near the mean
            continue
        eps = 0.002
        if not (0.01 < p + eps < 0.99 and 0.01 < p + eps / 2 < 0.99):
            continue
        spec = WalkSpec(n, p)
        e1, l1 = sensitivity_bias(k, spec, eps)
        e2, l2 = sensitivity_bias(k, spec, eps / 2.0)
        assert abs(e1 - l1) / abs(e2 - l2) >= 3.5
        count += 1

    # fraction: derived quadratic coefficient, pinned at p = 1/2
    exact, quadratic = sensitivity_fraction(0.5, 0.01)
    assert abs(exact - 0.5 * math.log(1.0 - 1e-4)) < 1e-15
    assert abs(exact - quadratic) < 1e-6
    # the doubled coefficient overstates the loss by a factor -> 2
    for eps in (0.01, 0.001):
        exact, _ = sensitivity_fraction(0.6, eps)
        doubled = -eps * eps / (4.0 * 0.6 * 0.4)
        ratio = doubled / exact
        assert abs(ratio - 2.0) < 0.1
    _report("7 sensitivity orders")


def test_criterion_08_monte_carlo_concordance():
    t0 = time.time()
    config = SimConfig(WalkSpec(50, 0.6), 0.2, 100000, 2024)
    result = run(config)
    analytic = even_odds_growth_rate(0.6, 0.2)
    assert abs(result.mean_log_growth_per_step - analytic) < 3.0 * result.std_error

    rng = np.random.default_rng(8)
    worst_z = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 25))
        p = rng.uniform(0.25, 0.75)
        f = rng.uniform(0.05, 0.5)
        k_pivot = rng.uniform(0.2 * n, 0.8 * n)
        target = k_pivot * math.log1p(f) + (n - k_pivot) * math.log1p(-f)
        config = SimConfig(WalkSpec(n, p), f, 10000,
                           int(rng.integers(0, 2 ** 32)), threshold=target)
        _, _, z = threshold_validation(config)
        worst_z = max(worst_z, abs(z))
        assert abs(z) < 4.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("8 Monte Carlo concordance", f"(worst |z| {worst_z:.2f}, {elapsed:.1f}s)")


def test_criterion_09_kelly_dominance():
    walk = WalkSpec(200, 0.6)
    f_star = 0.2
    configs = [SimConfig(walk, f, 100000, 909) for f in (f_star, 0.1, 0.3)]
    rows = compare_strategies(configs)
    for row in rows[1:]:
        z = row.mean_diff_vs_first / row.se_diff_vs_first
        assert row.mean_diff_vs_first < 0.0
        assert abs(z) > 3.0
    _report("9 Kelly dominance")


def test_criterion_10_cli_determinism():
    args = [sys.executable, "-m", "kellymarket.cli", "simulate",
            "--N", "12", "--p", "0.6", "--f", "0.2", "--Q", "0",
            "--paths", "5000", "--seed", "31415"]
    outputs = set()
    for workers in ("1", "2", "5"):
        for _ in range(2):
            proc = subprocess.run(args + ["--workers", workers],
                                  capture_output=True, check=True, timeout=120)
            outputs.add(proc.stdout)
    assert len(outputs) == 1
    record = json.loads(outputs.pop())
    assert record["seed"] == 31415
    _report("10 CLI determinism")
