"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is one list of at least 110 distinct operations, each with its
own seeded inputs; a run goes over the whole list in passes.  The mixes
are sized so that the median and the 90th percentile of operation time
each fall inside a group of operations of about the same cost, not on the
edge between two groups, and so that at least ten operations lie beyond
the 90th percentile.

All inputs are made from the workload seed before timing starts.  An
operation's ``run(tracer)`` makes the calls into kellymarket, each inside
a span named after the layer it enters; its ``check(result, oracle)``
returns the problems found in the output.
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kellymarket import clearing, growth, kelly, montecarlo

import checks
from checks import Raised

ROOT = Path(__file__).resolve().parent.parent

# What a fresh interpreter runs to measure set-up time: the import and a
# first call that warms the path the workload uses.
SETUP = {
    "sim_short": "import kellymarket as km; km.threshold_validation("
                 "km.SimConfig(km.WalkSpec(10, 0.6), 0.2, 200, 1, 0.0))",
    "market_clearing": "import kellymarket as km; km.clearing_price("
                       "km.MarketPopulation(tuple(km.Investor(1.0 + i, (i + 0.5) / 10)"
                       " for i in range(10))))",
    "cli_session": "import sys; from kellymarket.cli import main; "
                   "sys.exit(main(['fraction', '--q', '0.7', '--p', '0.6']))",
}
SETUP["long_horizon"] = SETUP["sim_short"]


def warm(name):
    """Make the set-up call once in this process (for the CLI, once as a
    subprocess), so that the first timed operation finds it done."""
    if name == "cli_session":
        subprocess.run([sys.executable, "-c", SETUP[name]], cwd=ROOT, env=cli_env(),
                       stdout=subprocess.DEVNULL, timeout=120, check=True)
    else:
        exec(SETUP[name], {})


@dataclass
class Op:
    id: str
    run: object          # run(tracer) -> result
    check: object        # check(result, oracle) -> list of problems
    defect: str = ""     # the known defect this operation exposes
    kind: str = ""       # set from the workload template


def cli_env():
    return dict(os.environ, PYTHONPATH="src")


def _ops(rng, template, prefix, repeat=1):
    """The operation list: ``repeat`` times the ``template``, which lists
    (count, kind, maker(rng, id))."""
    ops = []
    for r in range(repeat):
        for count, kind, maker in template:
            for _ in range(count):
                op = maker(rng, f"{prefix}{r}.{len(ops)}.{kind}")
                op.kind = kind
                ops.append(op)
    return ops


def _r(x, digits=4):
    return round(float(x), digits)


def _walk(rng, n_lo, n_hi):
    return int(rng.integers(n_lo, n_hi + 1)), _r(rng.uniform(0.55, 0.65))


def _tail_k(rng, n, p, z_lo, z_hi):
    """An up-step count z standard deviations below the mean, z drawn in
    [z_lo, z_hi], so tails stay in the lower region the bounds cover."""
    z = rng.uniform(z_lo, z_hi)
    return max(1, math.floor(n * p - z * math.sqrt(n * p * (1.0 - p))))


def log_wealth_target(n, f, k):
    """Log-wealth target whose up-step threshold is k + 1/2: the exact tail
    and the simulated hit test can then never disagree on a boundary."""
    up, down = math.log1p(f), math.log1p(-f)
    return n * down + (k + 0.5) * (up - down)


def _sim(tr, cfg, fn=montecarlo.run):
    n = cfg.walk.steps
    with tr.span(f"montecarlo.{fn.__name__}", paths=cfg.paths, flips=cfg.paths * n):
        return fn(cfg)


# --------------------------------------------------------------------------
# Monte Carlo and growth operations
# --------------------------------------------------------------------------

def _mc_inputs(rng, n_lo, n_hi, paths):
    n, p = _walk(rng, n_lo, n_hi)
    f = _r(rng.uniform(0.05, 0.5))
    q_target = log_wealth_target(n, f, _tail_k(rng, n, p, 0.0, 1.0))
    seed = int(rng.integers(0, 2 ** 63))
    return n, p, f, q_target, montecarlo.SimConfig(
        growth.WalkSpec(n, p), f, paths, seed, q_target)


def threshold_op(n_lo, n_hi, paths):
    def make(rng, op_id):
        n, p, f, q_target, cfg = _mc_inputs(rng, n_lo, n_hi, paths)
        return Op(op_id, lambda tr: _sim(tr, cfg, montecarlo.threshold_validation),
                  lambda res, oracle: checks.check_threshold(res, n, p, f, paths,
                                                            q_target, oracle))
    return make


def run_op(n_lo, n_hi, paths):
    def make(rng, op_id):
        n, p, f, q_target, cfg = _mc_inputs(rng, n_lo, n_hi, paths)
        return Op(op_id, lambda tr: _sim(tr, cfg),
                  lambda res, oracle: checks.check_sim(res, n, p, f, paths,
                                                      q_target, oracle))
    return make


def compare_op(n_lo, n_hi, paths):
    def make(rng, op_id):
        n, p, f, q_target, cfg = _mc_inputs(rng, n_lo, n_hi, paths)
        count = int(rng.integers(3, 6))
        fractions = sorted({f, *(_r(x) for x in rng.uniform(0.02, 0.6, count - 1))})
        configs = [montecarlo.SimConfig(cfg.walk, x, paths, cfg.seed, q_target)
                   for x in fractions]

        def run(tr):
            with tr.span("montecarlo.compare_strategies", paths=paths,
                         flips=paths * n):
                return montecarlo.compare_strategies(configs)
        return Op(op_id, run,
                  lambda res, oracle: checks.check_comparison(
                      res, n, p, fractions, paths, q_target, oracle))
    return make


def golden_op(rng, op_id):
    g = checks.GOLDEN
    cfg = montecarlo.SimConfig(growth.WalkSpec(g["N"], g["p"]), g["f"],
                               g["paths"], g["seed"], g["Q"])
    return Op(op_id, lambda tr: (_sim(tr, cfg, montecarlo.threshold_validation),
                                     _sim(tr, cfg)),
              lambda res, oracle: checks.check_golden(res, oracle))


def bounds_op(n_lo, n_hi):
    def make(rng, op_id):
        n, p = _walk(rng, n_lo, n_hi)
        k = _tail_k(rng, n, p, 0.5, 2.5)
        spec = growth.WalkSpec(n, p)

        def run(tr):
            with tr.span("growth.binomial_cdf", terms=k + 1):
                exact = growth.binomial_cdf(spec, k)
            with tr.span("growth.chernoff_upper"):
                upper = growth.chernoff_upper(spec, k)
            with tr.span("growth.chernoff_lower"):
                lower = growth.chernoff_lower(spec, k)
            with tr.span("growth.rate_per_step", terms=k + 1):
                rate = growth.rate_per_step(spec, k)
            return {"exact_cdf": exact, "upper": upper, "lower": lower,
                    "rate_per_step": rate}
        return Op(op_id, run,
                  lambda res, oracle: checks.check_bounds(res, n, p, k, oracle))
    return make


def prob_below_op(n_lo, n_hi):
    def make(rng, op_id):
        n, p = _walk(rng, n_lo, n_hi)
        f = _r(rng.uniform(0.05, 0.5))
        k = _tail_k(rng, n, p, 0.5, 2.5)
        q_target = log_wealth_target(n, f, k)
        spec = growth.WalkSpec(n, p)

        def run(tr):
            with tr.span("growth.prob_growth_below", terms=k + 1):
                return growth.prob_growth_below(f, spec, q_target)
        return Op(op_id, run,
                  lambda res, oracle: checks.check_prob_below(res, f, n, p,
                                                             q_target, oracle))
    return make


def sim_short(rng, workdir):
    """Short walks, many paths: per-path stream set-up dominates."""
    return _ops(rng, [
        (36, "tv250", threshold_op(10, 60, 250)),    # these two hold the median
        (36, "cmp250", compare_op(10, 60, 250)),
        (10, "tv500", threshold_op(10, 60, 500)),
        (10, "cmp500", compare_op(10, 60, 500)),
        (7, "tv1k", threshold_op(10, 60, 1000)),     # these two hold the 90th
        (7, "cmp1k", compare_op(10, 60, 1000)),      # percentile
        (1, "golden", golden_op),
        (1, "tv2k", threshold_op(10, 60, 2000)),
        (1, "cmp2k", compare_op(10, 60, 2000)),
        (1, "tv5k", threshold_op(10, 60, 5000)),
        (1, "tv10k", threshold_op(10, 60, 10000)),
        (1, "tv20k", threshold_op(10, 60, 20000)),
    ], "s")


def long_horizon(rng, workdir):
    """Long walks and large-N exact tails: flips and pmf terms dominate."""
    return _ops(rng, [
        (12, "bounds1e3", bounds_op(1000, 3000)),
        (10, "below1e3", prob_below_op(1000, 3000)),
        (52, "run5k", run_op(5000, 5500, 200)),      # holds the median
        (10, "tv5k", threshold_op(5000, 5500, 200)),
        (6, "below1e4", prob_below_op(9000, 10000)),
        (6, "bounds1e4", bounds_op(9000, 10000)),
        (14, "tv10k", threshold_op(9000, 10000, 400)),  # holds the 90th percentile
        (1, "below3e4", prob_below_op(30000, 30000)),
        (1, "bounds3e4", bounds_op(30000, 30000)),
    ], "l")


# --------------------------------------------------------------------------
# market clearing
# --------------------------------------------------------------------------

MIXES = ("uniform", "cluster", "extreme")


def population_arrays(rng, n, mix):
    """Heavy-tailed capital (Pareto, index 1.5, at least 1) and beliefs
    that are uniform, clustered tightly around a centre, or uniform with a
    tenth of the bettors certain (belief exactly 0 or 1)."""
    capitals = rng.pareto(1.5, n) + 1.0
    if mix == "uniform":
        beliefs = rng.uniform(0.0, 1.0, n)
    elif mix == "cluster":
        beliefs = np.clip(rng.normal(rng.uniform(0.3, 0.7), 0.02, n), 0.0, 1.0)
    else:
        beliefs = rng.uniform(0.05, 0.95, n)
        certain = rng.random(n) < 0.1
        beliefs[certain] = rng.integers(0, 2, certain.sum())
        capitals[certain] = rng.uniform(1.0, 2.0, certain.sum())
    return capitals, beliefs


def degenerate_arrays(rng, n, kind):
    """Populations with no interior clearing price: every belief at the same
    end, or every belief at 0 or 1 with unequal capital on the two sides."""
    capitals = rng.pareto(1.5, n) + 1.0
    if kind == "same_end":
        beliefs = np.full(n, float(rng.integers(0, 2)))
    else:
        beliefs = rng.integers(0, 2, n).astype(float)
        beliefs[0], beliefs[1] = 0.0, 1.0
    return capitals, beliefs


def to_population(capitals, beliefs):
    return clearing.MarketPopulation(tuple(
        clearing.Investor(float(c), float(q)) for c, q in zip(capitals, beliefs)))


class _Pool:
    """A few seeded populations per size, shared by the operations, so
    that the large ones are built and held only once."""

    SIZES = {100: 12, 300: 24, 1000: 24, 3000: 1, 10000: 1, 100000: 1}

    def __init__(self, rng):
        self.rng = rng
        self.entries = {}
        for n, count in self.SIZES.items():
            self.entries[n] = []
            for i in range(count):
                arrays = population_arrays(rng, n, MIXES[i % len(MIXES)])
                self.entries[n].append((to_population(*arrays), *arrays))

    def pick(self, n):
        entries = self.entries[n]
        return entries[int(self.rng.integers(len(entries)))]


def residual_tol(capitals):
    # Exposures scale with capital, so the residual tolerance does too:
    # 1e-12 of the market's capital.
    return 1e-12 * math.fsum(capitals)


def solve_op(pool, n):
    def make(rng, op_id):
        pop, capitals, beliefs = pool.pick(n)
        tol = residual_tol(capitals)

        def run(tr):
            with tr.span("clearing.clearing_price", investors=n):
                return clearing.clearing_price(pop, tol=tol)
        return Op(op_id, run,
                  lambda res, oracle: checks.check_clearing(res, capitals, beliefs,
                                                           tol, oracle))
    return make


def degenerate_op(kind):
    def make(rng, op_id):
        capitals, beliefs = degenerate_arrays(rng, 1000, kind)
        pop = to_population(capitals, beliefs)
        tol = residual_tol(capitals)

        def run(tr):
            with tr.span("clearing.clearing_price", investors=1000):
                return clearing.clearing_price(pop, tol=tol)
        return Op(op_id, run,
                  lambda res, oracle: checks.check_clearing(res, capitals, beliefs,
                                                           tol, oracle))
    return make


CURVE_PRICES = tuple(float(x) for x in np.linspace(0.02, 0.98, 50))


def curve_op(pool, n):
    def make(rng, op_id):
        pop, capitals, beliefs = pool.pick(n)

        def run(tr):
            with tr.span("clearing.aggregate_exposure", calls=len(CURVE_PRICES),
                         investors=n * len(CURVE_PRICES)):
                return [clearing.aggregate_exposure(pop, x) for x in CURVE_PRICES]
        return Op(op_id, run,
                  lambda res, oracle: checks.check_curve(res, capitals, beliefs,
                                                        CURVE_PRICES))
    return make


def stats_op(pool, n):
    def make(rng, op_id):
        pop, capitals, beliefs = pool.pick(n)
        factor = _r(rng.uniform(0.5, 4.0))

        def run(tr):
            with tr.span("clearing.mean_belief", investors=n):
                mean = clearing.mean_belief(pop)
            with tr.span("clearing.scaled", investors=n):
                scaled = pop.scaled(factor)
            with tr.span("clearing.mean_belief", investors=n, calls=2):
                return mean, clearing.mean_belief(scaled), scaled.total_capital
        return Op(op_id, run,
                  lambda res, oracle: checks.check_population_stats(
                      res, capitals, beliefs, factor))
    return make


def market_clearing(rng, workdir):
    """Clearing and demand curves over populations of 10^2 to 10^5."""
    pool = _Pool(rng)
    return _ops(rng, [
        (1, "same_end", degenerate_op("same_end")),
        (1, "imbalance", degenerate_op("imbalance")),
        (4, "stats1e3", stats_op(pool, 1000)),
        (8, "solve1e2", solve_op(pool, 100)),
        (4, "curve1e2", curve_op(pool, 100)),
        (56, "solve3e2", solve_op(pool, 300)),      # holds the median
        (8, "curve3e2", curve_op(pool, 300)),
        (2, "stats1e4", stats_op(pool, 10000)),
        (24, "solve1e3", solve_op(pool, 1000)),     # holds the 90th percentile
        (1, "curve1e3", curve_op(pool, 1000)),
        (1, "solve3e3", solve_op(pool, 3000)),
        (1, "solve1e4", solve_op(pool, 10000)),
        (1, "stats1e5", stats_op(pool, 100000)),
    ], "m")


# --------------------------------------------------------------------------
# CLI session
# --------------------------------------------------------------------------
# Each CLI operation carries the records the library gives for the same
# input (computed at check time) and, for inputs the CLI may reject, the
# exit code and a pattern the error line must match.

def _arg(x):
    return repr(x) if isinstance(x, float) else str(x)


def _record_fraction(q, p, alpha=1.0):
    if alpha == 1.0:
        f = kelly.optimal_fraction(q, p)
        utility = kelly.log_utility(q, p, f)
    else:
        f = kelly.optimal_fraction_alpha(q, p, alpha)
        utility = kelly.log_utility_alpha(q, p, f, alpha)
    return {"q": q, "p": p, "alpha": alpha, "fraction": f,
            "utility_at_fraction": utility}


def _record_bounds(N, p, k):
    spec = growth.WalkSpec(N, p)
    return {"N": N, "p": p, "k": k, "exact_cdf": growth.binomial_cdf(spec, k),
            "upper": growth.chernoff_upper(spec, k),
            "lower": growth.chernoff_lower(spec, k) if k >= 1 else None,
            "kl": growth.kl_divergence(k / N, p),
            "rate_per_step": growth.rate_per_step(spec, k)}


def _record_kq(f, N, Q):
    return {"f": f, "N": N, "Q": Q,
            "k_q": growth.threshold_steps(f, growth.WalkSpec(N, 0.5), Q)}


def _record_growth(p, f):
    return {"p": p, "f": f, "growth_rate": kelly.even_odds_growth_rate(p, f)}


def _record_sensitivity(mode, p, eps, N=None, k=None):
    if mode == "bias":
        exact, first = growth.sensitivity_bias(k, growth.WalkSpec(N, p), eps)
        return {"mode": mode, "N": N, "k": k, "p": p, "eps": eps,
                "exact": exact, "first_order": first}
    exact, quadratic = growth.sensitivity_fraction(p, eps)
    alt = growth.stated_quadratic_coefficient(p)
    return {"mode": mode, "p": p, "eps": eps, "exact": exact,
            "quadratic": quadratic,
            "quadratic_coefficient": -1.0 / (8.0 * p * (1.0 - p)),
            "alt_quadratic_coefficient": alt, "alt_quadratic": alt * eps * eps}


def _record_simulate(N, p, f, paths, seed, Q):
    cfg = montecarlo.SimConfig(growth.WalkSpec(N, p), f, paths, seed, Q)
    sim = montecarlo.run(cfg)
    exact = growth.prob_growth_below(f, cfg.walk, Q)
    hit = sim.threshold_hit_fraction
    return {"N": N, "p": p, "f": f, "Q": Q, "paths": paths, "seed": seed,
            "mean_log_growth_per_step": sim.mean_log_growth_per_step,
            "std_error": sim.std_error,
            "analytic_growth_rate": kelly.even_odds_growth_rate(p, f),
            "threshold_hit_fraction": hit, "exact_prob_below": exact,
            "z_score": (hit - exact) / math.sqrt(exact * (1.0 - exact) / paths)}


def _record_clear(capitals, beliefs):
    result = clearing.clearing_price(to_population(capitals, beliefs))
    return {"price": result.price, "mean_belief": result.mean_belief,
            "gap": result.gap, "residual": result.residual,
            "exposures": list(result.exposures)}


_SWEEP_BUILDERS = {"fraction": _record_fraction, "bounds": _record_bounds,
                   "kq": _record_kq, "growth": _record_growth,
                   "sensitivity": _record_sensitivity}


def _record_sweep(command, variable, start, stop, step, fixed):
    """The documented sweep grid: start, start + step, ... up to stop."""
    records = []
    for i in range(int(round((stop - start) / step)) + 1):
        value = start + i * step
        if value > stop + 1e-12 * max(1.0, abs(stop)):
            break
        params = dict(fixed)
        params[variable] = int(round(value)) if variable in ("N", "k") else value
        records.append(_SWEEP_BUILDERS[command](**params))
    return records


def _library(build, *args, **kwargs):
    """The records the library gives, or what it raised."""
    try:
        out = build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any failure is the expectation
        return Raised(type(exc).__name__, str(exc))
    return out if isinstance(out, list) else [out]


def _cli_call(tr, argv):
    with tr.span("cli.subprocess") as span:
        proc = subprocess.run(
            [sys.executable, "-m", "kellymarket.cli", *argv], cwd=ROOT,
            env=cli_env(), capture_output=True, text=True, timeout=120)
    if span is not None:
        span[5]["nonzero_exits"] = int(proc.returncode != 0)
    return proc.returncode, proc.stdout, proc.stderr


def cli_op(op_id, argv, expected, errors=None, defect=""):
    """``expected`` is a thunk giving the library's records."""
    return Op(op_id, lambda tr: _cli_call(tr, argv),
              lambda res, oracle: checks.check_cli(res, expected(), errors or {}),
              defect)


class _Files:
    """Input files for the CLI, written before timing starts."""

    def __init__(self, workdir):
        self.dir = workdir
        self.count = 0

    def write(self, text, suffix):
        self.count += 1
        path = self.dir / f"in{self.count}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))

    def population(self, capitals, beliefs, as_json=False):
        if as_json:
            return self.write(json.dumps([
                {"capital": float(c), "belief": float(q)}
                for c, q in zip(capitals, beliefs)]), ".json")
        rows = "".join(f"{float(c)!r},{float(q)!r}\n" for c, q in zip(capitals, beliefs))
        return self.write("capital,belief\n" + rows, ".csv")


def _cli_fraction(rng, op_id, alpha=False):
    p = _r(rng.uniform(0.2, 0.8))
    q = _r(rng.uniform(p, 0.99) if alpha else rng.uniform(0.01, 0.99))
    a = _r(rng.uniform(0.5, 1.5)) if alpha else 1.0
    argv = ["fraction", "--q", _arg(q), "--p", _arg(p)]
    if alpha:
        argv += ["--alpha", _arg(a)]
    return cli_op(op_id, argv, lambda: _library(_record_fraction, q, p, a))


def _cli_bounds(rng, op_id):
    N, p = _walk(rng, 10, 2000)
    k = _tail_k(rng, N, p, 0.0, 2.0)
    return cli_op(op_id, ["bounds", "--N", _arg(N), "--p", _arg(p), "--k", _arg(k)],
                  lambda: _library(_record_bounds, N, p, k))


def _cli_kq(rng, op_id):
    f, N, Q = _r(rng.uniform(0.05, 0.9)), int(rng.integers(5, 500)), _r(rng.uniform(-3, 3))
    return cli_op(op_id, ["kq", "--f", _arg(f), "--N", _arg(N), "--Q", _arg(Q)],
                  lambda: _library(_record_kq, f, N, Q))


def _cli_sensitivity(rng, op_id, mode):
    N, p = _walk(rng, 10, 500)
    if mode == "bias":
        k, eps = int(rng.integers(0, N + 1)), _r(rng.uniform(-0.05, 0.05))
        argv = ["sensitivity", "--mode", "bias", "--N", _arg(N), "--k", _arg(k),
                "--p", _arg(p), "--eps", _arg(eps)]
        return cli_op(op_id, argv, lambda: _library(
            _record_sensitivity, "bias", p, eps, N=N, k=k))
    eps = _r(rng.uniform(-0.1, 0.1))
    argv = ["sensitivity", "--mode", "fraction", "--p", _arg(p), "--eps", _arg(eps)]
    return cli_op(op_id, argv, lambda: _library(_record_sensitivity, "fraction", p, eps))


def _simulate_argv(N, p, f, paths, seed, Q):
    return ["simulate", "--N", _arg(N), "--p", _arg(p), "--f", _arg(f),
            "--Q", Q, "--paths", _arg(paths), "--seed", _arg(seed)]


# Enough paths that a simulation costs about twice a bare start-up: the
# simulations (and the golden runs) then hold the 90th percentile well
# apart from the start-up-bound commands.
SIMULATE_PATHS = 4000


def _cli_simulate(rng, op_id):
    N, p = _walk(rng, 10, 60)
    f = _r(rng.uniform(0.05, 0.5))
    Q = log_wealth_target(N, f, _tail_k(rng, N, p, 0.0, 1.0))
    seed = int(rng.integers(0, 2 ** 63))
    return cli_op(op_id, _simulate_argv(N, p, f, SIMULATE_PATHS, seed, _arg(Q)),
                  lambda: _library(_record_simulate, N, p, f, SIMULATE_PATHS, seed, Q))


def _cli_golden(rng, op_id):
    g = checks.GOLDEN
    argv = _simulate_argv(g["N"], g["p"], g["f"], g["paths"], g["seed"], "0")
    return Op(op_id, lambda tr: _cli_call(tr, argv),
              lambda res, oracle: checks.check_golden_line(res))


def _cli_sweep(rng, op_id, files, command):
    p = _r(rng.uniform(0.4, 0.6))
    if command == "fraction":
        spec = ("q", 0.6, 0.95, 0.05, {"p": p})
    elif command == "bounds":
        N = int(rng.integers(20, 200))
        spec = ("k", 1, int(N * p), 1, {"N": N, "p": p})
    elif command == "kq":
        spec = ("N", 10, 100, 10, {"f": _r(rng.uniform(0.1, 0.6)), "Q": _r(rng.uniform(-2, 2))})
    elif command == "growth":
        spec = ("f", 0.0, 0.8, 0.1, {"p": p})
    else:
        spec = ("eps", 0.01, 0.1, 0.01, {"mode": "fraction", "p": p})
    variable, start, stop, step, fixed = spec
    path = files.write(json.dumps({"command": command, "variable": variable,
                                   "range": [start, stop, step], "fixed": fixed}),
                       ".json")
    return cli_op(op_id, ["--json", "sweep", path], lambda: _library(
        _record_sweep, command, variable, start, stop, step, fixed))


def _cli_clear(rng, op_id, files, n, mix, as_json):
    capitals, beliefs = population_arrays(rng, n, mix)
    path = files.population(capitals, beliefs, as_json)
    return cli_op(op_id, ["clear", path], lambda: _library(_record_clear, capitals, beliefs))


def _rejected(what):
    return lambda: Raised("rejected", what)


def _cli_edge(rng, op_id, files, which):
    """Inputs the CLI must reject with an error naming the input, or with
    exit 3 when a valid population has no interior clearing price."""
    if which == 0:
        path = str((files.dir / "absent.csv").relative_to(ROOT))
        return cli_op(op_id, ["clear", path], _rejected("missing file"),
                      {2: re.escape(path)})
    if which == 1:
        path = files.write("cap,bel\n1.0,0.5\n", ".csv")
        return cli_op(op_id, ["clear", path], _rejected("bad header"),
                      {2: re.escape(path)})
    if which in (2, 3):
        bad = "1.5" if which == 2 else "nan"
        path = files.write(f"capital,belief\n2.0,0.4\n1.0,{bad}\n", ".csv")
        return cli_op(op_id, ["clear", path], _rejected(f"belief {bad}"),
                      {2: r"\bbelief\b"})
    if which in (4, 5):
        capitals, beliefs = degenerate_arrays(
            rng, 50, "same_end" if which == 4 else "imbalance")
        path = files.population(capitals, beliefs)
        return cli_op(op_id, ["clear", path],
                      lambda: _library(_record_clear, capitals, beliefs), {3: "."})
    if which == 6:
        N, p = _walk(rng, 10, 100)
        k = int(N * p) + 1
        return cli_op(op_id, ["bounds", "--N", _arg(N), "--p", _arg(p), "--k", _arg(k)],
                      lambda: _library(_record_bounds, N, p, k), {2: r"\bk\b"})
    q = _r(rng.uniform(0.1, 0.9))
    return cli_op(op_id, ["fraction", "--q", _arg(q), "--p", "1.0"],
                  lambda: _library(_record_fraction, q, 1.0), {2: r"\bp\b"})


EDGE_KINDS = 8


def _cli_kq_inf(rng, op_id):
    f, N = _r(rng.uniform(0.1, 0.9)), int(rng.integers(5, 500))
    return cli_op(op_id, ["kq", "--f", _arg(f), "--N", _arg(N), "--Q", "inf"],
                  lambda: _library(_record_kq, f, N, math.inf), {2: r"\bQ\b"},
                  defect="kq --Q inf prints the non-JSON token inf")


def _cli_simulate_nan(rng, op_id):
    N, p = _walk(rng, 10, 60)
    f, seed = _r(rng.uniform(0.05, 0.5)), int(rng.integers(0, 2 ** 63))
    return cli_op(op_id, _simulate_argv(N, p, f, 1000, seed, "nan"),
                  lambda: _library(_record_simulate, N, p, f, 1000, seed, math.nan),
                  {2: r"\bQ\b"},
                  defect="simulate --Q nan exits 2 with a message that does not name Q")


def _cli_bad_json(rng, op_id, files):
    path = files.write('[{"capital": 1.0, "belief": 0.5},\n', ".json")
    return cli_op(op_id, ["clear", path], _rejected("malformed JSON"),
                  {2: re.escape(path)},
                  defect="clear on malformed JSON exits 2 without naming the file")


def cli_session(rng, workdir):
    """All seven subcommands as subprocesses, one at a time.  Each block
    of 28 also holds one rejected input of a random kind and the three
    inputs the CLI is known to mishandle; these stay in every block so
    that their failures show in every run."""
    files = _Files(workdir)
    sweeps = ("fraction", "bounds", "kq", "growth", "sensitivity")
    return _ops(rng, [
        (3, "fraction", _cli_fraction),
        (1, "fraction_alpha", lambda r, i: _cli_fraction(r, i, alpha=True)),
        (1, "clear_csv", lambda r, i: _cli_clear(r, i, files, 200, "uniform", False)),
        (1, "clear_cluster", lambda r, i: _cli_clear(r, i, files, 150, "cluster", False)),
        (1, "clear_json", lambda r, i: _cli_clear(r, i, files, 250, "extreme", True)),
        (3, "bounds", _cli_bounds),
        (3, "kq", _cli_kq),
        (2, "sensitivity_bias", lambda r, i: _cli_sensitivity(r, i, "bias")),
        (1, "sensitivity_fraction", lambda r, i: _cli_sensitivity(r, i, "fraction")),
        (3, "sweep", lambda r, i: _cli_sweep(
            r, i, files, sweeps[int(r.integers(len(sweeps)))])),
        (1, "golden", _cli_golden),
        (4, "simulate", _cli_simulate),          # these hold the 90th percentile
        (1, "edge", lambda r, i: _cli_edge(r, i, files, int(r.integers(EDGE_KINDS)))),
        (1, "kq_inf", _cli_kq_inf),
        (1, "simulate_nan", _cli_simulate_nan),
        (1, "bad_json", lambda r, i: _cli_bad_json(r, i, files)),
    ], "c", repeat=4)


BUILDERS = {"sim_short": sim_short, "long_horizon": long_horizon,
            "market_clearing": market_clearing, "cli_session": cli_session}


def build(name, seed, workdir):
    return BUILDERS[name](np.random.default_rng(seed), workdir)
