"""Outside-in probes of each layer, run by the traced run.

Each probe times public kellymarket functions on fixed inputs, takes the
best of a few repeats (the least disturbed by other load on the machine),
and derives a per-layer figure from the times: a fit over the walk length for the
Monte Carlo engine, the solve-to-pass ratio for clearing, a log-log slope
over N for the binomial tail, and the start-up breakdown for the CLI.
Every call is made inside a span, so the probes' work also shows in the
layer totals of the trace.
"""

import contextlib
import io
import math
import subprocess
import sys
import time

import numpy as np

from kellymarket import cli, clearing, growth, kelly, montecarlo

import checks
from workloads import ROOT, cli_env, population_arrays, residual_tol, to_population


def _times(tr, name, fn, repeat, **counters):
    """Wall time of each of ``repeat`` calls of ``fn``, each in a span."""
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        with tr.span(name, **counters):
            fn()
        out.append(time.perf_counter() - t0)
    return out


def montecarlo_probe(tr, oracle):
    tr.op = "probe.montecarlo"
    paths, steps = 400, (1, 2500, 5000, 7500, 10000)
    per_path = []
    for n in steps:
        cfg = montecarlo.SimConfig(growth.WalkSpec(n, 0.6), 0.2, paths, 11)
        best = min(_times(tr, "montecarlo.run", lambda: montecarlo.run(cfg), 3,
                          paths=paths, flips=paths * n))
        per_path.append(best / paths)
    ns_per_flip, s_per_path = np.polyfit(steps, per_path, 1)

    cfg = montecarlo.SimConfig(growth.WalkSpec(50, 0.6), 0.2, 3000, 12)
    one, two = [], []
    for _ in range(3):
        one += _times(tr, "montecarlo.run", lambda: montecarlo.run(cfg, workers=1), 1,
                      paths=3000, flips=3000 * 50)
        two += _times(tr, "montecarlo.run", lambda: montecarlo.run(cfg, workers=2), 1,
                      paths=3000, flips=3000 * 50)

    g = checks.GOLDEN
    golden = montecarlo.SimConfig(growth.WalkSpec(g["N"], g["p"]), g["f"],
                                  g["paths"], g["seed"], g["Q"])
    with tr.span("montecarlo.threshold_validation", paths=g["paths"],
                 flips=g["paths"] * g["N"]):
        _, _, z = montecarlo.threshold_validation(golden)
    oracle.peak("montecarlo.max_abs_z", abs(z))
    return {"montecarlo.us_per_path": s_per_path * 1e6,
            "montecarlo.ns_per_flip": ns_per_flip * 1e9,
            "montecarlo.workers2_ratio": min(two) / min(one)}


def clearing_probe(tr, oracle):
    tr.op = "probe.clearing"
    n = 3000
    capitals, beliefs = population_arrays(np.random.default_rng(2024), n, "uniform")
    pop, tol = to_population(capitals, beliefs), residual_tol(capitals)
    one_pass = min(_times(tr, "clearing.aggregate_exposure",
                          lambda: clearing.aggregate_exposure(pop, 0.5), 5, investors=n))
    results = []
    solve = min(_times(tr, "clearing.clearing_price",
                       lambda: results.append(clearing.clearing_price(pop, tol=tol)), 3,
                       investors=n))
    oracle.peak("clearing.max_abs_residual", abs(results[0].residual))
    return {"clearing.exposure_ns_per_investor": one_pass / n * 1e9,
            "clearing.passes_per_solve": solve / one_pass}


def growth_probe(tr, oracle):
    tr.op = "probe.growth"
    p, sizes, seconds, terms = 0.6, (1000, 3000, 10000, 30000, 100000), [], {}
    for n in sizes:
        spec = growth.WalkSpec(n, p)
        k = math.floor(n * p - 2.0 * math.sqrt(n * p * (1.0 - p)))
        values = []
        seconds.append(min(_times(
            tr, "growth.log_binomial_cdf",
            lambda: values.append(growth.log_binomial_cdf(spec, k)),
            5 if n <= 10000 else 1, terms=k + 1)))
        terms[n] = k + 1
        checks.check_logcdf(values[0], n, p, k, oracle)
    slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
    return {"growth.cdf_ns_per_term": seconds[sizes.index(10000)] / terms[10000] * 1e9,
            "growth.cdf_scaling_exponent": slope}


def kelly_probe(tr):
    tr.op = "probe.kelly"
    rng = np.random.default_rng(7)
    qs = rng.uniform(0.0, 1.0, 10000).tolist()
    ps = rng.uniform(0.01, 0.99, 10000).tolist()

    def batch():
        for q, p in zip(qs, ps):
            kelly.log_utility(q, p, kelly.optimal_fraction(q, p))
    calls = 2 * len(qs)
    best = min(_times(tr, "kelly.batch", batch, 3, calls=calls))
    return {"kelly.ns_per_call": best / calls * 1e9}


def _spawn(code):
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def _inproc(tr, argv, repeat=3):
    """Best milliseconds of ``cli.main(argv)`` in this process."""
    times = []
    for _ in range(repeat):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with tr.span("cli.main") as span, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        times.append(time.perf_counter() - t0)
        if span is not None:
            span[5]["nonzero_exits"] = int(code != 0)
    return min(times) * 1e3


IMPORT_TIMER = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")


def cli_probe(tr, workdir):
    tr.op = "probe.cli"
    start = min(_times(tr, "cli.startup", lambda: _spawn("pass"), 3))
    imports = {}
    for module in ("numpy", "kellymarket.cli"):
        got = []
        _times(tr, "cli.startup",
               lambda: got.append(float(_spawn(IMPORT_TIMER.format(module)).stdout)), 3)
        imports[module] = min(got)

    rng = np.random.default_rng(99)
    pop = workdir / "probe_population.csv"
    pop.write_text("capital,belief\n" + "".join(
        f"{float(c)!r},{float(q)!r}\n"
        for c, q in zip(*population_arrays(rng, 200, "uniform"))))
    sweep = workdir / "probe_sweep.json"
    sweep.write_text('{"command": "fraction", "variable": "q", '
                     '"range": [0.55, 0.95, 0.05], "fixed": {"p": 0.5}}')
    simulate = ["simulate", "--N", "50", "--p", "0.6", "--f", "0.2", "--Q", "0",
                "--paths", "2000", "--seed", "7"]
    argvs = {
        "fraction": ["fraction", "--q", "0.7", "--p", "0.6"],
        "clear": ["clear", str(pop)],
        "bounds": ["bounds", "--N", "1000", "--p", "0.6", "--k", "550"],
        "kq": ["kq", "--f", "0.5", "--N", "100", "--Q", "1.0"],
        "sensitivity": ["sensitivity", "--mode", "bias", "--N", "100", "--k", "40",
                        "--p", "0.6", "--eps", "0.01"],
        "simulate": simulate,
        "sweep": ["--json", "sweep", str(sweep)],
    }
    metrics = {f"cli.inproc_ms.{name}": _inproc(tr, argv) for name, argv in argvs.items()}

    cfg = montecarlo.SimConfig(growth.WalkSpec(50, 0.6), 0.2, 2000, 7, 0.0)
    validation = min(_times(
        tr, "montecarlo.threshold_validation",
        lambda: montecarlo.threshold_validation(cfg), 3, paths=2000, flips=2000 * 50))
    metrics.update({
        "cli.python_start_ms": start * 1e3,
        "cli.numpy_import_ms": imports["numpy"] * 1e3,
        "cli.import_ms": imports["kellymarket.cli"] * 1e3,
        "cli.simulate_mc_passes": metrics["cli.inproc_ms.simulate"] / (validation * 1e3),
    })
    return metrics


def run_all(tr, oracle, workdir):
    metrics = {}
    metrics.update(montecarlo_probe(tr, oracle))
    metrics.update(clearing_probe(tr, oracle))
    metrics.update(growth_probe(tr, oracle))
    metrics.update(kelly_probe(tr))
    metrics.update(cli_probe(tr, workdir))
    return metrics
