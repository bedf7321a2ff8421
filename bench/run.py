"""kellymarket benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sim_short --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src``.
The load is one client in a closed loop: each operation starts when the
previous one has returned.  The run goes over the workload's seeded list
of operations in whole passes, each pass in a fresh seeded order, until
``--seconds`` have passed (to within half a pass), then checks every
output.

Times are reported at a fixed machine speed.  A shared virtual machine
can change speed by up to 1.9x in spells of a tenth of a second to
minutes (bench/README.md), more than any bound a regression check could
use.  So the run is
held on one CPU, with every interpreter it starts, and every timed call,
operation or set-up, is bracketed by a reference kernel that does not use
kellymarket (about a millisecond of numpy and pure Python), and the
call's time is scaled by KERNEL_S over the kernel's mean time on the two
sides: a reported time is what the call took while the machine ran the
kernel in KERNEL_S.  A change to kellymarket moves the scaled times as it
moves the raw ones; the raw figures go on the line before the result.
An operation's time is the median of its scaled executions.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs passes untraced, then as many
passes with spans around every call into kellymarket, runs the layer
probes (raw best-of-a-few times), writes the spans under ``.bench_out/``
and reports the per-layer metrics.  Provenance goes on the line before
the result.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from checks import Oracle, Raised
from spans import OFF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
KERNEL_S = 1e-3        # reported times are at the speed where kernel_s() takes this
TRACED_SHARE = 0.4     # of --seconds, for the untraced half of a traced run
HOLDOUT_SEED = 8191    # never run while the workloads were tuned


def kernel_s():
    """Seconds of one run of the reference kernel: numpy and pure Python,
    no kellymarket."""
    t0 = time.perf_counter()
    for i in range(20):
        numpy.random.Generator(numpy.random.Philox(i)).random(500).sum()
        sum(j * j for j in range(200))
    return time.perf_counter() - t0


class Clock:
    """Times calls, and scales each time to the machine speed at which the
    reference kernel takes KERNEL_S.  The kernel runs just before and just
    after each call; the mean of the two stands for the machine's speed
    during the call."""

    def __init__(self):
        kernel_s()     # the first run pays numpy's one-time set-up
        self.refs = []

    def time(self, fn):
        """Call ``fn``; return its result, its raw seconds and its scaled
        seconds."""
        before = kernel_s()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        speed = 0.5 * (before + kernel_s())
        self.refs.append(speed)
        return result, raw, raw * KERNEL_S / speed


def measure_setup(code, env, clock):
    """Median scaled and raw wall time of a fresh interpreter running
    ``code``."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        _, seconds, at_ref = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, timeout=120, check=True))
        scaled.append(at_ref)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


class Ledger:
    """Each operation's first output, kept on disk for checking after the
    timed loop, and a digest of it; every later run of the operation must
    give the same digest.  Keeping outputs on disk stops the memory of a
    run from growing with its length, and checking after the loop keeps
    the oracles' work from disturbing the timed operations."""

    def __init__(self, spool_path):
        self.spool = open(spool_path, "w+b")
        self.entries = {}    # op id -> [op, digest, executions, changed]

    def add(self, op, result):
        data = pickle.dumps(result)
        digest = hashlib.sha256(data).digest()
        entry = self.entries.get(op.id)
        if entry is None:
            self.spool.write(data)
            self.entries[op.id] = [op, digest, 1, False]
        else:
            entry[2] += 1
            entry[3] = entry[3] or digest != entry[1]

    def check(self, oracle):
        """Check every first output; return the failed executions and the
        failing operations grouped by kind.  A failing operation counts as
        failed on every execution."""
        self.spool.seek(0)
        failed, kinds = 0, {}
        for op, _, count, changed in self.entries.values():
            problems = op.check(pickle.load(self.spool), oracle)
            if changed:
                problems.append("output changed between executions")
            if problems:
                failed += count
                kind = kinds.setdefault(op.kind, {
                    "kind": op.kind, "known_defect": op.defect or None, "ops": 0,
                    "executions": 0, "example": {"op": op.id, "problems": problems[:3]}})
                kind["ops"] += 1
                kind["executions"] += count
        self.spool.close()
        return failed, list(kinds.values())


def run_passes(ops, order, clock, tracer, ledger, more):
    """Run whole passes over ``ops``, each in an order drawn from the
    generator ``order``, while ``more(passes done, seconds elapsed)``.
    Return each operation's median scaled and median raw time, the number
    of executions and the number of passes."""
    scaled, raw = {}, {}
    executions, done = 0, 0
    start = time.perf_counter()
    while more(done, time.perf_counter() - start):
        for i in order.permutation(len(ops)):
            op = ops[i]
            tracer.op = op.id
            result, seconds, at_ref = clock.time(lambda: _execute(op, tracer))
            scaled.setdefault(op.id, []).append(at_ref)
            raw.setdefault(op.id, []).append(seconds)
            executions += 1
            ledger.add(op, result)
        done += 1
    return ([statistics.median(t) for t in scaled.values()],
            [statistics.median(t) for t in raw.values()], executions, done)


def _execute(op, tracer):
    with tracer.span("op"):
        try:
            return op.run(tracer)
        except Exception as exc:  # noqa: BLE001 - recorded and checked
            return Raised(type(exc).__name__, str(exc))


def within(seconds):
    """Start another pass while it would end, at the mean pass time,
    no more than half a pass after ``seconds``."""
    return lambda done, elapsed: done == 0 or elapsed + 0.5 * elapsed / done < seconds


def ops_per_s(times):
    return len(times) / math.fsum(times)


def provenance(seed, workload, trace, seconds):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    return {"workload": workload, "seed": seed, "holdout_seed": HOLDOUT_SEED,
            "trace": trace, "seconds": seconds, "git_sha": sha,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg()}


def timing(times):
    return {"ops_per_s": ops_per_s(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3}


def untraced(args, ops, order, clock, ledger):
    """The end-to-end metrics, except setup_s and pass_rate, and the raw
    timings."""
    times, raw, executions, _ = run_passes(ops, order, clock, OFF, ledger,
                                           within(args.seconds))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_session" \
        else resource.RUSAGE_SELF
    metrics = timing(times)
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    return times, executions, metrics, timing(raw)


def traced(args, ops, order, clock, ledger, oracle, workdir, cpus):
    """The per-layer metrics: passes untraced, then as many traced, then
    the layer probes on all of ``cpus`` (the thread-pool probe needs two);
    the spans are written under .bench_out/."""
    import probes   # imports kellymarket, so only once src is on the path
    plain, _, plain_runs, passes = run_passes(
        ops, order, clock, OFF, ledger, within(TRACED_SHARE * args.seconds))
    tracer = Tracer()
    spanned, _, spanned_runs, _ = run_passes(ops, order, clock, tracer, ledger,
                                             lambda done, elapsed: done < passes)
    overhead = ops_per_s(spanned) / ops_per_s(plain)
    failed, failures = ledger.check(oracle)
    os.sched_setaffinity(0, cpus)
    metrics = probes.run_all(tracer, oracle, workdir)
    metrics.update(per_layer(tracer, oracle.peaks, overhead))
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.jsonl")
    return plain, plain_runs + spanned_runs, failed, failures, metrics


def per_layer(tracer, peaks, overhead):
    totals = tracer.layer_totals()
    metrics = {}
    for layer in ("montecarlo", "clearing", "growth", "kelly", "cli"):
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
        metrics[f"{layer}.busy_s"] = totals[layer]["busy_s"]
    metrics["montecarlo.paths_per_s"] = \
        totals["montecarlo"]["paths"] / totals["montecarlo"]["busy_s"]
    metrics["clearing.investors_per_s"] = \
        totals["clearing"]["investors"] / totals["clearing"]["busy_s"]
    metrics["cli.nonzero_exits"] = totals["cli"]["nonzero_exits"]
    for key in ("montecarlo.max_abs_z", "clearing.no_interior",
                "clearing.max_abs_residual", "growth.max_rel_err"):
        metrics[key] = peaks.get(key, 0.0)
    metrics["trace.ops_per_s_ratio"] = overhead
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kellymarket" / "__init__.py").is_file():
        print(f"error: no kellymarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    info = provenance(args.seed, args.workload, args.trace, args.seconds)
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    # One CPU for the whole run, and so for every interpreter it starts:
    # the reference kernel then runs where the timed calls run.  The
    # CPUs of a shared host slow down independently of each other.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    clock = Clock()
    raw = {}
    if not args.trace:
        setup_s, raw["setup_s"] = measure_setup(
            workloads.SETUP[args.workload], workloads.cli_env(), clock)
    ops = workloads.build(args.workload, args.seed, workdir)
    order = numpy.random.default_rng([args.seed, 1])
    workloads.warm(args.workload)

    ledger = Ledger(workdir / "outputs.pickle")
    with Oracle() as oracle:
        if args.trace:
            times, executions, failed, failures, metrics = traced(
                args, ops, order, clock, ledger, oracle, workdir, cpus)
        else:
            times, executions, metrics, raw_timing = untraced(
                args, ops, order, clock, ledger)
            raw.update(raw_timing)
            failed, failures = ledger.check(oracle)
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["pass_rate"] = 1.0 - failed / executions
    names = [(m["name"], m["unit"])
             for m in spec["per_layer" if args.trace else "end_to_end"]]

    info["loadavg_after"] = os.getloadavg()
    info["reference_ms"] = statistics.median(clock.refs) * 1e3
    p90 = statistics.quantiles(times, n=10)[-1]
    details = {"operations": len(times), "executions": executions,
               "beyond_p90": sum(t > p90 for t in times), "raw": raw,
               "failures": failures}
    print(json.dumps({"provenance": info, "details": details}))
    print(json.dumps({
        "correct": all(f["known_defect"] for f in failures),
        "attempted": executions,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
