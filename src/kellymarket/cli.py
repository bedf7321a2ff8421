"""Command-line front end.

Subcommands: fraction, clear, bounds, kq, sensitivity, simulate, sweep.
Records are printed as JSON (15 significant digits) or, with --csv, as a
one-row CSV table (9 significant digits, plot-bound).  Every command is a
pure function of its arguments: identical invocations give byte-identical
output, and randomized commands require an explicit --seed.

Exit codes: 0 success, 2 bad input or precondition violation, 3 no
interior clearing price exists.
"""

import argparse
import csv
import io
import json
import sys

from . import clearing, growth, kelly, montecarlo

EXIT_BAD_INPUT = 2
EXIT_NO_SOLUTION = 3

_JSON_DIGITS = 15
_CSV_DIGITS = 9


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(value, digits):
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return format(value, f".{digits}g")
    if isinstance(value, (list, tuple)):
        return [_fmt(v, digits) for v in value]
    return value


def _json_token(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(_json_token(v) for v in value) + "]"
    if isinstance(value, str):
        return value if _is_number(value) else json.dumps(value)
    return json.dumps(value)


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _emit_json(record, out):
    parts = ", ".join(
        f"{json.dumps(k)}: {_json_token(v)}"
        for k, v in _fmt_record(record, _JSON_DIGITS).items()
    )
    out.write("{" + parts + "}\n")


def _fmt_record(record, digits):
    return {k: _fmt(v, digits) for k, v in record.items()}


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _emit_csv(records, out):
    records = list(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0].keys())
    for rec in records:
        writer.writerow(
            [_csv_cell(v) for v in _fmt_record(rec, _CSV_DIGITS).values()]
        )
    out.write(buf.getvalue())


def _emit(records, args, out):
    records = records if isinstance(records, list) else [records]
    if args.csv:
        _emit_csv(records, out)
    else:
        for rec in records:
            _emit_json(rec, out)


# ---------------------------------------------------------------------------
# record builders (shared between subcommands and sweep)
# ---------------------------------------------------------------------------

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
    lower = growth.chernoff_lower(spec, k) if k >= 1 else None
    return {
        "N": spec.steps,
        "p": p,
        "k": int(k),
        "exact_cdf": growth.binomial_cdf(spec, k),
        "upper": growth.chernoff_upper(spec, k),
        "lower": lower,
        "kl": growth.kl_divergence(k / spec.steps, p),
        "rate_per_step": growth.rate_per_step(spec, k),
    }


def _record_kq(f, N, Q):
    spec = growth.WalkSpec(N, 0.5)  # bias unused by the threshold formula
    return {"f": f, "N": spec.steps, "Q": Q,
            "k_q": growth.threshold_steps(f, spec, Q)}


def _record_growth(p, f):
    return {"p": p, "f": f, "growth_rate": kelly.even_odds_growth_rate(p, f)}


def _record_sensitivity(mode, N=None, k=None, p=None, eps=None):
    if mode == "bias":
        if N is None or k is None:
            raise ValueError("bias mode needs --N and --k")
        spec = growth.WalkSpec(N, p)
        exact, first_order = growth.sensitivity_bias(k, spec, eps)
        return {"mode": mode, "N": spec.steps, "k": int(k), "p": p, "eps": eps,
                "exact": exact, "first_order": first_order}
    if mode == "fraction":
        exact, quadratic = growth.sensitivity_fraction(p, eps)
        coeff = -1.0 / (8.0 * p * (1.0 - p))
        alt_coeff = growth.stated_quadratic_coefficient(p)
        return {"mode": mode, "p": p, "eps": eps, "exact": exact,
                "quadratic": quadratic, "quadratic_coefficient": coeff,
                "alt_quadratic_coefficient": alt_coeff,
                "alt_quadratic": alt_coeff * eps * eps}
    raise ValueError(f"unknown sensitivity mode {mode!r}")


def _record_simulate(N, p, f, paths, seed, Q=None, workers=1):
    config = montecarlo.SimConfig(
        walk=growth.WalkSpec(N, p), fraction=f, paths=paths, seed=seed,
        threshold=Q,
    )
    result = montecarlo.run(config, workers)
    exact = z = None
    if Q is not None and 0.0 < f < 1.0:
        _, exact, z = montecarlo.threshold_z(config, result)
    return {"N": int(N), "p": p, "f": f, "Q": Q, "paths": int(paths),
            "seed": int(seed),
            "mean_log_growth_per_step": result.mean_log_growth_per_step,
            "std_error": result.std_error,
            "analytic_growth_rate": kelly.even_odds_growth_rate(p, f),
            "threshold_hit_fraction": result.threshold_hit_fraction,
            "exact_prob_below": exact,
            "z_score": z}


# ---------------------------------------------------------------------------
# population files
# ---------------------------------------------------------------------------

def load_population(path):
    """Read investors from a CSV (header ``capital,belief``) or a JSON
    array of ``{"capital": r, "belief": r}`` objects.

    Every problem with the contents is a ``ValueError`` that names the
    file and, for a bad record, its row (the first record is row 1).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    else:
        rows = csv.DictReader(io.StringIO(text))
        if rows.fieldnames is None or \
                {"capital", "belief"} - set(rows.fieldnames):
            raise ValueError(
                f"{path}: expected CSV header 'capital,belief', "
                f"got {rows.fieldnames}"
            )
    investors = [_investor(path, row, record)
                 for row, record in enumerate(rows, start=1)]
    try:
        return clearing.MarketPopulation(tuple(investors))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _investor(path, row, record):
    values = []
    for key in ("capital", "belief"):
        try:
            value = record[key]
        except (KeyError, TypeError):
            raise ValueError(f"{path}: row {row}: no {key!r} field") from None
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: row {row}: {key} is not a number: {value!r}"
            ) from None
    try:
        return clearing.Investor(*values)
    except ValueError as exc:
        raise ValueError(f"{path}: row {row}: {exc}") from None


def _record_clear(population_file, tol):
    pop = load_population(population_file)
    result = clearing.clearing_price(pop, tol=tol)
    return {
        "price": result.price,
        "mean_belief": result.mean_belief,
        "gap": result.gap,
        "residual": result.residual,
        "exposures": list(result.exposures),
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COMMANDS = {
    "fraction": _record_fraction,
    "bounds": _record_bounds,
    "kq": _record_kq,
    "growth": _record_growth,
    "sensitivity": _record_sensitivity,
}

_INT_PARAMS = {"N", "k"}


def sweep_records(spec):
    """Evaluate one record per grid point of a sweep description
    ``{"command", "variable", "range": [start, stop, step], "fixed"}``."""
    command = spec["command"]
    if command not in _SWEEP_COMMANDS:
        raise ValueError(
            f"unknown sweep command {command!r}; "
            f"choose from {sorted(_SWEEP_COMMANDS)}"
        )
    builder = _SWEEP_COMMANDS[command]
    variable = spec["variable"]
    start, stop, step = (float(x) for x in spec["range"])
    if step <= 0 or start > stop:
        raise ValueError(f"bad range [start, stop, step] = {spec['range']}")
    fixed = dict(spec.get("fixed", {}))
    count = int(round((stop - start) / step)) + 1
    records = []
    for i in range(count):
        value = start + i * step
        if value > stop + 1e-12 * max(1.0, abs(stop)):
            break
        params = dict(fixed)
        params[variable] = int(round(value)) if variable in _INT_PARAMS else value
        records.append(builder(**params))
    return records


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="kellymarket",
        description="Kelly fractions, market clearing, and growth bounds "
                    "for all-or-nothing betting contracts.",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit JSON records (default)")
    fmt.add_argument("--csv", action="store_true",
                     help="emit CSV instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fraction = sub.add_parser("fraction", help="optimal bet fraction")
    p_fraction.add_argument("--q", type=float, required=True)
    p_fraction.add_argument("--p", type=float, required=True)
    p_fraction.add_argument("--alpha", type=float, default=1.0)

    p_clear = sub.add_parser("clear", help="solve the market-clearing price")
    p_clear.add_argument("population_file")
    p_clear.add_argument("--tol", type=float, default=1e-9)

    p_bounds = sub.add_parser("bounds", help="binomial tail and its bounds")
    p_bounds.add_argument("--N", type=int, required=True)
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--k", type=int, required=True)

    p_kq = sub.add_parser("kq", help="up-steps needed to hit a log-wealth target")
    p_kq.add_argument("--f", type=float, required=True)
    p_kq.add_argument("--N", type=int, required=True)
    p_kq.add_argument("--Q", type=float, required=True)

    p_sens = sub.add_parser("sensitivity", help="misestimation penalties")
    p_sens.add_argument("--mode", choices=("bias", "fraction"), required=True)
    p_sens.add_argument("--N", type=int)
    p_sens.add_argument("--k", type=int)
    p_sens.add_argument("--p", type=float, required=True)
    p_sens.add_argument("--eps", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo double-or-nothing run")
    p_sim.add_argument("--N", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--f", type=float, required=True)
    p_sim.add_argument("--Q", type=float, default=None)
    p_sim.add_argument("--paths", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="CSV table over a parameter grid")
    p_sweep.add_argument("sweep_file")

    return parser


def _dispatch(args, out):
    if args.command == "fraction":
        _emit(_record_fraction(args.q, args.p, args.alpha), args, out)
    elif args.command == "clear":
        _emit(_record_clear(args.population_file, args.tol), args, out)
    elif args.command == "bounds":
        _emit(_record_bounds(args.N, args.p, args.k), args, out)
    elif args.command == "kq":
        _emit(_record_kq(args.f, args.N, args.Q), args, out)
    elif args.command == "sensitivity":
        _emit(
            _record_sensitivity(args.mode, N=args.N, k=args.k,
                                p=args.p, eps=args.eps),
            args, out,
        )
    elif args.command == "simulate":
        _emit(
            _record_simulate(args.N, args.p, args.f, args.paths, args.seed,
                             Q=args.Q, workers=args.workers),
            args, out,
        )
    elif args.command == "sweep":
        with open(args.sweep_file, encoding="utf-8") as fh:
            spec = json.load(fh)
        records = sweep_records(spec)
        if args.json:
            _emit(records, args, out)
        else:
            _emit_csv(records, out)  # sweeps default to CSV: they feed plots


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args, sys.stdout)
    except clearing.NoInteriorClearing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return 0


if __name__ == "__main__":
    sys.exit(main())
