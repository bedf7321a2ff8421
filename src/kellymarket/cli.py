"""Command-line front end.

Subcommands: fraction, clear, bounds, kq, sensitivity, simulate, sweep;
:data:`COMMANDS` holds each one's record builder and help, and a
builder's keyword-only parameters, annotated with their types, are the
command's options.
An option is read only under its full name, as the usage line prints it,
and as a sweep file must name it: no abbreviation stands for one.  A
number, on the command line or in a file, is ASCII with no ``_`` or padding.
Records print as JSON (15 significant digits) or, with --csv, as a CSV
table (9 significant digits, plot-bound); sweeps print CSV unless --json
is given.  Identical invocations give byte-identical output; randomized
commands require an explicit --seed.  ``clear`` accepts a residual of
--tol dollars, by default 1e-9 of the market's total capital; a sweep
grid holds at most :data:`SWEEP_MAX_POINTS` points.

Exit codes: 0 success, 2 bad input or precondition violation, 3 no
interior clearing price exists.  A failure prints one ``error:`` line to
stderr and nothing to stdout, naming the population or sweep file at
fault, whatever keeps it from being read (bytes that are not UTF-8, JSON
nested past the recursion limit, a CSV line the csv module refuses), and
the row or grid point (each counted from 1); a record holding a
non-finite number is refused naming its field and, in a sweep, its grid
point.  A JSON boolean in a file, a range entry too, is not a number,
though Python counts it as 1 or 0.  Population and sweep files may begin
with a UTF-8 byte-order mark.

Start-up loads only what a command uses: each record builder imports its
library module when it runs, so ``fraction`` and the ``fraction`` and
``growth`` sweeps load ``kelly`` alone; ``bounds``, ``kq`` and
``sensitivity`` load ``growth``; ``clear`` loads ``clearing``; and
``simulate`` loads ``montecarlo``.  Only ``clear`` and ``simulate``
import ``dataclasses``, and ``csv`` is imported only to write ``--csv``
output or to read a CSV population.
"""
import argparse
import collections
import functools
import io
import json
import math
import re
import sys

from ._validation import as_float, plain

EXIT_BAD_INPUT = 2
EXIT_NO_SOLUTION = 3

SWEEP_MAX_POINTS = 10_000


def _check_finite(key, value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} is not finite: {value!r}")


def _token(key, value, as_csv):
    """One JSON token, or one CSV cell (lists joined by ';')."""
    if isinstance(value, float):
        _check_finite(key, value)
        return format(value, ".9g" if as_csv else ".15g")
    if isinstance(value, (list, tuple)):
        tokens = [_token(key, v, as_csv) for v in value]
        return ";".join(tokens) if as_csv else "[" + ", ".join(tokens) + "]"
    if as_csv:
        return "" if value is None else str(value)
    return json.dumps(value)


def _format(records, as_csv):
    """One JSON object per record and line, or one CSV table."""
    if not as_csv:
        return "".join(
            "{" + ", ".join(f"{json.dumps(k)}: {_token(k, v, False)}"
                            for k, v in rec.items()) + "}\n"
            for rec in records
        )
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows([_token(k, v, True) for k, v in rec.items()]
                     for rec in records)
    return buf.getvalue()


def _record_fraction(*, q: float, p: float, alpha: float = 1.0):
    from . import kelly
    if alpha == 1.0 and alpha is not True:  # True == 1.0; the alpha path refuses it
        f = kelly.optimal_fraction(q, p)
        utility = kelly.log_utility(q, p, f)
    else:
        f = kelly.optimal_fraction_alpha(q, p, alpha)
        utility = kelly.log_utility_alpha(q, p, f, alpha)
    return {"q": q, "p": p, "alpha": alpha, "fraction": f,
            "utility_at_fraction": utility}


def _record_bounds(*, N: int, p: float, k: int):
    from . import growth
    spec = growth.WalkSpec(N, p)
    upper = growth.chernoff_upper(spec, k)  # k an integer in [0, N p] from here
    lower = growth.chernoff_lower(spec, k) if k >= 1 else None
    log_cdf = growth.log_binomial_cdf(spec, k)
    return {"N": spec.steps, "p": p, "k": int(k),
            "exact_cdf": math.exp(log_cdf), "upper": upper, "lower": lower,
            "kl": growth.kl_divergence(k / spec.steps, p),
            "rate_per_step": -log_cdf / spec.steps}


def _record_kq(*, f: float, N: int, Q: float):
    from . import growth
    spec = growth.WalkSpec(N, 0.5)  # bias unused by the threshold formula
    return {"f": f, "N": spec.steps, "Q": Q,
            "k_q": growth.threshold_steps(f, spec, Q)}


def _record_growth(*, p: float, f: float):
    from . import kelly
    return {"p": p, "f": f, "growth_rate": kelly.even_odds_growth_rate(p, f)}


def _record_sensitivity(*, mode: ("bias", "fraction"), N: int = None,
                        k: int = None, p: float, eps: float):
    from . import growth
    if mode == "bias":
        if N is None or k is None:
            raise ValueError("bias mode needs --N and --k")
        spec = growth.WalkSpec(N, p)
        exact, first_order = growth.sensitivity_bias(k, spec, eps)
        return {"mode": mode, "N": spec.steps, "k": int(k), "p": p, "eps": eps,
                "exact": exact, "first_order": first_order}
    if mode == "fraction":
        exact, quadratic = growth.sensitivity_fraction(p, eps)
        alt_coeff = growth.stated_quadratic_coefficient(p)
        return {"mode": mode, "p": p, "eps": eps, "exact": exact,
                "quadratic": quadratic, "quadratic_coefficient": alt_coeff / 2,
                "alt_quadratic_coefficient": alt_coeff,
                "alt_quadratic": alt_coeff * eps * eps}
    raise ValueError(f"unknown sensitivity mode {mode!r}")


def _record_simulate(*, N: int, p: float, f: float, Q: float = None,
                     paths: int, seed: int, workers: int = 1):
    # --workers still parses, for scripts that pass it; it has no effect
    from . import growth, kelly, montecarlo
    config = montecarlo.SimConfig(
        walk=growth.WalkSpec(N, p), fraction=f, paths=paths, seed=seed,
        threshold=Q,
    )
    result = montecarlo.run(config)
    exact = z = None
    if Q is not None and 0.0 < f < 1.0:
        _, exact, z = montecarlo.threshold_z(config, result)
    return {"N": config.walk.steps, "p": p, "f": f, "Q": Q,
            "paths": config.paths, "seed": config.seed,
            "mean_log_growth_per_step": result.mean_log_growth_per_step,
            "std_error": result.std_error,
            "analytic_growth_rate": kelly.even_odds_growth_rate(p, f),
            "threshold_hit_fraction": result.threshold_hit_fraction,
            "exact_prob_below": exact,
            "z_score": z}


def _record_clear(*, population_file: str, tol: float = None):
    from . import clearing
    pop = load_population(population_file)
    result = clearing.clearing_price(pop, tol=tol)
    return {"price": result.price, "mean_belief": result.mean_belief,
            "gap": result.gap, "residual": result.residual,
            "exposures": list(result.exposures)}


def _int_or_inf(token):
    """A JSON integer; one past Python's digit limit for ``int`` reads as
    the infinity it overflows to, as ``1e5000`` does, so that the
    parameter's own check refuses it by name."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _record_sweep(*, sweep_file: str):
    with open(sweep_file, encoding="utf-8-sig") as fh:
        try:
            spec = json.load(fh, parse_int=_int_or_inf)
            points = _sweep_points(spec)
        # invalid JSON included, and nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{sweep_file}: {exc}") from None
    variable, records = spec["variable"], []
    for i, point in enumerate(points, start=1):  # counted as population rows are
        try:
            records.append(point())
            for key, value in records[-1].items():  # sweep records hold no lists
                _check_finite(key, value)
        except ValueError as exc:
            raise ValueError(f"{sweep_file}: point {i} ({variable} = "
                             f"{point.keywords[variable]}): {exc}") from None
    return records


Command = collections.namedtuple("Command", "build help sweep")

# A builder's keyword-only parameters are its command's options, in the
# order usage lines show them, each annotated with its type: a str option
# is a positional file name and a tuple lists a string's choices.  An
# option is required unless the builder gives it a default.  ``sweep``
# marks sweep targets; a command without help is a sweep target only.
COMMANDS = {
    "fraction": Command(_record_fraction, "optimal bet fraction", True),
    "clear": Command(_record_clear, "solve the market-clearing price", False),
    "bounds": Command(_record_bounds, "binomial tail and its bounds", True),
    "kq": Command(_record_kq, "up-steps needed to hit a log-wealth target",
                  True),
    "sensitivity": Command(_record_sensitivity, "misestimation penalties",
                           True),
    "simulate": Command(_record_simulate, "Monte Carlo double-or-nothing run",
                        False),
    "sweep": Command(_record_sweep, "CSV table over a parameter grid", False),
    "growth": Command(_record_growth, None, True),
}


def load_population(path):
    """Read investors from a CSV (header ``capital,belief``) or a JSON
    array of ``{"capital": r, "belief": r}`` objects, with or without a
    UTF-8 byte-order mark.

    Every problem with the contents is a ``ValueError`` that names the
    file and, for a bad record, its row (the first record is row 1).
    """
    from . import clearing
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except ValueError as exc:  # not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    unreadable_row = ValueError
    if text.lstrip().startswith("["):
        try:
            rows = json.loads(text)
        # an integer past the digit limit, or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    else:
        import csv
        rows = csv.DictReader(io.StringIO(text))
        # csv refuses a field past its size limit, and before 3.11 a NUL
        unreadable_row = csv.Error
        try:
            header = rows.fieldnames
        except csv.Error as exc:
            raise ValueError(f"{path}: header: {exc}") from None
        if header is None or {"capital", "belief"} - set(header):
            raise ValueError(
                f"{path}: expected CSV header 'capital,belief', got {header}")
    investors = []
    try:
        for record in rows:
            investors.append(clearing.Investor(_number(record, "capital"),
                                               _number(record, "belief")))
    except (ValueError, unreadable_row) as exc:  # rows counted from 1
        raise ValueError(f"{path}: row {len(investors) + 1}: {exc}") from None
    try:
        return clearing.MarketPopulation(investors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _number(record, key):
    try:
        value = record[key]
    except (KeyError, TypeError):
        raise ValueError(f"no {key!r} field") from None
    return as_float(value, key)


def _sweep_points(spec):
    """The records of a sweep description ``{"command", "variable",
    "range": [start, stop, step], "fixed"}``, one unevaluated call each; a
    malformed one is a ``ValueError`` naming the bad field."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected a JSON object, got {type(spec).__name__}")
    for key in ("command", "variable", "range"):
        if key not in spec:
            raise ValueError(f"no {key!r} field")
    name, variable, bounds = spec["command"], spec["variable"], spec["range"]
    targets = sorted(n for n, command in COMMANDS.items() if command.sweep)
    if name not in targets:
        raise ValueError(
            f"unknown sweep command {name!r}; choose from {targets}")
    build = COMMANDS[name].build
    options = build.__annotations__
    fixed = spec.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ValueError(f"fixed must be a JSON object, got {fixed!r}")
    for field, key in [("variable", variable), *(("fixed", k) for k in fixed)]:
        if key not in list(options):
            raise ValueError(f"{field} {key!r} is not a parameter of {name}; "
                             f"choose from {list(options)}")
    given = {variable, *fixed, *(build.__kwdefaults__ or ())}
    unset = [option for option in options if option not in given]
    if unset:
        raise ValueError(f"fixed must set {unset[0]!r}, a required parameter of {name}")
    try:
        start, stop, step = map(_reader(float), bounds)
    except (TypeError, ValueError):
        raise ValueError(
            f"range must be [start, stop, step], got {bounds!r}") from None
    except OverflowError:  # a JSON integer past the float range
        raise ValueError("range holds a number beyond the float range") from None
    if not (math.isfinite(start) and math.isfinite(stop) and step > 0
            and start <= stop):
        raise ValueError(f"bad range [start, stop, step] = {bounds}")
    span = (stop - start) / step
    if not span <= SWEEP_MAX_POINTS - 1:  # inf too
        raise ValueError(
            f"range {bounds} spans more than {SWEEP_MAX_POINTS} points")
    points = []
    for i in range(int(round(span)) + 1):
        value = start + i * step
        if value > stop + 1e-12 * max(1.0, abs(stop)):
            break
        value = int(round(value)) if options[variable] is int else value
        points.append(functools.partial(build, **{**fixed, variable: value}))
    return points


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line, as every other failure, with one
    ``error:`` line and exit 2; subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="kellymarket", allow_abbrev=False,
        description="Kelly fractions, market clearing, and growth bounds "
                    "for all-or-nothing betting contracts.",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit JSON records (default)")
    fmt.add_argument("--csv", action="store_true",
                     help="emit CSV instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (build, help_text, _) in COMMANDS.items():
        if help_text is None:
            continue
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        optional = build.__kwdefaults__ or {}
        for option, kind in build.__annotations__.items():
            if kind is str:
                command.add_argument(option)
                continue
            spec = {"choices": kind} if isinstance(kind, tuple) else \
                {"type": _reader(kind)}
            # an option left out is None, and the builder's default applies
            command.add_argument(f"--{option}", **spec,
                                 required=option not in optional)
    return parser


def _reader(kind):
    """``kind`` (``int`` or ``float``) of a :func:`plain` value."""
    def read(value):
        if plain(value):
            return kind(value)
        raise ValueError(f"not a number: {value!r}")
    read.__name__ = kind.__name__  # argparse: "invalid int value: '1_0'"
    return read


_VALUE_OPTION = re.compile(r"--\w+")


def _is_number(s):
    try:
        _reader(float)(s)
        return True
    except ValueError:
        return False


def _attach_negative_values(argv):
    """Join ``--opt -1e-3`` into ``--opt=-1e-3``.

    argparse reads a token that starts with '-' as an option unless it is
    a plain negative integer or decimal, so a value in exponent notation,
    or -inf, after a space would be refused as a missing argument.
    """
    joined = []
    for token in argv:
        if joined and _VALUE_OPTION.fullmatch(joined[-1]) \
                and token.startswith("-") and _is_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None):
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    build = COMMANDS[args.command].build
    # sweeps default to CSV: they feed plots
    as_csv = args.csv or (args.command == "sweep" and not args.json)
    try:
        records = build(**{option: getattr(args, option)
                           for option in build.__annotations__
                           if getattr(args, option) is not None})
        text = _format(records if isinstance(records, list) else [records],
                       as_csv)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # only a clearing module that a builder loaded can have raised it
        clearing = sys.modules.get(f"{__package__}.clearing")
        if clearing and isinstance(exc, clearing.NoInteriorClearing):
            return EXIT_NO_SOLUTION
        return EXIT_BAD_INPUT
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
