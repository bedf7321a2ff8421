"""Output checks for every benchmark operation.

Each ``check_*`` function takes what an operation returned and the inputs
it was given, and returns a list of problems; an empty list means the
output passed.  The oracles are independent of kellymarket: scipy's
binomial distribution for the tails, closed forms evaluated here for the
exposures and growth rates, and the pinned CLI golden for the Monte Carlo
engine.  The :class:`Oracle` also collects the largest error seen of each
kind, which the traced run reports.
"""

import json
import math
import re
import subprocess
import sys
from typing import NamedTuple

import numpy as np

REL_TOL_TAIL = 1e-9      # growth tails against scipy, relative
MAX_ABS_Z = 5.0          # Monte Carlo estimates against exact values
REL_TOL_RECORD = 1e-12   # CLI fields against the library, 15 digits printed

# The Monte Carlo config pinned by the CLI golden test, and its record.
GOLDEN = {"N": 10, "p": 0.6, "f": 0.2, "Q": 0.0, "paths": 2000, "seed": 42}
GOLDEN_LINE = (
    '{"N": 10, "p": 0.6, "f": 0.2, "Q": 0, "paths": 2000, "seed": 42, '
    '"mean_log_growth_per_step": 0.0202166065723105, '
    '"std_error": 0.0014058002436868, '
    '"analytic_growth_rate": 0.0201355135506888, '
    '"threshold_hit_fraction": 0.361, "exact_prob_below": 0.3668967424, '
    '"z_score": -0.547164549412224}\n'
)
GOLDEN_FIELDS = {k: v for k, v in json.loads(GOLDEN_LINE).items()
                 if k not in GOLDEN}


class Raised(NamedTuple):
    """An exception an operation raised, kept as comparable data."""
    type: str
    message: str


def _rel_err(value, ref):
    if ref == value:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def _close(value, ref, rel, abs_tol=0.0):
    return abs(value - ref) <= max(rel * abs(ref), abs_tol)


def _sum_rel_tol(n):
    """Relative error bound of a plain left-to-right sum of n doubles."""
    return max(1e-12, n * 1.2e-16)


def _raised(result):
    return [f"raised {result.type}: {result.message}"]


# --------------------------------------------------------------------------
# growth
# --------------------------------------------------------------------------

_SCIPY_SERVER = """
import sys
from scipy.stats import binom
for line in sys.stdin:
    k, n, p = line.split()
    k, n, p = int(k), int(n), float(p)
    print(repr(float(binom.cdf(k, n, p))), repr(float(binom.logcdf(k, n, p))), flush=True)
"""


class Oracle:
    """scipy's binomial CDF, and the largest error of each kind seen so far
    (``peaks``).  scipy runs in a child process, started on first use, so
    that its memory does not count in the process being measured."""

    def __init__(self):
        self.peaks = {}
        self._server = None

    def _ask(self, k, n, p):
        if self._server is None:
            self._server = subprocess.Popen(
                [sys.executable, "-c", _SCIPY_SERVER], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        self._server.stdin.write(f"{k} {n} {p!r}\n")
        self._server.stdin.flush()
        cdf, logcdf = self._server.stdout.readline().split()
        return float(cdf), float(logcdf)

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def cdf(self, k, n, p):
        return self._ask(k, n, p)[0]

    def logcdf(self, k, n, p):
        return self._ask(k, n, p)[1]

    def close(self):
        if self._server is not None:
            self._server.stdin.close()
            self._server.wait(timeout=60)
            self._server.stdout.close()
            self._server = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def threshold_steps(f, n, q_target):
    """Up-step count at which log-wealth after n steps of fraction f is
    q_target, from the wealth identity k log(1+f) + (n-k) log(1-f) = Q."""
    up, down = math.log1p(f), math.log1p(-f)
    return (q_target - n * down) / (up - down)


def exact_prob_below(oracle, f, n, p, q_target):
    """P(log-wealth <= q_target) from scipy's binomial CDF."""
    return oracle.cdf(math.floor(threshold_steps(f, n, q_target)), n, p)


def check_logcdf(value, n, p, k, oracle):
    """A log tail probability log P(X <= k), X ~ Binomial(n, p)."""
    ref = oracle.logcdf(k, n, p)
    err = _rel_err(value, ref)
    oracle.peak("growth.max_rel_err", err)
    if not err <= REL_TOL_TAIL:
        return [f"log cdf {value!r} vs scipy {ref!r} (rel err {err:.3g})"]
    return []


def check_bounds(result, n, p, k, oracle):
    """``{"exact_cdf", "upper", "lower", "rate_per_step"}`` at (n, p, k)."""
    if isinstance(result, Raised):
        return _raised(result)
    problems = check_logcdf(-result["rate_per_step"] * n, n, p, k, oracle)
    ref = oracle.cdf(k, n, p)
    err = _rel_err(result["exact_cdf"], ref)
    oracle.peak("growth.max_rel_err", err)
    if not err <= REL_TOL_TAIL:
        problems.append(f"cdf {result['exact_cdf']!r} vs scipy {ref!r}")
    if not result["lower"] <= result["exact_cdf"] <= result["upper"]:
        problems.append(
            f"bounds out of order: lower {result['lower']!r}, "
            f"exact {result['exact_cdf']!r}, upper {result['upper']!r}")
    return problems


def check_prob_below(result, f, n, p, q_target, oracle):
    if isinstance(result, Raised):
        return _raised(result)
    ref = exact_prob_below(oracle, f, n, p, q_target)
    err = _rel_err(result, ref)
    oracle.peak("growth.max_rel_err", err)
    if not err <= REL_TOL_TAIL:
        return [f"prob_growth_below {result!r} vs scipy {ref!r}"]
    return []


# --------------------------------------------------------------------------
# montecarlo
# --------------------------------------------------------------------------

def growth_rate(p, f):
    return p * math.log1p(f) + (1.0 - p) * math.log1p(-f)


def _z_problem(z, what, oracle):
    oracle.peak("montecarlo.max_abs_z", abs(z))
    if not abs(z) <= MAX_ABS_Z:
        return [f"{what} is {z:.3g} standard errors from the exact value"]
    return []


def check_sim(result, n, p, f, paths, q_target, oracle):
    """A ``SimResult`` of ``paths`` walks of n steps at bias p, fraction f."""
    if isinstance(result, Raised):
        return _raised(result)
    hist = result.up_step_histogram
    problems = []
    if len(hist) != n + 1 or sum(hist) != paths or result.paths != paths:
        problems.append(f"histogram of {len(hist)} bins sums to {sum(hist)}, "
                        f"expected {n + 1} bins summing to {paths}")
    if f > 0.0 and result.std_error > 0.0:
        z = (result.mean_log_growth_per_step - growth_rate(p, f)) / result.std_error
        problems += _z_problem(z, "mean log growth", oracle)
    if q_target is not None:
        exact = exact_prob_below(oracle, f, n, p, q_target)
        hit = result.threshold_hit_fraction
        if exact in (0.0, 1.0):
            if hit != exact:
                problems.append(f"hit fraction {hit!r}, exact {exact!r}")
        else:
            # The spread of the hit count is floored at one path: for a
            # tail of 1e-6 a single hit among 2000 paths is not an error.
            sd = max(math.sqrt(paths * exact * (1.0 - exact)), 1.0)
            problems += _z_problem((hit - exact) * paths / sd, "hit count", oracle)
    return problems


def check_threshold(result, n, p, f, paths, q_target, oracle):
    """``(empirical, exact, z)`` from ``threshold_validation``."""
    if isinstance(result, Raised):
        return _raised(result)
    empirical, exact, z = result
    problems = check_prob_below(exact, f, n, p, q_target, oracle)
    hits = empirical * paths
    if not (0.0 <= empirical <= 1.0 and abs(hits - round(hits)) < 1e-6):
        problems.append(f"empirical {empirical!r} is not a count over {paths} paths")
    se = math.sqrt(exact * (1.0 - exact) / paths)
    if se > 0.0 and not _close(z, (empirical - exact) / se, 1e-9, 1e-12):
        problems.append(f"z {z!r} does not match (empirical - exact) / se")
    return problems + _z_problem(z, "threshold z", oracle)


def check_comparison(rows, n, p, fractions, paths, q_target, oracle):
    """Rows of ``compare_strategies`` over ``fractions`` on common flips."""
    if isinstance(rows, Raised):
        return _raised(rows)
    if [r.fraction for r in rows] != list(fractions):
        return [f"rows for fractions {[r.fraction for r in rows]}, asked {fractions}"]
    problems = []
    for row in rows:
        problems += check_sim(row.result, n, p, row.fraction, paths, q_target, oracle)
        if row.result.up_step_histogram != rows[0].result.up_step_histogram:
            problems.append(f"fraction {row.fraction}: flips differ from the first row")
        if not _close(row.growth_rate, growth_rate(p, row.fraction), 1e-12, 1e-15):
            problems.append(f"fraction {row.fraction}: growth rate {row.growth_rate!r}")
        if row.prob_below is not None:
            problems += check_prob_below(row.prob_below, row.fraction, n, p,
                                         q_target, oracle)
        diff = row.result.mean_log_growth_per_step - rows[0].result.mean_log_growth_per_step
        if not _close(row.mean_diff_vs_first, diff, 1e-9, 1e-15):
            problems.append(f"fraction {row.fraction}: paired difference "
                            f"{row.mean_diff_vs_first!r}, expected {diff!r}")
    return problems


def check_golden(result, oracle):
    """``(threshold_validation, run)`` on the golden config must print the
    pinned digits."""
    if isinstance(result, Raised):
        return _raised(result)
    (empirical, exact, z), sim = result
    got = {
        "mean_log_growth_per_step": sim.mean_log_growth_per_step,
        "std_error": sim.std_error,
        "analytic_growth_rate": growth_rate(GOLDEN["p"], GOLDEN["f"]),
        "threshold_hit_fraction": empirical,
        "exact_prob_below": exact,
        "z_score": z,
    }
    oracle.peak("montecarlo.max_abs_z", abs(z))
    return [f"golden {key}: {format(got[key], '.15g')} != {format(want, '.15g')}"
            for key, want in GOLDEN_FIELDS.items()
            if format(got[key], ".15g") != format(want, ".15g")]


# --------------------------------------------------------------------------
# clearing
# --------------------------------------------------------------------------

def exposures(capitals, beliefs, price):
    """Log-utility dollar exposures, c (q - p) / (1 - p) above the price and
    -c (p - q) / p below it."""
    return np.where(beliefs >= price,
                    capitals * (beliefs - price) / (1.0 - price),
                    -capitals * (price - beliefs) / price)


def has_interior_root(capitals, beliefs):
    """Whether aggregate exposure changes sign on (0, 1), from its limits
    at the two ends of the price range."""
    if beliefs.min() == beliefs.max():
        return 0.0 < beliefs[0] < 1.0
    at_zero = math.fsum(capitals[beliefs > 0] * beliefs[beliefs > 0]) \
        - math.fsum(capitals[beliefs == 0])
    at_one = math.fsum(capitals[beliefs == 1]) \
        - math.fsum(capitals[beliefs < 1] * (1.0 - beliefs[beliefs < 1]))
    return at_zero > 0.0 > at_one


def check_clearing(result, capitals, beliefs, tol, oracle):
    """A ``ClearingResult``, or ``NoInteriorClearing`` exactly when the
    population has no interior clearing price."""
    interior = has_interior_root(capitals, beliefs)
    if isinstance(result, Raised):
        if result.type == "NoInteriorClearing" and not interior:
            oracle.peaks["clearing.no_interior"] = \
                oracle.peaks.get("clearing.no_interior", 0) + 1
            return []
        return _raised(result)
    if not interior:
        return [f"cleared at {result.price!r}, but no interior price exists"]
    price = result.price
    if not 0.0 < price < 1.0:
        return [f"price {price!r} outside (0, 1)"]
    oracle.peak("clearing.max_abs_residual", abs(result.residual))
    want = exposures(capitals, beliefs, price)
    scale = math.fsum(np.abs(want))
    oracle_residual = math.fsum(want)
    problems = []
    if not abs(result.residual) <= tol:
        problems.append(f"residual {result.residual!r} exceeds tol {tol!r}")
    if not abs(oracle_residual) <= tol + 1e-12 * scale:
        problems.append(f"exposures at price {price!r} sum to {oracle_residual!r}")
    got = np.asarray(result.exposures)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12 * capitals):
        problems.append("exposures differ from c (q - p) / (1 - p) and -c (p - q) / p")
    mean = math.fsum(capitals * beliefs) / math.fsum(capitals)
    if not _close(result.mean_belief, mean, 2 * _sum_rel_tol(len(capitals))):
        problems.append(f"mean belief {result.mean_belief!r}, expected {mean!r}")
    if not _close(result.gap, result.mean_belief - price, 0.0, 1e-15):
        problems.append(f"gap {result.gap!r} is not mean belief - price")
    return problems


def check_curve(result, capitals, beliefs, prices):
    """Aggregate exposure at each price of a grid: the demand curve."""
    if isinstance(result, Raised):
        return _raised(result)
    problems = []
    for price, got in zip(prices, result):
        want = exposures(capitals, beliefs, price)
        if not _close(got, math.fsum(want), 0.0, 1e-12 * math.fsum(np.abs(want))):
            problems.append(f"exposure {got!r} at price {price!r}, expected "
                            f"{math.fsum(want)!r}")
    if len(result) != len(prices):
        problems.append(f"{len(result)} values for {len(prices)} prices")
    slack = 1e-12 * math.fsum(capitals)
    if any(b > a + slack for a, b in zip(result, result[1:])):
        problems.append("demand curve increases with price")
    return problems


def check_population_stats(result, capitals, beliefs, factor):
    """``(mean_belief, mean_belief of scaled, total_capital of scaled)``."""
    if isinstance(result, Raised):
        return _raised(result)
    mean, scaled_mean, scaled_total = result
    want = math.fsum(capitals * beliefs) / math.fsum(capitals)
    total = factor * math.fsum(capitals)
    tol = 2 * _sum_rel_tol(len(capitals))
    problems = []
    if not _close(mean, want, tol):
        problems.append(f"mean belief {mean!r}, expected {want!r}")
    if not _close(scaled_mean, want, tol):
        problems.append(f"mean belief after scaling {scaled_mean!r}, expected {want!r}")
    if not _close(scaled_total, total, tol):
        problems.append(f"scaled capital {scaled_total!r}, expected {total!r}")
    return problems


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def match_record(got, want):
    """Problems between a parsed CLI record and the library's record."""
    if list(got) != list(want):
        return [f"fields {list(got)}, expected {list(want)}"]
    problems = []
    for key, w in want.items():
        g = got[key]
        if isinstance(w, (list, tuple)):
            ok = isinstance(g, list) and len(g) == len(w) and all(
                _close(a, b, REL_TOL_RECORD, 1e-300) for a, b in zip(g, w))
        elif w is None or isinstance(w, (bool, int, str)):
            ok = g == w and type(g) is type(w)
        else:
            ok = isinstance(g, (int, float)) and not isinstance(g, bool) \
                and _close(g, w, REL_TOL_RECORD, 1e-300)
        if not ok:
            problems.append(f"{key}: printed {g!r}, library gives {w!r}")
    return problems


def check_cli(result, expected, errors):
    """One CLI invocation, ``result = (exit code, stdout, stderr)``.

    ``expected`` is the list of records the library gives for the same
    input, or a :class:`Raised` when the library rejects it.  ``errors``
    maps each acceptable non-zero exit code to a pattern that the
    ``error:`` line must match, which names the bad input.
    """
    if isinstance(result, Raised):
        return _raised(result)
    code, out, err = result
    if code == 0:
        records = []
        for line in out.splitlines():
            try:
                records.append(json.loads(line, parse_constant=_reject_constant))
            except ValueError:
                return [f"stdout line is not JSON: {line[:120]!r}"]
        if isinstance(expected, Raised):
            return [f"exit 0, but the library raises {expected.type}: {expected.message}"]
        if len(records) != len(expected):
            return [f"{len(records)} records, expected {len(expected)}"]
        return [p for g, w in zip(records, expected) for p in match_record(g, w)]
    if code not in errors:
        return [f"exit {code}: {err.strip()[:200]!r}"]
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    if not lines:
        return [f"exit {code} without an 'error:' line"]
    if not any(re.search(errors[code], line) for line in lines):
        return [f"exit {code}: {lines[0]!r} does not name the bad input "
                f"(/{errors[code]}/)"]
    return []


def check_golden_line(result):
    """The CLI on the golden config prints the pinned line, byte for byte."""
    if isinstance(result, Raised):
        return _raised(result)
    if tuple(result) != (0, GOLDEN_LINE, ""):
        return [f"golden simulate printed {result!r}"]
    return []
