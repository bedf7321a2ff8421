"""Finite-horizon growth analysis for the double-or-nothing game.

Binomial tail probabilities are exact sums computed in log space,
bounded above by ``exp(-N D(k/N || p))`` and below by the same
exponential divided by sqrt(2N), where D is the Kullback-Leibler
divergence between Bernoulli(k/N) and Bernoulli(p).  Horizons of up to
:data:`LOOP_MAX_STEPS` steps take each pmf term from an exact big-integer
binomial coefficient; longer ones anchor one term at min(k, mode) and
reach the rest by a numpy cumulative sum of log pmf ratios, in O(k) time.
Tested against 50-digit mpmath up to N = 10^5: the log of the tail is
within 1e-11 absolute (plus 4 units in the last place where |log P|
exceeds about 10^4).
The number of up-steps at which terminal log-wealth hits a threshold Q
turns those tails into statements about betting strategies.
D and both misjudgment losses are sums of deviances x log(x/m) + m - x
from one core, :func:`_bd0`, so none of them cancels at a small edge.

numpy is imported only by the functions that build pmf terms, so the
divergence, the two bounds, the threshold and the sensitivities run
without it.
"""

import math
from dataclasses import dataclass

from ._validation import as_float, check_finite, check_integer, check_probability

__all__ = [
    "WalkSpec",
    "OutOfValidityRegion",
    "binomial_pmf",
    "binomial_cdf",
    "log_binomial_cdf",
    "kl_divergence",
    "chernoff_upper",
    "chernoff_lower",
    "rate_per_step",
    "threshold_steps",
    "prob_growth_below",
    "sensitivity_bias",
    "sensitivity_fraction",
    "kelly_fraction_even_odds",
]


class OutOfValidityRegion(ValueError):
    """The exponential tail bounds only hold on the lower tail k <= N p."""


@dataclass(frozen=True)
class WalkSpec:
    """Biased coin walk: ``steps`` flips, each up with probability ``bias``."""

    steps: int
    bias: float

    def __post_init__(self):
        steps = check_integer(self.steps, "steps", "a positive integer", 1, math.inf)
        as_float(steps, "steps")  # every formula here takes N as a float
        object.__setattr__(self, "steps", steps)
        object.__setattr__(
            self, "bias", check_probability(self.bias, "bias", open_interval=True)
        )


# Horizons of at most this many steps build their pmf terms with the exact
# big-integer loop, longer ones with the numpy recurrence.  Fixed where the
# two cost the same per call (about 32 us at N = 54, on a 2-core x86 host);
# it also keeps short horizons, such as the pinned CLI golden at N = 10,
# bit for bit.
LOOP_MAX_STEPS = 54


def _log_pmf_terms_loop(n, p, k_max):
    """log pmf for k = 0..k_max as an ndarray.

    The binomial coefficients are taken exactly as big integers before the
    log, so the only rounding is in the log/multiply; its cost grows as
    about k_max^1.7, so it only serves short horizons.
    """
    import numpy as np
    log_p, log_1mp = math.log(p), math.log1p(-p)
    out = np.empty(k_max + 1)
    comb = 1
    for k in range(k_max + 1):
        out[k] = math.log(comb) + k * log_p + (n - k) * log_1mp
        comb = comb * (n - k) // (k + 1)
    return out


def _exact_product(count, x):
    """``count * x`` as two doubles whose sum is exact for counts below
    2^26: x is split into halves of at most 26 bits (Veltkamp)."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return count * hi, count * (x - hi)


def _log_pmf_anchor(n, p, m):
    """log pmf at ``m`` in O(min(m, n - m)) numpy work.

    ``log C(n, m)`` is the sum of log((n - r + i) / i) over i = 1..r with
    r = min(m, n - m), rounded once together with the two power terms,
    each split exactly.
    """
    import numpy as np
    r = min(m, n - m)
    i = np.arange(1.0, r + 1.0)
    parts = np.empty(r + 4)
    np.log((n - r + i) / i, out=parts[:r])
    parts[r], parts[r + 1] = _exact_product(m, math.log(p))
    parts[r + 2], parts[r + 3] = _exact_product(n - m, math.log1p(-p))
    # memoryview iterates as Python floats without building an O(N) list
    return math.fsum(memoryview(parts))


def _log_pmf_terms_bulk(n, p, k_max):
    """log pmf for k = 0..k_max as an ndarray, in O(k_max) numpy work.

    One anchor term at ``m = min(k_max, mode)``, the largest of the terms
    wanted, comes from :func:`_log_pmf_anchor`; every other term adds up
    the log pmf ratios outward from it, so rounding grows with the
    distance from the anchor, not with n.
    """
    import numpy as np
    m = min(k_max, math.floor((n + 1) * p))
    anchor = _log_pmf_anchor(n, p, m)
    j = np.arange(1.0, k_max + 1.0)
    # step[j - 1] = log(pmf(j) / pmf(j - 1)) = log((n - j + 1) p / (j (1 - p)))
    # a ratio past the float range either way, near N = 1e308 or at a
    # subnormal p, is a term that cannot move the sum: its log is +-inf
    with np.errstate(over="ignore", divide="ignore"):
        step = (n + 1.0 - j) * (p / (1.0 - p)) / j
        np.log(step, out=step)
    out = np.empty(k_max + 1)
    out[m] = anchor
    if m > 0:
        down = out[:m][::-1]
        np.add.accumulate(step[:m][::-1], out=down)
        np.subtract(anchor, down, out=down)
    if k_max > m:
        up = out[m + 1:]
        np.add.accumulate(step[m:], out=up)
        up += anchor
    return out


def binomial_pmf(spec, k):
    """P(exactly k up-steps) = C(N,k) p^k (1-p)^(N-k).

    Horizons of up to :data:`LOOP_MAX_STEPS` steps take C(N,k) as an exact
    big integer; longer ones its log as in :func:`_log_pmf_anchor`, in
    O(min(k, N - k)) time.
    """
    n, p = spec.steps, spec.bias
    k = check_integer(k, "k", f"an integer in [0, {n}]", 0, n)
    if n > LOOP_MAX_STEPS:
        return math.exp(_log_pmf_anchor(n, p, k))
    return math.exp(_log_pmf_terms_loop(n, p, k)[k])


def log_binomial_cdf(spec, k):
    """log P(up-steps <= floor(k)); -inf below k = 0 (k = -inf included)
    and 0.0 from k = N up (k = +inf included).

    Fractional k is floored to the nearest smaller integer rather than
    interpolated.  A NaN k is a ``ValueError``.
    """
    if k != k:  # NaN; math.isnan would overflow on integers beyond floats
        raise ValueError(f"k must be a number, got {k!r}")
    n = spec.steps
    if k < 0:
        return -math.inf
    if k >= n:
        return 0.0
    kf = math.floor(k)
    build = _log_pmf_terms_loop if n <= LOOP_MAX_STEPS else _log_pmf_terms_bulk
    terms = build(n, spec.bias, kf)
    m = terms.max()
    if m == -math.inf:  # every term underflows, the largest too
        return -math.inf
    import numpy as np
    # rounding can nudge a near-complete sum past 1; clamp at log(1) = 0
    return min(float(m + math.log(np.exp(terms - m).sum())), 0.0)


def binomial_cdf(spec, k):
    """P(up-steps <= floor(k)); use :func:`log_binomial_cdf` when the tail
    underflows."""
    return math.exp(log_binomial_cdf(spec, k))


def _bd0(x, m, d):
    """Deviance ``x log(x/m) + m - x`` >= 0 of x >= 0 from m > 0, given
    ``d = x - m`` exactly.  The direct form cancels near x = m, where Loader's
    series in v = d/(x + m), d v + 2 x v (v^2/3 + v^4/5 + ...), does not; v
    is split as vh + dh, with vh of 26 bits, so that d vh is exact."""
    u = x + m
    if not -0.6 * u < d < 0.7 * u:  # past these the direct form is closer
        r = x / m if x else 1.0  # 0 log 0 = 0; x / m overflows at a subnormal m
        return x * (math.log(r) if r < math.inf else math.log(x) - math.log(m)) - d
    vh = _exact_product(1.0, d / u)[0]  # d / u cut to 26 bits
    p1, p2 = _exact_product(vh, u)  # vh u, exactly
    z = u - x  # x + m = u + (x - (u - z)) + (m - z) exactly
    dh = (((d - p1) - p2) - vh * ((x - (u - z)) + (m - z))) / u
    v = vh + dh
    tail, term, j = 0.0, v * v, 3
    while tail + term / j != tail:
        tail, term, j = tail + term / j, term * v * v, j + 2
    # d vh exactly, d dh, the series at the rounded v, and the series'
    # slope 2 x v^2 / (1 - v^2) times the rounding (vh + dh) - v
    q1, q2 = _exact_product(vh, d)
    return q1 + (q2 + d * dh + 2.0 * x * v * tail
                 + ((vh - v) + dh) * 2.0 * x * v * v / (1.0 - v * v))


def kl_divergence(a, p):
    """Relative entropy D(a || p) between Bernoulli(a) and Bernoulli(p),
    with the 0 log 0 = 0 convention; >= 0 and zero only at a = p."""
    a = check_probability(a, "a")
    p = check_probability(p, "p", open_interval=True)
    return _bd0(a, p, a - p) + _bd0(1.0 - a, 1.0 - p, p - a)


def _check_lower_tail(spec, k, k_min=0):
    n, p = spec.steps, spec.bias
    k = check_integer(k, "k", "an integer", -math.inf, math.inf)
    if k < k_min or k > n * p:
        raise OutOfValidityRegion(
            f"bound requires {k_min} <= k <= N*p = {n * p:g}, got k = {k}"
        )
    return k


def chernoff_upper(spec, k):
    """Upper tail bound ``exp(-N D(k/N || p))`` on P(up-steps <= k),
    valid for k <= N p."""
    k = _check_lower_tail(spec, k)
    n = spec.steps
    return math.exp(-n * kl_divergence(k / n, spec.bias))


def chernoff_lower(spec, k):
    """Matching lower bound ``exp(-N D(k/N || p)) / sqrt(2N)``, enforced
    on 1 <= k <= N p."""
    _check_lower_tail(spec, k, k_min=1)
    return chernoff_upper(spec, k) / math.sqrt(2.0 * spec.steps)


def rate_per_step(spec, k):
    """Tail decay rate ``-log P(up-steps <= k) / N``.

    For k in the lower tail the two bounds sandwich this between
    D(k/N || p) and D(k/N || p) + log(2N)/(2N).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    log_f = log_binomial_cdf(spec, k)
    if log_f == -math.inf:
        raise ValueError("tail probability is zero; rate undefined")
    return -log_f / spec.steps


def threshold_steps(f, spec, log_wealth_target):
    """Number of up-steps (a real) at which terminal log-wealth equals the
    target: ``(Q - N log(1-f)) / (log(1+f) - log(1-f))``.

    May fall outside [0, N], which means the target is never / always
    reached; callers clamp as needed.  A non-finite target Q, or one so
    large that the step count overflows, is rejected.
    """
    f = as_float(f, "f")
    if not 0.0 < f < 1.0:
        raise ValueError(f"f must lie in (0, 1), got {f!r}")
    n = spec.steps
    q_target = check_finite(log_wealth_target, "Q (log-wealth target)")
    steps = (q_target - n * math.log1p(-f)) / (math.log1p(f) - math.log1p(-f))
    if not math.isfinite(steps):
        raise ValueError(
            f"Q (log-wealth target) = {q_target!r} puts the threshold "
            f"step count out of floating-point range at f = {f!r}"
        )
    return steps


def prob_growth_below(f, spec, log_wealth_target):
    """Exact probability that terminal log-wealth is <= the target when
    betting fraction ``f`` each step."""
    return binomial_cdf(spec, threshold_steps(f, spec, log_wealth_target))


def sensitivity_bias(k, spec, eps):
    """Effect of misjudging the walk bias by ``eps`` on the tail rate.

    Returns ``(exact, first_order)`` where exact is
    ``D(k/N || p+eps) - D(k/N || p)`` and the linear term is
    ``(p - k/N) / (p (1-p)) * eps``.  While |eps| <= min(p, 1-p), exact is
    the linear term plus two deviances >= 0, so nothing cancels.
    """
    n, p = spec.steps, spec.bias
    k = check_integer(k, "k", f"an integer in [0, {n}]", 0, n)
    eps = as_float(eps, "eps")
    q = 1.0 - p
    w = (q - eps) + ((1.0 - q) - p)  # 1 - p - eps, with the rounding of q
    if not (p + eps > 0.0 and w > 0.0):
        raise ValueError(f"p + eps must stay inside (0, 1), got {p + eps}")
    a, t, s = k / n, eps / p, eps / q
    slope = (p - a) / (p * q)
    # the slope overflows at a subnormal p, where t = eps / p need not
    first_order = slope * eps if math.isfinite(slope) else (p - a) * t / q
    if max(abs(t), abs(s)) > 1.0:  # exact = -a log(1 + t) - (1 - a) log(1 - s)
        log_ratio = math.log1p(t) if t < math.inf else math.log(p + eps) - math.log(p)
        log_rest = math.log1p(-s) if s < 0.5 else math.log(w / q)
        return -a * log_ratio - (1.0 - a) * log_rest, first_order
    return (first_order + a * _bd0(1.0, (p + eps) / p, -t)
            + (1.0 - a) * _bd0(1.0, w / q, s)), first_order


def sensitivity_fraction(p, eps):
    """Growth-rate loss from missing the optimal even-odds fraction
    2p - 1 by ``eps``.

    Returns ``(exact, quadratic)``: the exact difference
    ``U(p, 2p-1+eps) - U(p, 2p-1)`` (minus half of two deviances, so <= 0)
    and its leading term ``-eps^2 / (8 p (1-p))``.  At p = 1/2 the exact
    value collapses to ``log(1 - eps^2) / 2``, which pins the coefficient.
    """
    p = check_probability(p, "p", open_interval=True)
    eps = as_float(eps, "eps")
    up, down = 2.0 * p, 2.0 - 2.0 * p  # 1 + f and 1 - f at f = 2p - 1
    shrunk = (down - eps) + ((2.0 - down) - up)  # 1 - f - eps, with down's rounding
    if not (up + eps > 0.0 and shrunk > 0.0):
        raise ValueError(f"2p-1+eps must stay inside (-1, 1), got {up - 1.0 + eps}")
    exact = -(_bd0(up, up + eps, -eps) + _bd0(down, shrunk, eps)) / 2.0
    quadratic = -eps * eps / (8.0 * p * (1.0 - p))
    return exact, quadratic


def stated_quadratic_coefficient(p):
    """The frequently quoted coefficient -1/(4 p (1-p)) for the loss above.

    Direct expansion (and the p = 1/2 closed form) gives half of it; both
    are reported side by side by the CLI so the factor-2 discrepancy is
    visible rather than silently absorbed.
    """
    p = check_probability(p, "p", open_interval=True)
    return -1.0 / (4.0 * p * (1.0 - p))


def kelly_fraction_even_odds(p):
    """Optimal even-odds fraction 2p - 1 (negative for p < 1/2)."""
    p = check_probability(p, "p")
    return 2.0 * p - 1.0
