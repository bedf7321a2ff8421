"""Finite-horizon growth analysis for the double-or-nothing game.

Binomial tail probabilities are exact sums computed in log space,
bounded above by ``exp(-N D(k/N || p))`` and below by the same
exponential divided by sqrt(2N), where D is the Kullback-Leibler
divergence between Bernoulli(k/N) and Bernoulli(p).  Horizons of up to
:data:`LOOP_MAX_STEPS` steps take each pmf term from an exact big-integer
binomial coefficient; longer ones take one term at min(k, mode) from
Loader's closed form, in O(1), and walk the log pmf ratios outward from
it in plain Python only until the terms left out fall below 2^-60 of
the sum: at most about 9 standard deviations each way, whatever k is,
and at most :data:`WINDOW_MAX_TERMS` terms.  Tested against 50-digit
mpmath up to N = 10^7, and in the deep tail up to 10^15: the log of the
tail is within 1e-11 absolute (plus 4 units in the last place where
|log P| exceeds about 10^4).
The number of up-steps at which terminal log-wealth hits a threshold Q
turns those tails into statements about betting strategies.
D and both misjudgment losses are sums of deviances x log(x/m) + m - x
from one core, :func:`_bd0`, so none of them cancels at a small edge.

numpy is imported only for tails of at most :data:`LOOP_MAX_STEPS` steps,
whose bits it pins, so everything else here runs without it.
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


# Horizons of at most this many steps take each pmf term from an exact
# big-integer binomial coefficient and sum the terms in numpy, longer ones
# walk a window out from the closed-form anchor.  The golden and
# bit-identity tests pin the short horizons' bits, such as the CLI's at
# N = 10, up to this value.
LOOP_MAX_STEPS = 54

# The most pmf terms a tail above LOOP_MAX_STEPS may sum: at most about
# half a second and 35 MB on a 2-core x86 box.  A window spans about 9
# standard deviations, so at p = 1/2 near the mode N = 3 x 10^10 answers
# and 4 x 10^10 is refused.
WINDOW_MAX_TERMS = 2 ** 20

# A walk stops once the terms it leaves out sum to less than this share
# of the terms it has.
_WINDOW_CUT = 2.0 ** -60


def _log_pmf_term(n, k, log_p, log_1mp):
    """log pmf at ``k`` with C(n, k) an exact big integer before its log,
    for short horizons; ``log_p`` and ``log_1mp`` are log p and log(1 - p)."""
    return math.log(math.comb(n, k)) + k * log_p + (n - k) * log_1mp


def _exact_product(count, x):
    """``count * x`` as two doubles whose sum is exact for counts of at
    most 27 significant bits: x is split into halves of at most 26 bits
    (Veltkamp)."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return count * hi, count * (x - hi)


def _stirlerr(n):
    """Stirling's error log(n!) - (n + 1/2) log n + n - log(2 pi)/2 for an
    integer n >= 1: directly below 16, else its series to the 1/n^9 term,
    whose first omitted term is about 1e-16 at n = 16 and falls from there."""
    if n < 16:
        return (math.log(math.factorial(n)) - (n + 0.5) * math.log(n) + n
                - 0.5 * math.log(2.0 * math.pi))
    x = float(n)
    y = 1.0 / (x * x)  # 0 near N = 1e308, where x * x overflows
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - y / 1188) * y) * y) * y) / x


def _n_times(n, p):
    """``n * p`` as four doubles whose sum is exact for n below 2^53:
    n = hi + lo with hi of 26 bits and lo of at most 27, each times p as
    in :func:`_exact_product` (Dekker's two-by-two product)."""
    shift = max(n.bit_length() - 26, 0)
    hi = n >> shift << shift
    return _exact_product(hi, p) + _exact_product(n - hi, p)


def _log_pmf_anchor(n, p, m):
    """log pmf at ``m`` in O(1): Loader's saddle point, stirlerr(n)
    - stirlerr(m) - stirlerr(n - m) - bd0(m, n p) - bd0(n - m, n (1 - p))
    + log(n / (2 pi m (n - m))) / 2, with m - n p exactly rounded for n
    below 2^53."""
    if m == 0 or m == n:
        return n * math.log1p(-p) if m == 0 else n * math.log(p)
    d = math.fsum((m, *(-x for x in _n_times(n, p))))
    # _bd0's 27-bit splits overflow near 1e300: scale its arguments by 2^-64
    s = 2.0 ** -64 if n > 2.0 ** 960 else 1.0
    dev = _bd0(m * s, n * p * s, d * s) + _bd0((n - m) * s, n * (1.0 - p) * s, -d * s)
    return (_stirlerr(n) - _stirlerr(m) - _stirlerr(n - m) - dev / s
            + 0.5 * math.log(n / (m * (n - m)) / (2.0 * math.pi)))


def _walk_bound(n, m, x):
    """Steps by which a walk of :func:`_log_cdf_window` down from ``m``,
    whose first step has ``x``, surely stops; known before it starts.

    At the first step log1p(x) = a >= 0, and at the (i + 1)-th
    log1p(x) >= a + i/m + i/(N + 1 - m + i).  So after t steps the last
    term is at most exp(-t a - t (t - 1) (1/m + 1/(N + 1 - m + t)) / 2)
    of the anchor and x >= (t - 1)/m, and the walk stops by the first
    t >= 2 at which that exponent exceeds 60 log 2 + log m (plus 1 for
    rounding): solved once with t = m on the right, and once more with
    the t found.  Never above m.
    """
    a = max(math.log1p(x), 0.0)
    cut = 60.0 * math.log(2.0) + math.log(m) + 1.0
    t = m
    for _ in range(2):
        b = 1.0 / m + 1.0 / (n + 1 - m + t)
        h = a - 0.5 * b
        t = min(t, max(2, math.floor(2.0 * cut / (h + math.sqrt(h * h + 2.0 * b * cut))) + 1))
    return t


def _log_cdf_window(n, p, k):
    """log P(up-steps <= k) for 0 <= k < n by a window walked out from
    the anchor m = min(k, mode) in plain Python.

    Walking down from m, pmf(m - i - 1) / pmf(m - i) = 1 / (1 + x) with
    x = (i + a) / ((m - i) (1 - p)), where a = (n + 1) p - m is exactly
    rounded, so x is good to a few units in its last place however small
    it is.  When k is above the mode, the walk up from it to k is the
    walk down from n - m of the mirrored walk, with p and 1 - p swapped
    and 1 - a in place of a.  Terms are exp(-c) of the anchor, c the
    running sum of log1p(x).  x grows along a walk, so the terms beyond
    the last one t added sum to at most t / x, and each walk stops once
    that is below 2^-60 of the sum; the terms are added with
    ``math.fsum``.  A window that :func:`_walk_bound` puts above
    :data:`WINDOW_MAX_TERMS` terms is a ``ValueError`` naming N, raised
    before any term is summed.
    """
    mode = math.floor((n + 1) * p)
    m = min(k, mode)
    a = math.fsum((p, -m, *_n_times(n, p)))
    # each walk down as (start, its a, its 1 - p, the most steps it can take)
    walks = [(m, a, 1.0 - p, m)] + ([(n - m, 1.0 - a, p, k - m)] if k > m else [])
    steps = [min(most, _walk_bound(n, start, b / (start * q))) if most else 0
             for start, b, q, most in walks]
    if sum(steps) > WINDOW_MAX_TERMS:
        raise ValueError(
            f"N = {n} steps: the tail at k = {k} needs a window of up to "
            f"{sum(steps)} pmf terms, over the cap of {WINDOW_MAX_TERMS}")
    log1p, exp, cut = math.log1p, math.exp, _WINDOW_CUT
    terms, total = [1.0], 1.0
    for (start, b, q, _), count in zip(walks, steps):
        c = 0.0
        for i in range(count):
            x = (i + b) / ((start - i) * q)  # inf past the float range: the term is 0
            c += log1p(x)
            t = exp(-c)
            terms.append(t)
            total += t
            if t < cut * total * x:
                break
    # rounding can nudge a near-complete sum past 1; clamp at log(1) = 0
    return min(_log_pmf_anchor(n, p, m) + math.log(math.fsum(terms)), 0.0)


def binomial_pmf(spec, k):
    """P(exactly k up-steps) = C(N,k) p^k (1-p)^(N-k), in O(1).

    Horizons of up to :data:`LOOP_MAX_STEPS` steps take C(N,k) as an exact
    big integer; longer ones take the log from Loader's closed form, as in
    :func:`_log_pmf_anchor`.
    """
    n, p = spec.steps, spec.bias
    k = check_integer(k, "k", f"an integer in [0, {n}]", 0, n)
    if n > LOOP_MAX_STEPS:
        return math.exp(_log_pmf_anchor(n, p, k))
    return math.exp(_log_pmf_term(n, k, math.log(p), math.log1p(-p)))


def log_binomial_cdf(spec, k):
    """log P(up-steps <= floor(k)); -inf below k = 0 (k = -inf included)
    and 0.0 from k = N up (k = +inf included).

    Fractional k is floored to the nearest smaller integer rather than
    interpolated.  A NaN k is a ``ValueError``.  Up to
    :data:`LOOP_MAX_STEPS` steps every term is summed, in numpy; above,
    no numpy: a window of at most about 9 standard deviations each way is
    walked out from min(k, mode) until the terms left out, bounded by a geometric series,
    fall below 2^-60 of the sum, as in :func:`_log_cdf_window`.  A window
    of more than :data:`WINDOW_MAX_TERMS` terms is a ``ValueError`` naming
    N, raised before it is walked.
    """
    if k != k:  # NaN; math.isnan would overflow on integers beyond floats
        raise ValueError(f"k must be a number, got {k!r}")
    n, p = spec.steps, spec.bias
    if k < 0:
        return -math.inf
    if k >= n:
        return 0.0
    kf = math.floor(k)
    if n > LOOP_MAX_STEPS:
        return _log_cdf_window(n, p, kf)
    import numpy as np
    log_p, log_1mp = math.log(p), math.log1p(-p)
    terms = np.array([_log_pmf_term(n, j, log_p, log_1mp) for j in range(kf + 1)])
    m = terms.max()
    if m == -math.inf:  # every term underflows, the largest too
        return -math.inf
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
