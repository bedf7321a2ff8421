"""Finite-horizon growth analysis for the double-or-nothing game.

Binomial tail probabilities are computed in log space (stable for
horizons up to 10^4), bounded above by ``exp(-N D(k/N || p))`` and below
by the same exponential divided by sqrt(2N), where D is the
Kullback-Leibler divergence between Bernoulli(k/N) and Bernoulli(p).
The number of up-steps at which terminal log-wealth hits a threshold Q
turns those tails into statements about betting strategies.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_finite, check_probability
from .kelly import even_odds_growth_rate

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
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(
            self, "bias", check_probability(self.bias, "bias", open_interval=True)
        )


def _log_pmf_terms(n, p, k_max):
    """log pmf for k = 0..k_max as an ndarray.

    The binomial coefficients are taken exactly as big integers before the
    log, so the only rounding is in the log/multiply; keeps the pmf good to
    ~1e-13 relative even at N = 10^4.
    """
    log_p, log_1mp = math.log(p), math.log1p(-p)
    out = np.empty(k_max + 1)
    comb = 1
    for k in range(k_max + 1):
        out[k] = math.log(comb) + k * log_p + (n - k) * log_1mp
        comb = comb * (n - k) // (k + 1)
    return out


def binomial_pmf(spec, k):
    """P(exactly k up-steps) = C(N,k) p^k (1-p)^(N-k)."""
    n, p = spec.steps, spec.bias
    if int(k) != k or not 0 <= k <= n:
        raise ValueError(f"k must be an integer in [0, {n}], got {k!r}")
    k = int(k)
    log_pmf = (
        math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def log_binomial_cdf(spec, k):
    """log P(up-steps <= floor(k)); -inf below k = 0.

    Fractional k is floored to the nearest smaller integer rather than
    interpolated.
    """
    n = spec.steps
    kf = math.floor(k)
    if kf < 0:
        return -math.inf
    if kf >= n:
        return 0.0
    terms = _log_pmf_terms(n, spec.bias, kf)
    m = terms.max()
    # rounding can nudge a near-complete sum past 1; clamp at log(1) = 0
    return min(float(m + math.log(np.exp(terms - m).sum())), 0.0)


def binomial_cdf(spec, k):
    """P(up-steps <= floor(k)); use :func:`log_binomial_cdf` when the tail
    underflows."""
    return math.exp(log_binomial_cdf(spec, k))


def kl_divergence(a, p):
    """Relative entropy D(a || p) between Bernoulli(a) and Bernoulli(p),
    with the 0 log 0 = 0 convention; >= 0 and zero only at a = p."""
    a = check_probability(a, "a")
    p = check_probability(p, "p", open_interval=True)
    d = 0.0
    if a > 0.0:
        d += a * math.log(a / p)
    if a < 1.0:
        d += (1.0 - a) * math.log((1.0 - a) / (1.0 - p))
    return d


def _check_lower_tail(spec, k, k_min=0):
    n, p = spec.steps, spec.bias
    if int(k) != k:
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
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
    k = _check_lower_tail(spec, k, k_min=1)
    n = spec.steps
    return math.exp(-n * kl_divergence(k / n, spec.bias)) / math.sqrt(2.0 * n)


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
    f = float(f)
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
    k_q = threshold_steps(f, spec, log_wealth_target)
    k_q = min(max(k_q, -1.0), float(spec.steps))
    return binomial_cdf(spec, k_q)


def sensitivity_bias(k, spec, eps):
    """Effect of misjudging the walk bias by ``eps`` on the tail rate.

    Returns ``(exact, first_order)`` where exact is
    ``D(k/N || p+eps) - D(k/N || p)`` and the linear term is
    ``(p - k/N) / (p (1-p)) * eps``.
    """
    n, p = spec.steps, spec.bias
    if int(k) != k or not 0 <= k <= n:
        raise ValueError(f"k must be an integer in [0, {n}], got {k!r}")
    eps = float(eps)
    if not 0.0 < p + eps < 1.0:
        raise ValueError(f"p + eps must stay inside (0, 1), got {p + eps}")
    a = k / n
    exact = kl_divergence(a, p + eps) - kl_divergence(a, p)
    first_order = (p - a) / (p * (1.0 - p)) * eps
    return exact, first_order


def sensitivity_fraction(p, eps):
    """Growth-rate loss from missing the optimal even-odds fraction
    2p - 1 by ``eps``.

    Returns ``(exact, quadratic)``: the exact difference
    ``U(p, 2p-1+eps) - U(p, 2p-1)`` (always <= 0) and its leading term
    ``-eps^2 / (8 p (1-p))``.  At p = 1/2 the exact value collapses to
    ``log(1 - eps^2) / 2``, which pins the coefficient.
    """
    p = check_probability(p, "p", open_interval=True)
    eps = float(eps)
    f_star = 2.0 * p - 1.0
    if not -1.0 < f_star + eps < 1.0:
        raise ValueError(f"2p-1+eps must stay inside (-1, 1), got {f_star + eps}")
    exact = even_odds_growth_rate(p, f_star + eps) - even_odds_growth_rate(p, f_star)
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
