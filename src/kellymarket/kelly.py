"""Log-utility betting math for all-or-nothing contracts.

Everything here is pure: probabilities in, fractions out, no state.
Conventions:

* A positive fraction is a long position in the event ("yes"); a negative
  fraction is a long position in the complement ("no") bought at 1 - p.
  Shorting is not modelled, so fractions are capped at magnitude 1.
* Prices p of exactly 0 or 1 are rejected everywhere (odds diverge);
  beliefs q of exactly 0 or 1 are fine and give fractions of -1 / +1.
"""

import math

from ._validation import check_fraction, check_nonnegative, check_probability

__all__ = [
    "probability_to_odds",
    "odds_to_probability",
    "log_utility",
    "log_utility_alpha",
    "optimal_fraction",
    "optimal_fraction_alpha",
    "even_odds_growth_rate",
]


def probability_to_odds(prob):
    """Odds x/(1-x) for a probability strictly inside (0, 1)."""
    p = check_probability(prob, "prob", open_interval=True)
    return p / (1.0 - p)


def odds_to_probability(odds):
    """Inverse of :func:`probability_to_odds`."""
    x = check_nonnegative(odds, "odds")
    return x / (1.0 + x)


def _log_utility(q, p, f, a, win):
    """``(1-q) log(1-f) + q log(1 + win)`` for a long fraction ``f``; the
    caller forms ``win = f ((1-p)/p)^a``.  Where that overflows, the gain is
    taken through the log of the payout (see :func:`log_utility_alpha`)."""
    # the weight-zero convention 0 log 0 = 0 applies at q = 1; otherwise
    # f = 1 means certain ruin on the losing branch
    if f == 1.0 and q < 1.0:
        raise ValueError("f = 1 has log(0) loss branch unless q = 1")
    loss_term = 0.0 if q == 1.0 else (1.0 - q) * math.log1p(-f)
    if math.isfinite(win):
        return loss_term + q * math.log1p(win)
    if f == 0.0:
        return loss_term
    # log(1 + e^t) with t = log(f) + a log((1-p)/p), the log of ``win``
    t = math.log(f) + a * (math.log1p(-p) - math.log(p))
    if not math.isfinite(t):
        raise ValueError(
            f"alpha = {a!r} puts the log payout out of floating-point "
            f"range at p = {p!r}"
        )
    gain = t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))
    return loss_term + q * gain


def log_utility(q, p, f):
    """Expected log wealth growth from staking fraction ``f`` at price ``p``
    when the bettor's own probability is ``q``.

    For f >= 0 this is ``(1-q) log(1-f) + q log(1 + f (1-p)/p)``.  Negative
    fractions are evaluated on the complement contract, i.e. with
    (q, p, f) -> (1-q, 1-p, -f); the two branches agree at f = 0.
    """
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    f = check_fraction(f, "f")
    if f < 0.0:
        q, p, f = 1.0 - q, 1.0 - p, -f
    return _log_utility(q, p, f, 1.0, f * (1.0 - p) / p)


def _kelly_fraction(q, p, where=lambda long, a, b: a if long else b):
    """:func:`optimal_fraction` without its checks; with ``where=np.where``
    ``q`` may be an array of beliefs."""
    return (q - p) / where(q >= p, 1.0 - p, p)


def optimal_fraction(q, p):
    """Signed fraction of capital maximizing :func:`log_utility`.

    ``(q - p) / (1 - p)`` for q >= p, the stationary point of the long-side
    utility, and ``(q - p) / p`` below, the negated long fraction on the
    complement at price 1 - p.  The difference comes first, exact near
    q = p, so a small edge keeps full precision and q = 1, 0 give +1, -1.
    """
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    return _kelly_fraction(q, p)


def _power(odds, a):
    """``odds ** a``, or inf where that overflows a double.  The direct
    power is kept where it fits, so those results stay bit for bit."""
    try:
        return odds ** a
    except OverflowError:
        return math.inf


def log_utility_alpha(q, p, f, alpha):
    """Log utility of a long fraction when the winning payout multiplier
    is ``((1-p)/p) ** alpha``; alpha = 1 recovers :func:`log_utility` on
    f >= 0.  A payout beyond the float range is handled through its log,
    so the utility stays finite; an alpha so large that even that log
    overflows is a ``ValueError`` naming alpha."""
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    f = check_fraction(f, "f", lo=0.0)
    a = check_nonnegative(alpha, "alpha")
    return _log_utility(q, p, f, a, f * _power((1.0 - p) / p, a))


def optimal_fraction_alpha(q, p, alpha):
    """Optimal long fraction when the winning payout multiplier is
    ``((1-p)/p) ** alpha`` instead of the plain odds ``(1-p)/p``.

    Maximizes ``(1-q) log(1-f) + q log(1 + f ((1-p)/p)^alpha)`` over
    f in [0, 1]; the interior stationary point is
    ``q - (1-q) (p/(1-p))^alpha``, clamped at 0 when the edge is gone.
    alpha = 1 reproduces :func:`optimal_fraction` for q >= p.  Only the
    long side is defined; no short-side contract exists for alpha != 1.
    Where ``(p/(1-p))^alpha`` overflows the fraction is 0, or 1 at q = 1.
    """
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    a = check_nonnegative(alpha, "alpha")
    f = 1.0 if q == 1.0 else q - (1.0 - q) * _power(p / (1.0 - p), a)
    return max(f, 0.0)


def even_odds_growth_rate(p, f):
    """Per-step expected log growth ``p log(1+f) + (1-p) log(1-f)`` of the
    double-or-nothing game; maximized at f = 2p - 1.  It is
    :func:`log_utility` at price 1/2, where the payout is the stake."""
    p = check_probability(p, "p")
    f = check_fraction(f, "f", open_interval=True)
    return _log_utility(p, 0.5, f, 1.0, f)
