"""Market clearing for a population of log-utility bettors.

Each investor stakes the signed Kelly fraction of their capital at the
quoted price; the clearing price is where the signed dollar exposures sum
to zero.  Exposure is linear in the price on each side of an investor's
belief: ``c (q - p) / (1 - p)`` for a belief at or above the price and
``-c (p - q) / p`` below it.  Multiplied by ``p (1 - p)``, aggregate
exposure is therefore a quadratic in the price between two consecutive
sorted beliefs, with coefficients given by prefix sums of capital and
capital times belief.  :func:`clearing_price` sorts the beliefs once,
finds the segment where that quadratic changes sign, and returns its
root there in closed form; no iteration is needed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive, check_probability
from .kelly import _kelly_fraction, optimal_fraction

__all__ = [
    "Investor",
    "MarketPopulation",
    "ClearingResult",
    "NoInteriorClearing",
    "signed_exposure",
    "aggregate_exposure",
    "mean_belief",
    "clearing_price",
    "confident_no_capital",
    "mean_belief_confident_no",
    "confident_yes_capital",
    "mean_belief_confident_yes",
]

# Price bracket: prices never reach the endpoints (odds diverge there).
_PRICE_LO = 1e-9
_PRICE_HI = 1.0 - 1e-9


class NoInteriorClearing(ValueError):
    """Aggregate exposure never crosses zero on (0, 1).

    Happens when every belief sits at the same endpoint, or when all
    beliefs are extreme (0 or 1) with a capital imbalance: the one-sided
    demand is constant in the price, so no interior price clears.
    """


@dataclass(frozen=True, slots=True)
class Investor:
    capital: float  # dollars, > 0
    belief: float   # subjective probability, [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "capital", check_positive(self.capital, "capital"))
        object.__setattr__(self, "belief", check_probability(self.belief, "belief"))


def _read_only(values, count):
    array = np.fromiter(values, dtype=float, count=count)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class MarketPopulation:
    investors: tuple
    # Read-only copies of the investors' fields, in the same order, built
    # once so that every solve and exposure sum runs over arrays.
    capitals: np.ndarray = field(init=False, repr=False, compare=False)
    beliefs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inv = tuple(self.investors)
        if not inv:
            raise ValueError("population must contain at least one investor")
        object.__setattr__(self, "investors", inv)
        object.__setattr__(self, "capitals",
                           _read_only((i.capital for i in inv), len(inv)))
        object.__setattr__(self, "beliefs",
                           _read_only((i.belief for i in inv), len(inv)))

    @property
    def total_capital(self):
        return math.fsum(self.capitals.tolist())

    def scaled(self, factor):
        """Every capital multiplied by ``factor``; beliefs unchanged."""
        factor = check_positive(factor, "factor")
        return MarketPopulation(
            tuple(Investor(i.capital * factor, i.belief) for i in self.investors)
        )


@dataclass(frozen=True)
class ClearingResult:
    price: float
    exposures: tuple = field(repr=False)
    mean_belief: float = 0.0
    gap: float = 0.0        # mean_belief - price
    residual: float = 0.0   # aggregate exposure at the returned price


def signed_exposure(inv, p):
    """Dollar position ``capital * optimal_fraction(belief, p)``; positive
    means long the event."""
    return inv.capital * optimal_fraction(inv.belief, p)


def _aggregate(capitals, beliefs, p):
    return math.fsum((capitals * _kelly_fraction(beliefs, p, np.where)).tolist())


def aggregate_exposure(pop, p):
    """Sum of signed exposures over the population at price ``p``."""
    p = check_probability(p, "p", open_interval=True)
    return _aggregate(pop.capitals, pop.beliefs, p)


def _mean_belief(capitals, beliefs):
    return math.fsum((capitals * beliefs).tolist()) / math.fsum(capitals.tolist())


def mean_belief(pop):
    """Capital-weighted average belief, in [0, 1]."""
    return _mean_belief(pop.capitals, pop.beliefs)


def _clearing_root(capitals, beliefs):
    """The price in (_PRICE_LO, _PRICE_HI) where aggregate exposure is zero,
    given that it is positive at the lower end and negative at the upper.

    A root above one half is found as ``1 - u``, with ``u`` the root of the
    mirrored market (beliefs ``1 - q``, every position swapped for its
    complement), so that a root near 1 keeps the relative precision of a
    root near 0.  Which half holds the root only matters for precision,
    so a plain sum decides it.
    """
    order = np.argsort(beliefs)
    q, c = beliefs[order], capitals[order]
    if (c * _kelly_fraction(q, 0.5, np.where)).sum() > 0.0:
        return 1.0 - _segment_root(c[::-1], 1.0 - q[::-1])
    return _segment_root(c, q)


def _segment_root(c, q):
    """:func:`_clearing_root` for capitals ``c`` and beliefs ``q`` sorted by
    belief.

    With ``C``, ``D`` the capital and capital-times-belief of the investors
    below the price and ``A``, ``B`` those of the investors above it,
    ``p (1 - p)`` times aggregate exposure is
    ``(C - A) p^2 + (B - C - D) p + D``.  Its value at each sorted belief,
    from prefix sums, locates the first belief where it is <= 0; the
    segment ending there holds the root, and that segment's coefficients
    are summed again exactly rounded before the root is taken.
    """
    cq = c * q
    # beliefs strictly inside the bracket are the only possible segment ends
    first = int(np.searchsorted(q, _PRICE_LO, side="right"))
    stop = int(np.searchsorted(q, _PRICE_HI, side="left"))
    below_c = np.cumsum(c) - c
    below_cq = np.cumsum(cq) - cq
    qs = q[first:stop]
    lo_c, lo_cq = below_c[first:stop], below_cq[first:stop]
    hi_c, hi_cq = below_c[-1] + c[-1] - lo_c, below_cq[-1] + cq[-1] - lo_cq
    values = ((lo_c - hi_c) * qs + (hi_cq - lo_c - lo_cq)) * qs + lo_cq
    crossed = np.flatnonzero(values <= 0.0)
    k = first + int(crossed[0]) if crossed.size else stop
    upper = float(q[k]) if k < stop else _PRICE_HI
    # the investors below the segment are those below its upper end
    m = int(np.searchsorted(q, upper, side="left"))
    lower = float(q[m - 1]) if m > first else _PRICE_LO
    lo_c, hi_c = math.fsum(c[:m].tolist()), math.fsum(c[m:].tolist())
    lo_cq, hi_cq = math.fsum(cq[:m].tolist()), math.fsum(cq[m:].tolist())
    return _quadratic_root(math.fsum((lo_c, -hi_c)),
                           math.fsum((hi_cq, -lo_c, -lo_cq)), lo_cq,
                           lower, upper)


def _quadratic_root(a2, a1, a0, lower, upper):
    """The root of ``a2 p^2 + a1 p + a0`` in [lower, upper], from the
    cancellation-free form of the quadratic formula; clamped into the
    segment when rounding puts it a hair outside."""
    root_disc = math.sqrt(max(a1 * a1 - 4.0 * a2 * a0, 0.0))
    t = -0.5 * (a1 + math.copysign(root_disc, a1))
    if t == 0.0:  # a1 = 0 and a2 a0 >= 0: the only real root is 0
        roots = (0.0,)
    elif a2 == 0.0:
        roots = (a0 / t,)
    else:
        roots = (a0 / t, t / a2)
    best = min(roots, key=lambda r: max(lower - r, r - upper))
    return min(max(best, lower), upper)


def clearing_price(pop, tol=None):
    """Solve for the price at which the market clears.

    Returns a :class:`ClearingResult` whose residual is the (tiny) leftover
    aggregate exposure; a residual beyond ``tol`` dollars, by default 1e-9
    of the market's total capital, is a ``ValueError``.  A population with
    one shared interior belief clears trivially at that belief with zero
    volume.  Raises :class:`NoInteriorClearing` when exposure has the same
    sign across the whole interior bracket.  Capitals may span the float range.
    """
    # Solve in units of 2^(e - 1) dollars, which put the largest capital in
    # [1, 2): exact, so no result's bits move, and nothing over/underflows.
    e = math.frexp(pop.capitals.max())[1]
    unit = math.ldexp(1.0, e - 1)
    capitals, beliefs = np.ldexp(pop.capitals, 1 - e), pop.beliefs
    # the residual's rounding grows with the capital, so the default does
    tol = (1e-9 * math.fsum(capitals.tolist()) if tol is None
           else check_positive(tol, "tol") / unit)
    if beliefs.min() == beliefs.max():
        q = float(beliefs[0])
        if not 0.0 < q < 1.0:
            raise NoInteriorClearing(
                f"all beliefs are {q:g}; exposure is one-sided everywhere"
            )
        zeros = (0.0,) * len(beliefs)
        return ClearingResult(price=q, exposures=zeros, mean_belief=q,
                              gap=0.0, residual=0.0)

    lo, hi = _PRICE_LO, _PRICE_HI
    g_lo = _aggregate(capitals, beliefs, lo)
    g_hi = _aggregate(capitals, beliefs, hi)
    if g_lo == 0.0:
        price = lo
    elif g_hi == 0.0:
        price = hi
    elif g_lo < 0.0 or g_hi > 0.0:
        # exposure is non-increasing, so same-signed ends mean no root
        raise NoInteriorClearing(
            f"aggregate exposure does not change sign on ({lo:g}, {hi:g}): "
            f"{g_lo * unit:.6g} at the lower end, "
            f"{g_hi * unit:.6g} at the upper end"
        )
    else:
        price = _clearing_root(capitals, beliefs)

    exposures = capitals * _kelly_fraction(beliefs, price, np.where)
    residual = math.fsum(exposures.tolist())
    if abs(residual) > tol:
        raise ValueError(
            f"clearing residual {residual * unit:.3g} exceeds tolerance "
            f"{tol * unit:.3g} at price {price:.12g}"
        )
    mb = _mean_belief(capitals, beliefs)
    return ClearingResult(price, tuple((exposures * unit).tolist()), mb,
                          gap=mb - price, residual=residual * unit)


def confident_no_capital(q, p):
    """Capital the q-believer needs to clear against one dollar held by a
    bettor certain the event will not happen: ``(1-p)/(q-p)``, q > p."""
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    if q - p < 1e-12:
        raise ValueError(f"q must exceed p (pole at q = p): q={q}, p={p}")
    return (1.0 - p) / (q - p)


def mean_belief_confident_no(q, p):
    """Mean belief of the two-investor market {(confident_no_capital, q),
    (1 dollar, belief 0)}: ``(1-p) q / (q - 2p + 1)``.

    Over q in (p, 1] its value runs between p and 1/2, so it sits in
    [0, 1/2] for p < 1/2 and in [1/2, 1] for p > 1/2.
    """
    confident_no_capital(q, p)  # domain checks
    return (1.0 - p) * q / (q - 2.0 * p + 1.0)


def confident_yes_capital(q, p):
    """Capital the q-believer needs to clear against one dollar held by a
    bettor certain the event will happen: ``(1-p)/(p-q)``, q < p."""
    q = check_probability(q, "q")
    p = check_probability(p, "p", open_interval=True)
    if p - q < 1e-12:
        raise ValueError(f"q must be below p (pole at q = p): q={q}, p={p}")
    return (1.0 - p) / (p - q)


def mean_belief_confident_yes(q, p):
    """Mean belief of {(confident_yes_capital, q), (1 dollar, belief 1)}.

    Collapses algebraically to the price itself: the market's mean belief
    equals p for every admissible (q, p).
    """
    confident_yes_capital(q, p)  # domain checks
    return p
