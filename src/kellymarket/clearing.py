"""Market clearing for a population of log-utility bettors.

Each investor stakes the signed Kelly fraction of their capital at the
quoted price; the clearing price is where the signed dollar exposures sum
to zero.  Exposure is linear in the price on each side of an investor's
belief: ``c (q - p) / (1 - p)`` for a belief at or above the price and
``-c (p - q) / p`` below it.  Multiplied by ``p (1 - p)``, aggregate
exposure is therefore a quadratic in the price between two consecutive
sorted beliefs, with coefficients given by prefix sums of capital and
capital times belief.  :func:`clearing_price` sorts the beliefs and takes
those sums once, with one error-free extraction of both rows (see
:mod:`._exact`).  From that extraction come the totals, which give the
default tolerance and the mean belief, and the segment's four coefficient
sums.  Prefix sums give the sign of exposure at both bracket ends,
certified by an error bound (else summed exactly), and the segment where
the quadratic changes sign, whose root is taken in closed form, without
iteration.

A :class:`MarketPopulation` is two read-only arrays, capitals and beliefs;
each :class:`Investor` is checked once, when the population is built.  It
takes its unit then too, a power of two that puts the largest capital in
[1, 2), and holds the capitals in it, so every sum runs on exact unit-scale
bits whatever the capitals' range, and none rescales them again; every total
is exactly rounded (bit for bit ``math.fsum``).  Each value summed is then
below 2 in size, the one bound the exact sums take (``_exact._TOP``).
numpy is imported only by the functions that build or scan those arrays;
the two-investor closed forms at the end run without it.

What a solve of 300 investors with uniform beliefs costs, stage by stage
(best of 5 runs of 2,000 calls, one CPU of a 2-core x86 host, Python 3.11,
numpy 2.4): the sort, the running sums and their extraction 16 us; the two
totals 4 us; the exposure at the three bracket points 4 us; the segment and
its root 18 us, 4.5 of them the four coefficient sums; the mirrored running
sums and their extraction 10 us, when the root lies above one half; the
fractions and the residual 10 us; the exposures as a tuple 5 us; 62 us in
all, 75 with the mirror.  At 1,000 investors the solve takes 101 us (124
with the mirror), 21 of them in the segment and 17 in the fractions and the
residual.  The residual cancels, so its exact sum takes two extraction
levels, and ``math.fsum`` takes it below ``_RESIDUAL_MIN_EXTRACT`` values.
"""

import math
from dataclasses import dataclass, field

from ._exact import _Extraction, _fsum
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
# The residual cancels, so its exact sum takes two extraction levels: 10 to
# 11 us a call, which beats math.fsum only from about 450 values (at 384, 9
# to 10 us against 8; at 640, 11 against 15; warm calls, medians of
# interleaved runs on one CPU of a 2-core x86 host).
_RESIDUAL_MIN_EXTRACT = 512


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


@dataclass(frozen=True, init=False, eq=False)
class MarketPopulation:
    """Investors as read-only ``capitals`` and ``beliefs`` arrays, in the
    order given; populations of equal investors are equal."""

    # strings, so that importing the module does not import numpy
    capitals: "np.ndarray"
    beliefs: "np.ndarray"

    def __init__(self, investors):
        import numpy as np
        inv = tuple(investors)
        if not inv:
            raise ValueError("population must contain at least one investor")
        capitals = np.array([i.capital for i in inv], dtype=float)
        self._hold(capitals, np.array([i.belief for i in inv], dtype=float),
                   capitals.max())

    def _hold(self, capitals, beliefs, largest):
        # a unit of 2^(e - 1) dollars puts the largest capital in [1, 2): exact,
        # so no sum or ratio taken in it moves a bit, and none over- or underflows.
        # With beliefs in [0, 1] and Kelly fractions in [-1, 1], each of c, c q
        # and c f is then below 2, as the exact sums require
        import numpy as np
        e = math.frexp(largest)[1]
        for name, array in (("capitals", capitals), ("beliefs", beliefs),
                            ("_unit_capitals", np.ldexp(capitals, 1 - e))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_unit", math.ldexp(1.0, e - 1))

    def __getstate__(self):  # the unit is taken again when restored
        return {"capitals": self.capitals, "beliefs": self.beliefs}

    def __setstate__(self, state):  # unpickled arrays are writeable
        self._hold(state["capitals"], state["beliefs"], state["capitals"].max())

    def __eq__(self, other):
        import numpy as np
        return (other.__class__ is self.__class__
                and np.array_equal(self.capitals, other.capitals)
                and np.array_equal(self.beliefs, other.beliefs))

    def __hash__(self):
        # floats hash by value, so a belief of -0.0 hashes as 0.0 does
        return hash((tuple(self.capitals.tolist()), tuple(self.beliefs.tolist())))

    @property
    def investors(self):
        return tuple(map(Investor, self.capitals.tolist(), self.beliefs.tolist()))

    @property
    def total_capital(self):
        return _in_dollars(_fsum(self._unit_capitals), self._unit,
                           "total capital")

    def scaled(self, factor):
        """Every capital multiplied by ``factor``; beliefs unchanged."""
        import numpy as np
        factor = check_positive(factor, "factor")
        with np.errstate(over="ignore"):
            capitals = self.capitals * factor
        # no factor can both overflow one capital and underflow another
        largest = float(capitals.max())
        for bound in (largest, float(capitals.min())):
            check_positive(bound, "capital")
        population = object.__new__(MarketPopulation)
        population._hold(capitals, self.beliefs, largest)
        return population


def _in_dollars(total, unit, name):
    """A total taken in ``unit``, in dollars; a ``ValueError`` naming it
    when it is beyond the float range."""
    total *= unit
    if math.isinf(total):
        raise ValueError(f"{name} is beyond the float range")
    return total


@dataclass(frozen=True)
class ClearingResult:
    price: float
    exposures: tuple = field(repr=False)
    mean_belief: float
    gap: float        # mean_belief - price
    residual: float   # aggregate exposure at the returned price


def signed_exposure(inv, p):
    """Dollar position ``capital * optimal_fraction(belief, p)``; positive
    means long the event."""
    return inv.capital * optimal_fraction(inv.belief, p)


def _aggregate(capitals, beliefs, p):
    import numpy as np
    exposures = _kelly_fraction(beliefs, p, np.where)
    exposures *= capitals
    return _fsum(exposures)


def aggregate_exposure(pop, p):
    """Sum of signed exposures over the population at price ``p``."""
    p = check_probability(p, "p", open_interval=True)
    return _in_dollars(_aggregate(pop._unit_capitals, pop.beliefs, p), pop._unit,
                       "aggregate exposure")


def _mean(total, weighted, lowest, highest):
    """The mean belief from the exactly rounded sums of capital and capital
    times belief, kept between the extreme beliefs as the exact mean is."""
    return min(max(weighted / total, lowest), highest)


def mean_belief(pop):
    """Capital-weighted average belief, in [0, 1]; a belief every investor
    holds is returned exactly."""
    capitals, beliefs = pop._unit_capitals, pop.beliefs
    return _mean(_fsum(capitals), _fsum(capitals * beliefs),
                 float(beliefs.min()), float(beliefs.max()))


def _running_sums(capitals, order, q):
    """The market of ``capitals`` taken in ``order`` and the sorted beliefs
    ``q``: ``c``, ``q``, ``c * q``, the running sums of ``c`` and ``c * q``,
    and one :class:`_Extraction` of ``c`` and ``c * q``, the two rows of one
    array."""
    import numpy as np
    rows = np.empty((2, len(q)))
    c = capitals.take(order, out=rows[0], mode="clip")
    cq = np.multiply(c, q, out=rows[1])
    # each row is added in the order of its own 1-D cumsum, with its bits
    running = rows.cumsum(axis=1)
    return c, q, cq, running[0], running[1], _Extraction(rows)


def _end_exposure(sums, total, weighted, p):
    """Aggregate exposure at the bracket end ``p``, or a number of its sign:
    ``(B - p A) / (1 - p) + (D - p C) / p`` (see :func:`_segment_root`) from
    the running sums, or the exact sum if that is within its error bound of 0."""
    c, q, _, sum_c, sum_cq, _ = sums
    n, d = len(q), 1.0 - p
    k = int(q.searchsorted(p))  # q[:k] < p <= q[k:]
    lo_c, lo_cq = (sum_c.item(k - 1), sum_cq.item(k - 1)) if k else (0.0, 0.0)
    hi_c, hi_cq = (total - lo_c, weighted - lo_cq) if k < n else (0.0, 0.0)
    estimate = (hi_cq - p * hi_c) / d + (lo_cq - p * lo_c) / p
    # to first order a running sum errs by n 2^-53 of itself, a difference
    # from the totals by n 2^-53 of the total, an underflowed product by 2^-1075
    size = (hi_cq + p * hi_c) / d + (lo_cq + p * lo_c) / p + (0 < k < n) * total / d
    bound = (n + 8) * 2.0 ** -52 * size + n * 2.0 ** -1040
    return estimate if abs(estimate) > bound else _aggregate(c, q, p)


def _segment_root(c, q, cq, sum_c, sum_cq, extraction):
    """The price in (_PRICE_LO, _PRICE_HI) where aggregate exposure, positive
    at the lower end and negative at the upper, is zero; from :func:`_running_sums`.

    With ``C``, ``D`` the capital and capital-times-belief of the investors
    below the price and ``A``, ``B`` those of the investors above it,
    ``p (1 - p)`` times aggregate exposure is
    ``(C - A) p^2 + (B - C - D) p + D``.  Its value at each sorted belief,
    from prefix sums, locates the first belief where it is <= 0; the
    segment ending there holds the root, and that segment's coefficients
    are summed again exactly rounded before the root is taken.
    """
    # beliefs strictly inside the bracket are the only possible segment ends
    first = int(q.searchsorted(_PRICE_LO, side="right"))
    stop = int(q.searchsorted(_PRICE_HI, side="left"))
    # the totals as the running sums reach them, summed as numpy sums them
    end_c = (sum_c.item(-1) - c.item(-1)) + c.item(-1)
    end_cq = (sum_cq.item(-1) - cq.item(-1)) + cq.item(-1)
    qs = q[first:stop]
    lo_c = sum_c[first:stop] - c[first:stop]
    lo_cq = sum_cq[first:stop] - cq[first:stop]
    hi_c, hi_cq = end_c - lo_c, end_cq - lo_cq
    values = ((lo_c - hi_c) * qs + (hi_cq - lo_c - lo_cq)) * qs + lo_cq
    crossed = values <= 0.0
    j = int(crossed.argmax()) if first < stop else 0  # the first True, else 0
    k = first + j if first < stop and crossed[j] else stop
    upper = q.item(k) if k < stop else _PRICE_HI
    # the investors below the segment are those below its upper end
    m = int(q.searchsorted(upper, side="left"))
    lower = q.item(m - 1) if m > first else _PRICE_LO
    # every sum of one extraction, unless no investor is below or above
    lo_c, hi_c, lo_cq, hi_cq = (
        extraction.sums((0, m)) if 0 < m < len(q) else
        (_fsum(x) for x in (c[:m], c[m:], cq[:m], cq[m:])))
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
        best = 0.0
    else:
        best = a0 / t
        if a2 != 0.0:  # the other root, where it lies nearer the segment
            other = t / a2
            if max(lower - other, other - upper) < max(lower - best, best - upper):
                best = other
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
    import numpy as np
    capitals, unit, beliefs = pop._unit_capitals, pop._unit, pop.beliefs
    order = beliefs.argsort()
    sums = _running_sums(capitals, order, beliefs[order])
    c, q, _, _, _, extraction = sums
    lowest, highest = q.item(0), q.item(-1)
    total, weighted = extraction.sums((0,))
    mb = _mean(total, weighted, lowest, highest)
    # the residual's rounding grows with the capital, so the default does
    if tol is None:
        limit = 1e-9 * total
        tol = limit * unit
    else:
        tol = check_positive(tol, "tol")
        limit = tol / unit
    if lowest == highest:
        q = beliefs.item(0)  # the first as given: beliefs 0.0 and -0.0 are equal
        if not 0.0 < q < 1.0:
            raise NoInteriorClearing(
                f"all beliefs are {q:g}; exposure is one-sided everywhere"
            )
        return ClearingResult(q, (0.0,) * len(beliefs), q, gap=0.0, residual=0.0)

    lo, hi = _PRICE_LO, _PRICE_HI
    g_lo, g_hi = (_end_exposure(sums, total, weighted, p) for p in (lo, hi))
    if g_lo == 0.0:
        price = lo
    elif g_hi == 0.0:
        price = hi
    elif g_lo < 0.0 or g_hi > 0.0:
        # exposure is non-increasing, so same-signed ends mean no root
        g_lo, g_hi = (_aggregate(c, q, p) for p in (lo, hi))
        raise NoInteriorClearing(
            f"aggregate exposure does not change sign on ({lo:g}, {hi:g}): "
            f"{g_lo * unit:.6g} at the lower end, "
            f"{g_hi * unit:.6g} at the upper end"
        )
    elif _end_exposure(sums, total, weighted, 0.5) > 0.0:
        # a root above one half is 1 - the root of the mirrored market (beliefs
        # 1 - q), as precise as a root near 0; the sign at one half picks it
        price = 1.0 - _segment_root(*_running_sums(capitals, order[::-1],
                                                  1.0 - q[::-1]))
    else:
        price = _segment_root(*sums)

    fractions = _kelly_fraction(beliefs, price, np.where)
    # the residual is summed in the unit, where no capital overflows; the
    # exposures are taken in dollars, where none underflows to 0
    residual = capitals * fractions
    residual = (_fsum(residual) if len(residual) >= _RESIDUAL_MIN_EXTRACT
                else math.fsum(memoryview(residual)))
    # in dollars where tol / unit rounds, where the residual is exact or far below tol
    if abs(residual) > limit if limit * unit == tol else abs(residual) * unit > tol:
        raise ValueError(
            f"clearing residual {residual * unit:.3g} exceeds tolerance "
            f"{tol:.3g} at price {price:.12g}"
        )
    return ClearingResult(price, tuple((pop.capitals * fractions).tolist()), mb,
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
    """Capital that puts the mean belief of {(capital, q), (1 dollar,
    belief 1)} at p: ``(1-p)/(p-q)``, q < p.  Clearing at p takes
    ``p/(p-q)``; this market clears at ``(1-p) q / (q - 2p + 1)`` (0.14 at
    p = 0.3, q = 0.1) where that is below 1; otherwise, as for any capital
    below one dollar (q < 2p - 1), no price clears (NoInteriorClearing)."""
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
