"""Independent oracles for the test suite.

Nothing here imports the closed forms it is used to check: utilities are
maximized by brute-force grid search, tail probabilities are summed in
exact rational arithmetic, derivatives come from finite differences,
Monte Carlo streams are drawn through numpy's own SeedSequence and Philox,
clearing prices are found by bisection, large-N binomial tails are
summed in 50-digit mpmath arithmetic or with exact big-integer
coefficients, and divergences are taken from their textbook forms in
400-digit arithmetic.
"""

import math
from fractions import Fraction
from math import comb, fsum

import mpmath
import numpy as np


def signed_utility(q, p, f):
    """Vectorized log utility over signed fractions f (array-friendly).

    Written out directly from the definition: long side for f >= 0,
    complement contract for f < 0.
    """
    f = np.asarray(f, dtype=float)
    f_pos = np.clip(f, 0.0, None)
    f_neg = np.clip(-f, 0.0, None)
    long_side = (1.0 - q) * np.log1p(-f_pos) + q * np.log1p(f_pos * (1.0 - p) / p)
    short_side = q * np.log1p(-f_neg) + (1.0 - q) * np.log1p(f_neg * p / (1.0 - p))
    return np.where(f >= 0.0, long_side, short_side)


def _two_stage_argmax(objective, lo, hi, coarse=1e-3, fine=1e-6):
    grid = np.arange(lo, hi, coarse)
    best = grid[int(np.argmax(objective(grid)))]
    left = max(lo, best - 2.0 * coarse)
    right = min(hi, best + 2.0 * coarse)
    grid = np.arange(left, right, fine)
    return float(grid[int(np.argmax(objective(grid)))])


def utility_argmax(q, p):
    """Grid-search maximizer of the signed log utility over (-1, 1),
    accurate to ~1e-6 (the utility is concave on each side)."""
    return _two_stage_argmax(lambda f: signed_utility(q, p, f),
                             -1.0 + 1e-9, 1.0 - 1e-9)


def utility_alpha_argmax(q, p, alpha):
    """Grid-search maximizer of the long-side payout-power utility on [0, 1)."""
    mult = ((1.0 - p) / p) ** alpha

    def u(f):
        f = np.asarray(f, dtype=float)
        return (1.0 - q) * np.log1p(-f) + q * np.log1p(f * mult)

    return _two_stage_argmax(u, 0.0, 1.0 - 1e-9)


def even_odds_argmax(p):
    """Grid-search maximizer of p log(1+f) + (1-p) log(1-f) over (-1, 1)."""

    def u(f):
        f = np.asarray(f, dtype=float)
        return p * np.log1p(f) + (1.0 - p) * np.log1p(-f)

    return _two_stage_argmax(u, -1.0 + 1e-9, 1.0 - 1e-9)


def exact_binomial_cdf(n, p, k):
    """P(up-steps <= k) as an exact Fraction; p may be float or Fraction.

    Only meant for small n (exact big-integer arithmetic).
    """
    p = Fraction(p)  # a float converts to its exact binary value
    k = int(k)
    if k < 0:
        return Fraction(0)
    total = Fraction(0)
    for i in range(min(k, n) + 1):
        total += comb(n, i) * p ** i * (1 - p) ** (n - i)
    return total


def big_integer_log_binomial_cdf(n, p, k):
    """log P(up-steps <= k) for an integer 0 <= k < n from log pmf terms
    whose binomial coefficients are exact big integers, then max +
    log-sum-exp clamped at 0: the term loop ``growth`` uses for short
    horizons, kept here to pin those bits and as a second large-N
    reference (its cost grows as about k^1.7).  Each exp is libm's, and
    numpy's own sum adds them, in the order that ``growth`` writes out."""
    log_p, log_1mp = math.log(p), math.log1p(-p)
    terms = np.empty(k + 1)
    c = 1
    for i in range(k + 1):
        terms[i] = math.log(c) + i * log_p + (n - i) * log_1mp
        c = c * (n - i) // (i + 1)
    m = terms.max()
    return min(float(m + math.log(np.array([math.exp(t) for t in terms - m]).sum())), 0.0)


def mpmath_log_binomial_cdf(n, p, k):
    """log P(up-steps <= k) for an integer 0 <= k < n in 50-digit
    arithmetic, p taken at its exact binary value.

    Starts at the largest term wanted, j0 = min(k, mode), and walks the
    pmf ratio recurrence down from j0 and up to k, each way until a term
    falls below 1e-30 of the running sum (the pmf is unimodal, so every
    later term is smaller still).
    """
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        Q = 1 - P
        j0 = min(k, math.floor((n + 1) * p))
        first = mpmath.binomial(n, j0) * P ** j0 * Q ** (n - j0)
        total, cut = first, mpmath.mpf(10) ** -30
        down, up = Q / P, P / Q
        t, j = first, j0
        while j > 0:
            t = t * down * j / (n - j + 1)
            total += t
            if t < total * cut:
                break
            j -= 1
        t, j = first, j0 + 1
        while j <= k:
            t = t * up * (n - j + 1) / j
            total += t
            if t < total * cut:
                break
            j += 1
        return float(mpmath.log(total))


def mpmath_log_binomial_pmf(n, p, k):
    """log P(exactly k up-steps) in 50-digit arithmetic, p taken at its
    exact binary value."""
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        return float(mpmath.log(mpmath.binomial(n, k))
                     + k * mpmath.log(P) + (n - k) * mpmath.log(1 - P))


# 400 digits (1,329 bits) hold 1 - p and p + eps exactly for any doubles
# in (0, 1), which need at most 1,075 bits, and leave an absolute error
# near 1e-397, far below the smallest double, after the textbook forms
# below cancel.  A 60-digit reference rounds 1 - 1e-300 to 1 and gives
# negative divergences.
DIVERGENCE_DPS = 400


def _mp_kl(a, p):
    """D(a || p) for mpf a and p, with 0 log 0 = 0."""
    d = a * mpmath.log(a / p) if a else mpmath.mpf(0)
    return d + ((1 - a) * mpmath.log((1 - a) / (1 - p)) if a != 1 else 0)


def mpmath_kl_divergence(a, p):
    """D(a || p) between Bernoulli(a) and Bernoulli(p) at the exact binary
    values of a and p, in :data:`DIVERGENCE_DPS`-digit arithmetic."""
    with mpmath.workdps(DIVERGENCE_DPS):
        return _mp_kl(mpmath.mpf(a), mpmath.mpf(p))


def mpmath_bias_sensitivity(a, p, eps):
    """``D(a || p + eps) - D(a || p)`` with p + eps summed exactly."""
    with mpmath.workdps(DIVERGENCE_DPS):
        a, p = mpmath.mpf(a), mpmath.mpf(p)
        return _mp_kl(a, p + mpmath.mpf(eps)) - _mp_kl(a, p)


def mpmath_fraction_sensitivity(p, eps):
    """``U(2p - 1 + eps) - U(2p - 1)`` for the even-odds growth rate
    ``U(f) = p log(1 + f) + (1 - p) log(1 - f)``, f summed exactly."""
    with mpmath.workdps(DIVERGENCE_DPS):
        p, eps = mpmath.mpf(p), mpmath.mpf(eps)

        def growth(f):
            return p * mpmath.log(1 + f) + (1 - p) * mpmath.log(1 - f)

        return growth(2 * p - 1 + eps) - growth(2 * p - 1)


def central_difference(func, x, h):
    """Symmetric first derivative estimate."""
    return (func(x + h) - func(x - h)) / (2.0 * h)


def philox_key(seed, path_index):
    """The Philox key numpy derives for path ``path_index``'s stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return tuple(int(k) for k in ss.generate_state(2, np.uint64))


def per_path_up_steps(walk, paths, seed, path_offset=0):
    """Up-step count per path, one SeedSequence + Philox + Generator per
    path: the streams the vectorised engine must reproduce bit for bit."""
    counts = np.empty(paths, dtype=np.int64)
    for i in range(paths):
        ss = np.random.SeedSequence(seed, spawn_key=(path_offset + i,))
        rng = np.random.Generator(np.random.Philox(ss))
        counts[i] = int((rng.random(walk.steps) < walk.bias).sum())
    return counts


def kelly_exposure(capitals, beliefs, p):
    """Aggregate exposure at price ``p``, one investor at a time: capital
    times the Kelly fraction ``q - p (1-q)/(1-p)`` (long, q >= p) or
    ``-((1-q) - (1-p) q/p)`` (complement, q < p), summed exactly rounded."""
    return fsum(
        c * (q - p * (1.0 - q) / (1.0 - p)) if q >= p
        else -c * ((1.0 - q) - (1.0 - p) * q / p)
        for c, q in zip(capitals, beliefs)
    )


def bisection_clearing_price(capitals, beliefs):
    """Clearing price by bisection on the sign of the aggregate exposure,
    one Python pass over the investors per halving, or ``None`` when no
    price in (1e-9, 1 - 1e-9) clears.

    Aggregate exposure (:func:`kelly_exposure`) is non-increasing in the
    price, so its sign brackets the root.  Halving stops when the bracket
    is 1e-13 wide and the exposure is within 1e-9, or when no double lies
    between its ends.
    """
    if min(beliefs) == max(beliefs):
        return beliefs[0] if 0.0 < beliefs[0] < 1.0 else None
    lo, hi = 1e-9, 1.0 - 1e-9
    g_lo = kelly_exposure(capitals, beliefs, lo)
    g_hi = kelly_exposure(capitals, beliefs, hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo < 0.0 or g_hi > 0.0:
        return None
    price = 0.5 * (lo + hi)
    for _ in range(200):
        price = 0.5 * (lo + hi)
        g = kelly_exposure(capitals, beliefs, price)
        if g == 0.0 or price in (lo, hi):
            break
        if g > 0.0:
            lo = price
        else:
            hi = price
        if hi - lo <= 1e-13 and abs(g) <= 1e-9:
            break
    return price


def multi_pass_clearing_price(pop, tol=None):
    """``clearing.clearing_price`` as it stood before it cleared a market
    in one sorted pass: it took the default tolerance, both bracket ends
    and the mean belief each in a full pass of its own.  The reference for
    the single pass, which must match it bit for bit, exceptions included.
    """
    from kellymarket._validation import check_positive
    from kellymarket.clearing import ClearingResult, NoInteriorClearing

    def in_units(capitals):
        e = math.frexp(capitals.max())[1]
        return np.ldexp(capitals, 1 - e), math.ldexp(1.0, e - 1)

    def kelly(q, p):
        return (q - p) / np.where(q >= p, 1.0 - p, p)

    def aggregate(capitals, beliefs, p):
        return fsum(memoryview(capitals * kelly(beliefs, p)))

    def mean_belief():
        capitals, _ = in_units(pop.capitals)
        mean = (fsum(memoryview(capitals * pop.beliefs))
                / fsum(memoryview(capitals)))
        return min(max(mean, float(pop.beliefs.min())), float(pop.beliefs.max()))

    def clearing_root(capitals, beliefs):
        order = np.argsort(beliefs)
        q, c = beliefs[order], capitals[order]
        if (c * kelly(q, 0.5)).sum() > 0.0:
            return 1.0 - segment_root(c[::-1], 1.0 - q[::-1])
        return segment_root(c, q)

    def segment_root(c, q):
        cq = c * q
        first = int(np.searchsorted(q, 1e-9, side="right"))
        stop = int(np.searchsorted(q, 1.0 - 1e-9, side="left"))
        below_c = np.cumsum(c) - c
        below_cq = np.cumsum(cq) - cq
        qs = q[first:stop]
        lo_c, lo_cq = below_c[first:stop], below_cq[first:stop]
        hi_c, hi_cq = below_c[-1] + c[-1] - lo_c, below_cq[-1] + cq[-1] - lo_cq
        values = ((lo_c - hi_c) * qs + (hi_cq - lo_c - lo_cq)) * qs + lo_cq
        crossed = np.flatnonzero(values <= 0.0)
        k = first + int(crossed[0]) if crossed.size else stop
        upper = float(q[k]) if k < stop else 1.0 - 1e-9
        m = int(np.searchsorted(q, upper, side="left"))
        lower = float(q[m - 1]) if m > first else 1e-9
        lo_c, hi_c = fsum(memoryview(c[:m])), fsum(memoryview(c[m:]))
        lo_cq, hi_cq = fsum(memoryview(cq[:m])), fsum(memoryview(cq[m:]))
        return quadratic_root(fsum((lo_c, -hi_c)), fsum((hi_cq, -lo_c, -lo_cq)),
                              lo_cq, lower, upper)

    def quadratic_root(a2, a1, a0, lower, upper):
        root_disc = math.sqrt(max(a1 * a1 - 4.0 * a2 * a0, 0.0))
        t = -0.5 * (a1 + math.copysign(root_disc, a1))
        if t == 0.0:
            roots = (0.0,)
        elif a2 == 0.0:
            roots = (a0 / t,)
        else:
            roots = (a0 / t, t / a2)
        best = min(roots, key=lambda r: max(lower - r, r - upper))
        return min(max(best, lower), upper)

    (capitals, unit), beliefs = in_units(pop.capitals), pop.beliefs
    # the tolerance in dollars, an exact rational
    tol = (Fraction(1e-9 * fsum(memoryview(capitals))) * Fraction(unit) if tol is None
           else Fraction(check_positive(tol, "tol")))
    if beliefs.min() == beliefs.max():
        q = float(beliefs[0])
        if not 0.0 < q < 1.0:
            raise NoInteriorClearing(
                f"all beliefs are {q:g}; exposure is one-sided everywhere")
        return ClearingResult(price=q, exposures=(0.0,) * len(beliefs),
                              mean_belief=q, gap=0.0, residual=0.0)
    lo, hi = 1e-9, 1.0 - 1e-9
    g_lo = aggregate(capitals, beliefs, lo)
    g_hi = aggregate(capitals, beliefs, hi)
    if g_lo == 0.0:
        price = lo
    elif g_hi == 0.0:
        price = hi
    elif g_lo < 0.0 or g_hi > 0.0:
        raise NoInteriorClearing(
            f"aggregate exposure does not change sign on ({lo:g}, {hi:g}): "
            f"{g_lo * unit:.6g} at the lower end, "
            f"{g_hi * unit:.6g} at the upper end")
    else:
        price = clearing_root(capitals, beliefs)
    exposures = capitals * kelly(beliefs, price)
    residual = fsum(memoryview(exposures))
    if abs(Fraction(residual)) * Fraction(unit) > tol:
        raise ValueError(
            f"clearing residual {residual * unit:.3g} exceeds tolerance "
            f"{float(tol):.3g} at price {price:.12g}")
    mb = mean_belief()
    return ClearingResult(price, tuple((exposures * unit).tolist()), mb,
                          gap=mb - price, residual=residual * unit)
