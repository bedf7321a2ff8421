"""Independent oracles for the test suite.

Nothing here imports the closed forms it is used to check: utilities are
maximized by brute-force grid search, tail probabilities are summed in
exact rational arithmetic, derivatives come from finite differences,
Monte Carlo streams are drawn through numpy's own SeedSequence and Philox,
and clearing prices are found by bisection.
"""

from fractions import Fraction
from math import comb, fsum

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
