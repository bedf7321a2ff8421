"""Arithmetic whose bits are pinned: exact products, Loader's deviance,
numpy's summation order, and ``math.fsum`` of an array at numpy speed.

Above a few hundred values :func:`_fsum` splits the array by error-free
extraction (Rump, Ogita and Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008): rounding
each value to a multiple of a power of two fixed by the largest value and
the count gives high parts that numpy sums exactly, in any order, and
exact remainders.  Once an error bound on numpy's sum of the remainders
shows that every value it allows rounds alike, that is the exactly rounded
sum; otherwise, or for values whose extraction could overflow or lose
bits, ``math.fsum`` decides.  Above ``_BLOCK`` values each level runs block
by block through two buffers of a block, and takes each block's remainders
again from the values, so no call allocates an array as long as its input.
"""

import math

# Below this many values math.fsum is faster than the numpy passes: it
# takes 30-55 ns a value, extraction about 13 us a call plus 2 ns a value
# (the two meet near 450 values on a 2-core x86 host).
_FSUM_MIN_EXTRACT = 512
# Each level leaves remainders about 2^53 / n times smaller than the
# last; few sums need more than two.
_LEVELS = 4
# Above this many values :func:`_fsum` extracts block by block through two
# buffers of a block (256 KB), not through new arrays as long as the values
# (800 KB each at 10^5, on fresh pages).  Cold calls (a reference kernel run
# before each, median of 31) at 10^5 positive values: whole arrays 203 us,
# blocks of 8,192 values 233, of 16,384 196, of 32,768 185 with twice the
# buffers; at 2 * 10^4 values two blocks of 16,384 take 52 us against 43
# for one array.  A sum that cancels takes each block's remainders again at
# every level: three levels at 10^5 take 0.90 ms against 0.52.
_BLOCK = 16384


def _exact_product(count, x):
    """``count * x`` as two doubles whose sum is exact for counts of at
    most 27 significant bits: x is split into halves of at most 26 bits
    (Veltkamp)."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return count * hi, count * (x - hi)


def _n_times(n, p):
    """``n * p`` as four doubles whose sum is exact for n below 2^53:
    n = hi + lo with hi of 26 bits and lo of at most 27, each times p as
    in :func:`_exact_product` (Dekker's two-by-two product)."""
    shift = max(n.bit_length() - 26, 0)
    hi = n >> shift << shift
    return _exact_product(hi, p) + _exact_product(n - hi, p)


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


def _pairwise_sum(values):
    """The sum of at most 128 floats in numpy's float64 ``add.reduce``
    order, bit for bit: eight running sums over whole blocks of eight
    (zeros below eight values), joined in pairs, then the rest in turn.
    Not the built-in ``sum``: it compensates rounding from Python 3.12."""
    whole = len(values) // 8 * 8
    r = values[:8] if whole else [0.0] * 8
    for i in range(8, whole, 8):
        r = [a + b for a, b in zip(r, values[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[whole:]:
        total += value
    return total


def _remainders(blocks, sigmas):
    """The remainders of each of ``blocks``, ``(values, high, low)``, once a
    high part is taken off at each of ``sigmas`` in turn: the high parts go
    to the buffer ``high`` and the remainders to ``low``.  Yields the
    remainders with the block's buffers."""
    import numpy as np
    for r, high, low in blocks:
        for sigma in sigmas:
            q = np.add(r, sigma, out=high)
            q -= sigma
            r = np.subtract(r, q, out=low)
        yield r, high, low


def _fsum(values):
    """``math.fsum(values)`` for a 1-D float64 array, bit for bit: the same
    value, the same signed zero, and the same NaN or exception."""
    n = len(values)
    if n < _FSUM_MIN_EXTRACT:
        return math.fsum(memoryview(values))
    import numpy as np
    add, largest, smallest = np.add.reduce, np.maximum.reduce, np.minimum.reduce
    # a single block keeps its remainders from one level to the next, in an
    # array numpy makes as long as the values; more blocks share two buffers
    # of a block, and each level takes their remainders again from the values
    if n <= _BLOCK:
        blocks = [(values, None, None)]
    else:
        highs, lows = np.empty((2, _BLOCK))
        blocks = [(values[i:i + _BLOCK], highs[:n - i], lows[:n - i])
                  for i in range(0, n, _BLOCK)]
    sigmas, parts = [], []
    big = max(float(largest(values)), -float(smallest(values)))  # NaN if any is
    for _ in range(_LEVELS):
        if big == 0.0 and parts:  # no remainder: the parts are exact
            return math.fsum(parts)
        if not 0.0 < big < math.inf:  # all zeros, an inf or a NaN
            break
        # sigma > (n + 1) 2^e, 2^e >= max|r|: the high parts q are
        # multiples of sigma 2^-53 and every partial sum of them is below
        # sigma, so numpy adds them exactly, block by block and in any
        # order; each remainder r - q is exact and at most sigma 2^-53
        k = math.frexp(big)[1] + (n + 1).bit_length()
        if not -960 < k < 1024:  # sigma overflows, or the bound below underflows
            break
        sigma = math.ldexp(1.0, k)
        part = s = 0.0
        for r, high, _ in _remainders(blocks, sigmas) if sigmas else blocks:
            q = np.add(r, sigma, out=high)
            q -= sigma
            part += float(add(q))
            r = np.subtract(r, q, out=q)
            s += float(add(r))
        sigmas.append(sigma)
        parts.append(part)
        # a float sum of n terms, in any order, errs by at most
        # (n - 1) 2^-53 / (1 - (n - 1) 2^-53) times the sum of their sizes,
        # here at most n sigma 2^-53: in all, below n^2 sigma 2^-105
        e = math.ldexp(n * n, k - 105)
        low = math.fsum(parts + [s, -e])
        if low == math.fsum(parts + [s, e]):  # rounding is monotone
            return low
        if len(blocks) == 1:
            blocks[0], sigmas = (r, None, None), []
        big = max(max(float(largest(r)), -float(smallest(r)))
                  for r, _, _ in (_remainders(blocks, sigmas) if sigmas else blocks))
    return math.fsum(memoryview(values))
