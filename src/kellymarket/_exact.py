"""Arithmetic whose bits are pinned: exact products, Loader's deviance,
numpy's summation order, and ``math.fsum`` of an array at numpy speed.

:func:`_fsum` and :class:`_Extraction` sum values below 2 in size
(``_TOP``); a market's power-of-two unit keeps every value clearing sums
there.  They split the array by error-free extraction (Rump, Ogita and
Oishi, "Accurate floating-point summation part I: faithful rounding", SIAM
J. Sci. Comput. 31(1), 2008): rounding each value to a multiple of a power
of two fixed by that bound and the count gives high parts that numpy sums
exactly, in any order, and exact remainders.  Once an error bound on
numpy's sum of the remainders shows that every value it allows rounds
alike, that is the exactly rounded sum; otherwise the next level splits the
remainders, whose size the last level bounds, and after ``_LEVELS`` levels
``math.fsum`` decides.  Above ``_BLOCK`` values each level runs block by
block through one buffer of a block, and takes each block's remainders
again from the values, so no call allocates an array as long as its input.
:func:`_fsum` hands a short array to ``math.fsum``; :class:`_Extraction`
runs one level over the rows of a 2-D array of any width and reads the sums
of any runs of columns.
"""

import math

# Every value summed is at most 2^_TOP in size.
_TOP = 1
# Below these many values math.fsum, at 23 to 28 ns a value, is faster than
# _fsum's numpy passes (warm calls, medians of interleaved runs on one CPU of
# a 2-core x86 host).  One level takes about 4 us a call plus 1.3 ns a value:
# the two meet near 200 values (0.80 to 0.85 of math.fsum's time at 224 and
# 256, 0.96 to 0.99 at 192 and 208, 1.03 to 1.17 at 160 and 176).
_FSUM_MIN_EXTRACT = 224
# Each level leaves remainders about 2^53 / n times smaller than the
# last; few sums need more than two.
_LEVELS = 4
# Above this many values :func:`_fsum` extracts block by block through a
# (2, block) buffer (256 KB), not through new arrays as long as the values
# (800 KB each at 10^5, on fresh pages).  Cold calls (a reference kernel run
# before each, median of 31) at 10^5 positive values: whole arrays 203 us,
# blocks of 8,192 values 233, of 16,384 196, of 32,768 185 with twice the
# buffers; at 2 * 10^4 values two blocks of 16,384 take 52 us against 43
# for one array.  A sum that cancels takes each block's remainders again at
# every level, but each level's sigma comes from the last level's bound, not
# from another pass over the blocks: the exposures of 10^5 investors at their
# clearing price (three levels) take 0.90 ms, against 1.35 ms with that pass
# (cold calls as above, in one run).
_BLOCK = 16384
# sigma = 2^k for each exponent k met so far (see _sigma)
_SIGMAS = {}


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


def _sigma(k):
    """sigma = 2^k as a 0-d array, which numpy adds converting no float;
    built at its first use and shared by every later sum, so read-only."""
    try:
        return _SIGMAS[k]
    except KeyError:
        import numpy as np
        sigma = np.array(math.ldexp(1.0, k))
        sigma.flags.writeable = False
        return _SIGMAS.setdefault(k, sigma)


def _split(values, sigma, high, low):
    """One extraction level: the high parts of ``values`` at ``sigma`` (see
    :func:`_sigma`) into ``high`` and their exact remainders into ``low``,
    which may be the values themselves.  Returns ``low``."""
    import numpy as np
    np.add(values, sigma, out=high)
    high -= sigma
    return np.subtract(values, high, out=low)


def _exponent(top, n):
    """k of sigma = 2^k > (n + 1) 2^top for n values of at most 2^top in
    size: the high parts q are multiples of sigma 2^-53 and every partial
    sum of them is below sigma, so numpy adds them exactly, block by block
    and in any order; each remainder r - q is exact and at most sigma 2^-53."""
    return top + (n + 1).bit_length()


def _bound(n, k):
    """A bound on the error of a float sum, in any order, of at most n
    remainders of one level at sigma = 2^k."""
    # a float sum of n terms errs by at most (n - 1) 2^-53 / (1 - (n - 1) 2^-53)
    # times the sum of their sizes, here at most n sigma 2^-53: in all, below
    # n^2 sigma 2^-105
    return math.ldexp(n * n, k - 105)


def _certified(parts, s, e):
    """The sum of the exact ``parts`` and of remainders whose float sum is
    ``s``, within ``e`` of theirs, exactly rounded; or None when that leaves
    two roundings open."""
    low = math.fsum([*parts, s, -e])
    return low if low == math.fsum([*parts, s, e]) else None  # rounding is monotone


class _Extraction:
    """One extraction level over the rows of a 2-D array of any width n;
    :meth:`sums` reads from it the exactly rounded sums of runs of columns
    in each row (a solve's six beat ``math.fsum`` from about 60 columns)."""

    def __init__(self, rows):
        import numpy as np
        self.rows, self.n = rows, rows.shape[1]
        k = _exponent(_TOP, self.n)  # a run of fewer columns keeps k and e
        self.e = _bound(self.n, k)
        self.split = split = np.empty((2, *rows.shape))
        _split(rows, _sigma(k), split[0], split[1])

    def sums(self, cuts):
        """Each row's sums over the columns from each of the increasing
        ``cuts`` (the first 0, the last below n) to the next, the last to
        the end, row by row: bit for bit ``math.fsum``, certified by the
        bound on the remainders' sum, else taken by :func:`_fsum`."""
        import numpy as np
        highs, lows = np.add.reduceat(self.split, cuts, axis=-1).reshape(2, -1).tolist()
        sums = []
        for i, (part, s) in enumerate(zip(highs, lows)):
            total = _certified([part], s, self.e)
            if total is None:
                row, j = divmod(i, len(cuts))
                total = _fsum(self.rows[row, cuts[j]:(*cuts, self.n)[j + 1]])
            sums.append(total)
        return sums


def _fsum(values):
    """``math.fsum(values)`` for a 1-D float64 array of values below 2 in
    size, bit for bit: the same value and the same signed zero."""
    n = len(values)
    if n < _FSUM_MIN_EXTRACT:
        return math.fsum(memoryview(values))
    import numpy as np
    # a (2, n) buffer takes the high parts and remainders of one block, and
    # keeps its remainders from one level to the next, so that the first
    # level runs straight through and a later one goes on from the last.  More
    # blocks share one of a block, and each level takes their remainders
    # again from the values, at every sigma so far
    buffer = np.empty((2, n if n <= _BLOCK else _BLOCK))
    high, low = buffer[0], buffer[1]
    r, sigmas, parts = values, [], []
    k = _exponent(_TOP, n)
    while True:  # a loop over range(_LEVELS) adds a twentieth to a sum
        sigma = _sigma(k)
        if n <= _BLOCK:  # _split inline, whose call adds a twentieth to a sum
            np.add(r, sigma, out=high)
            high -= sigma
            r = np.subtract(r, high, out=low)
            part, s = np.add.reduce(buffer, axis=1).tolist()
            exact = not s and not r.any()  # no remainder is left
        else:
            sigmas.append(sigma)
            part = s = 0.0
            exact = True
            for i in range(0, n, _BLOCK):
                r, out = values[i:i + _BLOCK], buffer[:, :n - i]
                for each in sigmas:
                    r = _split(r, each, out[0], out[1])
                block_part, block_s = np.add.reduce(out, axis=1).tolist()
                part += block_part
                s += block_s
                exact = exact and not block_s and not r.any()
        parts.append(part)
        total = _certified(parts, s, _bound(n, k))
        if total is not None:
            return total
        if exact:
            return math.fsum(parts)  # the parts are exact
        if len(parts) == _LEVELS:
            return math.fsum(memoryview(values))
        k = _exponent(k - 53, n)  # every remainder is at most sigma 2^-53
