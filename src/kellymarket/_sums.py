"""Exactly rounded sums of float arrays: ``math.fsum``, bit for bit, at
numpy speed.

Above a few hundred values :func:`_fsum` splits the array by error-free
extraction (Rump, Ogita and Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008): rounding
each value to a multiple of a power of two fixed by the largest value and
the count gives high parts that numpy sums exactly, in any order, and
exact remainders.  Once an error bound on numpy's sum of the remainders
shows that every value it allows rounds alike, that is the exactly rounded
sum; otherwise, or for values whose extraction could overflow or lose
bits, ``math.fsum`` decides.
"""

import math

# Below this many values math.fsum is faster than the numpy passes: it
# takes 30-55 ns a value, extraction about 13 us a call plus 2 ns a value
# (the two meet near 450 values on a 2-core x86 host).
_FSUM_MIN_EXTRACT = 512
# Each level leaves remainders about 2^53 / n times smaller than the
# last; few sums need more than two.
_LEVELS = 4


def _fsum(values):
    """``math.fsum(values)`` for a 1-D float64 array, bit for bit: the same
    value, the same signed zero, and the same NaN or exception."""
    n = len(values)
    if n < _FSUM_MIN_EXTRACT:
        return math.fsum(memoryview(values))
    import numpy as np
    parts, r, spare = [], values, None
    for _ in range(_LEVELS):
        big = max(float(r.max()), -float(r.min()))  # NaN if any is NaN
        if big == 0.0 and parts:  # no remainder: the parts are exact
            return math.fsum(parts)
        if not 0.0 < big < math.inf:  # all zeros, an inf or a NaN
            break
        # sigma > (n + 1) 2^e, 2^e >= max|r|: the high parts q are
        # multiples of sigma 2^-53 and every partial sum of them is below
        # sigma, so numpy adds them exactly; each remainder r - q is exact
        # and at most sigma 2^-53
        k = math.frexp(big)[1] + (n + 1).bit_length()
        if not -960 < k < 1024:  # sigma overflows, or the bound below underflows
            break
        sigma = math.ldexp(1.0, k)
        q = np.add(r, sigma, out=spare)
        q -= sigma
        parts.append(float(q.sum()))
        spare, r = (None if r is values else r), np.subtract(r, q, out=q)
        # a float sum of n terms, in any order, errs by at most
        # (n - 1) 2^-53 / (1 - (n - 1) 2^-53) times the sum of their sizes,
        # here at most n sigma 2^-53: in all, below n^2 sigma 2^-105
        s, e = float(r.sum()), math.ldexp(n * n, k - 105)
        low = math.fsum(parts + [s, -e])
        if low == math.fsum(parts + [s, e]):  # rounding is monotone
            return low
    return math.fsum(memoryview(values))
