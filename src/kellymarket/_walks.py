"""The array half of the Monte Carlo engine, in numpy, which this module
imports when it loads; :mod:`.montecarlo` imports it when a run starts.
On numpy 2, ``numpy.random`` is loaded only when the native kernel first
uses it.

Path ``i``'s flips are the Philox4x64-10 stream of ``Generator(Philox(
SeedSequence(seed, spawn_key=(i,))))``, reproduced bit for bit without
building those objects per path, in two stages:

* **Keys.** The ``SeedSequence`` hash (O'Neill's seed_seq mixing over
  uint32 words) is a fixed schedule.  The pool that mixes the seed's
  words is computed once per run in plain Python; the stage that mixes
  in the path index, and the output hash, run in one ``(4, paths)``
  uint32 pass, a row per pool word, over a whole block of path indices.
* **Flips.** Walks of at most :data:`BULK_MAX_STEPS` (44) steps run
  Philox itself in numpy over a chunk of paths by ``ceil(N/4)`` counter
  blocks, with the 64-bit multiply-high split into 32-bit halves, its
  sums formed in place, and every constant a read-only 0-d numpy array,
  built when the module loads.  Longer walks re-key one native numpy
  Philox per path through its state setter and let numpy's C loop draw
  the flips; walks of at most 512 steps are then compared and counted a
  batch of paths (at most :data:`_CHUNK_ELEMENTS` words) at a time,
  longer ones path by path.

The crossover is a property of N alone, fixed where the two kernels took
equal time per path.  Bulk time over native time of ``_path_up_steps``,
medians of 21 interleaved repeats on one CPU of a 2-core x86 VM (Python
3.11.7, numpy 2.4.6), in two sweeps over 250 and 1,000 paths, read
0.89-0.95 at N = 40, 0.93-1.01 at N = 44, 0.95-1.04 at N = 48 and
1.03-1.09 at N = 52, and in one of them 0.40-0.72 at N = 10 and
1.15-1.25 at N = 72; at 20,000 paths, 0.72-0.90 at N = 40 to 48 and
1.00-1.03 at N = 52 and 56.  On the same host, counting path by path
took 1.65x the batched time at N = 41, 1.09x at 512 steps, 1.01x at 640
and 0.93x at 1,024 (1,000 paths, 21 repeats).
"""

import itertools
import math

import numpy as np

# Stage 1, keys: the seed_seq hash behind numpy's SeedSequence
# (M. O'Neill, uint32 words, multipliers stepped at every call); its pool
# stage in Python once per run, its last stage for a whole block of path
# indices in numpy.
_M32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Hash call i uses init * mult**i and the next; a four-word pool takes
# 4 + 12 calls before the index word, and the output stage starts afresh.
_INDEX_CONSTS = [0x43B0D7E5 * 0x931E8875 ** i & _M32 for i in range(21)]
_OUT_CONSTS = [0x8B51F9DD * 0x58F38DED ** i & _M32 for i in range(5)]


def _const(value, dtype):
    """A read-only numpy array of ``value``.  A ufunc takes a 0-d array as
    it is, where it converts a Python int or a numpy scalar on every call."""
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array


# The index word's hash calls 16-19, one row per pool word it is mixed
# into, and the output hash's calls 0-3 on those words.
_INDEX_XOR, _INDEX_MUL, _OUT_XOR, _OUT_MUL = (
    _const([[v] for v in values], np.uint32)
    for values in (_INDEX_CONSTS[16:20], _INDEX_CONSTS[17:21],
                   _OUT_CONSTS[0:4], _OUT_CONSTS[1:5]))
_MIX_R = _const(_MIX_MULT_R, np.uint32)
_SIXTEEN = _const(16, np.uint32)
_MASK, _SHIFT = _const(_M32, np.uint64), _const(32, np.uint64)

# Stage 2, flips: Philox4x64-10 (Salmon et al., SC'11) round multipliers,
# each as (low half, high half, whole), and key increments, as in numpy's
# Philox bit generator.
_PHILOX_M = tuple(tuple(_const(v, np.uint64) for v in (m & _M32, m >> 32, m))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = tuple(_const(w, np.uint64) for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10

# Walks of at most this many steps run Philox in numpy over chunks of
# paths; longer walks re-key one native generator per path.  Fixed where
# the two kernels cost the same per path (module docstring).
BULK_MAX_STEPS = 44
# One work size keeps memory flat at any path count: a bulk chunk in (path
# x counter block) elements, a native chunk in paths, and a native batch of
# walks of at most _BATCH_MAX_STEPS steps in words (module docstring).
_CHUNK_ELEMENTS = 2 ** 13
_BATCH_MAX_STEPS = 512


def _hashmix(value, call):
    """Hash step number ``call`` of the int ``value``."""
    value = ((value ^ _INDEX_CONSTS[call]) * _INDEX_CONSTS[call + 1]) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _M32) - ((_MIX_MULT_R * y) & _M32)) & _M32
    return value ^ (value >> 16)


def _seed_pool(seed):
    """The four pool words of ``SeedSequence(seed)``, whose seed below
    2**64 fills at most two uint32 words: hash calls 0-3 on the words
    zero-padded to four, then 12 calls that mix each word into the others.
    """
    pool = [_hashmix(seed >> 32 * j & _M32, j) for j in range(4)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    return tuple(pool)


def _philox_keys(pool, start, stop):
    """Keys of the streams ``SeedSequence(seed, spawn_key=(i,))`` for path
    indices ``start <= i < stop <= 2**32``, from ``_seed_pool(seed)``: a
    uint64 array of two rows, the two words that ``generate_state(2,
    np.uint64)`` gives, bit for bit.

    numpy zero-pads the seed's words to four before it appends the spawn
    key, so the pool that the index word is mixed into is the seed's own
    :func:`_seed_pool`; the index word takes hash calls 16-19.  All four
    pool words go through one ``(4, paths)`` uint32 pass.
    """
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    words = index ^ _INDEX_XOR
    words *= _INDEX_MUL
    words ^= words >> _SIXTEEN
    words *= _MIX_R
    pool = np.array([[_MIX_MULT_L * w & _M32] for w in pool], dtype=np.uint32)
    np.subtract(pool, words, out=words)
    words ^= words >> _SIXTEEN
    words ^= _OUT_XOR
    words *= _OUT_MUL
    words ^= words >> _SIXTEEN
    keys = words.astype(np.uint64)
    keys[1::2] <<= _SHIFT
    return keys[0::2] | keys[1::2]


def _mulhilo(m, x):
    """High and low 64-bit words of ``m * x`` for a constant m and a uint64
    array x, from 32-bit partial products that cannot overflow; the low
    word is written over ``x``.  ``m`` is one of :data:`_PHILOX_M`.  The
    sums are formed in place, so that a call allocates five arrays, not
    fifteen."""
    m_lo, m_hi, m = m
    x_lo, x_hi = x & _MASK, x >> _SHIFT
    t = x_lo * m_lo
    t >>= _SHIFT
    t += x_hi * m_lo
    x_lo *= m_hi
    x_lo += t & _MASK
    x_hi *= m_hi
    t >>= _SHIFT
    x_hi += t
    x_lo >>= _SHIFT
    x_hi += x_lo
    x *= m
    return x_hi, x


def _below(p):
    """numpy's uniform double is ``(word >> 11) * 2**-53``, so "double < p"
    is "word < _below(p)"; p < 1 keeps the limit below 2**64."""
    return math.ceil(p * 2.0 ** 53) << 11


def _bulk_up_steps(keys, n, p):
    """Up-step counts from Philox4x64-10 run in numpy: one row per key,
    counter blocks 1..ceil(n/4), four output words per block in order."""
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    limit = np.uint64(_below(p))
    k0, k1 = (k[:, None] for k in keys)
    x0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[None, :]
    # the other three words broadcast until mixed; from round 2 on both
    # high words span every key and block, so they are mixed in place
    x1, x2, x3 = (np.zeros((1, 1), dtype=np.uint64) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + w0, k1 + w1
        hi0, lo0 = _mulhilo(m0, x0)
        hi1, lo1 = _mulhilo(m1, x2)
        if r < 2:
            x0, x2 = hi1 ^ x1 ^ k0, hi0 ^ x3 ^ k1
        else:
            hi1 ^= x1
            hi1 ^= k0
            hi0 ^= x3
            hi0 ^= k1
            x0, x2 = hi1, hi0
        x1, x3 = lo1, lo0
    # the blocks whose `word` is a step, ceil((n - word) / 4), counted in
    # one pass over the four words side by side
    ups = [x[:, :-(-(n - word) // 4)] < limit
           for word, x in enumerate((x0, x1, x2, x3))]
    return np.add.reduce(np.concatenate(ups, axis=1), axis=1, dtype=np.int64)


def _native_up_steps(keys, n, p):
    """Up-step counts from numpy's own Philox, set to each key's fresh
    stream (zero counter, empty buffer) through its state setter, and
    counted a batch of paths at a time, or path by path for long walks."""
    bitgen = np.random.Philox(0)
    draw = bitgen.random_raw
    stream = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": stream,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    limit = np.uint64(_below(p))
    batched = n <= _BATCH_MAX_STEPS
    rows = max(1, _CHUNK_ELEMENTS // n) if batched else 1
    pairs = zip(keys[0].tolist(), keys[1].tolist())
    counts = np.empty(len(keys[0]), dtype=np.int64)
    for start in range(0, len(counts), rows):
        words = []
        for key in itertools.islice(pairs, rows):
            stream["key"] = key
            bitgen.state = state
            words.append(draw(n))
        if batched:
            block = np.concatenate(words).reshape(-1, n)
            counts[start:start + rows] = np.add.reduce(block < limit, axis=1,
                                                       dtype=np.int64)
        else:
            counts[start] = np.count_nonzero(words[0] < limit)
    return counts


def _path_up_steps(walk, paths, seed):
    """Up-step count per path; path i draws its flips from the Philox
    stream keyed by ``SeedSequence(seed, spawn_key=(i,))``."""
    n, p = walk.steps, walk.bias
    if n <= BULK_MAX_STEPS:
        kernel, chunk = _bulk_up_steps, max(1, _CHUNK_ELEMENTS // -(-n // 4))
    else:
        kernel, chunk = _native_up_steps, _CHUNK_ELEMENTS
    pool = _seed_pool(seed)
    return np.concatenate([
        kernel(_philox_keys(pool, s, min(s + chunk, paths)), n, p)
        for s in range(0, paths, chunk)
    ])


# Aggregation: the reductions behind numpy's ``mean()`` and ``std(ddof=1)``
# called without their Python-level wrappers, along the last (path) axis,
# so the same pairwise sums in the same order give each row the same bits.
# A hit fraction is an exact count over the paths, as the mean of a bool
# array is.
def _mean(values):
    """``values.mean(axis=-1)`` of a float64 array."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def _std_error(values, mean):
    """Standard error of ``mean``, the mean of ``values`` along the last
    axis (one value per path): ``values.std(ddof=1, axis=-1) / sqrt(n)``;
    0 for one value, whose deviation from its own mean is 0."""
    n = values.shape[-1]
    dev = values - mean[..., None]
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=-1) / max(n - 1, 1)) / math.sqrt(n)


def _statistics(walk, paths, seed, fractions, limits):
    """Statistics of ``paths`` walks seeded by ``seed`` that bet each of
    ``fractions`` on common flips, as plain Python numbers: the mean and
    standard error of each row of one ``(rows, paths)`` array, each
    fraction's per-step growth and then that of fractions 2, 3, ... less
    the first one's, each reduced along the path axis in one call; the
    number of paths with at most each of ``limits`` up-steps; and the
    up-step histogram."""
    up_steps = _path_up_steps(walk, paths, seed)
    n, strategies = walk.steps, len(fractions)
    values = np.empty((2 * strategies - 1, paths))
    growth = values[:strategies]
    np.multiply(up_steps, np.array([[math.log1p(f)] for f in fractions]), out=growth)
    growth += (n - up_steps) * np.array([[math.log1p(-f)] for f in fractions])
    growth /= n
    if strategies > 1:
        np.subtract(growth[1:], growth[0], out=values[strategies:])
    means = _mean(values)
    errors = _std_error(values, means).tolist()
    counts = (np.add.reduce(up_steps <= np.array([[k] for k in limits]), axis=-1,
                            dtype=np.int64).tolist() if limits else [])
    hist = tuple(np.bincount(up_steps, minlength=n + 1).tolist())
    return means.tolist(), errors, counts, hist
