"""Seeded Monte Carlo engine for the double-or-nothing game.

Path ``i`` draws its coin flips from the Philox4x64-10 stream that numpy
builds as ``Generator(Philox(SeedSequence(seed, spawn_key=(i,))))``; only
the up-step count of each path is kept, and wealth is tracked in log space.
The engine never builds those objects per path.  It works in two stages:

* **Keys.** The ``SeedSequence`` hash (O'Neill's seed_seq mixing over
  uint32 words) is a fixed schedule.  The pool that mixes the seed's
  words is computed once per run in plain Python; the stage that mixes
  in the path index, and the output hash, run in one ``(4, paths)``
  uint32 pass, a row per pool word, over a whole block of path indices.
* **Flips.** Walks of at most :data:`BULK_MAX_STEPS` (44) steps run
  Philox itself in numpy over a chunk of paths by ``ceil(N/4)`` counter
  blocks, with the 64-bit multiply-high split into 32-bit halves, its
  sums formed in place, and every constant a 0-d numpy array, built once
  per process.  Longer walks re-key one native numpy Philox per path
  through its state setter and let numpy's C loop draw the flips; walks
  of at most 512 steps are then compared and counted a batch of paths (at
  most 4,096 words) at a time, longer ones path by path.

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

Aggregation forms the per-step growth, the paired differences and the
threshold hits of every compared fraction as one ``(strategies, paths)``
array and reduces it along the path axis; :func:`run` is a comparison of
one fraction.

Both kernels reproduce numpy's streams bit for bit, so a result depends
only on the config.  Only :func:`run` takes a ``workers`` argument, with
no effect, for the benchmark's probe.  numpy is imported by the functions
that build arrays, when a run starts, and ``numpy.random`` only by the
native kernel; building and checking a :class:`SimConfig` needs neither.
"""

import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Optional

from ._validation import as_float, check_finite, check_integer
from .growth import WalkSpec, prob_growth_below, threshold_steps
from .kelly import even_odds_growth_rate

__all__ = [
    "SimConfig",
    "SimResult",
    "StrategyComparison",
    "run",
    "compare_strategies",
    "threshold_validation",
    "threshold_z",
]

MAX_PATHS = 2 ** 32 - 1

_MAX_STEPS = 60_000_000  # the step cap; see SimConfig


@dataclass(frozen=True)
class SimConfig:
    """``paths`` walks of ``walk`` betting ``fraction`` of wealth at each
    step, seeded by ``seed``.  A walk of more than 6 x 10^7 steps is a
    ``ValueError`` naming N.  One walk peaks at about 16 bytes a step (its
    Philox words, then the histogram's N + 1 counts) over the 34 MB of an
    interpreter with numpy, so the cap keeps a run within a peak RSS of
    1 GiB: ``getrusage`` in a child process read 186 MB at N = 10^7 and
    950 MB at 6 x 10^7 (one path, 2-core x86 VM, Python 3.11.7, numpy
    2.4.6)."""

    walk: WalkSpec
    fraction: float
    paths: int
    seed: int
    threshold: Optional[float] = None  # terminal log-wealth target Q

    def __post_init__(self):
        if not isinstance(self.walk, WalkSpec):
            raise ValueError(f"walk must be a WalkSpec, got {self.walk!r}")
        fraction = as_float(self.fraction, "fraction")
        if not 0.0 <= fraction < 1.0:
            raise ValueError(
                f"fraction must lie in [0, 1): f = 1 is ruined by a single "
                f"loss, got {self.fraction!r}"
            )
        paths = check_integer(self.paths, "paths", "a positive integer", 1, math.inf)
        if paths > MAX_PATHS:
            raise ValueError(
                f"paths must be below 2**32 (a path index is one 32-bit "
                f"spawn-key word), got {self.paths!r}"
            )
        seed = check_integer(self.seed, "seed", "an unsigned 64-bit integer",
                             0, 2 ** 64 - 1)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "fraction", fraction)
        if self.threshold is not None:
            object.__setattr__(self, "threshold", check_finite(
                self.threshold, "threshold Q (log-wealth target)"))
        if self.walk.steps > _MAX_STEPS:
            raise ValueError(
                f"N = {self.walk.steps} steps is over the cap of {_MAX_STEPS} "
                f"for a Monte Carlo walk, which holds about 16 bytes a step")


@dataclass(frozen=True)
class SimResult:
    mean_log_growth_per_step: float
    std_error: float
    threshold_hit_fraction: Optional[float]
    paths: int
    up_step_histogram: tuple


@dataclass(frozen=True)
class StrategyComparison:
    """One row of :func:`compare_strategies`.

    ``growth_rate`` and ``prob_below`` are the analytic counterparts of the
    simulated quantities; the paired columns compare per-step growth
    against the first strategy in the table on common coin flips.
    """

    fraction: float
    result: SimResult
    growth_rate: float
    prob_below: Optional[float]
    mean_diff_vs_first: float
    se_diff_vs_first: float


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

# Stage 2, flips: Philox4x64-10 (Salmon et al., SC'11) round multipliers
# and key increments, as in numpy's Philox bit generator.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Walks of at most this many steps run Philox in numpy over chunks of
# paths; longer walks re-key one native generator per path.  Fixed where
# the two kernels cost the same per path (module docstring).
BULK_MAX_STEPS = 44
# Chunk size limit in (path x counter block) elements for the bulk kernel,
# and in paths for the native one: keeps memory flat at any path count.
_CHUNK_ELEMENTS = 2 ** 13
# The native kernel compares and counts walks of at most _BATCH_MAX_STEPS
# steps a batch of paths at a time, at most _BATCH_WORDS words a batch, and
# longer walks path by path (module docstring).
_BATCH_WORDS = 2 ** 12
_BATCH_MAX_STEPS = 512


def _hashmix(value, consts, call):
    """Hash step number ``call`` of the int ``value``."""
    value = ((value ^ consts[call]) * consts[call + 1]) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _M32) - ((_MIX_MULT_R * y) & _M32)) & _M32
    return value ^ (value >> 16)


def _seed_pool(seed):
    """The four pool words of ``SeedSequence(seed)``, whose seed below
    2**64 fills at most two uint32 words: hash calls 0-3 on the words
    zero-padded to four, then 12 calls that mix each word into the others.
    """
    pool = [_hashmix(seed >> 32 * j & _M32, _INDEX_CONSTS, j) for j in range(4)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _INDEX_CONSTS, call))
                call += 1
    return tuple(pool)


@functools.cache
def _numpy_constants():
    """The constants of both stages as read-only numpy arrays, built on the
    first run, so that importing this module loads no numpy.  A ufunc
    takes a 0-d array as it is, where it converts a Python int or a numpy
    scalar on every call."""
    import numpy as np

    def const(value, dtype):
        array = np.array(value, dtype=dtype)
        array.flags.writeable = False
        return array

    def per_pool_word(values):
        return const([[v] for v in values], np.uint32)

    return types.SimpleNamespace(
        # the index word's hash calls 16-19, one row per pool word it is
        # mixed into, and the output hash's calls 0-3 on those words
        index_xor=per_pool_word(_INDEX_CONSTS[16:20]),
        index_mul=per_pool_word(_INDEX_CONSTS[17:21]),
        out_xor=per_pool_word(_OUT_CONSTS[0:4]),
        out_mul=per_pool_word(_OUT_CONSTS[1:5]),
        mix_mult_r=const(_MIX_MULT_R, np.uint32),
        sixteen=const(16, np.uint32),
        mask=const(_M32, np.uint64),
        shift=const(32, np.uint64),
        philox_m=tuple(tuple(const(v, np.uint64) for v in (m & _M32, m >> 32, m))
                       for m in _PHILOX_M),
        philox_w=tuple(const(w, np.uint64) for w in _PHILOX_W),
    )


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
    import numpy as np
    c = _numpy_constants()
    sixteen = c.sixteen
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    words = index ^ c.index_xor
    words *= c.index_mul
    words ^= words >> sixteen
    words *= c.mix_mult_r
    pool = np.array([[_MIX_MULT_L * w & _M32] for w in pool], dtype=np.uint32)
    np.subtract(pool, words, out=words)
    words ^= words >> sixteen
    words ^= c.out_xor
    words *= c.out_mul
    words ^= words >> sixteen
    keys = words.astype(np.uint64)
    keys[1::2] <<= c.shift
    return keys[0::2] | keys[1::2]


def _mulhilo(m, x, mask, shift):
    """High and low 64-bit words of ``m * x`` for a constant m and a uint64
    array x, from 32-bit partial products that cannot overflow; the low
    word is written over ``x``.  ``m`` is ``(m & mask, m >> shift, m)``, as
    0-d uint64 arrays.  The sums are formed in place, so that a call
    allocates five arrays, not fifteen."""
    m_lo, m_hi, m = m
    x_lo, x_hi = x & mask, x >> shift
    t = x_lo * m_lo
    t >>= shift
    t += x_hi * m_lo
    x_lo *= m_hi
    x_lo += t & mask
    x_hi *= m_hi
    t >>= shift
    x_hi += t
    x_lo >>= shift
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
    import numpy as np
    c = _numpy_constants()
    mask, shift = c.mask, c.shift
    (m0, m1), (w0, w1) = c.philox_m, c.philox_w
    limit = np.uint64(_below(p))
    k0, k1 = (k[:, None] for k in keys)
    x0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[None, :]
    # the other three words broadcast until mixed; from round 2 on both
    # high words span every key and block, so they are mixed in place
    x1, x2, x3 = (np.zeros((1, 1), dtype=np.uint64) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + w0, k1 + w1
        hi0, lo0 = _mulhilo(m0, x0, mask, shift)
        hi1, lo1 = _mulhilo(m1, x2, mask, shift)
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
    return np.count_nonzero(np.concatenate(ups, axis=1), axis=1)


def _native_up_steps(keys, n, p):
    """Up-step counts from numpy's own Philox, set to each key's fresh
    stream (zero counter, empty buffer) through its state setter, and
    counted a batch of paths at a time, or path by path for long walks."""
    import numpy as np
    bitgen = np.random.Philox(0)
    draw = bitgen.random_raw
    stream = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": stream,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    limit = np.uint64(_below(p))
    batched = n <= _BATCH_MAX_STEPS
    rows = max(1, _BATCH_WORDS // n) if batched else 1
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
    import numpy as np
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
    import numpy as np
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def _std_error(values, mean):
    """Standard error of ``mean``, the mean of ``values`` along the last
    axis (one value per path): ``values.std(ddof=1, axis=-1) / sqrt(n)``;
    0 for one value, whose deviation from its own mean is 0."""
    import numpy as np
    n = values.shape[-1]
    dev = values - mean[..., None]
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=-1) / max(n - 1, 1)) / math.sqrt(n)


def _aggregate(configs, up_steps):
    """The :class:`SimResult` of each of ``configs``, which share walk,
    paths and seed, from their common ``up_steps``, with the mean and
    standard error of each config's per-step growth less the first one's.

    One ``(rows, paths)`` array holds every config's per-step growth, then
    the differences of configs 2, 3, ... from the first, and each quantity
    is reduced along the path axis in one call for all rows.  The first
    config differs from itself by exactly 0 on every path.
    """
    import numpy as np
    walk, paths = configs[0].walk, configs[0].paths
    n, strategies = walk.steps, len(configs)
    values = np.empty((2 * strategies - 1, paths))
    growth = values[:strategies]
    np.multiply(up_steps, np.array([[math.log1p(c.fraction)] for c in configs]),
                out=growth)
    growth += (n - up_steps) * np.array([[math.log1p(-c.fraction)] for c in configs])
    growth /= n
    if strategies > 1:
        np.subtract(growth[1:], growth[0], out=values[strategies:])
    means = _mean(values)
    errors = _std_error(values, means).tolist()
    means = means.tolist()

    # log-wealth stays 0 at f = 0; else the exact tail's k <= k(Q)
    hits = [None if c.threshold is None else float(c.threshold >= 0.0)
            for c in configs]
    tails = [i for i, c in enumerate(configs)
             if c.threshold is not None and c.fraction > 0.0]
    if tails:
        limits = np.array([[threshold_steps(configs[i].fraction, walk,
                                            configs[i].threshold)] for i in tails])
        counts = np.add.reduce(up_steps <= limits, axis=-1, dtype=np.int64)
        for i, count in zip(tails, counts.tolist()):
            hits[i] = count / paths

    hist = tuple(np.bincount(up_steps, minlength=n + 1).tolist())
    results = [SimResult(mean_log_growth_per_step=mean, std_error=error,
                         threshold_hit_fraction=hit, paths=paths,
                         up_step_histogram=hist)
               for mean, error, hit in zip(means, errors, hits)]
    return results, [0.0, *means[strategies:]], [0.0, *errors[strategies:]]


def run(config, workers=1):
    """Simulate the configured walk and return aggregate growth
    statistics.  ``workers`` has no effect; it stays only because the
    benchmark's ``workers2_ratio`` probe (``bench/probes.py``) passes it."""
    up_steps = _path_up_steps(config.walk, config.paths, config.seed)
    return _aggregate([config], up_steps)[0][0]


def compare_strategies(configs):
    """Evaluate several fractions on identical coin-flip streams.

    All configs must share walk, paths, and seed, so the flips (and hence
    the up-step counts) are common random numbers and growth differences
    are paired.  Differences are reported against the first config.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    for c in configs[1:]:
        if (c.walk, c.paths, c.seed) != (first.walk, first.paths, first.seed):
            raise ValueError("configs must share walk, paths, and seed")

    up_steps = _path_up_steps(first.walk, first.paths, first.seed)
    results, mean_diffs, se_diffs = _aggregate(configs, up_steps)
    return [
        StrategyComparison(
            fraction=c.fraction,
            result=result,
            growth_rate=even_odds_growth_rate(c.walk.bias, c.fraction),
            prob_below=(prob_growth_below(c.fraction, c.walk, c.threshold)
                        if c.threshold is not None and c.fraction > 0.0 else None),
            mean_diff_vs_first=mean_diff,
            se_diff_vs_first=se_diff,
        )
        for c, result, mean_diff, se_diff in zip(configs, results, mean_diffs, se_diffs)
    ]


def threshold_validation(config):
    """Compare the simulated threshold-hit frequency with the exact CDF.

    Returns ``(empirical, exact, z_score)``; the z-score uses the binomial
    standard error of the empirical frequency and should stay within a few
    units for a correct engine at 10^4+ paths.
    """
    return threshold_z(config, run(config))


def threshold_z(config, result):
    """:func:`threshold_validation` for a ``result`` that :func:`run`
    already returned for ``config``: ``(empirical, exact, z_score)``."""
    if config.threshold is None:
        raise ValueError("config must carry a threshold")
    if not 0.0 < config.fraction < 1.0:
        raise ValueError("threshold validation needs f in (0, 1)")
    empirical = result.threshold_hit_fraction
    exact = prob_growth_below(config.fraction, config.walk, config.threshold)
    se = math.sqrt(exact * (1.0 - exact) / config.paths)
    if se == 0.0:
        z = 0.0 if empirical == exact else math.inf
    else:
        z = (empirical - exact) / se
    return empirical, exact, z
