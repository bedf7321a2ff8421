"""Seeded Monte Carlo engine for the double-or-nothing game.

Path ``i`` draws its coin flips from the Philox4x64-10 stream that numpy
builds as ``Generator(Philox(SeedSequence(seed, spawn_key=(i,))))``; only
the up-step count of each path is kept, and wealth is tracked in log space.
The engine never builds those objects per path.  It works in two stages:

* **Keys.** The ``SeedSequence`` hash (O'Neill's seed_seq mixing over
  uint32 words) is a fixed schedule.  The pool that mixes the seed's
  words is computed once per run in plain Python; the stage that mixes
  in the path index, and the output hash, run in one numpy pass over a
  whole block of path indices.
* **Flips.** Walks of at most :data:`BULK_MAX_STEPS` (40) steps run
  Philox itself in numpy over a chunk of paths by ``ceil(N/4)`` counter
  blocks, with the 64-bit multiply-high split into 32-bit halves and
  every constant a numpy scalar.  Longer walks re-key one native numpy
  Philox per path through its state setter and let numpy's C loop draw
  the flips; walks of at most 512 steps are then compared and counted a
  batch of paths (at most 4,096 words) at a time, longer ones path by
  path.

The crossover is a property of N alone, fixed where the two kernels took
equal time per path.  Bulk time over native time of ``_path_up_steps``,
medians of 21 interleaved repeats on one CPU of a 2-core x86 VM (Python
3.11.7, numpy 2.4.6), read 0.40-0.92 at N = 10, 0.90-0.99 at N = 40,
0.97-1.03 at N = 44, 1.02-1.17 at N = 50 and 1.28-1.46 at N = 72, over
250, 1,000 and 20,000 paths.  On the same host, counting path by path
took 1.65x the batched time at N = 41, 1.09x at 512 steps, 1.01x at 640
and 0.93x at 1,024 (1,000 paths, 21 repeats).

Both kernels reproduce numpy's streams bit for bit, so a result depends
only on the config.  Only :func:`run` takes a ``workers`` argument, with
no effect, for the benchmark's probe.  numpy is imported by the functions
that build arrays, when a run starts, and ``numpy.random`` only by the
native kernel; building and checking a :class:`SimConfig` needs neither.
"""

import itertools
import math
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
BULK_MAX_STEPS = 40
# Chunk size limit in (path x counter block) elements for the bulk kernel,
# and in paths for the native one: keeps memory flat at any path count.
_CHUNK_ELEMENTS = 2 ** 13
# The native kernel compares and counts walks of at most _BATCH_MAX_STEPS
# steps a batch of paths at a time, at most _BATCH_WORDS words a batch, and
# longer walks path by path (module docstring).
_BATCH_WORDS = 2 ** 12
_BATCH_MAX_STEPS = 512


def _hashmix(value, consts, call):
    """Hash step number ``call``; ``value`` is an int or a uint32 array."""
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


def _philox_keys(pool, start, stop):
    """Keys of the streams ``SeedSequence(seed, spawn_key=(i,))`` for path
    indices ``start <= i < stop <= 2**32``, from ``_seed_pool(seed)``: the
    two uint64 arrays that ``generate_state(2, np.uint64)`` gives, bit for bit.

    numpy zero-pads the seed's words to four before it appends the spawn
    key, so the pool that the index word is mixed into is the seed's own
    :func:`_seed_pool`; the index word takes hash calls 16-19.
    """
    import numpy as np
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    pool = [_mix(w, _hashmix(index, _INDEX_CONSTS, 16 + j))
            for j, w in enumerate(pool)]
    words = [_hashmix(w, _OUT_CONSTS, j).astype(np.uint64) for j, w in enumerate(pool)]
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _mulhilo(m, x, mask, shift):
    """High and low 64-bit words of ``m * x`` for a constant m and a uint64
    array x, from 32-bit partial products that cannot overflow.  ``m`` is
    ``(m & mask, m >> shift, m)``; the constants are numpy uint64 scalars,
    so that no operation converts a Python int."""
    m_lo, m_hi, m = m
    x_lo, x_hi = x & mask, x >> shift
    t = x_hi * m_lo + ((x_lo * m_lo) >> shift)
    u = x_lo * m_hi + (t & mask)
    return x_hi * m_hi + (t >> shift) + (u >> shift), x * m


def _below(p):
    """numpy's uniform double is ``(word >> 11) * 2**-53``, so "double < p"
    is "word < _below(p)"; p < 1 keeps the limit below 2**64."""
    return math.ceil(p * 2.0 ** 53) << 11


def _bulk_up_steps(keys, n, p):
    """Up-step counts from Philox4x64-10 run in numpy: one row per key,
    counter blocks 1..ceil(n/4), four output words per block in order."""
    import numpy as np
    u64 = np.uint64
    mask, shift, limit = u64(_M32), u64(32), u64(_below(p))
    m0, m1 = ((u64(m & _M32), u64(m >> 32), u64(m)) for m in _PHILOX_M)
    w0, w1 = map(u64, _PHILOX_W)
    k0, k1 = (k[:, None] for k in keys)
    x0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)  # broadcast until mixed
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + w0, k1 + w1
        hi0, lo0 = _mulhilo(m0, x0, mask, shift)
        hi1, lo1 = _mulhilo(m1, x2, mask, shift)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    counts = np.zeros(len(keys[0]), dtype=np.int64)
    for word, x in enumerate((x0, x1, x2, x3)):
        steps = max(0, -(-(n - word) // 4))  # blocks whose `word` is a step
        counts += (x[:, :steps] < limit).sum(axis=1)
    return counts


def _native_up_steps(keys, n, p):
    """Up-step counts from numpy's own Philox, set to each key's fresh
    stream (zero counter, empty buffer) through its state setter, and
    counted a batch of paths at a time, or path by path for long walks."""
    import numpy as np
    bitgen = np.random.Philox(0)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
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
            state["state"]["key"] = key
            bitgen.state = state
            words.append(bitgen.random_raw(n))
        if batched:
            block = np.concatenate(words).reshape(-1, n)
            counts[start:start + rows] = np.count_nonzero(block < limit, axis=1)
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


def _per_step_growth(config, up_steps):
    n, f = config.walk.steps, config.fraction
    return (up_steps * math.log1p(f) + (n - up_steps) * math.log1p(-f)) / n


# Aggregation: the reductions behind numpy's ``mean()`` and ``std(ddof=1)``
# called without their Python-level wrappers, so the same pairwise sums in
# the same order give the same bits.  A hit fraction is an exact count over
# the paths, as the mean of a bool array is.
def _mean(values):
    """``float(values.mean())`` of a float64 array."""
    import numpy as np
    return float(np.add.reduce(values) / len(values))


def _std_error(values, mean):
    """Standard error of ``mean``, the mean of ``values`` (one per path):
    ``values.std(ddof=1) / sqrt(len(values))``; 0 for one value."""
    import numpy as np
    n = len(values)
    if n == 1:
        return 0.0
    dev = values - mean
    return math.sqrt(np.add.reduce(dev * dev) / (n - 1)) / math.sqrt(n)


def _histogram(walk, up_steps):
    import numpy as np
    return tuple(np.bincount(up_steps, minlength=walk.steps + 1).tolist())


def _result(config, up_steps, per_step, hist):
    import numpy as np
    walk, f, q = config.walk, config.fraction, config.threshold
    hit = None
    if q is not None:  # log-wealth stays 0 at f = 0; else the exact tail's k <= k(Q)
        hit = float(q >= 0.0) if f == 0.0 else int(np.count_nonzero(
            up_steps <= threshold_steps(f, walk, q))) / len(up_steps)
    mean = _mean(per_step)
    return SimResult(
        mean_log_growth_per_step=mean,
        std_error=_std_error(per_step, mean),
        threshold_hit_fraction=hit,
        paths=config.paths,
        up_step_histogram=hist,
    )


def run(config, workers=1):
    """Simulate the configured walk and return aggregate growth
    statistics.  ``workers`` has no effect; it stays only because the
    benchmark's ``workers2_ratio`` probe (``bench/probes.py``) passes it."""
    up_steps = _path_up_steps(config.walk, config.paths, config.seed)
    return _result(config, up_steps, _per_step_growth(config, up_steps),
                   _histogram(config.walk, up_steps))


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
    hist = _histogram(first.walk, up_steps)
    per_steps = [_per_step_growth(c, up_steps) for c in configs]
    rows = []
    for c, per_step in zip(configs, per_steps):
        diff = per_step - per_steps[0]
        mean_diff = _mean(diff)
        prob_below = None
        if c.threshold is not None and c.fraction > 0.0:
            prob_below = prob_growth_below(c.fraction, c.walk, c.threshold)
        rows.append(
            StrategyComparison(
                fraction=c.fraction,
                result=_result(c, up_steps, per_step, hist),
                growth_rate=even_odds_growth_rate(c.walk.bias, c.fraction),
                prob_below=prob_below,
                mean_diff_vs_first=mean_diff,
                se_diff_vs_first=_std_error(diff, mean_diff),
            )
        )
    return rows


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
