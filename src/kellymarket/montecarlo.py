"""Seeded Monte Carlo engine for the double-or-nothing game.

Path ``i`` draws its coin flips from the Philox4x64-10 stream that numpy
builds as ``Generator(Philox(SeedSequence(seed, spawn_key=(i,))))``; only
the up-step count of each path is kept, and wealth is tracked in log space.
The engine never builds those objects per path.  It works in two stages:

* **Keys.** The ``SeedSequence`` hash (O'Neill's seed_seq mixing over
  uint32 words) is a fixed schedule, so one numpy pass derives the Philox
  keys of a whole block of path indices.  The seed's words, zero-padded
  to four, are mixed once; only the last stage depends on the index.
* **Flips.** Walks of at most :data:`BULK_MAX_STEPS` steps run Philox
  itself in numpy over a chunk of paths by ``ceil(N/4)`` counter blocks,
  with the 64-bit multiply-high split into 32-bit halves.  Longer walks
  re-key one native numpy Philox per path through its state setter and
  let numpy's C loop draw the flips.  The crossover is a property of N
  alone, fixed where the two kernels took equal time per path.

Both kernels reproduce numpy's streams bit for bit, so a result depends
only on the config.  ``workers`` splits the path range into consecutive
chunks run one after another; it starts no threads, and since a path's
flips depend only on its absolute index the split never shows.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._validation import check_finite
from .growth import WalkSpec, prob_growth_below
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


@dataclass(frozen=True)
class SimConfig:
    walk: WalkSpec
    fraction: float
    paths: int
    seed: int
    threshold: Optional[float] = None  # terminal log-wealth target Q

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(
                f"fraction must lie in [0, 1): f = 1 is ruined by a single "
                f"loss, got {self.fraction!r}"
            )
        if int(self.paths) != self.paths or self.paths < 1:
            raise ValueError(f"paths must be a positive integer, got {self.paths!r}")
        if self.paths > MAX_PATHS:
            raise ValueError(
                f"paths must be below 2**32 (a path index is one 32-bit "
                f"spawn-key word), got {self.paths!r}"
            )
        if int(self.seed) != self.seed or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "paths", int(self.paths))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "fraction", float(self.fraction))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", check_finite(
                self.threshold, "threshold Q (log-wealth target)"))


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


# Stage 1, keys: the seed_seq hash behind numpy's SeedSequence (M. O'Neill,
# uint32 words, multipliers stepped at every call), evaluated for a whole
# block of path indices in numpy.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Stage 2, flips: Philox4x64-10 (Salmon et al., SC'11) round multipliers
# and key increments, as in numpy's Philox bit generator.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Walks of at most this many steps run Philox in numpy over chunks of
# paths; longer walks re-key one native generator per path.  Fixed where
# the two kernels cost the same per path (measured on a 2-core x86 host).
BULK_MAX_STEPS = 72
# Chunk size limit in (path x counter block) elements for the bulk kernel,
# and in paths for the native one: keeps memory flat at any path count.
_CHUNK_ELEMENTS = 2 ** 13


def _hash_constants(init, mult, calls):
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _M32)
    return consts


def _hashmix(value, consts, call):
    """Hash step number ``call``; ``value`` is an int or a uint32 array."""
    value = ((value ^ consts[call]) * consts[call + 1]) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _M32) - ((_MIX_MULT_R * y) & _M32)) & _M32
    return value ^ (value >> 16)


def _philox_keys(seed, start, stop):
    """Keys of the streams ``SeedSequence(seed, spawn_key=(i,))`` for path
    indices ``start <= i < stop < 2**32``: the two uint64 arrays that
    ``generate_state(2, np.uint64)`` gives, bit for bit.

    The entropy is the seed's uint32 words zero-padded to the pool size,
    then the path index as one more word, so only the last mixing stage
    depends on the path.
    """
    # one hash per seed word, per ordered pair of pool words, and per pool
    # word for the index
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + 1))
    pool = [_hashmix((seed >> 32 * j) & _M32, consts, j) for j in range(_POOL_SIZE)]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, call))
                call += 1
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    pool = [_mix(pool[j], _hashmix(index, consts, call + j)) for j in range(_POOL_SIZE)]
    out_consts = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)
    words = [_hashmix(w, out_consts, j).astype(np.uint64) for j, w in enumerate(pool)]
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _mulhilo(m, x):
    """High and low 64-bit words of ``m * x`` for a constant m and a uint64
    array x, from 32-bit partial products that cannot overflow."""
    m_lo, m_hi = m & _M32, m >> 32
    x_lo, x_hi = x & _M32, x >> 32
    t = x_hi * m_lo + ((x_lo * m_lo) >> 32)
    u = x_lo * m_hi + (t & _M32)
    return x_hi * m_hi + (t >> 32) + (u >> 32), x * m


def _below(p):
    """numpy's uniform double is ``(word >> 11) * 2**-53``, so "double < p"
    is "word < _below(p)"; p < 1 keeps the limit below 2**64."""
    return math.ceil(p * 2.0 ** 53) << 11


def _bulk_up_steps(keys, n, p):
    """Up-step counts from Philox4x64-10 run in numpy: one row per key,
    counter blocks 1..ceil(n/4), four output words per block in order."""
    k0, k1 = (k[:, None] for k in keys)
    x0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)  # broadcast until mixed
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    limit = _below(p)
    counts = np.zeros(len(keys[0]), dtype=np.int64)
    for word, x in enumerate((x0, x1, x2, x3)):
        steps = max(0, -(-(n - word) // 4))  # blocks whose `word` is a step
        counts += (x[:, :steps] < limit).sum(axis=1)
    return counts


def _native_up_steps(keys, n, p):
    """Up-step counts from numpy's own Philox, set to each key's fresh
    stream (zero counter, empty buffer) through its state setter."""
    bitgen = np.random.Philox(0)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    limit = _below(p)
    counts = np.empty(len(keys[0]), dtype=np.int64)
    for i, key in enumerate(zip(keys[0].tolist(), keys[1].tolist())):
        state["state"]["key"] = key
        bitgen.state = state
        counts[i] = np.count_nonzero(bitgen.random_raw(n) < limit)
    return counts


def _path_up_steps(walk, paths, seed, path_offset=0):
    """Up-step count per path; path i draws its flips from the Philox
    stream keyed by ``SeedSequence(seed, spawn_key=(path_offset + i,))``."""
    n, p = walk.steps, walk.bias
    if n <= BULK_MAX_STEPS:
        kernel, chunk = _bulk_up_steps, max(1, _CHUNK_ELEMENTS // -(-n // 4))
    else:
        kernel, chunk = _native_up_steps, _CHUNK_ELEMENTS
    stop = path_offset + paths
    return np.concatenate([
        kernel(_philox_keys(seed, s, min(s + chunk, stop)), n, p)
        for s in range(path_offset, stop, chunk)
    ])


def _up_steps(config, workers=1):
    """Up-step counts of all paths.  ``workers`` splits the path range into
    that many consecutive chunks, run one after another; a path's count
    depends only on its absolute index, so the split never shows."""
    chunk = -(-config.paths // max(1, workers))
    return np.concatenate([
        _path_up_steps(config.walk, min(chunk, config.paths - s), config.seed, s)
        for s in range(0, config.paths, chunk)
    ])


def _per_step_growth(walk, fraction, up_steps):
    n = walk.steps
    if fraction == 0.0:
        return np.zeros(len(up_steps))
    log_up = math.log1p(fraction)
    log_down = math.log1p(-fraction)
    return (up_steps * log_up + (n - up_steps) * log_down) / n


def _result_from_counts(config, up_steps):
    walk = config.walk
    per_step = _per_step_growth(walk, config.fraction, up_steps)
    mean = float(per_step.mean())
    if config.paths > 1:
        se = float(per_step.std(ddof=1) / math.sqrt(config.paths))
    else:
        se = 0.0
    hit = None
    if config.threshold is not None:
        hit = float(np.mean(per_step * walk.steps <= config.threshold))
    hist = tuple(int(c) for c in np.bincount(up_steps, minlength=walk.steps + 1))
    return SimResult(
        mean_log_growth_per_step=mean,
        std_error=se,
        threshold_hit_fraction=hit,
        paths=config.paths,
        up_step_histogram=hist,
    )


def run(config, workers=1):
    """Simulate the configured walk and return aggregate growth statistics."""
    return _result_from_counts(config, _up_steps(config, workers))


def compare_strategies(configs, workers=1):
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

    up_steps = _up_steps(first, workers)
    base = _per_step_growth(first.walk, first.fraction, up_steps)
    rows = []
    for c in configs:
        per_step = _per_step_growth(c.walk, c.fraction, up_steps)
        diff = per_step - base
        if c.paths > 1:
            se_diff = float(diff.std(ddof=1) / math.sqrt(c.paths))
        else:
            se_diff = 0.0
        prob_below = None
        if c.threshold is not None and c.fraction > 0.0:
            prob_below = prob_growth_below(c.fraction, c.walk, c.threshold)
        rows.append(
            StrategyComparison(
                fraction=c.fraction,
                result=_result_from_counts(c, up_steps),
                growth_rate=even_odds_growth_rate(c.walk.bias, c.fraction),
                prob_below=prob_below,
                mean_diff_vs_first=float(diff.mean()),
                se_diff_vs_first=se_diff,
            )
        )
    return rows


def _require_threshold(config):
    if config.threshold is None:
        raise ValueError("config must carry a threshold")
    if not 0.0 < config.fraction < 1.0:
        raise ValueError("threshold validation needs f in (0, 1)")


def threshold_validation(config, workers=1):
    """Compare the simulated threshold-hit frequency with the exact CDF.

    Returns ``(empirical, exact, z_score)``; the z-score uses the binomial
    standard error of the empirical frequency and should stay within a few
    units for a correct engine at 10^4+ paths.
    """
    _require_threshold(config)
    return threshold_z(config, run(config, workers))


def threshold_z(config, result):
    """:func:`threshold_validation` for a ``result`` that :func:`run`
    already returned for ``config``: ``(empirical, exact, z_score)``."""
    _require_threshold(config)
    empirical = result.threshold_hit_fraction
    exact = prob_growth_below(config.fraction, config.walk, config.threshold)
    se = math.sqrt(exact * (1.0 - exact) / config.paths)
    if se == 0.0:
        z = 0.0 if empirical == exact else math.inf
    else:
        z = (empirical - exact) / se
    return empirical, exact, z
