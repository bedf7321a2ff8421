"""Seeded Monte Carlo engine for the double-or-nothing game.

Path ``i`` draws its coin flips from the Philox4x64-10 stream that numpy
builds as ``Generator(Philox(SeedSequence(seed, spawn_key=(i,))))``; only
the up-step count of each path is kept, and wealth is tracked in log
space, so a result depends only on the config.  :func:`run` is a
comparison of one fraction.  This module imports no numpy: a run imports
:mod:`._walks`, which loads numpy when it loads, reproduces the streams
without building them per path and reduces the paths.  Building and
checking a :class:`SimConfig` needs neither.
"""

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


def _simulate(configs):
    """The :class:`SimResult` of each of ``configs``, which share walk,
    paths and seed, and the paired mean and standard error of each one's
    growth less the first one's, which is exactly 0 on every path."""
    from . import _walks
    first, strategies = configs[0], len(configs)
    walk, paths = first.walk, first.paths
    # log-wealth stays 0 at f = 0; else the exact tail's k <= k(Q)
    hits = [None if c.threshold is None else float(c.threshold >= 0.0)
            for c in configs]
    tails = [i for i, c in enumerate(configs)
             if c.threshold is not None and c.fraction > 0.0]
    limits = [threshold_steps(configs[i].fraction, walk, configs[i].threshold)
              for i in tails]
    means, errors, counts, hist = _walks._statistics(
        walk, paths, first.seed, [c.fraction for c in configs], limits)
    for i, count in zip(tails, counts):
        hits[i] = count / paths
    results = [SimResult(mean_log_growth_per_step=mean, std_error=error,
                         threshold_hit_fraction=hit, paths=paths,
                         up_step_histogram=hist)
               for mean, error, hit in zip(means, errors, hits)]
    return results, [0.0, *means[strategies:]], [0.0, *errors[strategies:]]


def run(config, workers=1):
    """Simulate the configured walk and return aggregate growth
    statistics.  ``workers`` has no effect; it stays only because the
    benchmark's ``workers2_ratio`` probe (``bench/probes.py``) passes it."""
    return _simulate([config])[0][0]


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

    results, mean_diffs, se_diffs = _simulate(configs)
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
