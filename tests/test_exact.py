import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket import _exact
from kellymarket._exact import _FSUM_MIN_EXTRACT, _fsum, _pairwise_sum

SIZES = (_FSUM_MIN_EXTRACT - 1, _FSUM_MIN_EXTRACT, _FSUM_MIN_EXTRACT + 1,
         1000, 4097)


def outcome(total, values):
    """What ``total(values)`` gives: the bits of its value, signed zero and
    NaN included, or its exception and message."""
    try:
        return total(values).hex()
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


def assert_fsum(values):
    """``_fsum`` matches ``math.fsum`` on the array and on the views that
    clearing passes: reversed, sliced and strided."""
    for view in (values, values[::-1], values[1:-1], values[::2], values[::-3]):
        assert outcome(_fsum, view) == outcome(math.fsum, view), view.tolist()


def array(seed, n, kind):
    """n seeded values of one shape: heavy-tailed capital, capital times a
    signed weight, values with their negatives (sum exactly 0), or signs and
    exponents drawn over the whole float range."""
    rng = np.random.default_rng(seed)
    pareto = rng.pareto(1.5, n) + 1.0
    if kind == "pareto":
        return pareto
    if kind == "mixed":
        return pareto * rng.uniform(-1.0, 1.0, n)
    if kind == "cancelling":
        half = pareto[: n // 2] * rng.choice([-1.0, 1.0], n // 2)
        return rng.permutation(np.concatenate([half, -half]))
    return np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1024, n))


KINDS = ("pareto", "mixed", "cancelling", "wide")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_matches_fsum_around_the_crossover(n, kind):
    for seed in range(5):
        assert_fsum(array(seed, n, kind))


@pytest.mark.parametrize("kind", KINDS)
def test_matches_fsum_on_a_hundred_thousand_values(kind):
    assert_fsum(array(1, 10 ** 5, kind))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from(SIZES),
       kind=st.sampled_from(KINDS), scale=st.integers(-1100, 1000))
@settings(max_examples=300, deadline=None)
def test_matches_fsum_on_drawn_arrays(seed, n, kind, scale):
    with np.errstate(over="ignore"):
        assert_fsum(np.ldexp(array(seed, n, kind), scale))


def padded(values, n=2 * _FSUM_MIN_EXTRACT):
    """``values`` hidden among heavy-tailed values and their negatives, in
    seeded order: the same exact sum, at a size that extraction takes."""
    rng = np.random.default_rng(len(values))
    others = rng.pareto(1.5, (n - len(values)) // 2) * 1e3
    return rng.permutation(np.concatenate([others, -others, values]))


@pytest.mark.parametrize("tail", [
    [1.0, 2.0 ** -53],                       # a tie, rounded to even: 1
    [1.0, 3 * 2.0 ** -53],                   # a tie, rounded to even: 1 + 2^-51
    [1.0, 2.0 ** -53, 2.0 ** -300],          # just past a tie: 1 + 2^-52
    [1.0, 2.0 ** -53, -(2.0 ** -300)],       # just short of a tie: 1
    [1.0, 2.0 ** -54, 2.0 ** -54, 2.0 ** -1074],
    [2.0 ** -1022, 2.0 ** -1074, -(2.0 ** -1070)],  # subnormal sums
    [5e-324] * 7,
    [1e-310, -3e-320, 2.5e-308],
    [],                                      # exactly 0 over nonzero values
])
def test_matches_fsum_at_ties_and_subnormals(tail):
    assert_fsum(padded(np.array(tail, dtype=float)))


@pytest.mark.parametrize("values", [
    np.full(_FSUM_MIN_EXTRACT, -0.0),
    np.zeros(_FSUM_MIN_EXTRACT),
    np.full(_FSUM_MIN_EXTRACT, 5e-324),
    np.ldexp(np.arange(1.0, 2001.0), -1074),
    np.full(_FSUM_MIN_EXTRACT, 1.7e308 / _FSUM_MIN_EXTRACT),
])
def test_matches_fsum_on_zeros_subnormals_and_the_float_range(values):
    assert_fsum(values)


@pytest.mark.parametrize("special, want", [
    ([math.nan], "nan"),
    ([math.inf], "inf"),
    ([-math.inf, 1.0], "-inf"),
    ([math.inf, math.nan], "nan"),
    ([math.inf, -math.inf], (ValueError, "-inf + inf in fsum")),
    ([1e308, 1e308, -1e308], (OverflowError, "intermediate overflow in fsum")),
])
def test_keeps_fsum_outcomes_for_non_finite_and_overflowing_input(special, want):
    values = np.zeros(2 * _FSUM_MIN_EXTRACT)
    values[: len(special)] = special
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        got = outcome(_fsum, values)
    assert got == outcome(math.fsum, values)
    assert got == (want if isinstance(want, tuple) else float(want).hex())


def test_extraction_certifies_without_math_fsum_over_the_values(monkeypatch):
    # only the few extracted parts go to math.fsum, never the whole array
    fsum, lengths = math.fsum, []

    def counted(values):
        values = list(values)
        lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    for kind in ("pareto", "mixed"):
        values = array(3, 10 ** 4, kind)
        assert _fsum(values) == fsum(values)
    assert lengths and max(lengths) <= _exact._LEVELS + 2


@pytest.mark.parametrize("seed", range(8))
def test_pairwise_sum_adds_in_numpys_order(seed):
    # numpy's float64 add.reduce order, bit for bit; the built-in sum, which
    # compensates its rounding from Python 3.12 on, would not keep it
    rng = np.random.default_rng(seed)
    for n in range(1, 129):
        values = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-40, 41, n))
        assert _pairwise_sum(values.tolist()).hex() == np.add.reduce(values).hex(), n
