import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellymarket import _exact
from kellymarket._exact import _BLOCK, _FSUM_MIN_EXTRACT, _Extraction, _fsum
from kellymarket._exact import _pairwise_sum

SIZES = (_FSUM_MIN_EXTRACT - 1, _FSUM_MIN_EXTRACT, _FSUM_MIN_EXTRACT + 1,
         1000, 4097)
# one block, one block exactly, and a block and one value
BLOCK_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1)


def below_two(values):
    """``values`` scaled by a power of two that puts the largest size in
    [1, 2): the one contract of the exact sums."""
    return np.ldexp(values, 1 - math.frexp(np.abs(values).max())[1])


BELOW_TWO = float(np.nextafter(2.0, 0.0))


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
    """n seeded values of one of ``KINDS``, below 2 in size: unit capitals
    (heavy-tailed, the largest in [1, 2)); capitals times signed weights, as
    they are or scaled to put the largest size in [1, 2); values with their
    negatives, summing exactly to 0 (scaled, the odd value left out, or
    padded with a 0) or to a subnormal; signs and exponents drawn over the
    float range below 2; all -0.0; +-(2 - ulp) with a few small values;
    values in [1, 2), or in (-2, -1]."""
    rng = np.random.default_rng(seed)
    capitals = below_two(rng.pareto(1.5, n) + 1.0)
    if kind == "capitals":
        return capitals
    if kind in ("mixed", "scaled mixed"):
        values = capitals * rng.uniform(-1.0, 1.0, n)
        return values if kind == "mixed" else below_two(values)
    if kind == "wide":
        return below_two(np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 2, n)))
    if kind == "negative zeros":
        return np.full(n, -0.0)
    if kind == "top":
        values = rng.choice([-BELOW_TWO, BELOW_TWO], n)
        values[: n // 3] = rng.uniform(-1e-20, 1e-20, n // 3)
        return values
    if kind == "near two":  # one sign: the high parts' sums come near sigma
        return rng.uniform(1.0, 2.0, n)
    if kind == "near minus two":  # high parts below sigma, on its finer grid:
        return -rng.uniform(1.0, 2.0, n)  # a bound of 1 would round their sums
    half = capitals[: n // 2] * rng.choice([-1.0, 1.0], n // 2)
    if kind == "cancelling":
        return below_two(rng.permutation(np.concatenate([half, -half])))
    values = np.concatenate([half, -half, np.zeros(n % 2)])
    if kind == "to a subnormal":
        values[-1] = rng.choice([-5e-324, 3e-320, -2.5e-310])
    return rng.permutation(values)


KINDS = ("capitals", "mixed", "scaled mixed", "cancelling", "to zero",
         "to a subnormal", "wide", "negative zeros", "top", "near two",
         "near minus two")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES + BLOCK_EDGES)
def test_matches_fsum_around_the_crossover(n, kind):
    for seed in range(5):
        assert_fsum(array(seed, n, kind))


@pytest.mark.parametrize("n", (_FSUM_MIN_EXTRACT, *BLOCK_EDGES, 3 * _BLOCK))
def test_second_level_sum_matches_fsum(n, monkeypatch):
    # exponents over 80 binades and a last value that cancels the rest:
    # the sum is a rounding error, which the first level cannot certify
    rng = np.random.default_rng(n)
    values = np.ldexp(rng.pareto(1.5, n) * rng.choice([-1.0, 1.0], n),
                      rng.integers(-80, 1, n))
    values[-1] = -math.fsum(values[:-1])
    values = below_two(values)  # exact: the sum is still a rounding error
    want, fsum, lengths = math.fsum(values), math.fsum, []

    def counted(parts):
        lengths.append(len(parts) if isinstance(parts, list) else None)
        return fsum(parts)

    monkeypatch.setattr(math, "fsum", counted)
    assert _fsum(values).hex() == want.hex()
    # two levels' parts and the bounds, and never math.fsum over the values
    assert max(lengths) >= 4 and None not in lengths


@pytest.mark.parametrize("kind", ["capitals", "scaled mixed", "cancelling"])
def test_allocates_no_array_as_long_as_the_values(kind):
    # above _BLOCK values the extraction runs through two buffers of a block
    values = array(1, 10 ** 5, kind)
    tracemalloc.start()
    try:
        assert _fsum(values) == math.fsum(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 2


@pytest.mark.parametrize("kind", KINDS)
def test_matches_fsum_on_a_hundred_thousand_values(kind):
    assert_fsum(array(1, 10 ** 5, kind))


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from(SIZES),
       kind=st.sampled_from(KINDS), scale=st.integers(-1100, 0))
@settings(max_examples=300, deadline=None)
def test_matches_fsum_on_drawn_arrays(seed, n, kind, scale):
    # scaled down from below 2 as far as the subnormals and 0
    assert_fsum(np.ldexp(array(seed, n, kind), scale))


def padded(tail, n, seed=None):
    """``tail`` among n values below 2 and their negatives, in seeded order:
    the same exact sum.  With no seed they are heavy-tailed; with one, half
    of them lie far below 2, so that numpy's sum of the remainders rounds
    and only the error bound keeps a tie from being certified."""
    if seed is None:
        rng = np.random.default_rng(len(tail))
        others = below_two(rng.pareto(1.5, (n - len(tail)) // 2))
    else:
        rng = np.random.default_rng([seed, len(tail)])
        half = (n - len(tail)) // 2
        others = np.ldexp(rng.uniform(-1.0, 1.0, half), rng.integers(-90, 2, half))
    return rng.permutation(np.concatenate([others, -others, tail]))


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
@pytest.mark.parametrize("n", [None, _FSUM_MIN_EXTRACT, 1000, _BLOCK + 1])
def test_matches_fsum_at_ties_and_subnormals(tail, n):
    # n None: 448 heavy-tailed values; else n values, half far below 2
    tail = np.array(tail, dtype=float)
    if n is None:
        assert_fsum(padded(tail, 2 * _FSUM_MIN_EXTRACT))
    else:
        for seed in range(4):
            assert_fsum(padded(tail, n, seed))


@pytest.mark.parametrize("values", [
    np.full(_FSUM_MIN_EXTRACT, -0.0),
    np.zeros(_FSUM_MIN_EXTRACT),
    np.full(_FSUM_MIN_EXTRACT, 5e-324),
    np.ldexp(np.arange(1.0, 2001.0), -1074),
    np.full(_BLOCK + 1, -0.0),
    np.zeros(_BLOCK + 1),
])
def test_matches_fsum_on_zeros_and_subnormals(values):
    assert_fsum(values)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [_FSUM_MIN_EXTRACT, _BLOCK + 1])
def test_matches_fsum_on_values_at_the_bound(n, sign):
    # the largest sums the contract admits: every value 2 - ulp, in one
    # block and past it
    assert_fsum(np.full(n, sign * BELOW_TWO))


@pytest.mark.parametrize("special", [BELOW_TWO, -BELOW_TWO, 5e-324])
@pytest.mark.parametrize("at", [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK])
def test_matches_fsum_with_the_bound_in_any_block(special, at):
    # every level's sigma comes from the bound of 2, not from the first
    # block: a value at the bound, or the least subnormal, in a later block
    # is split as in the first
    values = array(5, 2 * _BLOCK + 1, "scaled mixed")
    values[at] = special
    assert_fsum(values)


def test_extraction_certifies_without_math_fsum_over_the_values(monkeypatch):
    # the bound of 2 sets the first level, and only the few extracted parts
    # go to math.fsum, as a list, never a run of the values: in a sum from
    # the crossover on, and in an extraction at any width
    fsum, lengths = math.fsum, []

    def counted(values):
        lengths.append(len(values) if isinstance(values, list) else None)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    for kind in ("capitals", "mixed", "scaled mixed", "top"):
        for n in (_FSUM_MIN_EXTRACT, 1000, 10 ** 4, _BLOCK + 1):
            for seed in (3, 4):
                values = array(seed, n, kind)
                assert _fsum(values) == fsum(values), (kind, n, seed)
    for n in (2, 100, _FSUM_MIN_EXTRACT - 1):
        rows = np.stack([array(n, n, "capitals"), array(n + 1, n, "mixed")])
        want = [fsum(row[a:b]) for row in rows for a, b in ((0, n // 2), (n // 2, n))]
        assert _Extraction(rows).sums((0, n // 2)) == want, n
    assert lengths and None not in lengths and max(lengths) <= _exact._LEVELS + 2


@pytest.mark.parametrize("seed", range(8))
def test_pairwise_sum_adds_in_numpys_order(seed):
    # numpy's float64 add.reduce order, bit for bit; the built-in sum, which
    # compensates its rounding from Python 3.12 on, would not keep it
    rng = np.random.default_rng(seed)
    for n in range(1, 129):
        values = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-40, 41, n))
        assert _pairwise_sum(values.tolist()).hex() == np.add.reduce(values).hex(), n


@pytest.mark.parametrize("widths", [range(1, _FSUM_MIN_EXTRACT),
                                    range(_FSUM_MIN_EXTRACT, 301), (1000,)],
                         ids=["below the crossover", "to 300", "1000"])
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "cancelling"])
def test_extraction_sums_match_fsum(kind, widths):
    # the sums of runs of columns that one extraction of two rows gives,
    # certified or taken again, at every width up to 300 and at 1,000
    for n in widths:
        rows = np.stack([array(n, n, "capitals"), array(n + 1, n, kind)])
        extraction = _Extraction(rows)
        for cuts in [(0,)] + [(0, m) for m in sorted({1, n // 3, n - 1}) if 0 < m < n]:
            ends = (*cuts[1:], n)
            want = [math.fsum(row[a:b]).hex() for row in rows for a, b in zip(cuts, ends)]
            assert [x.hex() for x in extraction.sums(cuts)] == want, (n, cuts)


def test_cached_sigmas_are_read_only():
    # every sum at one exponent shares its sigma: a write into it would move
    # every later sum, so it is refused, and the sums are still math.fsum's
    rows = np.stack([array(6, 1000, "mixed"), array(7, 1000, "capitals")])
    k = _exact._exponent(_exact._TOP, 1000)  # the first level's of both sums below
    sigma = _exact._sigma(k)
    assert _exact._sigma(k) is sigma
    try:
        with pytest.raises(ValueError, match="read-only"):
            sigma[...] = 3.0
        assert _fsum(rows[0]).hex() == math.fsum(rows[0]).hex()
        want = [math.fsum(row).hex() for row in rows]
        assert [x.hex() for x in _Extraction(rows).sums((0,))] == want
    finally:
        _exact._SIGMAS.pop(k)  # a sigma written into leaves with this test
