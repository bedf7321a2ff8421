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
    """n seeded values of one shape, scaled below 2 in size: heavy-tailed
    capital, capital times a signed weight, values with their negatives (sum
    exactly 0), or signs and exponents drawn over the float range below 2."""
    rng = np.random.default_rng(seed)
    pareto = rng.pareto(1.5, n) + 1.0
    if kind == "pareto":
        return below_two(pareto)
    if kind == "mixed":
        return below_two(pareto * rng.uniform(-1.0, 1.0, n))
    if kind == "cancelling":
        half = pareto[: n // 2] * rng.choice([-1.0, 1.0], n // 2)
        return below_two(rng.permutation(np.concatenate([half, -half])))
    return below_two(np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 2, n)))


KINDS = ("pareto", "mixed", "cancelling", "wide")


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


@pytest.mark.parametrize("kind", ["pareto", "mixed", "cancelling"])
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


def padded(values, n=2 * _FSUM_MIN_EXTRACT):
    """``values`` hidden among heavy-tailed values below 2 and their
    negatives, in seeded order: the same exact sum, at a size that
    extraction takes."""
    rng = np.random.default_rng(len(values))
    others = below_two(rng.pareto(1.5, (n - len(values)) // 2))
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
    values = array(5, 2 * _BLOCK + 1, "mixed")
    values[at] = special
    assert_fsum(values)


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


# The shapes clearing sums, near the bound of 2 and below it: the first
# level's sigma comes from that bound alone.
BOUNDED_SIZES = (_FSUM_MIN_EXTRACT - 1, _FSUM_MIN_EXTRACT, _FSUM_MIN_EXTRACT + 1,
                 1000, *BLOCK_EDGES)


def bounded(seed, n, kind):
    """n seeded values below 2 in size: unit capitals (the largest in
    [1, 2)), mixed signs, values with their negatives (sum exactly 0), the
    same cancelling to a subnormal, all -0.0, +-(2 - ulp) with a few small
    values, values in [1, 2), or in (-2, -1]."""
    rng = np.random.default_rng(seed)
    pareto = rng.pareto(1.5, n) + 1.0
    capitals = np.ldexp(pareto, 1 - math.frexp(pareto.max())[1])
    if kind == "capitals":
        return capitals
    if kind == "mixed":
        return capitals * rng.uniform(-1.0, 1.0, n)
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
    values = np.concatenate([half, -half, np.zeros(n % 2)])
    if kind == "to a subnormal":
        values[-1] = rng.choice([-5e-324, 3e-320, -2.5e-310])
    return rng.permutation(values)


BOUNDED_KINDS = ("capitals", "mixed", "to zero", "to a subnormal",
                 "negative zeros", "top", "near two", "near minus two")


@pytest.mark.parametrize("kind", BOUNDED_KINDS)
@pytest.mark.parametrize("n", BOUNDED_SIZES)
def test_bounded_sum_matches_fsum(n, kind):
    for seed in range(3):
        values = bounded(seed, n, kind)
        for view in (values, values[::-1], values[1:-1], values[::2], values[::-3]):
            got = outcome(_fsum, view)
            assert got == outcome(math.fsum, view), (kind, len(view))


@pytest.mark.parametrize("tail", [
    [1.0, 2.0 ** -53],                       # a tie, rounded to even: 1
    [1.0, 3 * 2.0 ** -53],                   # a tie, rounded to even: 1 + 2^-51
    [1.0, 2.0 ** -53, 2.0 ** -300],          # just past a tie: 1 + 2^-52
    [1.0, 2.0 ** -53, -(2.0 ** -300)],       # just short of a tie: 1
    [1.0, 2.0 ** -54, 2.0 ** -54, 2.0 ** -1074],
    [2.0 ** -1022, 2.0 ** -1074, -(2.0 ** -1070)],  # subnormal sums
    [1e-310, -3e-320, 2.5e-308],
])
@pytest.mark.parametrize("n", [_FSUM_MIN_EXTRACT, 1000, _BLOCK + 1])
def test_bounded_sum_matches_fsum_at_ties(tail, n):
    # the tail among values below 2 and their negatives, in seeded order;
    # half of those lie far below 2, so that numpy's sum of the remainders
    # rounds and only the error bound keeps a tie from being certified
    for seed in range(4):
        rng = np.random.default_rng([seed, len(tail)])
        half = (n - len(tail)) // 2
        others = np.ldexp(rng.uniform(-1.0, 1.0, half), rng.integers(-90, 2, half))
        values = rng.permutation(np.concatenate([others, -others, tail]))
        for view in (values, values[::-1]):
            assert _fsum(view).hex() == math.fsum(view).hex(), (seed, tail)


@pytest.mark.parametrize("kind", ["capitals", "mixed", "top"])
def test_bounded_sum_certifies_without_math_fsum_over_the_values(kind, monkeypatch):
    # the bound of 2 sets the first level; only the parts go to math.fsum
    fsum, lengths = math.fsum, []

    def counted(values):
        values = list(values)
        lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    for n in (_FSUM_MIN_EXTRACT, 1000, _BLOCK + 1):
        values = bounded(4, n, kind)
        assert _fsum(values) == fsum(values)
    assert lengths and max(lengths) <= _exact._LEVELS + 2


@pytest.mark.parametrize("kind", BOUNDED_KINDS)
@pytest.mark.parametrize("n", [2, _FSUM_MIN_EXTRACT - 1, _FSUM_MIN_EXTRACT, 1000])
def test_extraction_sums_match_fsum(n, kind):
    # the sums of runs of columns that one extraction of two rows gives,
    # certified or taken again, and below the crossover math.fsum's own
    rows = np.stack([bounded(n, n, "capitals"), bounded(n + 1, n, kind)])
    extraction = _Extraction(rows)
    for cuts in [(0,)] + [(0, m) for m in sorted({1, n // 3, n - 1}) if 0 < m < n]:
        ends = (*cuts[1:], n)
        want = [math.fsum(row[a:b]).hex() for row in rows for a, b in zip(cuts, ends)]
        assert [x.hex() for x in extraction.sums(cuts)] == want, (kind, cuts)


def test_cached_sigmas_are_read_only():
    # every sum at one exponent shares its sigma: a write into it would move
    # every later sum, so it is refused, and the sums are still math.fsum's
    rows = np.stack([bounded(6, 1000, "mixed"), bounded(7, 1000, "capitals")])
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
