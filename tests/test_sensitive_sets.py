"""The sensitive-set kernels on packed bits against brute force: one
table's pointwise sensitivity from its direction planes, s and its point
from the bit-slices of those counts, and the minimal sensitive blocks of a
packed set of blocks, as one int or as lanes."""

import tracemalloc

import numpy as np
import pytest

from boolfn import TruthTable, measures, sensitivity
from boolfn._bitops import table_mask
from boolfn.families import maj, parity
from boolfn.measures import (
    _lane,
    _Measures,
    _minimal_blocks,
    _plane_sensitivity,
    _pointwise_sensitivity,
    _slice_sensitivity,
)

from oracles import naive_sensitivity, random_table


def _seeded_table(rng, n):
    raw = rng.integers(0, 256, max(1, 2**n // 8), dtype=np.uint8).tobytes()
    return TruthTable(n, int.from_bytes(raw, "little") & ((1 << 2**n) - 1))


def _assert_sensitivity(f):
    want = [naive_sensitivity(f, x) for x in range(2**f.n)]
    counts = _plane_sensitivity(f.bits, f.n)
    assert counts.dtype == np.int8 and counts.shape == (2**f.n,)
    assert counts.tolist() == want
    # a one-column matrix runs the planes, and up to n = 8 a two-column one,
    # the table twice, runs the level passes
    t = f.to_array()[:, None]
    column = _pointwise_sensitivity(t)
    assert column.dtype == np.int8 and column.shape == (2**f.n, 1)
    assert column[:, 0].tolist() == want
    if f.n <= 8:
        levels = _pointwise_sensitivity(np.concatenate([t, t], axis=1))
        assert levels.dtype == np.int8 and levels.T.tolist() == [want, want]


def test_plane_sensitivity_matches_oracle_on_every_function_to_n3():
    for n in range(4):
        for bits in range(2 ** (2**n)):
            _assert_sensitivity(TruthTable(n, bits))


@pytest.mark.parametrize("n", range(4, 17))
def test_plane_sensitivity_matches_oracle_on_seeded_tables(n):
    # from n = 13 the planes unpack in groups of fewer than n, from n = 16
    # one at a time
    rng = np.random.default_rng(450 + n)
    for _ in range(3 if n <= 10 else 1):
        _assert_sensitivity(_seeded_table(rng, n))


@pytest.mark.parametrize("n", [18, 20])
def test_plane_sensitivity_equals_the_level_passes_at_large_arity(n):
    # a two-column matrix runs the level passes, on the table twice
    f = _seeded_table(np.random.default_rng(n), n)
    t = f.to_array()
    levels = _pointwise_sensitivity(np.stack([t, t], axis=1))
    assert np.array_equal(_plane_sensitivity(f.bits, n), levels[:, 0])
    assert np.array_equal(levels[:, 0], levels[:, 1])


def test_sensitivity_peak_memory_at_n20():
    # the counts and one unpacked plane at a time where bs runs, or the
    # count's five bit-slices where it is skipped; the first call builds the
    # cached low-half masks of arity 20 (``_bitops.low_half_mask``), which
    # every packed kernel of that arity shares, so the second is traced
    n = 20
    f = _seeded_table(np.random.default_rng(20), n)
    want = sensitivity(f, witness=True)
    for limits in ({}, {"bs": n}):
        tracemalloc.start()
        try:
            got = _Measures(f, limits).sensitivity(True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 3 * 2**n


def _slice_cases(n, rng):
    """Tables of arity n whose s ties at many inputs or few: the constants,
    parity (s = n everywhere), majority (its middle layers), two inputs at
    distance 2 near the top (s = n at both, neither of them 0) and a seeded
    table."""
    top = 2**n - 6
    return [0, table_mask(n), parity(n).bits, maj(n).bits, (1 << top) | (1 << (top ^ 3)),
            _seeded_table(rng, n).bits]


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_slice_sensitivity_equals_the_counts(n):
    for bits in _slice_cases(n, np.random.default_rng(480 + n)):
        counts = _plane_sensitivity(bits, n)
        at = int(np.argmax(counts))
        assert _slice_sensitivity(bits, n) == (int(counts[at]), at)


def test_slice_sensitivity_on_every_function_to_n3():
    for n in range(4):
        for bits in range(2 ** (2**n)):
            counts = [naive_sensitivity(TruthTable(n, bits), x) for x in range(2**n)]
            assert _slice_sensitivity(bits, n) == (max(counts), counts.index(max(counts)))


def test_owner_reads_the_slices_only_where_bs_is_skipped(monkeypatch):
    # at n = 15, above the bs ceiling, s and its witness come from the
    # slices; under a bs limit of 15 the owner builds the counts, which the
    # bs search reads, and both give the same value and point
    n = 15
    fs = [TruthTable(n, bits) for bits in _slice_cases(n, np.random.default_rng(495))]
    counted = [_Measures(f, {"bs": n}).sensitivity(True) for f in fs]

    def no_counts(*args):
        raise AssertionError("the counts were built where bs is skipped")

    monkeypatch.setattr(measures, "_plane_sensitivity", no_counts)
    assert [sensitivity(f, witness=True) for f in fs] == counted
    assert [sensitivity(f) for f in fs] == [value for value, _ in counted]


def _naive_minimal(sens):
    """The set bits b of ``sens`` with no proper subset among its set bits,
    every proper subset enumerated."""
    out, b = [], sens
    while b:
        block = (b & -b).bit_length() - 1
        b &= b - 1
        sub, minimal = (block - 1) & block, True
        while sub and minimal:
            minimal = not sens >> sub & 1
            sub = (sub - 1) & block
        if minimal:
            out.append(block)
    return sum(1 << block for block in out)


def _sensitive_set(f, a):
    """The packed set of blocks B != 0 whose flip changes f at a."""
    return sum(1 << b for b in range(1, 2**f.n) if f.value_at(a ^ b) != f.value_at(a))


def test_minimal_blocks_of_every_input_of_every_function_to_n4():
    for n in range(4):
        for bits in range(2 ** (2**n)):
            f = TruthTable(n, bits)
            for a in range(2**n):
                sens = _sensitive_set(f, a)
                assert _minimal_blocks(sens, n) == _naive_minimal(sens), (n, bits, a)
    # at n = 4 the sets are the ones of the flip patterns, every even table
    # of 16 bits: each is f(a ^ B) ^ f(a) of some f and a, and each f and a
    # gives one
    for sens in range(0, 1 << 16, 2):
        assert _minimal_blocks(sens, 4) == _naive_minimal(sens), sens


@pytest.mark.parametrize("n", range(5, 13))
def test_minimal_blocks_of_seeded_tables(n):
    rng = np.random.default_rng(460 + n)
    for _ in range(2):
        f = _seeded_table(rng, n)
        a = int(rng.integers(2**n))
        sens = _sensitive_set(f, a)
        assert _minimal_blocks(sens, n) == _naive_minimal(sens), a


@pytest.mark.parametrize("n", range(2, 7))
def test_minimal_blocks_of_lanes(n):
    rng = np.random.default_rng(470 + n)
    sets = [_sensitive_set(TruthTable(n, random_table(rng, n)), int(rng.integers(2**n)))
            for _ in range(40)]
    lanes = np.array(sets, dtype=_lane(n))
    minimal = _minimal_blocks(lanes, n)
    assert minimal.dtype == _lane(n) and minimal.shape == lanes.shape
    # the input is left as it was
    assert [int(s) for s in lanes] == sets
    assert [int(m) for m in minimal] == [_naive_minimal(s) for s in sets]
