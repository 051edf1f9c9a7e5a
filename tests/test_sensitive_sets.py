"""The sensitive-set kernels on packed bits against brute force: one
table's sensitivity as the bit-slices of its direction planes' sum, and
their readers (s and its point, s at 0, the per-point counts); a matrix's
(s(g,0), s(g)) per column; and the minimal sensitive blocks of a packed set
of blocks, as one int or as lanes."""

import tracemalloc

import numpy as np
import pytest

from boolfn import TruthTable, measures, sensitivity
from boolfn._bitops import table_mask
from boolfn.families import maj, parity
from boolfn.measures import (
    _lane,
    _Measures,
    _column_sensitivity,
    _minimal_blocks,
    _pointwise_sensitivity,
    _sensitivity_slices,
    _slice_at_zero,
    _slice_counts,
    _slice_max,
)

from oracles import naive_block_sensitivity, naive_sensitivity, random_table


def _seeded_table(rng, n):
    raw = rng.integers(0, 256, max(1, 2**n // 8), dtype=np.uint8).tobytes()
    return TruthTable(n, int.from_bytes(raw, "little") & ((1 << 2**n) - 1))


def _assert_sensitivity(f):
    want = [naive_sensitivity(f, x) for x in range(2**f.n)]
    slices = _sensitivity_slices(f.bits, f.n)
    counts = _slice_counts(slices, f.n)
    assert counts.dtype == np.int8 and counts.shape == (2**f.n,)
    assert counts.tolist() == want
    assert _slice_max(slices, f.n) == (max(want), want.index(max(want)))
    assert _slice_at_zero(slices) == want[0]
    # a one-column matrix reads the slices, a two-column one, the table
    # twice, the level passes (up to n = 8 here)
    t = f.to_array()[:, None]
    for m in (1, 2) if f.n <= 8 else (1,):
        at_zero, top = _column_sensitivity(np.concatenate([t] * m, axis=1))
        assert at_zero.dtype == top.dtype == np.int64
        assert (at_zero.tolist(), top.tolist()) == ([want[0]] * m, [max(want)] * m)
    if f.n <= 8:
        levels = _pointwise_sensitivity(np.concatenate([t, t], axis=1))
        assert levels.dtype == np.int8 and levels.T.tolist() == [want, want]


def test_plane_sensitivity_matches_oracle_on_every_function_to_n3():
    for n in range(4):
        for bits in range(2 ** (2**n)):
            _assert_sensitivity(TruthTable(n, bits))


@pytest.mark.parametrize("n", range(4, 17))
def test_plane_sensitivity_matches_oracle_on_seeded_tables(n):
    # these tables' counts take 2 bit-slices at n = 4, 3 or 4 above
    rng = np.random.default_rng(450 + n)
    for _ in range(3 if n <= 10 else 1):
        _assert_sensitivity(_seeded_table(rng, n))


@pytest.mark.parametrize("n", [18, 20])
def test_plane_sensitivity_equals_the_level_passes_at_large_arity(n):
    # a two-column matrix runs the level passes, on the table twice
    f = _seeded_table(np.random.default_rng(n), n)
    t = f.to_array()
    levels = _pointwise_sensitivity(np.stack([t, t], axis=1))
    slices = _sensitivity_slices(f.bits, n)
    assert np.array_equal(_slice_counts(slices, n), levels[:, 0])
    assert np.array_equal(levels[:, 0], levels[:, 1])
    top = int(levels[:, 0].max())
    assert _slice_max(slices, n) == (top, int(np.argmax(levels[:, 0])))
    assert _slice_at_zero(slices) == int(levels[0, 0])
    assert [a.tolist() for a in _column_sensitivity(t[:, None])] == [[levels[0, 0]], [top]]


def test_sensitivity_peak_memory_at_n20():
    # s reads the count's five bit-slices under any bs limit, and the bs
    # bound unpacks them into the counts one slice at a time; the first call
    # builds the cached low-half masks of arity 20 (``_bitops.low_half_mask``),
    # which every packed kernel of that arity shares, so the second is traced
    n = 20
    f = _seeded_table(np.random.default_rng(20), n)
    want = sensitivity(f, witness=True)
    for limits in ({}, {"bs": n}):
        owner = _Measures(f, limits)
        tracemalloc.start()
        try:
            got = owner.sensitivity(True)
            counts = _slice_counts(owner._sliced(), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert got[0] == counts.max() and got[1][0] == int(np.argmax(counts))
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
    # the narrowing and bit 0 of the slices against the level passes on the
    # table twice, which share no code with the slices
    for bits in _slice_cases(n, np.random.default_rng(480 + n)):
        t = TruthTable(n, bits).to_array()
        counts = _pointwise_sensitivity(np.stack([t, t], axis=1))[:, 0]
        at = int(np.argmax(counts))
        slices = _sensitivity_slices(bits, n)
        assert _slice_max(slices, n) == (int(counts[at]), at)
        assert _slice_at_zero(slices) == int(counts[0])
        assert np.array_equal(_slice_counts(slices, n), counts)


def test_slice_sensitivity_on_every_function_to_n3():
    for n in range(4):
        for bits in range(2 ** (2**n)):
            counts = [naive_sensitivity(TruthTable(n, bits), x) for x in range(2**n)]
            slices = _sensitivity_slices(bits, n)
            assert _slice_max(slices, n) == (max(counts), counts.index(max(counts)))
            assert _slice_at_zero(slices) == counts[0]


def test_owner_builds_the_counts_only_for_the_bs_search(monkeypatch):
    # unpointed s, with and without its witness, reads the slices' maximum
    # and unpacks no counts, under any bs limit; the bs search unpacks them
    # once per owner, however often bs and s are read
    n = 15
    fs = [TruthTable(n, bits) for bits in _slice_cases(n, np.random.default_rng(495))]
    want = []
    for f in fs:
        t = f.to_array()
        counts = _pointwise_sensitivity(np.stack([t, t], axis=1))[:, 0]
        at = int(np.argmax(counts))
        want.append((int(counts[at]), (at, measures._sensitive_mask(f, at))))
    unpacked, slice_counts = [], measures._slice_counts

    def no_counts(slices, n):
        raise AssertionError("s unpacked the per-point counts")

    monkeypatch.setattr(measures, "_slice_counts", no_counts)
    assert [sensitivity(f, witness=True) for f in fs] == want
    assert [sensitivity(f) for f in fs] == [value for value, _ in want]
    for limits in ({}, {"bs": 4}, {"bs": n}):
        for f, expect in zip(fs, want):
            owner = _Measures(f, limits)
            assert (owner.sensitivity(False), owner.sensitivity(True)) == (expect[0], expect)
    monkeypatch.setattr(measures, "_slice_counts",
                        lambda slices, n: unpacked.append(1) or slice_counts(slices, n))
    for bits in _slice_cases(5, np.random.default_rng(496)):
        f = TruthTable(5, bits)
        owner, before = _Measures(f, {}), len(unpacked)
        bs = owner.block_sensitivity(False)
        assert owner.sensitivity(False) == naive_sensitivity(f)
        assert owner.block_sensitivity(True)[0] == bs == naive_block_sensitivity(f)
        assert len(unpacked) - before == 1


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
