"""Shift-invariant alternation: the per-shift and batched level-set kernels
and the bulk arrays against the brute-force oracles, each other and the
single-function alternation."""

import numpy as np

from boolfn import (
    TruthTable,
    alternation,
    alternation_under_shifts,
    measures,
    shift,
    shift_invariant_alternation,
)
from boolfn._bitops import table_mask
from boolfn._bulk import measure_arrays
from boolfn.families import and_, parity
from boolfn.measures import (
    _alternation_at_shift,
    _direction_columns,
    _shift_block_alternations,
    _shift_moves,
)

from oracles import naive_salt, naive_shift_alternations, random_table


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def test_salt_and_witness_match_oracles_exhaustive():
    for n in range(4):
        for f in _every_function(n):
            alts = naive_shift_alternations(f)
            val, b = shift_invariant_alternation(f, witness=True)
            assert val == naive_salt(f) == min(alts)
            assert b == alts.index(val)
            assert alternation_under_shifts(f).tolist() == alts


def test_alternation_under_shifts_matches_shifted_alternation():
    rng = np.random.default_rng(31)
    for k in range(64):
        n = 4 + k % 5
        f = TruthTable(n, random_table(rng, n))
        alts = alternation_under_shifts(f)
        assert alts.shape == (2**n,)
        for b in range(2**n):
            assert alts[b] == alternation(shift(f, b))
        val, b = shift_invariant_alternation(f, witness=True)
        assert (val, b) == (int(alts.min()), int(alts.argmin()))


def test_bulk_salt_matches_api_exhaustive():
    for n in range(4):
        a = measure_arrays(n, 0, 2 ** (2**n))
        for f in _every_function(n):
            val, b = shift_invariant_alternation(f, witness=True)
            assert (a["salt"][f.bits], a["salt_argmin"][f.bits]) == (val, b)
            assert a["alt"][f.bits] == alternation(f)


def _per_shift(f):
    """alt(f XOR b) for b < 2**(n-1), by the per-shift kernel."""
    moves, full = _shift_moves(f), table_mask(f.n)
    return [_alternation_at_shift(moves, full, b, f.n) for b in range(2 ** f.n // 2)]


def _assert_block(f, expected, b0, count):
    """Both modes of the batched kernel on one block, against per-shift values."""
    cols = _direction_columns(f)
    n = f.n
    want = expected[b0 : b0 + count]
    assert _shift_block_alternations(cols, b0, count, n, False).tolist() == want
    # stopped at the first emptied level: the shifts of the minimum read it,
    # every other shift reads the cap
    low = min(want)
    first = _shift_block_alternations(cols, b0, count, n, True).tolist()
    assert first == [a if a == low else n for a in want]
    # under a cap at or below the minimum, every shift reads the cap
    assert _shift_block_alternations(cols, b0, count, low, True).tolist() == [low] * count


def test_block_kernel_matches_oracles_exhaustive():
    for n in range(1, 4):
        for f in _every_function(n):
            half = naive_shift_alternations(f)[: 2 ** (n - 1)]
            _assert_block(f, half, 0, len(half))


def test_block_kernel_matches_per_shift_seeded():
    rng = np.random.default_rng(9)
    for n in range(4, 8):
        for _ in range(6):
            f = TruthTable(n, random_table(rng, n))
            alts = _per_shift(f)
            total = len(alts)
            _assert_block(f, alts, 0, total)
            # a block that starts and ends inside a word
            b0 = int(rng.integers(0, total))
            _assert_block(f, alts, b0, int(rng.integers(1, total - b0 + 1)))


def _salt_functions(rng, n):
    """Random functions, a tie at every shift (parity), a constant, and AND
    shifted so that its one minimal shift lands in a late block."""
    late = 2 ** (n - 1) - 1 - int(rng.integers(0, 64))
    return [TruthTable(n, random_table(rng, n)) for _ in range(3)] + [
        parity(n),
        TruthTable(n, 0),
        shift(and_(n), late),
    ]


def test_salt_in_one_word_blocks_matches_default(monkeypatch):
    rng = np.random.default_rng(17)
    cases = []
    for n in range(8, 11):
        for f in _salt_functions(rng, n):
            alts = alternation_under_shifts(f)
            val, b = shift_invariant_alternation(f, witness=True)
            assert (val, b) == (int(alts.min()), int(alts.argmin()))
            cases.append((f, alts, val, b))
    assert len(measures._shift_blocks(10)) == 1
    monkeypatch.setattr(measures, "_SHIFT_BLOCK_BUDGET", 0)
    assert measures._shift_blocks(8) == [(0, 64), (64, 64)]
    assert len(measures._shift_blocks(10)) == 8
    for f, alts, val, b in cases:
        assert shift_invariant_alternation(f, witness=True) == (val, b)
        assert alternation_under_shifts(f).tolist() == alts.tolist()


def test_alternation_under_shifts_above_one_block_arity():
    rng = np.random.default_rng(23)
    for n in (9, 10):
        for _ in range(2):
            f = TruthTable(n, random_table(rng, n))
            alts = alternation_under_shifts(f)
            for b in rng.integers(0, 2**n, size=12).tolist():
                assert alts[b] == alternation(shift(f, b))
