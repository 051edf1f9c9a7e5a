"""Shift-invariant alternation: the per-shift and batched level-set kernels
and the bulk arrays against the brute-force oracles, each other and the
single-function alternation; the greedy chain bound and the search it
orders."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from boolfn.families import and_, gip, maj, parity, tree_function
from boolfn.measures import (
    _alternation_at_shift,
    _chain_bound,
    _direction_columns,
    _salt_search,
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


def test_bound_ordered_search_matches_oracles_at_small_arity(monkeypatch):
    # below _BOUND_MIN_ARITY the search runs in ascending order; the same
    # search ordered by the bound, every function to n = 3, then sampled
    monkeypatch.setattr(measures, "_BOUND_MIN_ARITY", 1)
    rng = np.random.default_rng(41)
    fs = [f for n in range(1, 4) for f in _every_function(n)]
    fs += [TruthTable(n, random_table(rng, n)) for n in (4, 5) for _ in range(100)]
    for f in fs:
        alts = naive_shift_alternations(f)
        assert shift_invariant_alternation(f, witness=True) == (min(alts), alts.index(min(alts)))


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


def _assert_block(f, expected, shifts):
    """Both modes of the batched kernel on one block of shifts, against
    per-shift values."""
    cols = _direction_columns(f)
    n = f.n
    shifts = np.asarray(shifts)
    want = [expected[b] for b in shifts.tolist()]
    assert _shift_block_alternations(cols, shifts, n, False).tolist() == want
    # stopped at the first emptied level: the shifts of the minimum read it,
    # every other shift reads the cap
    low = min(want)
    first = _shift_block_alternations(cols, shifts, n, True).tolist()
    assert first == [a if a == low else n for a in want]
    # under a cap at or below the minimum, every shift reads the cap
    assert _shift_block_alternations(cols, shifts, low, True).tolist() == [low] * len(want)


def test_block_kernel_matches_oracles_exhaustive():
    for n in range(1, 4):
        for f in _every_function(n):
            half = naive_shift_alternations(f)[: 2 ** (n - 1)]
            _assert_block(f, half, range(len(half)))


def test_block_kernel_matches_per_shift_seeded():
    rng = np.random.default_rng(9)
    for n in range(4, 8):
        for _ in range(6):
            f = TruthTable(n, random_table(rng, n))
            alts = _per_shift(f)
            total = len(alts)
            _assert_block(f, alts, range(total))
            # a block that starts and ends inside a word
            b0 = int(rng.integers(0, total))
            _assert_block(f, alts, range(b0, b0 + int(rng.integers(1, total - b0 + 1))))
            # an arbitrary set of shifts in an arbitrary order
            _assert_block(f, alts, rng.permutation(total)[: int(rng.integers(1, total + 1))])


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
    # the blocks are those of alternation_under_shifts; salt at these n
    # runs per shift and reads none (its 64-shift words are tested below)
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


def test_shift_block_fits_its_byte_budget():
    # the level sets and numpy's iteration buffers of the largest block; the
    # buffers fit the budget's slack, so this guards against numpy growing them
    for n in (11, 13):
        f = maj(n)
        cols = _direction_columns(f)
        b0, count = measures._shift_blocks(n)[0]
        tracemalloc.start()
        try:
            _shift_block_alternations(cols, np.arange(b0, b0 + count), n, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= measures._SHIFT_BLOCK_BUDGET


def _assert_chain_bound(f):
    """The greedy chain bound is at most alt(f XOR b) at every shift b below
    2**(n-1), and has the parity f(b) XOR f(~b) of alt(f XOR b)."""
    alts = alternation_under_shifts(f)
    top = 2**f.n - 1
    bound = _chain_bound(f).tolist()
    assert len(bound) == 2**f.n // 2
    for b, low in enumerate(bound):
        assert low <= alts[b]
        assert low % 2 == f.value_at(b) ^ f.value_at(b ^ top)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 8).flatmap(lambda n: st.builds(TruthTable, st.just(n), st.integers(0, table_mask(n)))))
def test_chain_bound_below_alternation_property(f):
    _assert_chain_bound(f)


def test_chain_bound_below_alternation_seeded_and_families():
    rng = np.random.default_rng(37)
    for n in (10, 11, 12):
        _assert_chain_bound(TruthTable(n, random_table(rng, n)))
    for f in (tree_function(3), gip(3, 3), maj(11)):
        _assert_chain_bound(f)


def test_search_visits_one_word_on_majority():
    for n in (11, 15):
        val, b, visited = _salt_search(maj(n))
        assert (val, b) == (1, 0)
        assert visited <= 64


# (salt, smallest argmin shift) of _salt_functions(default_rng(29), n) for
# n = 8..12, as the ascending scan of every shift gives them
_SCANNED_SALT = {
    8: [(7, 0), (7, 8), (7, 0), (8, 0), (0, 0), (1, 68)],
    9: [(8, 0), (8, 2), (7, 150), (9, 0), (0, 0), (1, 223)],
    10: [(8, 224), (8, 13), (9, 3), (10, 0), (0, 0), (1, 494)],
    11: [(10, 3), (9, 354), (9, 42), (11, 0), (0, 0), (1, 1010)],
    12: [(11, 0), (10, 1759), (11, 1), (12, 0), (0, 0), (1, 1993)],
}


def test_salt_search_matches_scan_of_every_shift(monkeypatch):
    rng = np.random.default_rng(29)
    cases = {n: _salt_functions(rng, n) for n in range(8, 13)}
    for n, fs in cases.items():
        got = [shift_invariant_alternation(f, witness=True) for f in fs]
        assert got == _SCANNED_SALT[n]
        for f, (val, b) in zip(fs, got):
            alts = alternation_under_shifts(f)
            assert (val, b) == (int(alts.min()), int(alts.argmin()))
    # the same search with every word through the other kernel, and in
    # ascending order as without the bound
    for per_shift_max, bound_min in ((0, 0), (12, 0), (12, 13), (0, 13)):
        monkeypatch.setattr(measures, "_PER_SHIFT_MAX_ARITY", per_shift_max)
        monkeypatch.setattr(measures, "_BOUND_MIN_ARITY", bound_min)
        for n, fs in cases.items():
            assert [shift_invariant_alternation(f, witness=True) for f in fs] == _SCANNED_SALT[n]


def test_salt_search_where_bound_is_loose(monkeypatch):
    # functions with a few ones: the bound prunes little, so the search
    # visits most shifts, through up to 20 words of 64; both kernels
    # against the scan of every shift
    rng = np.random.default_rng(0)
    cases = []
    for n, ones in ((10, 3), (11, 16), (12, 40)):
        f = TruthTable(n, sum(1 << int(x) for x in rng.choice(2**n, ones, replace=False)))
        alts = alternation_under_shifts(f)
        cases.append((f, (int(alts.min()), int(alts.argmin()))))
    for per_shift_max in (measures._PER_SHIFT_MAX_ARITY, 0):
        monkeypatch.setattr(measures, "_PER_SHIFT_MAX_ARITY", per_shift_max)
        for f, want in cases:
            val, b, visited = _salt_search(f)
            assert (val, b) == want
            assert visited > 2 ** (f.n - 2)


# functions whose search finds the salt value first at a shift above the
# smallest argmin, which holds a bound equal to salt and so is visited after
_LATE_TIES = [  # (n, the inputs where f is 1, (salt, smallest argmin))
    (7, (9, 18, 23, 30, 32, 39, 64, 91, 104, 121, 127), (4, 3)),
    (8, (14, 15, 46, 47, 85, 117, 142, 143, 174, 175), (2, 0)),
    (9, (140, 157, 240, 314, 425, 434, 444, 470), (2, 16)),
]


def test_salt_search_keeps_ties_below_best_shift(monkeypatch):
    for per_shift_max in (measures._PER_SHIFT_MAX_ARITY, 0):
        monkeypatch.setattr(measures, "_PER_SHIFT_MAX_ARITY", per_shift_max)
        for n, ones, want in _LATE_TIES:
            f = TruthTable(n, sum(1 << x for x in ones))
            alts = alternation_under_shifts(f)
            assert want == (int(alts.min()), int(alts.argmin()))
            assert _salt_search(f)[:2] == want
