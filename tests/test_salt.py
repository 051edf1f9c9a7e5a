"""Shift-invariant alternation: the per-shift level-set kernel, one function
and batched, and the bulk arrays against the brute-force oracles and the
single-function alternation; the greedy chain bound and the search it
orders."""

import numpy as np
import pytest
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
from boolfn._bulk import _columns, measure_arrays
from boolfn.families import and_, gip, maj, or_, parity, rubinstein, tree_function
from boolfn.measures import (
    _alternation_by_shift,
    _chain_bound,
    _direction_planes,
    _lane,
    _level_sets,
    _salt_search,
    _shift_moves,
)

from oracles import (
    _shifted,
    naive_chain_bound,
    naive_path_maxima,
    naive_salt,
    naive_shift_alternations,
    random_table,
)


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
    # below _BOUND_MIN_ARITY the search runs under the parity floor alone;
    # the same search tightened by the chain bound, every function to n = 3,
    # then sampled
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
        a = measure_arrays(*next(_columns(n)))
        for f in _every_function(n):
            assert a["salt"][f.bits] == shift_invariant_alternation(f)
            assert a["alt"][f.bits] == alternation(f)
            # the bulk arrays share the API's kernel, so also the oracle
            alts = naive_shift_alternations(f)
            assert a["alt"][f.bits] == alts[0]
            assert a["salt"][f.bits] == min(alts)


def _salt_functions(rng, n):
    """Random functions, a tie at every shift (parity), a constant, and AND
    shifted so that its one minimal shift is among the last 64."""
    late = 2 ** (n - 1) - 1 - int(rng.integers(0, 64))
    return [TruthTable(n, random_table(rng, n)) for _ in range(3)] + [
        parity(n),
        TruthTable(n, 0),
        shift(and_(n), late),
    ]


def test_alternation_under_shifts_matches_path_maxima_oracle():
    rng = np.random.default_rng(23)
    for n in range(9, 13):
        f = TruthTable(n, random_table(rng, n))
        alts = alternation_under_shifts(f)
        shifts = rng.integers(0, 2**n, size=12)
        assert alts[shifts].tolist() == [naive_path_maxima(_shifted(f, int(b)))[0] for b in shifts]


def _levels_from_top(table, n):
    """The level sets run down from 1^n, each as one 0/1 row per table:
    (k, 2**n) for one packed table, (k, m, 2**n) for (m,) lanes."""
    levels = _level_sets(*_shift_moves(table, n), 2**n - 1, n + 1)
    if isinstance(table, int):
        return np.array([[(level >> x) & 1 for x in range(2**n)] for level in levels])
    return np.array([(level[:, None] >> np.arange(2**n, dtype=level.dtype)) & 1
                     for level in levels]).reshape(-1, table.size, 2**n)


@pytest.mark.parametrize("n", range(7))
def test_batched_kernel_matches_oracle(n):
    # 0 and all ones are constant; the top point alone is the top bit of its
    # lane of max(8, 2**n) bits, bit 63 at n = 6; the batches run from one
    # lane to all of them.
    # Run down from 1^n, level k is the set {x : d[x] >= k} of the path
    # maxima d, one level for each value of alt, which the chain walk reads
    rng = np.random.default_rng(50 + n)
    ids = [0, 2 ** (2**n) - 1, 1 << (2**n - 1)] + [random_table(rng, n) for _ in range(20)]
    shifts = max(1, 2**n // 2)
    want_down, want_alts = [], []
    for bits in ids:
        f = TruthTable(n, bits)
        want_down.append(naive_path_maxima(f))
        want_alts.append([naive_path_maxima(_shifted(f, b))[0] for b in range(shifts)])
        down = np.array(want_down[-1])
        levels = _levels_from_top(bits, n)
        assert levels.tolist() == [(down >= k).tolist() for k in range(1, down.max() + 1)]
        assert _alternation_by_shift(bits, n).tolist() == want_alts[-1]
    for m in (1, 3, 7, 9, 17, len(ids)):
        batch = np.asarray(ids[-m:], dtype=_lane(n))
        down = np.array(want_down[-m:])
        levels = _levels_from_top(batch, n)
        alts = _alternation_by_shift(batch, n)
        assert levels.tolist() == [(down >= k).tolist() for k in range(1, down.max() + 1)]
        assert alts.shape == (m, shifts) and alts.tolist() == want_alts[-m:]


def _planes(f):
    return list(_direction_planes(f.bits, f.n))


def _assert_chain_bound(f):
    """The greedy chain bound is at most alt(f XOR b) at every shift b below
    2**(n-1), and has the parity f(b) XOR f(~b) of alt(f XOR b)."""
    alts = alternation_under_shifts(f)
    top = 2**f.n - 1
    bound = _chain_bound(f, _planes(f)).tolist()
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
    for f in (tree_function(3), gip(3, 3), maj(11), gip(2, 7)):
        _assert_chain_bound(f)
    for n in range(1, 13):
        _assert_chain_bound(and_(n))


def test_chain_bound_equals_the_greedy_walk_oracle():
    # an equal bound, not only a lower one, keeps salt's visiting order
    rng = np.random.default_rng(41)
    cases = [TruthTable(n, random_table(rng, n)) for n in range(6, 11) for _ in range(2)]
    for f in cases + [tree_function(3), gip(3, 3), rubinstein(3, 3), and_(7), TruthTable(6, 0)]:
        assert _chain_bound(f, _planes(f)).tolist() == naive_chain_bound(f)


def test_search_visits_one_shift_on_majority_and_and(monkeypatch):
    # the least parity floor, 1, is at shift 0, where alt is 1: the search
    # returns it without building the bound, since every other shift has
    # f(b) == f(~b) and so a floor of 2
    def no_bound(f, planes):
        raise AssertionError("the chain bound was built")

    monkeypatch.setattr(measures, "_chain_bound", no_bound)
    for f in (maj(11), maj(15), and_(16), or_(12)):
        assert _salt_search(f) == (1, 0, 1)


def test_search_evaluates_one_shift_where_the_first_meets_its_floor():
    # the least parity floor's smallest shift runs first, at every arity;
    # where it meets its floor, no other shift can win or tie below it
    rng = np.random.default_rng(36)
    cases = [f for n in range(1, 4) for f in _every_function(n)[1:-1]]
    for n in range(4, 10):
        for density in (0.05, 0.5, 0.95):
            for _ in range(4):
                ones = np.flatnonzero(rng.random(2**n) < density).tolist()
                cases.append(TruthTable(n, sum(1 << x for x in ones)))
        for k in (1, n // 2):
            above = sum(1 << x for x in range(2**n) if x.bit_count() >= k)
            cases.append(shift(TruthTable(n, above), int(rng.integers(0, 2**n))))
    met = 0
    for f in cases:
        alts = alternation_under_shifts(f)
        half = len(alts) // 2
        floor = [2 - (f.value_at(b) != f.value_at(b ^ (2 * half - 1))) for b in range(half)]
        first = floor.index(min(floor))
        got = _salt_search(f)
        assert got[:2] == (int(alts.min()), int(alts.argmin()))
        if alts[first] == floor[first]:
            assert got[2] == 1
            met += 1
    assert met >= 100


def test_salt_search_matches_every_shift_across_densities():
    # the shift of the least parity floor, and the ordered search after it,
    # against the min and argmin of every shift's alternation: on random
    # functions of each one-density, on thresholds, which meet the floor 1
    # at shift 0, and the same shifted at random, and on x1 XOR x2, which
    # meets the floor 2 at every shift
    rng = np.random.default_rng(31)
    early = total = 0
    for n in range(6, 10):
        cases = []
        for density in (0.05, 0.2, 0.5, 0.8, 0.95):
            for _ in range(3):
                ones = np.flatnonzero(rng.random(2**n) < density).tolist()
                cases.append(TruthTable(n, sum(1 << x for x in ones)))
        for k in (1, n // 2, n - 1):
            above = sum(1 << x for x in range(2**n) if x.bit_count() >= k)
            cases.append(TruthTable(n, above))
            cases.append(shift(TruthTable(n, above), int(rng.integers(0, 2**n))))
        cases.append(TruthTable(n, sum(((x ^ x >> 1) & 1) << x for x in range(2**n))))
        for f in cases:
            alts = alternation_under_shifts(f)
            val, b, visited = _salt_search(f)
            assert (val, b) == (int(alts.min()), int(alts.argmin()))
            early += visited == 1
            total += 1
    assert 16 <= early < total


def test_bit_reversal_is_built_once_per_arity_and_read_only():
    rev = measures._bit_reversal(7)
    assert rev is measures._bit_reversal(7) and not rev.flags.writeable
    assert rev.tolist() == [int(f"{x:07b}"[::-1], 2) for x in range(2**7)]


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
    # the same search ordered by the bound at every n, and in ascending
    # order as without the bound
    for bound_min in (0, 13):
        monkeypatch.setattr(measures, "_BOUND_MIN_ARITY", bound_min)
        for n, fs in cases.items():
            assert [shift_invariant_alternation(f, witness=True) for f in fs] == _SCANNED_SALT[n]


def test_salt_search_where_bound_is_loose():
    # sparse functions with salt 4: the bound prunes little, so the search
    # visits over a quarter of the shifts; against the scan of every shift
    rng = np.random.default_rng(0)
    for n, ones in ((10, 16), (11, 24), (12, 40)):
        f = TruthTable(n, sum(1 << int(x) for x in rng.choice(2**n, ones, replace=False)))
        alts = alternation_under_shifts(f)
        val, b, visited = _salt_search(f)
        assert (val, b) == (int(alts.min()), int(alts.argmin()))
        assert val >= 4
        assert visited > 2 ** (n - 2)


# functions whose search finds the salt value first at a shift above the
# smallest argmin, which holds a bound equal to salt and so is visited after
_LATE_TIES = [  # (n, the inputs where f is 1, (salt, smallest argmin))
    (7, (9, 18, 23, 30, 32, 39, 64, 91, 104, 121, 127), (4, 3)),
    (8, (25, 39, 62, 92, 97, 113, 149, 150, 164, 215, 218, 247, 248), (4, 0)),
    (9, (95, 107, 134, 141, 271, 286, 325, 379, 380, 409, 458), (3, 53)),
]


def test_salt_search_keeps_ties_below_best_shift():
    for n, ones, want in _LATE_TIES:
        f = TruthTable(n, sum(1 << x for x in ones))
        alts = alternation_under_shifts(f)
        assert want == (int(alts.min()), int(alts.argmin()))
        bound = _chain_bound(f, _planes(f)).tolist()
        first = min((bound[b], b) for b in range(len(bound)) if alts[b] == want[0])[1]
        assert first > want[1]
        assert _salt_search(f)[:2] == want
