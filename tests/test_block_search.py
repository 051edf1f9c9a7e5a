"""The best-first search that bs and salt share, against brute force; the
bound-pruned search of unpointed block sensitivity, against the brute-force
oracles: its per-input bound, its witness, and where it stops; and the
batched bs of the columns of a table matrix, against both."""

import math

import numpy as np
import pytest

from boolfn import (
    STATISTICS,
    TruthTable,
    block_sensitivity,
    certificate,
    measure_report,
    sherstov_linear,
    validate_block_family,
)
from boolfn import _bulk, measures
from boolfn._bulk import _columns, measure_arrays
from boolfn.checks import inequality_suite
from boolfn.families import gip, maj, parity, rubinstein, tree_function
from boolfn.measures import (
    _best_first,
    _bs_point,
    _lane,
    _plane_sensitivity,
    _sensitivity_bound,
)

from oracles import naive_block_sensitivity, naive_lex_min_family, random_table, table_matrix


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def _seeded(seed, arities, per):
    rng = np.random.default_rng(seed)
    return [TruthTable(n, random_table(rng, n)) for n in arities for _ in range(per)]


def _u(f):
    return _sensitivity_bound(_plane_sensitivity(f.bits, f.n))


def _best_first_logged(bound, values, tighten_to, after):
    """``_best_first`` on ``values``, checking the best that each value call
    is handed, each value's payload naming its position; also the positions
    evaluated and the tighten calls, each as the number of positions
    evaluated before it."""
    seen, calls = [], []

    def value(x, best, at):
        if seen:
            top = max(values[y] for y in seen)
            assert (best, at) == (top, min(y for y in seen if values[y] == top))
        else:
            assert best == -math.inf
        seen.append(x)
        return values[x], ("payload of", x)

    def tighten(b):
        assert b is bound
        calls.append(len(seen))
        return tighten_to

    return _best_first(bound, value, tighten if after is not None else None, after or 0), seen, calls


def test_best_first_matches_brute_force():
    # random int values with ties, under bounds that are tight, loose and
    # constant; no tighten, or one at a random ``after``, also at or past
    # the size, that returns None, a tight bound or a looser one
    rng = np.random.default_rng(36)
    for trial in range(1200):
        size = int(rng.integers(1, 40))
        values = rng.integers(-6, 7, size)
        kind, mode = trial % 3, trial // 3 % 4
        bound = [values, values + rng.integers(0, 4, size), np.full(size, values.max())][kind]
        tighten_to = [None, None, values, values + rng.integers(0, 2, size)][mode]
        after = int(rng.integers(0, size + 3)) if mode else None
        (best, at, evaluated, payload), seen, calls = _best_first_logged(
            bound, values.tolist(), tighten_to, after)
        assert (best, at) == (values.max(), int(np.argmax(values)))
        assert payload == ("payload of", at)
        assert evaluated == len(seen) == len(set(seen)) <= size
        if after is None or evaluated < after:
            assert not calls
        elif evaluated > after:
            assert calls == [after]
        else:
            assert calls in ([], [after])
        # under a tight bound the first position visited settles the search
        if kind == 0 and after != 0:
            assert evaluated == 1
        if mode == 2 and calls:
            assert evaluated <= after + 1


def test_bound_dominates_oracle():
    cases = [f for n in range(4) for f in _every_function(n)] + _seeded(50, (4, 5, 6), 4)
    for f in cases:
        bound = _u(f)
        for x in range(2**f.n):
            bs = naive_block_sensitivity(f, x)
            assert bound[x] >= bs
            assert certificate(f, at=x) >= bs


def test_bound_is_tight_at_the_top_point():
    # parity: every coordinate is sensitive everywhere, so u = n = bs; the
    # seeded function reaches bs == u at its top point with u < n
    f = TruthTable(6, random_table(np.random.default_rng(51), 6))
    for g in (parity(5), f):
        bound = _u(g)
        top = int(np.argmax(bound))
        assert bound[top] == naive_block_sensitivity(g, top) == naive_block_sensitivity(g)
    assert _u(f).max() < f.n


def _check_witness(f, pointwise, val, fam):
    assert val == max(pointwise)
    assert fam.point == pointwise.index(val)
    assert len(fam.blocks) == val and validate_block_family(f, fam)
    assert fam == block_sensitivity(f, at=fam.point, witness=True)[1]


def test_witness_is_smallest_maximizer_of_oracle():
    for f in _seeded(52, (5, 6, 7), 2) + _seeded(53, (8,), 1):
        pointwise = [naive_block_sensitivity(f, a) for a in range(2**f.n)]
        _check_witness(f, pointwise, *block_sensitivity(f, witness=True))
        rep = measure_report(f)
        _check_witness(f, pointwise, rep.measures["bs"], rep.witnesses["bs"])


@pytest.mark.parametrize(
    "f",
    [rubinstein(3, 3), maj(11), tree_function(3), gip(3, 3)],
    ids=["rubinstein33", "maj11", "tree3", "gip33"],
)
def test_family_witness_is_smallest_maximizer(f):
    pointwise = [block_sensitivity(f, at=a) for a in range(2**f.n)]
    _check_witness(f, pointwise, *block_sensitivity(f, witness=True))
    rep = measure_report(f)
    _check_witness(f, pointwise, rep.measures["bs"], rep.witnesses["bs"])


def _visits(monkeypatch, run):
    """Number of packing searches ``run`` makes."""
    calls = []
    inner = measures._bs_point

    def counted(f, a, want_witness):
        calls.append(a)
        return inner(f, a, want_witness)

    monkeypatch.setattr(measures, "_bs_point", counted)
    run()
    return len(calls)


def test_search_stops_at_first_unbeatable_point(monkeypatch):
    # every input of parity has bound n == bs, so input 0 settles it
    assert _visits(monkeypatch, lambda: block_sensitivity(parity(6))) == 1
    # u is loose on every input of rubinstein(3,3): after n inputs the search
    # builds the subcube table, and the certificate bound is tight at input 0;
    # measure_report builds the table before bs and starts under that bound
    f = rubinstein(3, 3)
    assert _visits(monkeypatch, lambda: block_sensitivity(f)) <= f.n + 1
    assert _visits(monkeypatch, lambda: measure_report(f, witnesses=False)) == 1
    # a witnessed report packs its family from the search's own packing
    assert _visits(monkeypatch, lambda: measure_report(f)) == 1
    # the suite takes bs and its family from the report's kept search, one
    # input packed; that input is 0, so bs(f,0) reads the same packing
    assert _visits(monkeypatch, lambda: inequality_suite(f)) == 1
    # with no byte budget for the table the search keeps u, with the same result
    want = block_sensitivity(f, witness=True)
    monkeypatch.setattr(measures, "_LATTICE_BUDGET", 0)
    assert _visits(monkeypatch, lambda: block_sensitivity(f)) == 2**f.n
    assert block_sensitivity(f, witness=True) == want


def _check_kept_family(f):
    """The report's bs family, packed from the search's kept packing, is the
    oracle's smallest maximum family at its point, and a fresh packing's."""
    fam = measure_report(f).witnesses["bs"]
    assert fam.blocks == naive_lex_min_family(f, fam.point)
    assert _bs_point(f, fam.point, True) == (len(fam.blocks), fam)


def test_report_family_from_the_kept_packing_seeded():
    # the oracle enumerates every disjoint family: about 1-2 s at n = 10
    for f in _seeded(57, range(3, 10), 3) + _seeded(58, (10,), 1):
        _check_kept_family(f)


@pytest.mark.parametrize(
    "f",
    [tree_function(3), rubinstein(3, 3), gip(3, 3), maj(11)],
    ids=["tree3", "rubinstein33", "gip33", "maj11"],
)
def test_report_family_from_the_kept_packing_families(f):
    _check_kept_family(f)


def test_search_settled_under_u_builds_no_table(monkeypatch):
    builds, visits = [], []
    fold, point = measures._subcube_fold, measures._bs_point
    monkeypatch.setattr(measures, "_subcube_fold", lambda t: builds.append(t) or fold(t))
    monkeypatch.setattr(measures, "_bs_point", lambda f, a, w: visits.append(a) or point(f, a, w))
    settled = 0
    for f in _seeded(54, range(4, 15), 3):
        builds.clear()
        visits.clear()
        block_sensitivity(f)
        if len(visits) < f.n:
            settled += 1
            assert not builds
    assert settled >= 30
    builds.clear()
    block_sensitivity(rubinstein(3, 3))
    assert len(builds) == 1


@pytest.mark.parametrize("f", [maj(15), tree_function(4)], ids=["maj15", "tree4"])
def test_every_unpointed_caller_shares_one_search(monkeypatch, f):
    # the public call, the Sherstov map and its statistic take the same
    # value and family from one route; the statistic takes no limit, so the
    # default bs ceiling of 14 is raised to the arity here
    monkeypatch.setitem(measures.DEFAULT_LIMITS, "bs", 15)
    val, fam = block_sensitivity(f, witness=True, limit=15)
    cert = sherstov_linear(f, limit=15).certificate
    assert cert["block_sensitivity"] == val and cert["z"] == fam.point
    assert STATISTICS["bs_over_sherstov_s2"](f) == val / cert["s_g"] ** 2
    assert len(fam.blocks) == val and validate_block_family(f, fam)
    assert block_sensitivity(f, at=fam.point, witness=True, limit=15) == (val, fam)


# ---------------------------------------------------------------------------
# the batched bs of ``_bulk``: every column of a table matrix at once, read
# from the bs table of its flip patterns

# the ids the bound-pruned batched search once singled out at n = 4: the 8
# functions that needed more than one input under min(u, C), and the 90
# that needed 12 or more under u alone
_SEARCH_HARD_IDS = (
    [831, 1375, 4471, 5911, 59624, 61064, 64160, 64704]
    + [0, 255, 831, 1023, 1375, 1535, 2735, 2815, 3279, 3327, 3840, 3855, 4080, 4095, 4471,
       4607, 5911, 8891, 8959, 11051, 12531, 12543, 13056, 13107, 13260, 13311, 15420, 16128,
       16131, 17629, 17663, 19789, 20725, 20735, 21760, 21845, 21930, 22015, 23130, 24320,
       24325, 26214, 29041, 30464, 30481, 35054, 35071, 36494, 39321, 41210, 41215, 42405,
       43520, 43605, 43690, 43775, 44800, 44810, 45746, 47872, 47906, 49404, 49407, 50115,
       52224, 52275, 52428, 52479, 52992, 53004, 54484, 56576, 56644, 59624, 60928, 61064,
       61440, 61455, 61680, 61695, 62208, 62256, 62720, 62800, 64000, 64160, 64512, 64704,
       65280, 65535]
)


def _same_blocks(padded, fam):
    assert tuple(int(b) for b in padded if b) == fam.blocks


def _check_against_api(a, functions, oracles=False):
    """Column r of the ``measure_arrays`` result a holds the bs values and
    witnesses of functions[r], as the per-function API gives them, and with
    ``oracles`` as the brute-force oracles give them."""
    for r, f in enumerate(functions):
        bs, fam = block_sensitivity(f, witness=True)
        bs0, fam0 = block_sensitivity(f, at=0, witness=True)
        assert (a["bs"][r], a["bs_argmax"][r], a["bs0"][r]) == (bs, fam.point, bs0)
        _same_blocks(a["fam_argmax"][r], fam)
        _same_blocks(a["fam0"][r], fam0)
        relevant = all(any(f.value_at(x) != f.value_at(x ^ 1 << i) for x in range(2**f.n))
                       for i in range(f.n))
        assert a["depends_on_all"][r] == relevant
        if oracles:
            pointwise = [naive_block_sensitivity(f, x) for x in range(2**f.n)]
            assert a["bs"][r] == max(pointwise) and a["bs0"][r] == pointwise[0]
            assert a["bs_argmax"][r] == pointwise.index(max(pointwise))
            assert validate_block_family(f, fam) and validate_block_family(f, fam0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_search_every_function(n):
    t, lanes = next(_columns(n))
    functions = [TruthTable(n, bits) for bits in lanes.tolist()]
    _check_against_api(measure_arrays(t, lanes), functions, oracles=True)


def test_batched_search_columns_that_need_more_visits():
    # the ids the pruned search found hardest, and a sample of the rest,
    # shuffled and repeated beside family tables, match the per-function API
    # and the oracles, and the bs keys the id-range slices of n = 4
    rng = np.random.default_rng(56)
    ids = _SEARCH_HARD_IDS + [int(x) for x in rng.integers(0, 1 << 16, 60)]
    ids = [int(x) for x in rng.permutation(ids + ids[:10])]
    functions = [parity(4), rubinstein(2, 2), gip(2, 2)] + [TruthTable(4, fid) for fid in ids]
    bits = [f.bits for f in functions]
    a = measure_arrays(table_matrix(4, bits), np.asarray(bits, dtype=_lane(4)), needs=("sherstov",))
    _check_against_api(a, functions, oracles=True)
    slices = [measure_arrays(t, lanes, needs=("bs",)) for t, lanes in _columns(4)]
    for r, fid in enumerate(ids, start=3):
        at = slices[fid // _bulk._SLICE]
        for key in ("bs", "bs0", "bs_argmax", "depends_on_all"):
            assert at[key][fid % _bulk._SLICE] == a[key][r], (fid, key)
