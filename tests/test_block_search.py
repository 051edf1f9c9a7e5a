"""The bound-pruned search of unpointed block sensitivity, against the
brute-force oracles: its per-input bound, its witness, and where it stops."""

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
from boolfn import measures
from boolfn.checks import inequality_suite
from boolfn.families import gip, maj, parity, rubinstein, tree_function
from boolfn.measures import _sensitivity_bound

from oracles import naive_block_sensitivity, random_table


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def _seeded(seed, arities, per):
    rng = np.random.default_rng(seed)
    return [TruthTable(n, random_table(rng, n)) for n in arities for _ in range(per)]


def test_bound_dominates_oracle():
    cases = [f for n in range(4) for f in _every_function(n)] + _seeded(50, (4, 5, 6), 4)
    for f in cases:
        bound = _sensitivity_bound(f)
        for x in range(2**f.n):
            bs = naive_block_sensitivity(f, x)
            assert bound[x] >= bs
            assert certificate(f, at=x) >= bs


def test_bound_is_tight_at_the_top_point():
    # parity: every coordinate is sensitive everywhere, so u = n = bs; the
    # seeded function reaches bs == u at its top point with u < n
    f = TruthTable(6, random_table(np.random.default_rng(51), 6))
    for g in (parity(5), f):
        bound = _sensitivity_bound(g)
        top = int(np.argmax(bound))
        assert bound[top] == naive_block_sensitivity(g, top) == naive_block_sensitivity(g)
    assert _sensitivity_bound(f).max() < f.n


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
    # the suite takes bs from the report and keeps its search: one input
    # searched, the family packed at it, and bs(f,0)
    assert _visits(monkeypatch, lambda: inequality_suite(f)) == 3
    # with no byte budget for the table the search keeps u, with the same result
    want = block_sensitivity(f, witness=True)
    monkeypatch.setattr(measures, "_LATTICE_BUDGET", 0)
    assert _visits(monkeypatch, lambda: block_sensitivity(f)) == 2**f.n
    assert block_sensitivity(f, witness=True) == want


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
