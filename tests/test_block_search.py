"""The bound-pruned search of unpointed block sensitivity, against the
brute-force oracles: its per-input bound, its witness, and where it stops."""

import numpy as np
import pytest

from boolfn import (
    TruthTable,
    block_sensitivity,
    certificate,
    measure_report,
    validate_block_family,
)
from boolfn import measures
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
    # u is loose on every input of rubinstein(3,3); the certificate bound
    # that measure_report adds is tight at input 0
    f = rubinstein(3, 3)
    assert _visits(monkeypatch, lambda: block_sensitivity(f)) == 2**f.n
    assert _visits(monkeypatch, lambda: measure_report(f, witnesses=False)) == 1
