"""Certificate complexity and decision-tree depth, which share one subcube
lattice in the library and in the bulk arrays, against the brute-force
oracles."""

import tracemalloc

import numpy as np
import pytest

from boolfn import (
    ArityLimitError,
    LatticeBudgetError,
    TruthTable,
    block_sensitivity,
    certificate,
    dt_depth,
    sensitivity,
    validate_certificate_set,
    validate_decision_tree,
)
from boolfn import measures
from boolfn._bulk import measure_arrays
from boolfn.measures import _table_bytes
from boolfn.families import and_

from oracles import naive_certificate, naive_certificate_set, naive_dt, random_table, restrict


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def test_certificate_matches_oracle_exhaustive():
    for n in range(4):
        for f in _every_function(n):
            assert certificate(f) == naive_certificate(f)
            for a in range(2**n):
                val, (point, mask) = certificate(f, at=a, witness=True)
                assert val == naive_certificate(f, a)
                assert point == a and mask == naive_certificate_set(f, a)
                assert validate_certificate_set(f, point, mask)


def test_certificate_witness_matches_oracles_exhaustive():
    # the witness point is the smallest input of maximum certificate size
    for n in range(4):
        for f in _every_function(n):
            val, (point, mask) = certificate(f, witness=True)
            pointwise = [naive_certificate(f, a) for a in range(2**n)]
            assert point == pointwise.index(val)
            assert mask == naive_certificate_set(f, point)
            assert validate_certificate_set(f, point, mask)


def test_certificate_witness_matches_oracles_sampled():
    rng = np.random.default_rng(40)
    for k in range(12):
        n = 4 + k % 2
        f = TruthTable(n, random_table(rng, n))
        for a in range(2**n):
            val, (_, mask) = certificate(f, at=a, witness=True)
            assert val == naive_certificate(f, a)
            assert mask == naive_certificate_set(f, a)


def _check_tree(f, tree, fixed_mask, fixed_vals):
    """Every node of a witness tree queries the smallest optimal variable."""
    depth = naive_dt(restrict(f, fixed_mask, fixed_vals))
    if "value" in tree:
        assert depth == 0
        assert tree["value"] == f.value_at(fixed_vals)
        return
    best = None
    for i in range(f.n):
        bit = 1 << i
        if fixed_mask & bit:
            continue
        lo = naive_dt(restrict(f, fixed_mask | bit, fixed_vals))
        hi = naive_dt(restrict(f, fixed_mask | bit, fixed_vals | bit))
        if 1 + max(lo, hi) == depth:
            best = i
            break
    assert tree["var"] == best + 1
    bit = 1 << best
    _check_tree(f, tree["low"], fixed_mask | bit, fixed_vals)
    _check_tree(f, tree["high"], fixed_mask | bit, fixed_vals | bit)


def test_dt_and_witness_match_oracles_exhaustive():
    for n in range(4):
        for f in _every_function(n):
            val, tree = dt_depth(f, witness=True)
            assert val == dt_depth(f) == naive_dt(f)
            assert validate_decision_tree(f, tree, val)
            _check_tree(f, tree, 0, 0)


def test_dt_witness_matches_oracles_sampled():
    rng = np.random.default_rng(41)
    for k in range(12):
        n = 4 + k % 2
        f = TruthTable(n, random_table(rng, n))
        val, tree = dt_depth(f, witness=True)
        assert val == naive_dt(f)
        assert validate_decision_tree(f, tree, val)
        _check_tree(f, tree, 0, 0)


def test_bulk_certificate_and_dt_match_oracles(bulk_n4_rows):
    for n in range(4):
        a = measure_arrays(n, 0, 2 ** (2**n))
        for f in _every_function(n):
            assert a["C"][f.bits] == naive_certificate(f)
            assert a["DT"][f.bits] == naive_dt(f)
    rng = np.random.default_rng(42)
    sample = rng.integers(0, 2**16, 64)
    a = bulk_n4_rows(sample)
    for bits in sample:
        f = TruthTable(4, int(bits))
        assert a["C"][bits] == naive_certificate(f)
        assert a["DT"][bits] == naive_dt(f)


@pytest.mark.parametrize("n", [0, 3])
def test_pointed_measures_reject_an_input_out_of_range(monkeypatch, n):
    # the input is checked before the subcube table is built, at every arity
    builds = []
    monkeypatch.setattr(measures, "_subcube_table", lambda t: builds.append(t) or 1 / 0)
    f = TruthTable(n, 0)
    for at in (-1, 2**n, 5 + 2**n):
        for run in (certificate, sensitivity, block_sensitivity):
            for witness in (False, True):
                with pytest.raises(ValueError, match="out of range"):
                    run(f, at=at, witness=witness)
    assert not builds


def test_lattice_over_budget_skips_under_explicit_limit():
    # the subcube table at n = 16 would exceed the byte budget: both measures
    # refuse before allocating
    f = and_(16)
    for measure, run in (("C", certificate), ("DT", dt_depth)):
        with pytest.raises(LatticeBudgetError) as exc:
            run(f, limit=16)
        assert isinstance(exc.value, ArityLimitError)
        assert exc.value.measure == measure and exc.value.limit == 15
        assert "budget of 268435456 bytes" in str(exc.value)
    # the ceiling still comes first without a limit
    with pytest.raises(ArityLimitError, match="exceeds limit 12"):
        certificate(f)


def test_subcube_table_peak_memory_within_budget_estimate():
    # the byte budget guards memory, not just arity: the estimate it checks
    # bounds what C and DT really allocate
    rng = np.random.default_rng(43)
    for n in range(8, 13):
        f = TruthTable(n, random_table(rng, n))
        for run in (certificate, dt_depth):
            tracemalloc.start()
            try:
                run(f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= _table_bytes(n), (run.__name__, n, peak)
