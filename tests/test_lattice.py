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
from boolfn._bulk import _tables, measure_arrays
from boolfn.measures import _LatticeMeasures, _subcube_fold, _table_bytes
from boolfn.families import and_, gip, ip, maj, or_, parity, rubinstein, tree_function

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
        a = measure_arrays(_tables(n, 0, 2 ** (2**n)))
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


def _subcube_points(t, n):
    """The points of the ternary state t (digit i: 0, 1 or 2 for free)."""
    points = [0]
    for i in range(n):
        digit = t // 3**i % 3
        points = [x | b << i for x in points for b in ((0, 1) if digit == 2 else (digit,))]
    return points


def test_fold_matches_oracles_exhaustive():
    # val is each subcube's constant value, or 2; the key of each point is
    # (|V| << n) | V for the free set V of the smallest certificate there;
    # the batched fold holds the same tables in its columns
    for n in range(4):
        fs = _every_function(n)
        vals, keys = _subcube_fold(np.stack([f.to_array() for f in fs], axis=1))
        vals = vals.reshape(3**n, -1)
        for r, f in enumerate(fs):
            val, key = _subcube_fold(f.to_array()[:, None])
            assert np.array_equal(val.reshape(-1), vals[:, r])
            assert np.array_equal(key[:, 0], keys[:, r])
            for t in range(3**n):
                seen = {f.value_at(x) for x in _subcube_points(t, n)}
                assert val.item(t) == (seen.pop() if len(seen) == 1 else 2)
            for a in range(2**n):
                free = (2**n - 1) ^ naive_certificate_set(f, a)
                assert key[a, 0] == (free.bit_count() << n) | free


def _dt_cases():
    rng = np.random.default_rng(44)
    cases = [f for n in range(4) for f in _every_function(n)]
    cases += [TruthTable(4, int(b)) for b in rng.integers(0, 2**16, 48)]
    cases += [TruthTable(n, random_table(rng, n)) for n in range(6, 13)]
    cases += [tree_function(2), tree_function(3), rubinstein(2, 3), rubinstein(3, 3),
              gip(2, 3), ip(4), maj(7), parity(5), and_(6), or_(6)]
    return cases


def test_dt_lower_bound_stops_at_the_full_sweeps_value(monkeypatch):
    # any lower bound on DT, max(bs, deg) among them, stops the sweeps with
    # the value of the full sweeps; a witness asked for after an early stop
    # gives the tree of a fresh table.  The sweeps' ``level_views`` calls count them.
    passes, views = [], measures.level_views
    monkeypatch.setattr(measures, "level_views", lambda *a: passes.append(1) or views(*a))
    stopped_early = 0
    for f in _dt_cases():
        passes.clear()
        want = dt_depth(f, witness=True)
        full = len(passes)
        report = measures.measure_report(f, witnesses=False)
        assert report.measures["DT"] == want[0]
        for lower in range(-1, want[0] + 1):
            subcubes = _LatticeMeasures(f, {})
            passes.clear()
            assert subcubes.dt_depth(False, lower) == want[0]
            if lower < f.n and len(passes) < full:
                stopped_early += 1
            assert subcubes.dt_depth(True) == want
            assert subcubes.dt_depth(False, lower) == want[0]
    assert stopped_early >= 40


def test_dt_lower_bound_at_arity_builds_no_table(monkeypatch):
    # DT <= n, so a lower bound of n settles it; the ceiling still comes first
    monkeypatch.setattr(measures, "_subcube_fold", lambda t: 1 / 0)
    assert _LatticeMeasures(parity(13), {}).dt_depth(False, 13) == 13
    with pytest.raises(ArityLimitError, match="exceeds limit 13"):
        _LatticeMeasures(parity(14), {}).dt_depth(False, 14)


@pytest.mark.parametrize("n", [0, 3])
def test_pointed_measures_reject_an_input_out_of_range(monkeypatch, n):
    # the input is checked before the subcube table is built, at every arity
    builds = []
    monkeypatch.setattr(measures, "_subcube_fold", lambda t: builds.append(t) or 1 / 0)
    f = TruthTable(n, 0)
    for at in (-1, 2**n, 5 + 2**n):
        for run in (certificate, sensitivity, block_sensitivity):
            for witness in (False, True):
                with pytest.raises(ValueError, match="out of range"):
                    run(f, at=at, witness=witness)
    assert not builds


def test_lattice_over_budget_skips_under_explicit_limit():
    # the fold behind C fits the byte budget at n = 16, the fold and the DT
    # sweeps only up to n = 15: past them both measures refuse before
    # allocating
    for measure, run, n, limit in (("C", certificate, 17, 16), ("DT", dt_depth, 16, 15)):
        with pytest.raises(LatticeBudgetError) as exc:
            run(and_(n), limit=n)
        assert isinstance(exc.value, ArityLimitError)
        assert exc.value.measure == measure and exc.value.limit == limit
        assert "budget of 268435456 bytes" in str(exc.value)
    assert _LatticeMeasures(and_(16), {"C": 16})._skip("C") is None
    # the ceiling still comes first without a limit
    with pytest.raises(ArityLimitError, match="exceeds limit 12"):
        certificate(and_(16))


def test_subcube_table_peak_memory_within_budget_estimate():
    # the byte budget guards memory, not just arity: the estimate it checks
    # bounds what C (the fold) and DT (the fold and the sweeps) allocate,
    # the table's own arrays rather than the process
    rng = np.random.default_rng(43)
    for n in range(8, 13):
        f = TruthTable(n, random_table(rng, n))
        for run, measure in ((certificate, "C"), (dt_depth, "DT")):
            tracemalloc.start()
            try:
                run(f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= _table_bytes(n, measure), (measure, n, peak)
        assert _table_bytes(n, "C") < _table_bytes(n, "DT")


@pytest.mark.long
def test_block_sensitivity_at_16_reads_the_fold(monkeypatch):
    # at n = 16 the fold fits the byte budget and the DT sweeps do not: the
    # search switches to the certificate bound, which is tight at input 0;
    # tracemalloc sees the table's arrays, not the process around them
    folds, fold = [], measures._subcube_fold
    monkeypatch.setattr(measures, "_subcube_fold", lambda t: folds.append(1) or fold(t))
    monkeypatch.setattr(measures, "_depth_sweeps", lambda val, lower=-1: 1 / 0)
    tracemalloc.start()
    try:
        val, fam = block_sensitivity(rubinstein(4, 4), witness=True, limit=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (val, fam.point) == (8, 0) and len(folds) == 1
    assert peak <= _table_bytes(16, "C") <= measures._LATTICE_BUDGET < _table_bytes(16, "DT")
