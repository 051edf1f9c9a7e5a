"""Certificate complexity and decision-tree depth, which share one subcube
lattice in the library and in the bulk arrays, against the brute-force
oracles."""

import gc
import json
import tracemalloc
import weakref

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
from boolfn import _bulk, commlb, measures
from boolfn._bulk import _columns, measure_arrays
from boolfn.measures import (
    _Measures,
    _certificate_sizes,
    _subcube_fold,
    _table_bytes,
)
from boolfn.families import and_, gip, ip, maj, or_, parity, rubinstein, tree_function

from oracles import (
    naive_certificate,
    naive_certificate_set,
    naive_dt,
    naive_subcube_dt,
    random_table,
    rule_walk,
)


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


def _check_tree(f, tree, fixed_mask=0, fixed_vals=0, dt=None):
    """Every node of a witness tree queries the smallest optimal variable."""
    if dt is None:
        dt = naive_subcube_dt(f)
    depth = dt(fixed_mask, fixed_vals)
    if "value" in tree:
        assert depth == 0
        assert tree["value"] == f.value_at(fixed_vals)
        return
    best = None
    for i in range(f.n):
        bit = 1 << i
        if fixed_mask & bit:
            continue
        if 1 + max(dt(fixed_mask | bit, fixed_vals), dt(fixed_mask | bit, fixed_vals | bit)) == depth:
            best = i
            break
    assert tree["var"] == best + 1
    bit = 1 << best
    _check_tree(f, tree["low"], fixed_mask | bit, fixed_vals, dt)
    _check_tree(f, tree["high"], fixed_mask | bit, fixed_vals | bit, dt)


def test_dt_and_witness_match_oracles_exhaustive():
    for n in range(4):
        for f in _every_function(n):
            val, tree = dt_depth(f, witness=True)
            assert val == dt_depth(f) == naive_dt(f)
            assert validate_decision_tree(f, tree, val)
            _check_tree(f, tree)


def test_dt_witness_matches_oracles_sampled():
    rng = np.random.default_rng(41)
    for k in range(12):
        n = 4 + k % 2
        f = TruthTable(n, random_table(rng, n))
        val, tree = dt_depth(f, witness=True)
        assert val == naive_dt(f)
        assert validate_decision_tree(f, tree, val)
        _check_tree(f, tree)


def _values(f):
    return [f.value_at(x) for x in range(2**f.n)]


def _top(values, n, d, a):
    """Top Moebius coefficient, of x_{d+1}...x_n, of the restriction
    x_1..x_d = a: the signed sum of its values."""
    return sum((-1) ** (n - d - y.bit_count()) * values[a | y << d] for y in range(2 ** (n - d)))


def _holes(values, n):
    """The restrictions x_1..x_d = a that are not constant and have degree
    below n - d, while every shorter prefix of theirs has full degree."""
    holes, full = set(), {(0, 0)}
    for d in range(n):
        for a in range(2**d):
            if (d, a) not in full:
                continue
            if _top(values, n, d, a):
                full |= {(d + 1, a), (d + 1, a | 1 << d)}
            elif len({values[a | y << d] for y in range(2 ** (n - d))}) > 1:
                holes.add((d, a))
    return holes


def _with_holes(rng, n, prefixes):
    """A random function on n variables with a hole at each (d, a) of
    ``prefixes`` (``_holes``): points of each restriction are flipped, each
    flip moving its top coefficient one step toward 0, and the draw is
    repeated until every shorter prefix keeps full degree."""
    while True:
        values = _values(TruthTable(n, random_table(rng, n)))
        for d, a in prefixes:
            top = _top(values, n, d, a)
            for y in rng.permutation(2 ** (n - d)).tolist():
                x = a | y << d
                step = (-1) ** (n - d - y.bit_count()) * (1 - 2 * values[x])
                if step * top < 0:
                    values[x] ^= 1
                    top += step
        holes = _holes(values, n)
        if set(prefixes) <= holes:
            return TruthTable(n, sum(v << x for x, v in enumerate(values))), holes


def test_dt_witness_from_prefixes_matches_oracles_sampled():
    rng = np.random.default_rng(45)
    for n in range(5, 9):
        for _ in range(3):
            f = TruthTable(n, random_table(rng, n))
            val, tree = dt_depth(f, witness=True)
            assert val == naive_dt(f)
            _check_tree(f, tree)


def _record_sweeps(monkeypatch):
    shapes, sweeps = [], measures._depth_sweeps
    monkeypatch.setattr(
        measures, "_depth_sweeps", lambda val, lower=-1: shapes.append(val.shape) or sweeps(val, lower)
    )
    return shapes


@pytest.mark.parametrize("prefixes,d0", [
    ([(0, 0)], 0),
    ([(1, 0)], 1),
    ([(1, 1)], 1),
    ([(1, 0), (2, 0b01), (3, 0b011)], 1),
    ([(2, 0b10), (3, 0b001), (4, 0b1101)], 2),
])
def test_dt_witness_fills_holes_below_full_degree_prefixes(monkeypatch, prefixes, d0):
    # a non-constant restriction of degree below its free count is a hole:
    # the sweeps run once, on the slab of every restriction at the shallowest
    # hole depth d0, and the tree matches the oracles at every node
    shapes = _record_sweeps(monkeypatch)
    rng = np.random.default_rng(46)
    for n in (6, 7):
        f, holes = _with_holes(rng, n, prefixes)
        assert min(d for d, _ in holes) == d0
        shapes.clear()
        val, tree = dt_depth(f, witness=True)
        assert shapes == [(3,) * (n - d0) + (2**d0,)]
        assert val == naive_dt(f)
        _check_tree(f, tree)


def test_dt_witness_sweeps_only_the_slab_below_the_shallowest_hole(monkeypatch):
    # maj(11): every restriction is constant or of full degree, so no sweep;
    # tree_function(3) is deficient at the root, so the whole lattice; a
    # random function has full degree at the root and its slab a batch axis
    shapes = _record_sweeps(monkeypatch)
    assert dt_depth(maj(11), witness=True)[0] == 11 and shapes == []
    dt_depth(tree_function(3), witness=True)
    assert shapes == [(3,) * 7 + (1,)]
    shapes.clear()
    f = TruthTable(10, random_table(np.random.default_rng(47), 10))
    val, tree = dt_depth(f, witness=True)
    assert val == 10 and validate_decision_tree(f, tree, 10)
    ((*lattice, batch),) = shapes
    d0 = batch.bit_length() - 1
    assert d0 > 0 and batch == 2**d0 and lattice == [3] * (10 - d0)


def _whole_lattice_walk(f):
    """DT and the tree the witness rule walks on the sweeps of the whole
    lattice (``rule_walk``), with no prefix restriction, no slab and no
    shared node."""
    dt = measures._depth_sweeps(_subcube_fold(f.to_array()[:, None])).reshape(-1)
    return dt.item(-1), rule_walk(f, dt)


def _assert_walk_of_the_whole_lattice(f):
    depth, tree = dt_depth(f, witness=True, limit=f.n)
    want_depth, want = _whole_lattice_walk(f)
    assert depth == want_depth
    assert json.dumps(tree) == json.dumps(want)
    assert validate_decision_tree(f, tree, depth)


def test_dt_witness_is_the_walk_of_the_whole_lattice():
    # the prefix tree, with its shared subtrees, serializes to the tree the
    # witness rule walks on the full sweeps, and validates
    rng = np.random.default_rng(48)
    cases = [f for n in range(4) for f in _every_function(n)]
    cases += [TruthTable(n, random_table(rng, n)) for n in range(4, 13) for _ in range(2)]
    cases += [maj(9), maj(11), maj(13), tree_function(3), rubinstein(3, 3), gip(3, 3)]
    cases += [ip(5), and_(7), or_(7)]
    for f in cases:
        _assert_walk_of_the_whole_lattice(f)


@pytest.mark.long
def test_dt_witness_is_the_walk_of_the_whole_lattice_at_14():
    # a random 14-variable function, one arity above the default DT ceiling
    raw = np.random.default_rng(14).integers(0, 256, 2**14 // 8, dtype=np.uint8).tobytes()
    _assert_walk_of_the_whole_lattice(TruthTable(14, int.from_bytes(raw, "little")))


def _distinct_nodes(tree):
    """(nodes, distinct node objects, distinct leaf objects) of a tree,
    walked as a tree."""
    seen, leaves, count, stack = set(), set(), 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        seen.add(id(node))
        if "var" in node:
            stack += [node["low"], node["high"]]
        else:
            leaves.add(id(node))
    return count, len(seen), len(leaves)


def test_dt_witness_shares_the_subtrees_of_equal_restrictions():
    # every restriction of maj(13) with k free variables is a threshold
    # function of them, so few of its 2**14 - 1 nodes are distinct objects
    nodes, distinct, _ = _distinct_nodes(dt_depth(maj(13), witness=True, limit=13)[1])
    assert nodes > 2**12 and distinct * 20 < nodes
    # a random function shares some of its low subtrees, and every constant
    # subcube, above its holes or below them, is one of two leaf objects
    f = TruthTable(10, random_table(np.random.default_rng(49), 10))
    assert _holes(_values(f), f.n)
    nodes, distinct, leaves = _distinct_nodes(dt_depth(f, witness=True)[1])
    assert distinct < nodes and leaves == 2


@pytest.mark.parametrize("f", [
    TruthTable(10, random_table(np.random.default_rng(50), 10)), maj(11),
], ids=["random-10", "maj-11"])
def test_dt_witness_leaves_no_reference_cycle(monkeypatch, f):
    # the walk keeps no cycle, so with the collector off the fold is freed
    # as soon as the call returns
    refs, fold = [], measures._subcube_fold

    def recorded(tables):
        out = fold(tables)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(measures, "_subcube_fold", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        depth, tree = dt_depth(f, witness=True)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert validate_decision_tree(f, tree, depth)


def test_dt_slab_take_matches_the_strided_view():
    # one take of the ternary columns gives the array of the strided reshape
    for f in (TruthTable(7, random_table(np.random.default_rng(51), 7)), parity(5)):
        n = f.n
        val = _subcube_fold(f.to_array()[:, None])
        for d0 in range(n + 1):
            strided = val[(..., *(slice(0, 2),) * d0, 0)].reshape((3,) * (n - d0) + (2**d0,))
            assert np.array_equal(measures._dt_slab(val, d0), strided)


def test_bulk_certificate_and_dt_match_oracles(bulk_n4_rows):
    for n in range(4):
        a = measure_arrays(next(_columns(n)), n)
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
    # val is each subcube's constant value, or 2, and the certificate sizes
    # are C(f,x) at every point; the batched fold and sizes hold the same
    # tables in their columns, for every function at n <= 3 and seeded
    # tables at n = 4..6
    rng = np.random.default_rng(52)
    groups = [_every_function(n) for n in range(4)]
    groups += [[TruthTable(n, random_table(rng, n)) for _ in range(8)] for n in range(4, 7)]
    for fs in groups:
        n = fs[0].n
        vals = _subcube_fold(np.stack([f.to_array() for f in fs], axis=1))
        sizes = _certificate_sizes(vals)
        assert sizes.dtype == np.uint8 and sizes.shape == (2**n, len(fs))
        vals = vals.reshape(3**n, -1)
        for r, f in enumerate(fs):
            val = _subcube_fold(f.to_array()[:, None])
            assert np.array_equal(val.reshape(-1), vals[:, r])
            assert np.array_equal(_certificate_sizes(val)[:, 0], sizes[:, r])
            for t in range(3**n):
                seen = {f.value_at(x) for x in _subcube_points(t, n)}
                assert val.item(t) == (seen.pop() if len(seen) == 1 else 2)
            assert sizes[:, r].tolist() == [naive_certificate(f, a) for a in range(2**n)]
    # the C witnesses that the fold's packed key (|V| << n) | V gave where it
    # took 4 bytes per state: the mask rebuilt at the point keeps the key's
    # tie-break, the largest free set among the largest
    assert certificate(maj(15), witness=True, limit=16) == (8, (0, 255))
    assert certificate(tree_function(4), witness=True, limit=16) == (4, (0, 139))
    assert certificate(rubinstein(4, 4), witness=True, limit=16) == (8, (0, 21845))


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
    # gives the tree of a fresh table.  The sweeps' ``level_views`` calls
    # count them, against sweeps of the whole fold to the stop rule.
    passes, views = [], measures.level_views
    monkeypatch.setattr(measures, "level_views", lambda *a: passes.append(1) or views(*a))
    stopped_early = 0
    for f in _dt_cases():
        want = dt_depth(f, witness=True)
        passes.clear()
        assert measures._depth_sweeps(_subcube_fold(f.to_array()[:, None])).item(-1) == want[0]
        full = len(passes)
        report = measures.measure_report(f, witnesses=False)
        assert report.measures["DT"] == want[0]
        for lower in range(-1, want[0] + 1):
            subcubes = _Measures(f, {})
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
    assert _Measures(parity(13), {}).dt_depth(False, 13) == 13
    with pytest.raises(ArityLimitError, match="exceeds limit 13"):
        _Measures(parity(14), {}).dt_depth(False, 14)


def test_dt_without_witness_reads_the_degree_first(monkeypatch):
    # a nonzero top Moebius coefficient gives DT = n with no subcube table,
    # in dt_depth and in the communication bound; the ceiling and the byte
    # budget still come first
    monkeypatch.setattr(measures, "_subcube_fold", lambda t: 1 / 0)
    assert dt_depth(parity(10)) == 10
    assert commlb.det_upper_bound(parity(10)) == 20
    with pytest.raises(ArityLimitError, match="exceeds limit 13"):
        dt_depth(parity(14))
    with pytest.raises(LatticeBudgetError):
        dt_depth(parity(17), limit=17)


def test_dt_callers_build_no_certificate_sizes(monkeypatch):
    # DT reads val alone: the public call, its witness, the communication
    # bound and the batch DT column build no certificate sizes
    rng = np.random.default_rng(53)
    cases = [TruthTable(n, random_table(rng, n)) for n in (6, 9)]
    cases += [tree_function(3), rubinstein(3, 3), maj(9), ip(4)]
    lanes = np.hstack(list(_columns(4, 64)))
    want = ([(dt_depth(f), dt_depth(f, witness=True), commlb.bound_summary(f)) for f in cases],
            measure_arrays(lanes, 4, needs=("DT",))["DT"])

    def unread(val):
        raise AssertionError("a DT caller built the certificate sizes")

    monkeypatch.setattr(measures, "_certificate_sizes", unread)
    monkeypatch.setattr(_bulk, "_certificate_sizes", unread)
    got = ([(dt_depth(f), dt_depth(f, witness=True), commlb.bound_summary(f)) for f in cases],
           measure_arrays(lanes, 4, needs=("DT",))["DT"])
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


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
    # the subcube table behind C and DT fits the byte budget up to n = 16:
    # past it both measures refuse before allocating
    for measure, run in (("C", certificate), ("DT", dt_depth)):
        with pytest.raises(LatticeBudgetError) as exc:
            run(and_(17), limit=17)
        assert isinstance(exc.value, ArityLimitError)
        assert exc.value.measure == measure and exc.value.limit == 16
        assert "budget of 268435456 bytes" in str(exc.value)
        assert _Measures(and_(16), {measure: 16})._skip(measure) is None
    # the ceiling still comes first without a limit
    with pytest.raises(ArityLimitError, match="exceeds limit 12"):
        certificate(and_(16))


def test_subcube_table_peak_memory_within_budget_estimate():
    # the byte budget guards memory, not just arity: the estimate it checks
    # bounds what C (the fold and its sizes) and DT (the fold and the
    # sweeps, or with a witness the slab's sweeps and the tree) allocate,
    # the table's own arrays rather than the process
    rng = np.random.default_rng(43)
    cases = [TruthTable(n, random_table(rng, n)) for n in range(8, 13)] + [tree_function(3)]
    # x_1 ? parity(x_2..x_12) : x_2 has full degree and a hole at x_1 = 0, so
    # its witness sweeps the largest slab, of 2 * 3**11 states
    cases.append(TruthTable(12, sum(
        ((x >> 1).bit_count() & 1 if x & 1 else x >> 1 & 1) << x for x in range(2**12))))
    for f in cases:
        n = f.n
        runs = ((certificate, "C"), (dt_depth, "DT"), (lambda f: dt_depth(f, witness=True), "DT"))
        for run, measure in runs:
            tracemalloc.start()
            try:
                run(f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= _table_bytes(n), (measure, n, peak)


@pytest.mark.long
def test_block_sensitivity_at_16_reads_the_fold(monkeypatch):
    # at n = 16 the subcube table fits the byte budget: the search switches
    # to the certificate bound, which is tight at input 0, and runs no DT
    # sweep; tracemalloc sees the table's arrays, not the process around them
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
    assert peak <= _table_bytes(16) <= measures._LATTICE_BUDGET


@pytest.mark.long
def test_dt_witness_at_16_within_budget():
    # the witnessed DT of the 16-variable grid fits the same estimate as C
    f = rubinstein(4, 4)
    tracemalloc.start()
    try:
        depth, tree = dt_depth(f, witness=True, limit=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert depth == 16 and validate_decision_tree(f, tree, depth)
    assert peak <= _table_bytes(16), peak
