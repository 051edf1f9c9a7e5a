import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from boolfn import (
    Check,
    CheckReport,
    ProvenCheckError,
    TruthTable,
    VerificationError,
    exhaustive_scan,
    extremal_search,
    family_suite,
    inequality_suite,
    revalidate_record,
    tt_parse,
)
from boolfn import _bulk, checks, measures
from boolfn._bulk import _columns, measure_arrays
from boolfn.checks import _STATISTICS, STATISTICS, _exhaustive_values, _raise_if_broken, _ranked
from boolfn.families import gip, maj, parity, rubinstein, tree_function
from boolfn.measures import (
    ArityLimitError,
    _depth_sweeps,
    _lane,
    _subcube_fold,
    alternation,
    block_sensitivity,
    certificate,
    dt_depth,
    modp_degree,
    real_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
)

from oracles import table_matrix


def test_inequality_suite_parity4():
    rep = inequality_suite(parity(4))
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["s_le_bs"].verdict == "holds"
    ratio = by_name["bs_vs_salt2_s_ratio"].witness["ratio"]
    assert ratio == 4 / (16 * 4)
    assert by_name["deg_lb_from_deg2"].verdict == "holds"


def test_inequality_suite_constant():
    rep = inequality_suite(TruthTable(3, 0))
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["deg_lb_from_deg2"].verdict == "hypothesis-not-met"
    assert by_name["bs_vs_salt2_s_ratio"].witness["ratio"] is None


def test_inequality_suite_skips_over_ceiling():
    rep = inequality_suite(rubinstein(4, 4))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["s_le_bs"].verdict == "skipped"
    assert by_name["alt_le_2sg_plus_1"].verdict == "holds"
    assert rep.ok  # skips do not fail the suite


def test_inequality_suite_rubinstein33():
    rep = inequality_suite(rubinstein(3, 3))
    assert rep.ok
    assert all(c.verdict != "fails" for c in rep.checks)


def test_proven_failure_raises():
    rep = CheckReport("function", "synthetic")
    rep.checks.append(Check("bad", "x <= y", "proven", 2, 1, "fails"))
    with pytest.raises(ProvenCheckError):
        _raise_if_broken(rep)
    rep2 = CheckReport("function", "synthetic")
    rep2.checks.append(Check("soft", "x <= y", "empirical", 2, 1, "fails"))
    assert _raise_if_broken(rep2) is rep2  # empirical failures never raise


def _same_family(padded, fam):
    """A zero-padded block row of ``measure_arrays`` equals a witness family."""
    assert tuple(int(b) for b in padded) == fam.blocks + (0,) * (len(padded) - len(fam.blocks))


def _assert_column_matches_api(a, r, f):
    """Column r of the ``measure_arrays`` result a holds the measures of f."""
    assert a["s"][r] == sensitivity(f)
    bs, fam = block_sensitivity(f, witness=True)
    assert (a["bs"][r], a["bs_argmax"][r]) == (bs, fam.point)
    _same_family(a["fam_argmax"][r], fam)
    bs0, fam0 = block_sensitivity(f, at=0, witness=True)
    assert a["bs0"][r] == bs0
    _same_family(a["fam0"][r], fam0)
    assert a["C"][r] == certificate(f)
    assert a["alt"][r] == alternation(f)
    assert a["salt"][r] == shift_invariant_alternation(f)
    assert a["deg"][r] == real_degree(f)
    assert a["deg_2"][r] == modp_degree(f, 2)
    assert a["deg_3"][r] == modp_degree(f, 3)
    assert a["sparsity"][r] == sparsity(f)
    assert a["DT"][r] == dt_depth(f)


def test_bulk_arrays_match_api_exhaustively_n2():
    a = measure_arrays(*next(_columns(2)))
    for bits in range(16):
        _assert_column_matches_api(a, bits, TruthTable(2, bits))


def test_bulk_arrays_match_api_sampled_n4(bulk_n4_rows):
    rng = np.random.default_rng(70)
    # 60584 is x0x1 | x0x2 | x1x3: at 0 its smallest sensitive block {0, 1}
    # meets both blocks of the one maximum family, {0, 2} and {1, 3}
    sample = [*rng.integers(0, 1 << 16, 25), 60584]
    a = bulk_n4_rows(sample)
    for bits in sample:
        f = TruthTable(4, int(bits))
        assert a["s"][bits] == sensitivity(f)
        bs, fam = block_sensitivity(f, witness=True)
        assert (a["bs"][bits], a["bs_argmax"][bits]) == (bs, fam.point)
        _same_family(a["fam_argmax"][bits], fam)
        bs0, fam0 = block_sensitivity(f, at=0, witness=True)
        assert a["bs0"][bits] == bs0
        _same_family(a["fam0"][bits], fam0)
        assert a["C"][bits] == certificate(f)
        assert a["salt"][bits] == shift_invariant_alternation(f)
        assert a["DT"][bits] == dt_depth(f)


@pytest.mark.parametrize("needs", [None, ("DT",)])
def test_measure_arrays_dt_sweeps_only_below_n_as_the_full_sweeps_do(needs):
    """The batch sweeps only the columns where max(bs, deg), or deg when bs
    does not run, is below n; on every column of every n = 4 slice it reads
    the DT of the sweeps over all columns, so a wrong lower bound shows."""
    for t, lanes in _columns(4):
        full = _depth_sweeps(_subcube_fold(t))[(2,) * 4]
        dt = measure_arrays(t, lanes, needs=needs)["DT"]
        assert np.array_equal(dt, full), int(lanes[0])
        assert (dt < 4).any() and (dt == 4).any()


@pytest.mark.parametrize("n, lo, hi", [(0, 0, 2), (1, 0, 4), (2, 0, 16), (3, 0, 256),
                                       (4, 16384, 32768)])
def test_measure_arrays_needs_returns_the_full_values(n, lo, hi):
    """Naming a statistic's measures returns a subset of the full call, equal
    on every key, and enough to evaluate the statistic."""
    t, lanes = next((t, lanes) for t, lanes in _columns(n) if lanes[0] == lo)
    assert lanes[-1] == hi - 1
    full = measure_arrays(t, lanes)
    for row in checks._STATISTICS.values():
        part = measure_arrays(t, lanes, needs=row.needs)
        assert set(part) < set(full)
        for key, values in part.items():
            assert np.array_equal(values, full[key]), (row.name, key)
        if "sherstov" in row.needs:
            assert {"bs_argmax", "fam_argmax"} <= set(part)
        else:
            assert np.array_equal(checks._statistic_array(row, part),
                                  checks._statistic_array(row, full))


def _id_range_columns(n, ids, needs):
    """``measure_arrays`` on the id-range slices of ``_bulk._columns`` that
    hold ids, read at ids, column for column."""
    at = {}
    for t, lanes in _columns(n):
        lo, hi = int(lanes[0]), int(lanes[-1]) + 1
        inside = [fid for fid in ids if lo <= fid < hi]
        if inside:
            a = measure_arrays(t, lanes, needs=needs)
            for fid in inside:
                at[fid] = {key: values[fid - lo] for key, values in a.items()}
    return {key: np.array([at[fid][key] for fid in ids]) for key in at[ids[0]]}


@pytest.mark.parametrize("n", [3, 4])
def test_measure_arrays_on_columns_that_are_not_an_id_range(n):
    """Any table matrix, here shuffled and repeated ids and named family
    tables, measures as the id-range slices do, column for column, and the
    families as the per-function API does."""
    rng = np.random.default_rng(80 + n)
    fams = {3: [maj(3), tree_function(2)],
            4: [parity(4), rubinstein(2, 2), gip(2, 2)]}[n]
    drawn = [int(b) for b in rng.integers(0, 2 ** (2**n), 12)]
    ids = [f.bits for f in fams] + [int(b) for b in rng.permutation(drawn + drawn[:5])]
    t, lanes = table_matrix(n, ids), np.asarray(ids, dtype=_lane(n))
    for needs in [None] + [row.needs for row in checks._STATISTICS.values()]:
        got, want = measure_arrays(t, lanes, needs=needs), _id_range_columns(n, ids, needs)
        assert set(got) == set(want)
        for key, values in got.items():
            assert np.array_equal(values, want[key]), (needs, key)
    a = measure_arrays(t, lanes)
    for r, f in enumerate(fams):
        _assert_column_matches_api(a, r, f)


def test_extremal_search_runs_only_the_kernels_its_statistic_reads(monkeypatch):
    want = [r.to_json_dict() for r in extremal_search(4, "salt_over_s")]

    def unread(*args, **kwargs):
        raise AssertionError("salt_over_s reads nothing this kernel computes")

    for name in ("_bs_table", "_cert_table", "_minimal_blocks", "_make_packer",
                 "_lex_min_family", "_subcube_fold", "_certificate_sizes", "_depth_sweeps",
                 "_moebius_rows", "_walsh_rows"):
        monkeypatch.setattr(_bulk, name, unread)
    assert [r.to_json_dict() for r in extremal_search(4, "salt_over_s")] == want


def test_exhaustive_scan_submatrix_mismatch_raises(monkeypatch):
    """A wrong min-in-block g fails the batched identity, reported at the
    smallest failing id in the text ``submatrix_witness`` raises."""
    real = checks._bs2s_rows

    def wrong_g(tables, lanes, points, blocks, placement):
        batch = real(tables, lanes, points, blocks, placement)
        if placement != "min-in-block":
            return batch
        g = batch.g.copy()
        g[0, [200, 37]] ^= 1  # g(0) of functions 200 and 37
        return dataclasses.replace(batch, g=g)

    monkeypatch.setattr(checks, "_bs2s_rows", wrong_g)
    with pytest.raises(VerificationError,
                       match=r"for tt:3:25 at u=[01]{3} y=[01]{3}: f=. g=."):
        exhaustive_scan(3)


@pytest.mark.parametrize("key,message", [
    ("bs", "bulk/bs mismatch at function 0: bulk=1 api=0"),
    ("alt", "bulk alt does not match its chain at function 0"),
])
def test_exhaustive_scan_crosscheck_catches_a_wrong_array(monkeypatch, key, message):
    """A wrong value at id 0, which the cross-check samples, raises."""
    real = _bulk.measure_arrays

    def wrong(t, *args):
        a = real(t, *args)
        a[key][0] += 1
        return a

    monkeypatch.setattr(_bulk, "measure_arrays", wrong)
    with pytest.raises(RuntimeError, match=message):
        exhaustive_scan(3)


def test_exhaustive_scan_crosscheck_catches_a_wrong_transform(monkeypatch):
    real = checks._alt2s_rows

    def wrong_g(*args):
        batch = real(*args)
        g = batch.g.copy()
        g[0, 0] ^= 1  # g(0) of function 0
        return dataclasses.replace(batch, g=g)

    monkeypatch.setattr(checks, "_alt2s_rows", wrong_g)
    with pytest.raises(RuntimeError, match="batched alt2s mismatch at function 0"):
        exhaustive_scan(3)


def test_exhaustive_scan_crosscheck_runs_one_bs_search_per_sampled_function(monkeypatch):
    # the report's kept search feeds both transforms at the maximizer, and
    # one family at 0 feeds bs(f,0), the transform there and the submatrix
    # certificate; each unpointed bs search builds its bound u once
    searches, bound = [], measures._sensitivity_bound
    monkeypatch.setattr(measures, "_sensitivity_bound", lambda s: searches.append(1) or bound(s))
    at_zero, pointed = [], measures._Measures.block_sensitivity

    def counted(owner, witness, at=None):
        if at == 0:
            at_zero.append(owner.f.bits)
        return pointed(owner, witness, at)

    monkeypatch.setattr(measures._Measures, "block_sensitivity", counted)
    rep = exhaustive_scan(3)
    assert rep.ok
    stride = 256 // checks._CROSSCHECK_SAMPLES
    assert len(searches) == len(range(0, 256, stride))
    assert at_zero == list(range(0, 256, stride))


def test_exhaustive_scan_n2():
    rep = exhaustive_scan(2)
    assert rep.ok
    counts = rep.counts()
    assert counts["fails"] == 0
    by_name = {c.name: c for c in rep.checks}
    assert by_name["s_le_bs"].witness["functions"] == 16
    assert by_name["submatrix_identity"].witness["holds"] == 16


def test_exhaustive_scan_deterministic():
    one = exhaustive_scan(2).to_json_dict()
    two = exhaustive_scan(2).to_json_dict()
    assert json.dumps(one) == json.dumps(two)


@pytest.mark.parametrize("n, size", [(3, 16), (3, 100), (4, 1000)], ids=["16", "100", "n4-1000"])
def test_exhaustive_scan_independent_of_slices(monkeypatch, n, size):
    """Small slices split n = 3 (256 ids) and n = 4 (65,536 ids, 66 slices)
    unevenly; the JSON stays.  At n = 4 three statistics reach their maximum
    in every default slice, so the tie rule of the tally is exercised."""
    default = json.dumps(exhaustive_scan(n).to_json_dict())
    monkeypatch.setattr(_bulk, "_SLICE", size)
    assert len(list(_columns(n))) > 2
    assert json.dumps(exhaustive_scan(n).to_json_dict()) == default


def test_exhaustive_scan_failure_report_independent_of_slices(monkeypatch):
    """A proven row failing from id 100 on reports its smallest failing id
    under any slicing, whether left <= right fails or, for a construction's
    row, its own verdict ``holds``; the suite, too, gives that verdict."""
    rows, size = checks._INEQUALITIES, _bulk._SLICE
    by_bound = checks._Inequality("id_le_99", "id <= 99", "id <= 99", ("ids",),
                                  lambda v: v["ids"], lambda v: 99)
    # left <= right holds everywhere: only the row's own verdict fails
    by_verdict = checks._Inequality("id_below_100", "id < 100", "id < 100", ("ids",),
                                    lambda v: 0, lambda v: 1, holds=lambda v: v["ids"] < 100)

    def failure(row, slice_size):
        monkeypatch.setattr(checks, "_INEQUALITIES", rows + (row,))
        monkeypatch.setattr(_bulk, "_SLICE", slice_size)
        with pytest.raises(ProvenCheckError) as exc:
            exhaustive_scan(3)
        return exc.value.report.to_json_dict()

    for row in (by_bound, by_verdict):
        default = failure(row, size)
        assert {"check": row.name, "function": "tt:3:64"} in default["findings"]
        checked = {c["name"]: c for c in default["checks"]}[row.name]
        assert (checked["verdict"], checked["left"]) == ("fails", 100)
        assert ("tightest" in checked["witness"]) == (row is by_bound)
        assert failure(row, 16) == default

    # one function has no ids: its row's own verdict fails outright
    monkeypatch.setattr(checks, "_INEQUALITIES",
                        rows + (dataclasses.replace(by_verdict, needs=(), holds=lambda v: False),))
    with pytest.raises(ProvenCheckError, match="proven check id_below_100 failed on tt:3:e8") as exc:
        inequality_suite(maj(3))
    assert [(c.name, c.left, c.right) for c in exc.value.report.checks if c.verdict == "fails"] == [
        ("id_below_100", 0, 1)]


def _argsort_ranking(vals):
    return [(float(vals[pos]), int(pos)) for pos in np.argsort(-vals, kind="stable")
            if vals[pos] > -np.inf]


@pytest.mark.parametrize("n", [3, 4])
def test_ranked_walk_is_the_stable_argsort_order_of_every_statistic(n):
    # every value of every statistic, ties and undefined (-inf) ones included
    for name, row in _STATISTICS.items():
        vals = _exhaustive_values(n, row)
        assert list(_ranked(vals)) == _argsort_ranking(vals), name


def test_ranked_walk_skips_nan_and_minus_inf_and_keeps_ties_in_position_order():
    rng = np.random.default_rng(45)
    vals = rng.integers(-3, 4, 500).astype(float)
    vals[rng.integers(0, 500, 40)] = -np.inf
    vals[rng.integers(0, 500, 40)] = np.nan
    vals[rng.integers(0, 500, 5)] = np.inf
    vals[rng.integers(0, 500, 20)] = -0.0
    got = list(_ranked(vals))
    assert got == _argsort_ranking(vals)
    assert [repr(v) for v, _ in got] == [repr(float(vals[pos])) for _, pos in got]
    assert list(_ranked(np.full(4, -np.inf))) == list(_ranked(np.empty(0))) == []


@pytest.mark.parametrize("n, size", [(3, 16), (4, 1000)])
def test_extremal_search_independent_of_slices(monkeypatch, n, size):
    def records():
        return {stat: [r.to_json_dict() for r in extremal_search(n, stat)] for stat in STATISTICS}

    default = records()
    monkeypatch.setattr(_bulk, "_SLICE", size)
    assert len(list(_columns(n))) > 2
    assert records() == default


def test_exhaustive_scan_rejects_large_arity():
    with pytest.raises(ValueError):
        exhaustive_scan(5)


def test_family_suite_short():
    rep = family_suite()
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert "tree3_salt_floor" in names
    assert "rubinstein33_bs_vs_s_salt" in names
    assert "or_compose_random" in names


def test_extremal_search_exhaustive_n3():
    records = extremal_search(3, "salt_minus_s", top=20)
    assert all(r.arity == 3 for r in records)
    assert all(revalidate_record(r) for r in records)
    # the corpus maximum of salt - s at arity 3 is 0, met by the parity class
    assert records[0].value == 0.0
    p3 = parity(3)
    assert STATISTICS["salt_minus_s"](p3) == records[0].value
    reps = {r.function for r in records}
    assert "tt:3:69" in reps or "tt:3:96" in reps  # a parity-class representative


def test_extremal_search_n2_sparsity_statistic():
    records = extremal_search(2, "s_over_sqrt_sparsity", top=3)
    assert records[0].value == 2.0  # the parity class: s = 2, sparsity = 1
    assert records[0].function in ("tt:2:6", "tt:2:9")


def test_extremal_search_sampled_deterministic():
    one = extremal_search(8, "s_over_sqrt_sparsity", budget=300, seed=1, top=5)
    two = extremal_search(8, "s_over_sqrt_sparsity", budget=300, seed=1, top=5)
    assert [r.to_json_dict() for r in one] == [r.to_json_dict() for r in two]
    assert all(revalidate_record(r) for r in one)
    other_seed = extremal_search(8, "s_over_sqrt_sparsity", budget=300, seed=2, top=5)
    assert [r.to_json_dict() for r in other_seed] != [r.to_json_dict() for r in one]


def test_extremal_search_per_function_statistic():
    records = extremal_search(2, "bs_over_sherstov_s2", top=4)
    assert all(revalidate_record(r) for r in records)


def test_extremal_search_unknown_statistic():
    with pytest.raises(ValueError):
        extremal_search(3, "nope")


@pytest.mark.parametrize("n,statistic,budget,error", [
    (25, "s_over_sqrt_sparsity", 4, ValueError),  # over MAX_ARITY: no table is drawn
    (16, "salt_minus_s", 256, ArityLimitError),  # over the salt ceiling: one table is drawn
])
def test_extremal_search_fails_before_drawing_its_pool(n, statistic, budget, error):
    tracemalloc.start()
    try:
        with pytest.raises(error):
            extremal_search(n, statistic, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_report_serialization_shapes():
    rep = exhaustive_scan(2)
    data = rep.to_json_dict()
    assert set(data) == {"suite", "subject", "ok", "counts", "checks", "findings", "extremal"}
    text = rep.to_text()
    assert "summary:" in text
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "name,kind,verdict,left,right,statement"
    fn_rep = inequality_suite(tt_parse("tt:2:8"))
    assert json.dumps(fn_rep.to_json_dict())
