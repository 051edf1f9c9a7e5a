"""The flip-pattern tables of ``_bulk``, from which ``measure_arrays`` reads
bs, C and alt at n <= 4: every entry against the brute-force oracles, the
pattern ids of a table matrix, and the tables' cache."""

import numpy as np
import pytest

from boolfn import BlockFamily, TruthTable, validate_block_family
from boolfn import _bulk
from boolfn._bulk import _alt_table, _bs_table, _cert_table, _columns, _patterns, measure_arrays
from boolfn.measures import _lane

from oracles import (
    naive_alternation,
    naive_block_sensitivity,
    naive_certificate,
    naive_lex_min_family,
    naive_shift_alternations,
    random_table,
    table_matrix,
)

_BUILDERS = (_bs_table, _cert_table, _alt_table)


def _pattern_id(f, x):
    """The id of p_x(y) = f(x ^ y) ^ f(x), whose bit 0 is clear: bit y - 1
    of the id is p_x(y), read one input at a time."""
    return sum((f.value_at(x ^ y) ^ f.value_at(x)) << (y - 1) for y in range(1, 2**f.n))


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_columns_are_the_ids_and_their_tables(n, step):
    # n <= 3 is one slice: its lanes are the ids 0, step, ... and its
    # columns their tables, read one input at a time
    (t, lanes), = _columns(n, step)
    ids = list(range(0, 2 ** (2**n), step))
    assert lanes.dtype == _lane(n) and lanes.tolist() == ids
    assert t.dtype == np.uint8 and np.array_equal(t, table_matrix(n, ids))


@pytest.mark.parametrize("step", [1, 2])
def test_columns_cover_every_id_once_in_order_n4(step):
    rng, ids = np.random.default_rng(7), []
    for t, lanes in _columns(4, step):
        assert lanes.dtype == _lane(4) and t.shape == (16, _bulk._SLICE // step)
        cols = rng.integers(0, lanes.size, 20)
        assert np.array_equal(t[:, cols], table_matrix(4, lanes[cols]))
        ids += lanes.tolist()
    assert ids == list(range(0, 2**16, step))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_pattern_against_the_oracles(n):
    bs, fam = _bs_table(n)
    cert, alt = _cert_table(n), _alt_table(n)
    assert bs.size == cert.size == alt.size == fam.shape[0] == 2 ** (2**n - 1)
    for r in range(bs.size):
        p = TruthTable(n, 2 * r)
        assert bs[r] == naive_block_sensitivity(p, 0), r
        assert cert[r] == naive_certificate(p, 0), r
        assert alt[r] == naive_alternation(p), r
        blocks = tuple(int(b) for b in fam[r] if b)
        assert len(blocks) == bs[r] and list(blocks) == sorted(blocks)
        assert validate_block_family(p, BlockFamily(0, blocks))
        assert blocks == naive_lex_min_family(p, 0), r


def test_bs_table_against_the_lex_min_oracle_on_every_pattern_n4():
    # the scan's cross-check and the per-function API run the packer that
    # builds this table, so the oracle is the independent check of n = 4
    bs, fam = _bs_table(4)
    for r in range(1 << 15):
        family = naive_lex_min_family(TruthTable(4, 2 * r), 0)
        assert (bs[r], tuple(int(b) for b in fam[r] if b)) == (len(family), family), r


def test_bs_table_packs_each_antichain_of_minimal_blocks_once(monkeypatch):
    # the antichains of minimal blocks a pattern can have: the Dedekind
    # numbers 2, 3, 6, 20, 168, less the antichain of the empty block
    packs = []

    def counted(cands):
        packs.append(tuple(cands))
        return make_packer(cands)

    make_packer = _bulk._make_packer
    monkeypatch.setattr(_bulk, "_make_packer", counted)
    counts = []
    for n in range(5):
        _bs_table.cache_clear()
        packs.clear()
        _bs_table(n)
        assert len(set(packs)) == len(packs)
        counts.append(len(packs))
    assert counts == [1, 2, 5, 19, 167]


def test_seeded_functions_at_every_input_read_the_entry_of_their_pattern_n4():
    # a shift by x carries bs and C at x, and alt of the shift by x, to p_x
    rng = np.random.default_rng(90)
    functions = [TruthTable(4, random_table(rng, 4)) for _ in range(6)]
    pat = _patterns(np.array([f.bits for f in functions], dtype=_lane(4)), 4)
    bs, _ = _bs_table(4)
    cert, alt = _cert_table(4), _alt_table(4)
    for r, f in enumerate(functions):
        shift_alts = naive_shift_alternations(f)
        for x in range(16):
            p = _pattern_id(f, x)
            assert pat[x, r] == p
            assert bs[p] == naive_block_sensitivity(f, x)
            assert cert[p] == naive_certificate(f, x)
            assert alt[p] == shift_alts[x]


def test_each_table_is_built_once_per_arity_and_is_read_only(monkeypatch):
    for build in _BUILDERS:
        build.cache_clear()
    needs = ("sherstov", "C", "alt", "salt")
    t, lanes = next(_columns(3))
    first = measure_arrays(t, lanes, needs=needs)

    def rebuilt(*args):
        raise AssertionError("a pattern table was built again")

    # every kernel the builders run, and only they at these needs
    for name in ("_minimal_blocks", "_make_packer", "_lex_min_family", "_subcube_fold",
                 "_certificate_sizes", "_shift_moves", "_alternation_at_shift"):
        monkeypatch.setattr(_bulk, name, rebuilt)
    again = measure_arrays(t[:, ::-1], lanes[::-1], needs=needs)
    for key, values in first.items():
        assert np.array_equal(again[key], values[::-1]), key
    assert [build.cache_info().misses for build in _BUILDERS] == [1, 1, 1]
    # another arity builds its own tables
    with pytest.raises(AssertionError, match="built again"):
        measure_arrays(*next(_columns(2)), needs=("C",))
    for table in (*_bs_table(3), _cert_table(3), _alt_table(3)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
