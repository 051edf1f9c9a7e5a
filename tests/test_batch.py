"""The batch transform kernels against the per-function constructions and the
brute-force oracles."""

import json

import numpy as np
import pytest

from boolfn import (
    AffineMap,
    TruthTable,
    alt_to_s_linear,
    alternation,
    apply_affine,
    block_sensitivity,
    bs_to_s_affine,
    gip,
    maj,
    rubinstein,
    sherstov_linear,
    tree_function,
)
from boolfn._bulk import _columns, measure_arrays
from boolfn.core import affine_images
from boolfn.measures import (
    Chain,
    _best_chains,
    _lane,
    _minimal_blocks,
    _plane_sensitivity,
    _pointwise_sensitivity,
    validate_chain,
)
from boolfn.spectral import _degrees, _moebius_rows, _sparsities, _walsh_rows
from boolfn.transforms import _alt2s_rows, _block_rows, _bs2s_rows, _gather, _sherstov_rows

from oracles import (
    naive_best_chain,
    naive_chain_walk,
    naive_block_sensitivity,
    naive_sensitivity,
    random_table,
)


def _batch_inputs(t, lanes):
    """The smallest bs maximizer of each column of the table matrix t, and
    its block families at 0 and there, as ``measure_arrays`` reports them."""
    a = measure_arrays(t, lanes)
    return a["bs_argmax"], a["fam0"], a["fam_argmax"]


def _same(got, want):
    assert got.kind == want.kind
    assert got.map == want.map
    assert got.g == want.g
    assert got.certificate == want.certificate
    # plain Python values only: json refuses numpy scalars
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def _check_rows(n, ids):
    functions = [TruthTable(n, int(bits)) for bits in ids]
    t = np.stack([f.to_array() for f in functions], axis=1)
    lanes = np.asarray(ids, dtype=_lane(n))
    amax, fam0, fam_max = _batch_inputs(t, lanes)
    zero = np.zeros(len(functions), dtype=np.int64)
    batches = (
        _bs2s_rows(t, lanes, zero, fam0, "block-index"),
        _bs2s_rows(t, lanes, amax, fam_max, "block-index"),
        _bs2s_rows(t, lanes, amax, fam_max, "min-in-block"),
        _alt2s_rows(t, lanes, *_best_chains(lanes, n)),
        _sherstov_rows(t, lanes, amax, fam_max),
    )
    for r, f in enumerate(functions):
        a = int(amax[r])
        wants = (
            bs_to_s_affine(f, 0),
            bs_to_s_affine(f, a),
            bs_to_s_affine(f, a, placement="min-in-block"),
            alt_to_s_linear(f),
            sherstov_linear(f),
        )
        for batch, want in zip(batches, wants):
            _same(batch.result(r, f), want)


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_batched_kernels_match_per_function_columns(n, m):
    # a (2**n, m) matrix holds one table per column, and every kernel gives
    # each column what it gives that table alone; n = 5 and 6 run the
    # gather on u4 and u8 lanes
    rng = np.random.default_rng(60 + n)
    ids = [random_table(rng, n) for _ in range(m)]
    if m > 2:
        ids[:2] = [0, 2 ** (2**n) - 1]
    t = np.stack([TruthTable(n, bits).to_array() for bits in ids], axis=1)
    cols = rng.integers(0, 2**n, (m, n))
    shifts = rng.integers(0, 2**n, m)
    sens = _pointwise_sensitivity(t)
    moebius = _moebius_rows(t, np.int16)
    walsh = _walsh_rows(t, np.int32)
    degrees, sparsities = _degrees(moebius), _sparsities(walsh)
    lanes = np.asarray(ids, dtype=_lane(n))
    img, g = _gather(t, lanes, cols, shifts)
    alt, chains = _best_chains(lanes, n)
    assert sens.shape == moebius.shape == walsh.shape == img.shape == g.shape == (2**n, m)
    assert degrees.shape == sparsities.shape == alt.shape == (m,)
    assert chains.shape == (m, n + 1)
    for r, bits in enumerate(ids):
        f = TruthTable(n, bits)
        one = f.to_array()
        assert sens[:, r].tolist() == _plane_sensitivity(bits, n).tolist()
        assert moebius[:, r].tolist() == _moebius_rows(one, np.int64).tolist()
        assert walsh[:, r].tolist() == _walsh_rows(one, np.int64).tolist()
        assert degrees[r] == _degrees(_moebius_rows(one, np.int64))
        assert sparsities[r] == _sparsities(_walsh_rows(one, np.int64))
        amap = AffineMap(n, tuple(int(c) for c in cols[r]), int(shifts[r]))
        assert img[:, r].tolist() == affine_images(n, amap.columns, amap.shift).tolist()
        assert img[:, r].tolist() == [amap.apply(x) for x in range(2**n)]
        assert g[:, r].tolist() == apply_affine(f, amap).to_array().tolist()
        assert (int(alt[r]), chains[r].tolist()) == _best_chains(bits, n)


@pytest.mark.parametrize("n", [5, 6])
def test_minimal_blocks_of_a_matrix_match_its_columns(n):
    # the sensitive blocks of random functions at random inputs, one packed
    # set per lane; a block is minimal iff it is sensitive and no proper
    # subset is
    rng = np.random.default_rng(80 + n)
    profiles = []
    for _ in range(12):
        f, a = TruthTable(n, random_table(rng, n)), int(rng.integers(2**n))
        profiles.append([b > 0 and f.value_at(a ^ b) != f.value_at(a) for b in range(2**n)])
    sens = [sum(1 << b for b in range(2**n) if profile[b]) for profile in profiles]
    minimal = _minimal_blocks(np.array(sens, dtype=_lane(n)), n)
    assert minimal.shape == (12,) and minimal.dtype == _lane(n)
    for r, profile in enumerate(profiles):
        assert int(minimal[r]) == _minimal_blocks(sens[r], n)
        want = [b for b in range(2**n) if profile[b]
                and not any(profile[c] for c in range(1, b) if c & b == c)]
        assert [b for b in range(2**n) if int(minimal[r]) >> b & 1] == want


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_rows_match_per_function_exhaustive(n):
    _check_rows(n, np.arange(1 << (1 << n)))


def test_batched_rows_match_per_function_sampled_n4():
    rng = np.random.default_rng(44)
    _check_rows(4, [random_table(rng, 4) for _ in range(64)])


@pytest.mark.parametrize("n", [5, 6])
def test_batched_rows_match_per_function_sampled_above_bulk_arity(n):
    # measure_arrays stops at n = 4, so the block families come from the
    # per-function API, at 0 and at the maximizer; the rows read the tables
    # from u4 and u8 lanes
    rng = np.random.default_rng(70 + n)
    functions = [TruthTable(n, random_table(rng, n)) for _ in range(12)]
    # 0xc28b74ec, also lifted to n = 6 by an irrelevant variable, splits
    # its block of bits 2 and 4 at z = 4 into a zero part and a one part
    split = 0xC28B74EC if n == 5 else 0xC28B74EC_C28B74EC
    functions[:3] = [TruthTable(n, 0), maj(5) if n == 5 else rubinstein(2, 3), TruthTable(n, split)]
    t = np.stack([f.to_array() for f in functions], axis=1)
    fam0 = [block_sensitivity(f, at=0, witness=True)[1] for f in functions]
    fam_max = [block_sensitivity(f, witness=True)[1] for f in functions]
    zero = np.zeros(len(functions), dtype=np.int64)
    amax = np.array([fam.point for fam in fam_max])
    blocks0 = np.concatenate([_block_rows(n, fam.blocks) for fam in fam0])
    blocks_max = np.concatenate([_block_rows(n, fam.blocks) for fam in fam_max])
    lanes = np.asarray([f.bits for f in functions], dtype=_lane(n))
    batches = (
        _bs2s_rows(t, lanes, zero, blocks0, "block-index"),
        _bs2s_rows(t, lanes, amax, blocks_max, "block-index"),
        _bs2s_rows(t, lanes, amax, blocks_max, "min-in-block"),
        _alt2s_rows(t, lanes, *_best_chains(lanes, n)),
        _sherstov_rows(t, lanes, amax, blocks_max),
    )
    for r, f in enumerate(functions):
        a = int(amax[r])
        wants = (
            bs_to_s_affine(f, 0),
            bs_to_s_affine(f, a),
            bs_to_s_affine(f, a, placement="min-in-block"),
            alt_to_s_linear(f),
            sherstov_linear(f),
        )
        for batch, want in zip(batches, wants):
            _same(batch.result(r, f), want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_block_transform_against_oracles(n):
    t, lanes = next(_columns(n))
    amax, fam0, fam_max = _batch_inputs(t, lanes)
    zero = np.zeros(t.shape[1], dtype=np.int64)
    at_zero = _bs2s_rows(t, lanes, zero, fam0, "block-index")
    at_max = _bs2s_rows(t, lanes, amax, fam_max, "block-index")
    for r in range(t.shape[1]):
        f = TruthTable(n, r)
        for batch, a in ((at_zero, 0), (at_max, int(amax[r]))):
            g = batch.result(r, f).g
            assert naive_sensitivity(g, 0) == naive_block_sensitivity(f, a)
        assert naive_block_sensitivity(f, int(amax[r])) == naive_block_sensitivity(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_alternation_chains_against_oracle(n):
    _, lanes = next(_columns(n))
    _, chains = _best_chains(lanes, n)
    for r in range(lanes.size):
        assert tuple(int(p) for p in chains[r]) == naive_best_chain(TruthTable(n, r))


def _check_chain_walk(f):
    """The oracle walk over the brute-force path maxima gives the witness of
    ``alternation`` and the chain of ``alt_to_s_linear``, and it is valid
    at alt."""
    want = naive_chain_walk(f)
    alt, chain = alternation(f, witness=True)
    assert chain.points == want
    assert tuple(alt_to_s_linear(f).certificate["chain"]) == want
    assert validate_chain(f, Chain(want), alt)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_chain_paths_agree_exhaustive(n):
    for bits in range(1 << (1 << n)):
        _check_chain_walk(TruthTable(n, bits))


@pytest.mark.parametrize("n", range(15))
def test_chain_paths_agree_on_single_tables(n):
    # the library walks one table on plain ints at every n
    rng = np.random.default_rng(110 + n)
    for _ in range(3 if n < 12 else 1):
        _check_chain_walk(TruthTable(n, random_table(rng, n)))


@pytest.mark.parametrize("f", [maj(11), tree_function(3), rubinstein(3, 3), gip(3, 3)],
                         ids=["maj11", "tree3", "rubinstein33", "gip33"])
def test_chain_walk_matches_oracle_on_families(f):
    _check_chain_walk(f)


def _check_batch_walk(n, ids):
    """The batch walk of the lanes of the tables in ``ids`` gives, lane by
    lane, alt and the chain of the plain-int walk of each table."""
    alt, chains = _best_chains(np.asarray(ids, dtype=_lane(n)), n)
    assert alt.shape == (len(ids),) and chains.shape == (len(ids), n + 1)
    for r, bits in enumerate(ids):
        assert (int(alt[r]), chains[r].tolist()) == _best_chains(int(bits), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_paths_agree_on_matrices(n):
    rng = np.random.default_rng(90 + n)
    ids = [0, 2 ** (2**n) - 1] + [random_table(rng, n) for _ in range(198)]
    _check_batch_walk(n, ids)


def test_batch_chain_walk_matches_single_tables_exhaustive_n4():
    # every function at n = 4, in the scan's slices of 16,384 columns
    for lo in range(0, 1 << 16, 1 << 14):
        _check_batch_walk(4, range(lo, lo + (1 << 14)))


@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_apply_affine_matches_pointwise(n):
    rng = np.random.default_rng(100 + n)
    f = TruthTable(n, random_table(rng, n))
    for _ in range(3):
        cols = tuple(int(c) for c in rng.integers(0, 1 << n, n))
        a = AffineMap(n, cols, int(rng.integers(0, 1 << n)))
        g = apply_affine(f, a)
        assert all(g.value_at(x) == f.value_at(a.apply(x)) for x in range(1 << n))
