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
    sherstov_linear,
)
from boolfn._bulk import _families, _point_packings, _tables, measure_arrays
from boolfn.core import affine_images
from boolfn.measures import (
    Chain,
    _best_chains,
    _chain_successors,
    _chain_walk,
    _lanes,
    _path_maxima,
    _pointwise_sensitivity,
    validate_chain,
)
from boolfn.spectral import _degrees, _moebius_rows, _sparsities, _walsh_rows
from boolfn.families import maj, rubinstein
from boolfn.transforms import _alt2s_rows, _block_rows, _bs2s_rows, _gather, _sherstov_rows

from oracles import (
    naive_best_chain,
    naive_block_sensitivity,
    naive_sensitivity,
    random_table,
)


def _batch_inputs(t):
    """The smallest bs maximizer of each column of the table matrix t, and
    its block families at 0 and there, as ``measure_arrays`` reports them."""
    a = measure_arrays(t)
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
    amax, fam0, fam_max = _batch_inputs(t)
    zero = np.zeros(len(functions), dtype=np.int64)
    batches = (
        _bs2s_rows(t, zero, fam0, "block-index"),
        _bs2s_rows(t, amax, fam_max, "block-index"),
        _bs2s_rows(t, amax, fam_max, "min-in-block"),
        _alt2s_rows(t, _path_maxima(t, n)),
        _sherstov_rows(t, amax, fam_max),
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
    img, g = _gather(t, cols, shifts)
    down = _path_maxima(t, n)
    chains = _best_chains(t, down)
    assert sens.shape == moebius.shape == walsh.shape == img.shape == g.shape == down.shape
    assert sens.shape == (2**n, m) and degrees.shape == sparsities.shape == (m,)
    assert chains.shape == (m, n + 1)
    for r, bits in enumerate(ids):
        f = TruthTable(n, bits)
        one = f.to_array()
        assert sens[:, r].tolist() == _pointwise_sensitivity(one).tolist()
        assert moebius[:, r].tolist() == _moebius_rows(one, np.int64).tolist()
        assert walsh[:, r].tolist() == _walsh_rows(one, np.int64).tolist()
        assert degrees[r] == _degrees(_moebius_rows(one, np.int64))
        assert sparsities[r] == _sparsities(_walsh_rows(one, np.int64))
        amap = AffineMap(n, tuple(int(c) for c in cols[r]), int(shifts[r]))
        assert img[:, r].tolist() == affine_images(n, amap.columns, amap.shift).tolist()
        assert img[:, r].tolist() == [amap.apply(x) for x in range(2**n)]
        assert g[:, r].tolist() == apply_affine(f, amap).to_array().tolist()
        assert down[:, r].tolist() == _path_maxima(bits, n).tolist()
        assert chains[r].tolist() == _best_chains(one, down[:, r]).tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_rows_match_per_function_exhaustive(n):
    _check_rows(n, np.arange(1 << (1 << n)))


def test_batched_rows_match_per_function_sampled_n4():
    rng = np.random.default_rng(44)
    _check_rows(4, [random_table(rng, 4) for _ in range(64)])


@pytest.mark.parametrize("n", [5, 6])
def test_batched_rows_match_per_function_sampled_above_bulk_arity(n):
    # measure_arrays stops at n = 4, so the block families come from the
    # per-function API, and the packings and family walk behind its bs
    # table run here on their own, at 0 and at the maximizer; the rows read
    # the tables from u4 and u8 lanes
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
    for at, fams, blocks in ((zero, fam0, blocks0), (amax, fam_max, blocks_max)):
        packs = _point_packings(_lanes(t), at, n)
        assert packs[-1].tolist() == [len(fam.blocks) for fam in fams]
        assert np.array_equal(_families(packs), blocks)
    batches = (
        _bs2s_rows(t, zero, blocks0, "block-index"),
        _bs2s_rows(t, amax, blocks_max, "block-index"),
        _bs2s_rows(t, amax, blocks_max, "min-in-block"),
        _alt2s_rows(t, _path_maxima(t, n)),
        _sherstov_rows(t, amax, blocks_max),
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
    t = _tables(n, 0, 1 << (1 << n))
    amax, fam0, fam_max = _batch_inputs(t)
    zero = np.zeros(t.shape[1], dtype=np.int64)
    at_zero = _bs2s_rows(t, zero, fam0, "block-index")
    at_max = _bs2s_rows(t, amax, fam_max, "block-index")
    for r in range(t.shape[1]):
        f = TruthTable(n, r)
        for batch, a in ((at_zero, 0), (at_max, int(amax[r]))):
            g = batch.result(r, f).g
            assert naive_sensitivity(g, 0) == naive_block_sensitivity(f, a)
        assert naive_block_sensitivity(f, int(amax[r])) == naive_block_sensitivity(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_alternation_chains_against_oracle(n):
    t = _tables(n, 0, 1 << (1 << n))
    chains = _best_chains(t, _path_maxima(t, n))
    for r in range(t.shape[1]):
        assert tuple(int(p) for p in chains[r]) == naive_best_chain(TruthTable(n, r))


def _check_chain_paths(functions, t, down):
    """The plain walk of each column (``_chain_walk``) gives the chain that
    the successor table of the whole matrix gives (``_chain_successors``),
    for the columns of t, the tables of functions, from their path maxima
    ``down``; and each chain is valid at alt."""
    m = len(functions)
    chains = _chain_successors(t.reshape(-1), down.reshape(-1), m)
    for r, f in enumerate(functions):
        walk = _chain_walk(t[:, r].data, down[:, r].data)
        assert walk == chains[r].tolist()
        assert validate_chain(f, Chain(tuple(walk)), int(down[0, r]))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_chain_paths_agree_exhaustive(n):
    t = _tables(n, 0, 1 << (1 << n))
    _check_chain_paths([TruthTable(n, r) for r in range(t.shape[1])], t, _path_maxima(t, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_paths_agree_on_matrices(n):
    rng = np.random.default_rng(90 + n)
    functions = [TruthTable(n, random_table(rng, n)) for _ in range(40)]
    functions[:2] = [TruthTable(n, 0), TruthTable(n, 2 ** (2**n) - 1)]
    t = np.stack([f.to_array() for f in functions], axis=1)
    _check_chain_paths(functions, t, _path_maxima(t, n))


@pytest.mark.parametrize("n", range(15))
def test_chain_paths_agree_on_single_tables(n):
    # the library walks one table at every n, both through alternation and
    # through _best_chains, and reads a successor table for a batch
    f = TruthTable(n, random_table(np.random.default_rng(110 + n), n))
    down = _path_maxima(f.bits, n)
    _check_chain_paths([f], f.to_array()[:, None], down[:, None])
    assert alternation(f, witness=True)[1].points == tuple(_best_chains(f.to_array(), down).tolist())


@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_apply_affine_matches_pointwise(n):
    rng = np.random.default_rng(100 + n)
    f = TruthTable(n, random_table(rng, n))
    for _ in range(3):
        cols = tuple(int(c) for c in rng.integers(0, 1 << n, n))
        a = AffineMap(n, cols, int(rng.integers(0, 1 << n)))
        g = apply_affine(f, a)
        assert all(g.value_at(x) == f.value_at(a.apply(x)) for x in range(1 << n))
