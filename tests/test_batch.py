"""The batch transform kernels against the per-function constructions and the
brute-force oracles."""

import json

import numpy as np
import pytest

from boolfn import (
    AffineMap,
    TruthTable,
    alt_to_s_linear,
    apply_affine,
    bs_to_s_affine,
    sherstov_linear,
)
from boolfn._bulk import _tables, measure_arrays
from boolfn.core import affine_images
from boolfn.measures import _best_chains, _path_maxima, _pointwise_sensitivity
from boolfn.spectral import _degrees, _moebius_rows, _sparsities, _walsh_rows
from boolfn.transforms import _alt2s_rows, _bs2s_rows, _gather, _sherstov_rows

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
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_batched_kernels_match_per_function_columns(n, m):
    # a (2**n, m) matrix holds one table per column, and every kernel gives
    # each column what it gives that table alone
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


@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_apply_affine_matches_pointwise(n):
    rng = np.random.default_rng(100 + n)
    f = TruthTable(n, random_table(rng, n))
    for _ in range(3):
        cols = tuple(int(c) for c in rng.integers(0, 1 << n, n))
        a = AffineMap(n, cols, int(rng.integers(0, 1 << n)))
        g = apply_affine(f, a)
        assert all(g.value_at(x) == f.value_at(a.apply(x)) for x in range(1 << n))
