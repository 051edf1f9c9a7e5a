import math
import tracemalloc

import numpy as np
import pytest

from boolfn import (
    MOEBIUS_MOD_P,
    MOEBIUS_Z,
    WALSH,
    TruthTable,
    bound_summary,
    exhaustive_scan,
    inequality_suite,
    measure_report,
    modp_degree,
    moebius_coefficients,
    moebius_coefficients_mod,
    real_degree,
    sparsity,
    spectrum,
    walsh_coefficients,
)
from boolfn import _bulk, measures, spectral
from boolfn._bitops import MAX_ARITY, SHORT_RUN, butterfly, level_views, pack, table_mask
from boolfn._bulk import measure_arrays
from boolfn.core import _xor
from boolfn.families import and_, maj, parity
from boolfn.measures import _pointwise_sensitivity, _sensitivity_slices, _slice_counts
from boolfn.spectral import (
    _difference,
    _moebius_rows,
    _residues,
    _sparsities,
    _subset_sum,
    _walsh_rows,
    _walsh_step,
    is_prime,
)

from oracles import (
    naive_degree,
    naive_modp_degree,
    naive_moebius,
    naive_moebius_at,
    naive_sensitivity,
    naive_sparsity,
    naive_wht,
    naive_wht_at,
    random_table,
    table_matrix,
)


def test_moebius_matches_oracle():
    rng = np.random.default_rng(10)
    cases = [parity(3), maj(3), and_(4)]
    cases += [TruthTable(n, random_table(rng, n)) for n in (1, 2, 3, 4) for _ in range(4)]
    for f in cases:
        assert moebius_coefficients(f).tolist() == naive_moebius(f)


def test_moebius_mod_p_matches_oracle():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            f = TruthTable(n, random_table(rng, n))
            expect = [c % p for c in naive_moebius(f)]
            assert moebius_coefficients_mod(f, p).tolist() == expect


# the largest prime below 2**64, above int64's maximum
_P64 = 18446744073709551557


@pytest.mark.parametrize("f", [TruthTable(2, 8),
                               TruthTable(5, random_table(np.random.default_rng(15), 5))],
                         ids=["tt:2:8", "random-n5"])
def test_prime_above_int64_reduces_the_public_tables(f):
    # every |coefficient| is below p, so the integer coefficients stand for
    # their residues: zero exactly where the residues are
    assert is_prime(_P64)
    coeffs = naive_moebius(f)
    assert moebius_coefficients_mod(f, _P64).tolist() == coeffs
    rep = spectrum(f, MOEBIUS_MOD_P, p=_P64)
    assert rep.coeffs.tolist() == coeffs and rep.degree() == naive_degree(f)
    assert rep.inverse_table() == f


def test_modp_rejects_composite():
    with pytest.raises(ValueError):
        moebius_coefficients_mod(parity(2), 4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        modp_degree(parity(2), 4)


def test_repeated_prime_is_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built before the primes were checked")

    monkeypatch.setattr(measures, "_moebius_rows", no_work)
    monkeypatch.setattr(_bulk, "measure_arrays", no_work)
    f = maj(3)
    for run in (
        lambda primes: measure_report(f, primes=primes),
        lambda primes: inequality_suite(f, primes=primes),
        lambda primes: bound_summary(f, primes=primes),
        lambda primes: exhaustive_scan(2, primes=primes),
    ):
        for primes in ((3, 3), (2, 3, 5, 3)):
            with pytest.raises(ValueError, match="^prime 3 is repeated$"):
                run(primes)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        measure_report(f, primes=(3, 4, 3))


def test_walsh_matches_oracle_and_named_values():
    # chi(AND_2) = (1, 1, 1, -1): coefficients 2, 2, 2, -2
    assert walsh_coefficients(and_(2)).tolist() == [2, 2, 2, -2]
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 3, 4):
        f = TruthTable(n, random_table(rng, n))
        assert walsh_coefficients(f).tolist() == naive_wht(f)


def test_parseval_exact():
    rng = np.random.default_rng(13)
    for n in (0, 2, 5, 8, 10):
        f = TruthTable(n, random_table(rng, n))
        w = walsh_coefficients(f).astype(object)
        assert int((w * w).sum()) == 4**n


def test_inverse_roundtrip_all_bases():
    rng = np.random.default_rng(14)
    for n in (0, 1, 3, 6, 10):
        f = TruthTable(n, random_table(rng, n))
        for basis, p in ((MOEBIUS_Z, None), (MOEBIUS_MOD_P, 2), (MOEBIUS_MOD_P, 5), (WALSH, None)):
            rep = spectrum(f, basis, p=p)
            assert rep.inverse_table() == f, (n, basis, p)


def test_spectrum_support_and_degree():
    rep = spectrum(parity(3), MOEBIUS_MOD_P, p=2)
    assert rep.support() == (0b001, 0b010, 0b100)
    assert rep.degree() == 1
    rep_w = spectrum(parity(3), WALSH)
    assert rep_w.nonzero_count() == 1
    assert rep_w.support() == (0b111,)


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [p for p in range(10**5) if is_prime(p)] == [
        p for p in range(10**5) if _trial_division(p)]
    # Carmichael numbers and strong pseudoprimes to the first bases
    for p in (561, 41041, 825265, 3215031751, 3825123056546413051):
        assert not is_prime(p), p
    for p in (2**61 - 1, 2**64 - 59, 2147483659):
        assert is_prime(p), p


def test_is_prime_refuses_primes_above_its_exact_bound():
    bound = 3_317_044_064_679_887_385_961_981
    assert not is_prime(bound - 1)
    for p in (bound, 2**89 - 1):
        with pytest.raises(ValueError, match=f"only below {bound}"):
            is_prime(p)


def test_butterfly_rows_are_independent():
    # the tables run down the first axis and the trailing axes are a batch:
    # each table transforms as it would alone; the input must be a
    # contiguous buffer, since the halves are updated in place
    rng = np.random.default_rng(15)
    fs = [TruthTable(3, random_table(rng, 3)) for _ in range(6)]
    tables = np.stack([f.to_array() for f in fs], axis=1).astype(np.int64).reshape(8, 2, 3)

    def difference(lo, hi):
        hi -= lo

    out = butterfly(tables, difference)
    assert out is tables
    assert out.reshape(8, 6).T.tolist() == [naive_moebius(f) for f in fs]
    one = fs[0].to_array().astype(np.int64)
    assert butterfly(one, difference).tolist() == naive_moebius(fs[0])
    with pytest.raises(ValueError):
        butterfly(np.zeros((4, 8), dtype=np.int64).T, difference)


def _short_run_cases():
    """(table or table matrix, its functions): one table at every n from 0 to
    8, and (32, m) matrices whose widths put the first levels' runs below,
    at and above ``SHORT_RUN``."""
    rng = np.random.default_rng(16)
    cases = []
    for n in range(9):
        f = TruthTable(n, random_table(rng, n))
        cases.append((f.to_array(), [f]))
    for m in (1, 2, 3, 5, 15, 16, 17):
        fs = [TruthTable(5, random_table(rng, 5)) for _ in range(m)]
        cases.append((np.stack([f.to_array() for f in fs], axis=1), fs))
    return cases


def _columns(a):
    return a.reshape(a.shape[0], -1).T.tolist()


def test_level_views_transpose_short_runs():
    for run in (1, 2, 8, 15, 16, 32):
        a = np.arange(6 * run)
        lo, hi = level_views(a, 2, run)
        blocks = a.reshape(-1, 2, run)
        expect = (blocks[:, 0], blocks[:, 1])
        if run < SHORT_RUN:
            expect = tuple(v.T for v in expect)
        for got, want in zip((lo, hi), expect):
            assert got.shape == want.shape and (got == want).all()
            assert np.shares_memory(got, a)


def test_butterfly_steps_match_oracles_on_both_sides_of_the_short_run_rule():
    for t, fs in _short_run_cases():
        moebius = [naive_moebius(f) for f in fs]
        coeffs = _moebius_rows(t)
        assert _columns(coeffs) == moebius
        assert _columns(_walsh_rows(t)) == [naive_wht(f) for f in fs]
        # zeta undoes Moebius; the ANF is the Moebius table mod 2
        assert _columns(butterfly(coeffs, _subset_sum)) == _columns(t)
        anf = butterfly(t.copy(), _xor)
        assert _columns(anf) == [[c % 2 for c in cs] for cs in moebius]


def test_pointwise_sensitivity_matches_oracle_on_both_sides_of_the_short_run_rule():
    for t, fs in _short_run_cases():
        expect = [[naive_sensitivity(f, x) for x in range(2**f.n)] for f in fs]
        if t.ndim == 1:
            # one table: its slices' counts, and the level passes on it twice
            f = fs[0]
            assert [_slice_counts(_sensitivity_slices(f.bits, f.n), f.n).tolist()] == expect
            t, expect = np.stack([t, t], axis=1), expect * 2
        counts = _pointwise_sensitivity(t)
        assert counts.dtype == np.int8 and counts.shape == t.shape
        assert _columns(counts) == expect


# primes on both sides of the maxima of int8, int16 and int32
_RESIDUE_PRIMES = (2, 3, 127, 131, 32749, 32771, 2147483647, 2147483659)


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_residues_equal_python_mod_on_every_value(dtype):
    info = np.iinfo(dtype)
    values = np.arange(info.min, info.max + 1, dtype=dtype)
    for p in _RESIDUE_PRIMES:
        got = _residues(values, p)
        if p > info.max:
            assert got is values
        else:
            assert got.dtype == dtype
            assert got.tolist() == [v % p for v in values.tolist()], p


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_residues_equal_python_mod_at_the_extremes(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, info.max, 0, 1, -1], dtype=dtype)
    for p in _RESIDUE_PRIMES + (_P64,):
        got = _residues(values, p)
        if p > info.max:
            assert got is values
        else:
            assert got.dtype == dtype
            assert got.tolist() == [v % p for v in values.tolist()], p


def _int64_kernels(t):
    """Moebius and Walsh of a 0/1 table matrix in int64, by the bare
    butterfly, where no |value| comes near the type's bound."""
    wide = t.astype(np.int64)
    return butterfly(wide.copy(), _difference), butterfly(1 - 2 * wide, _walsh_step)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_int8_butterflies_equal_the_int64_kernels(n):
    # |Moebius| <= 2**(n-1) and |Walsh| <= 2**n fit int8 up to n = 6: every
    # function at n = 4; above, seeded columns beside the constants, whose
    # Walsh coefficient is 2**n, and parity, whose top Moebius one is 2**(n-1)
    if n == 4:
        t = table_matrix(4, range(1 << 16))
    else:
        rng = np.random.default_rng(50 + n)
        t = np.stack([TruthTable(n, random_table(rng, n)).to_array() for _ in range(64)], axis=1)
        t[:, 0], t[:, 1], t[:, 2] = 0, 1, parity(n).to_array()
    for kernel, wide in zip((_moebius_rows, _walsh_rows), _int64_kernels(t)):
        narrow = kernel(t)
        assert narrow.dtype == np.int8
        assert np.array_equal(narrow, wide), kernel.__name__


def _narrowest(bound):
    return next(d for d in (np.int8, np.int16, np.int32) if np.iinfo(d).max >= bound)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 13, 14, 15, 16])
def test_butterflies_take_the_narrowest_type_that_holds_their_bound(n):
    # |Moebius| <= 2**(n-1), reached by parity's top coefficient, and
    # |Walsh| <= 2**n, reached by the constants' coefficient at 0; one
    # table (from its packed bytes), its 0/1 vector and a matrix column all
    # give the oracles' values in the narrowest type that holds the bound
    rng = np.random.default_rng(70 + n)
    fs = [TruthTable(n, 0), TruthTable(n, table_mask(n)), parity(n),
          TruthTable(n, parity(n).bits ^ table_mask(n)),
          TruthTable(n, pack(rng.integers(0, 2, 2**n, dtype=np.uint8)))]
    t = np.stack([f.to_array() for f in fs], axis=1)
    # up to n = 8 every coefficient; above, the two ends and two seeded masks
    masks = range(2**n) if n <= 8 else [0, 2**n - 1, *rng.integers(1, 2**n - 1, 2).tolist()]
    kernels = ((_moebius_rows, naive_moebius_at, 2 ** (n - 1)), (_walsh_rows, naive_wht_at, 2**n))
    for (kernel, oracle, bound), wide in zip(kernels, _int64_kernels(t)):
        matrix = kernel(t)
        assert matrix.dtype == _narrowest(bound) and np.array_equal(matrix, wide)
        assert np.abs(wide).max() == bound
        for r, f in enumerate(fs):
            one, vector = kernel(f), kernel(f.to_array())
            assert one.dtype == vector.dtype == matrix.dtype
            assert np.array_equal(one, matrix[:, r]) and np.array_equal(vector, matrix[:, r])
            assert [one.item(s) for s in masks] == [oracle(f, s) for s in masks], kernel.__name__


@pytest.mark.parametrize("n, block_rows", [(16, 1), (19, None)], ids=["smallest", "default"])
def test_int32_butterflies_run_their_narrow_levels_block_by_block(monkeypatch, n, block_rows):
    # levels below 15 (Moebius) and 14 (Walsh) stay inside blocks of 2**15
    # rows: in the smallest blocks that allows (2 and 4 of them at n = 16)
    # and in the default ones (2 each at n = 19), one table (from
    # its packed bytes), its 0/1 vector and a matrix column equal the int64
    # butterflies
    if block_rows is not None:
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(90 + n)
    fs = [TruthTable(n, 0), parity(n), TruthTable(n, pack(rng.integers(0, 2, 2**n, dtype=np.uint8)))]
    t = np.stack([f.to_array() for f in fs], axis=1)
    for kernel, wide in zip((_moebius_rows, _walsh_rows), _int64_kernels(t)):
        matrix = kernel(t)
        assert matrix.dtype == np.int32 and np.array_equal(matrix, wide), kernel.__name__
        for r, f in enumerate(fs):
            for one in (kernel(f), kernel(f.to_array())):
                assert one.dtype == np.int32 and np.array_equal(one, matrix[:, r]), kernel.__name__


def test_int32_butterflies_hold_no_whole_int16_copy():
    # at n = 20 the kernels hold their int32 table, one block's int8 and
    # int16 levels (3 bytes a row) and the packed bytes, where a whole int16
    # copy beside the int32 table would add 2 bytes an entry
    n = 20
    f = TruthTable(n, pack(np.random.default_rng(91).integers(0, 2, 2**n, dtype=np.uint8)))
    vector = f.to_array()
    for kernel in (_moebius_rows, _walsh_rows):
        for t in (f, vector):
            tracemalloc.start()
            try:
                kernel(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**n + 4 * spectral._BLOCK_ROWS + 2**n // 8, kernel.__name__


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_residues_mod_2_equal_floor_mod_on_negative_entries(dtype):
    # c & 1 is c mod 2 on two's complement, the type's minimum included
    info = np.iinfo(dtype)
    values = np.array([info.min, info.min + 1, -128, -7, -2, -1, 0, 1, 2, info.max], dtype=dtype)
    got = _residues(values, 2)
    assert got.dtype == dtype
    assert got.tolist() == [v % 2 for v in values.tolist()]


def test_sparsities_equal_count_nonzero_in_value_and_dtype():
    # the counts are summed in a narrow unsigned type and cast back to
    # count_nonzero's intp; NOR's 2**8 Moebius coefficients are all nonzero,
    # one more than a uint8 accumulator holds
    nor = _moebius_rows(TruthTable(8, 1)).astype(np.int64)
    assert np.count_nonzero(nor) == 256
    t = table_matrix(4, range(1 << 16))
    rng = np.random.default_rng(52)
    cases = [nor, nor[:, None], _walsh_rows(t), _moebius_rows(t)]
    cases += [
        rng.integers(-2, 3, (2**k, 5)).astype(dtype)
        for k in (1, 6, 9)
        for dtype in (np.int8, np.int32, np.int64)
    ]
    cases.append(rng.integers(-1, 2, 2**9).astype(np.int32))
    for coeffs in cases:
        got, want = _sparsities(coeffs), np.count_nonzero(coeffs, axis=0)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)


def test_int32_holds_every_coefficient_up_to_max_arity():
    # |Moebius| <= 2**(n-1) and |Walsh| <= 2**n, partial sums included
    assert 2**MAX_ARITY <= np.iinfo(np.int32).max


@pytest.mark.parametrize("complement", [False, True])
def test_int32_degrees_and_sparsity_are_exact_at_the_extremes(complement):
    # parity's coefficients reach both bounds: |c_S| = 2**(|S|-1), |W| = 2**n
    n = 20
    f = parity(n)
    if complement:
        f = TruthTable(n, f.bits ^ table_mask(n))
    coeffs, walsh = moebius_coefficients(f), walsh_coefficients(f)
    assert coeffs.dtype == walsh.dtype == np.int64
    assert np.abs(coeffs).max() == 2 ** (n - 1) and np.abs(walsh).max() == 2**n

    def degree_and_monomial(c):
        support = np.flatnonzero(c)
        weights = np.bitwise_count(support)
        return int(weights.max()), int(support[np.argmax(weights == weights.max())])

    assert real_degree(f, witness=True) == degree_and_monomial(coeffs)
    for p in (2, 3, 5):
        assert modp_degree(f, p, witness=True) == degree_and_monomial(coeffs % p)
    value, rep = sparsity(f, witness=True)
    assert value == np.count_nonzero(walsh) == 1
    assert rep.basis == WALSH and rep.n == n
    assert rep.coeffs.dtype == np.int64
    assert np.array_equal(rep.coeffs, walsh)


def _every_function(n):
    return [TruthTable(n, bits) for bits in range(2 ** (2**n))]


def test_bulk_degrees_and_sparsity_match_oracles(bulk_n4_rows):
    def check(a, f):
        assert a["deg"][f.bits] == naive_degree(f)
        assert a["deg_2"][f.bits] == naive_modp_degree(f, 2)
        assert a["deg_3"][f.bits] == naive_modp_degree(f, 3)
        assert a["sparsity"][f.bits] == naive_sparsity(f)

    for n in range(4):
        a = measure_arrays(next(_bulk._columns(n)), n)
        for f in _every_function(n):
            check(a, f)
    rng = np.random.default_rng(43)
    sample = rng.integers(0, 2**16, 64)
    a = bulk_n4_rows(sample)
    for bits in sample:
        check(a, TruthTable(4, int(bits)))
