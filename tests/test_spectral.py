import numpy as np
import pytest

from boolfn import (
    MOEBIUS_MOD_P,
    MOEBIUS_Z,
    WALSH,
    TruthTable,
    modp_degree,
    moebius_coefficients,
    moebius_coefficients_mod,
    real_degree,
    sparsity,
    spectrum,
    walsh_coefficients,
)
from boolfn._bitops import MAX_ARITY, SHORT_RUN, butterfly, level_views, table_mask
from boolfn._bulk import _tables, measure_arrays
from boolfn.core import _xor
from boolfn.families import and_, maj, parity
from boolfn.measures import _pointwise_sensitivity
from boolfn.spectral import _moebius_rows, _subset_sum, _walsh_rows, is_prime

from oracles import (
    naive_degree,
    naive_modp_degree,
    naive_moebius,
    naive_sensitivity,
    naive_sparsity,
    naive_wht,
    random_table,
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


def test_modp_rejects_composite():
    with pytest.raises(ValueError):
        moebius_coefficients_mod(parity(2), 4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        modp_degree(parity(2), 4)


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


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


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
        coeffs = _moebius_rows(t, np.int32)
        assert _columns(coeffs) == moebius
        assert _columns(_walsh_rows(t, np.int32)) == [naive_wht(f) for f in fs]
        # zeta undoes Moebius; the ANF is the Moebius table mod 2
        assert _columns(butterfly(coeffs, _subset_sum)) == _columns(t)
        anf = butterfly(t.copy(), _xor)
        assert _columns(anf) == [[c % 2 for c in cs] for cs in moebius]


def test_pointwise_sensitivity_matches_oracle_on_both_sides_of_the_short_run_rule():
    for t, fs in _short_run_cases():
        counts = _pointwise_sensitivity(t)
        assert counts.dtype == np.int8 and counts.shape == t.shape
        expect = [[naive_sensitivity(f, x) for x in range(2**f.n)] for f in fs]
        assert _columns(counts) == expect


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
        a = measure_arrays(_tables(n, 0, 2 ** (2**n)))
        for f in _every_function(n):
            check(a, f)
    rng = np.random.default_rng(43)
    sample = rng.integers(0, 2**16, 64)
    a = bulk_n4_rows(sample)
    for bits in sample:
        check(a, TruthTable(4, int(bits)))
