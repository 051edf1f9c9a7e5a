"""Property tests: measures under the symmetries that must leave them
unchanged, and the round trips of the text forms and the spectra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import (
    MOEBIUS_MOD_P,
    MOEBIUS_Z,
    WALSH,
    AffineMap,
    TruthTable,
    alternation_under_shifts,
    apply_affine,
    block_sensitivity,
    certificate,
    dt_depth,
    modp_degree,
    real_degree,
    sensitivity,
    shift,
    shift_invariant_alternation,
    sparsity,
    spectrum,
    tt_parse,
    tt_serialize,
)
from boolfn._bitops import table_mask

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def functions(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    return TruthTable(n, draw(st.integers(0, table_mask(n))))


@st.composite
def function_and_shift(draw):
    f = draw(functions())
    return f, draw(st.integers(0, 2**f.n - 1))


@PROPERTY_SETTINGS
@given(function_and_shift())
def test_salt_invariant_under_xor_shift(case):
    f, b = case
    assert shift_invariant_alternation(shift(f, b)) == shift_invariant_alternation(f)


@PROPERTY_SETTINGS
@given(functions())
def test_salt_invariant_under_complement(f):
    g = TruthTable(f.n, f.bits ^ table_mask(f.n))
    assert shift_invariant_alternation(g) == shift_invariant_alternation(f)


@PROPERTY_SETTINGS
@given(functions().flatmap(lambda f: st.tuples(st.just(f), st.permutations(range(f.n)))))
def test_salt_invariant_under_variable_permutation(case):
    f, perm = case
    g = apply_affine(f, AffineMap(f.n, tuple(1 << p for p in perm)))
    assert shift_invariant_alternation(g) == shift_invariant_alternation(f)


@PROPERTY_SETTINGS
@given(functions())
def test_alternation_symmetric_under_complemented_shift(f):
    alts = alternation_under_shifts(f)
    full = 2**f.n - 1
    assert all(alts[b] == alts[b ^ full] for b in range(2**f.n))


def _invariants(f):
    return (sensitivity(f), block_sensitivity(f), certificate(f), dt_depth(f), sparsity(f),
            real_degree(f), modp_degree(f, 2), modp_degree(f, 3))


@PROPERTY_SETTINGS
@given(function_and_shift())
def test_measures_invariant_under_xor_shift(case):
    f, b = case
    assert _invariants(shift(f, b)) == _invariants(f)


@PROPERTY_SETTINGS
@given(functions())
def test_measures_invariant_under_complement(f):
    g = TruthTable(f.n, f.bits ^ table_mask(f.n))
    assert _invariants(g) == _invariants(f)


@PROPERTY_SETTINGS
@given(functions().flatmap(lambda f: st.tuples(st.just(f), st.permutations(range(f.n)))))
def test_measures_invariant_under_variable_permutation(case):
    f, perm = case
    g = apply_affine(f, AffineMap(f.n, tuple(1 << p for p in perm)))
    assert _invariants(g) == _invariants(f)


@PROPERTY_SETTINGS
@given(functions(max_n=8), st.sampled_from(["tt", "anf"]))
def test_text_form_round_trip(f, form):
    assert tt_parse(tt_serialize(f, form)) == f


@PROPERTY_SETTINGS
@given(
    functions(max_n=8),
    st.sampled_from([(MOEBIUS_Z, None), (WALSH, None)])
    | st.sampled_from([2, 3, 5, 7, 11]).map(lambda p: (MOEBIUS_MOD_P, p)),
)
def test_spectrum_inverse_round_trip(f, basis_and_prime):
    basis, p = basis_and_prime
    assert spectrum(f, basis, p=p).inverse_table() == f
