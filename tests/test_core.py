import numpy as np
import pytest

from boolfn import (
    AffineMap,
    FormatError,
    Restriction,
    TruthTable,
    apply_affine,
    is_invertible,
    restrict,
    shift,
    tt_parse,
    tt_serialize,
)
from boolfn._bitops import point_to_str
from boolfn.core import parse_point
from boolfn.families import and_, maj, or_, parity

from oracles import random_table


def test_evaluate_named_points():
    and2 = tt_parse("tt:2:8")
    assert and2.value_at(0b11) == 1
    assert and2.value_at(0b01) == 0
    p3 = parity(3)
    assert p3.value_at(0b101) == 0  # x1=1, x2=0, x3=1
    assert maj(3).value_at(0b011) == 1  # x1=1, x2=1, x3=0


def test_evaluate_range_check():
    with pytest.raises(ValueError):
        parity(2).value_at(4)


def test_apply_affine_identity_and_shift():
    rng = np.random.default_rng(1)
    for n in (0, 1, 3, 5):
        f = TruthTable(n, random_table(rng, n))
        assert apply_affine(f, AffineMap.identity(n)) == f
    # parity is invariant under an even-weight shift
    p2 = parity(2)
    assert apply_affine(p2, AffineMap.identity(2, shift=0b11)) == p2


def test_apply_affine_repeated_variable():
    and2 = tt_parse("tt:2:8")
    # A(x) = x1 * (1,1): both coordinates read x1, so g(x) = f(x1, x1) = x1
    a = AffineMap(2, (0b11, 0b00), 0)
    assert apply_affine(and2, a) == tt_parse("anf:2:x1")
    # with columns (e1, e1) the map is x -> ((x1 XOR x2), 0), a constant 0 for AND
    b = AffineMap(2, (0b01, 0b01), 0)
    assert apply_affine(and2, b) == TruthTable(2, 0)


def test_apply_affine_matches_pointwise_definition():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4, 6):
        f = TruthTable(n, random_table(rng, n))
        cols = tuple(int(rng.integers(0, 2**n)) for _ in range(n))
        b = int(rng.integers(0, 2**n))
        amap = AffineMap(n, cols, b)
        g = apply_affine(f, amap)
        for x in range(2**n):
            assert g.value_at(x) == f.value_at(amap.apply(x))


def test_affine_composition_law():
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        f = TruthTable(n, random_table(rng, n))
        for _ in range(3):
            a = AffineMap(n, tuple(int(rng.integers(0, 2**n)) for _ in range(n)),
                          int(rng.integers(0, 2**n)))
            b = AffineMap(n, tuple(int(rng.integers(0, 2**n)) for _ in range(n)),
                          int(rng.integers(0, 2**n)))
            assert apply_affine(f, a.compose(b)) == apply_affine(apply_affine(f, a), b)


def test_apply_affine_arity_mismatch():
    with pytest.raises(ValueError):
        apply_affine(parity(3), AffineMap.identity(2))


def test_shift_named_cases():
    and2 = tt_parse("tt:2:8")
    nor_view = shift(and2, 0b11)
    for x in range(4):
        assert nor_view.value_at(x) == and2.value_at(x ^ 0b11)
    assert nor_view.value_at(0) == 1
    p4 = parity(4)
    assert shift(p4, 0b0101) == p4  # even-weight shift
    assert shift(p4, 0b0001).bits == p4.bits ^ 0xFFFF  # odd-weight shift negates


def test_shift_involution():
    rng = np.random.default_rng(4)
    for n in (1, 3, 6):
        f = TruthTable(n, random_table(rng, n))
        b = int(rng.integers(0, 2**n))
        assert shift(shift(f, b), b) == f
        assert shift(f, 0) == f


def test_restrict_named_cases():
    m3 = maj(3)
    assert restrict(m3, Restriction(0b100, 0b100)) == or_(2)  # x3=1 makes a 2-bit OR
    assert restrict(m3, Restriction(0, 0)) == m3
    assert restrict(and_(3), Restriction(0b001, 0)) == TruthTable(2, 0)


def test_restrict_commutes_with_evaluate():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        f = TruthTable(n, random_table(rng, n))
        mask = int(rng.integers(0, 2**n))
        vals = int(rng.integers(0, 2**n)) & mask
        rho = Restriction(mask, vals)
        sub = restrict(f, rho)
        for y in range(2**sub.n):
            assert sub.value_at(y) == f.value_at(rho.embed(y, n))


def test_restriction_invariant():
    with pytest.raises(ValueError):
        Restriction(0b01, 0b10)


def test_is_invertible_named():
    assert is_invertible(AffineMap.identity(4))
    assert not is_invertible(AffineMap(2, (0, 0b11), 0))
    assert is_invertible(AffineMap(2, (0b11, 0b10), 0))


def test_is_invertible_matches_image_size():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            amap = AffineMap(n, tuple(int(rng.integers(0, 2**n)) for _ in range(n)), 0)
            image = {amap.apply_linear(x) for x in range(2**n)}
            assert is_invertible(amap) == (len(image) == 2**n)


def test_tt_format_named():
    assert tt_parse("tt:2:8") == and_(2)
    assert tt_parse("anf:2:x1+x2") == parity(2)
    assert tt_parse("anf:2:x1 x2") == and_(2)
    assert tt_parse("anf:2:x1*x2") == and_(2)
    assert tt_parse("anf:3:0") == TruthTable(3, 0)
    assert tt_parse("anf:2:1") == TruthTable(2, 0b1111)
    assert tt_serialize(and_(2)) == "tt:2:8"
    assert tt_serialize(parity(2), "anf") == "anf:2:x1+x2"
    assert tt_serialize(TruthTable(2, 0b1111), "anf") == "anf:2:1"
    assert tt_serialize(TruthTable(3, 0), "anf") == "anf:3:0"


def test_tt_roundtrip_random():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 4, 7):
        f = TruthTable(n, random_table(rng, n))
        assert tt_parse(tt_serialize(f)) == f
        assert tt_parse(tt_serialize(f, "anf")) == f


def test_tt_parse_errors():
    with pytest.raises(FormatError):
        tt_parse("tt:2:80")  # wrong hex length
    with pytest.raises(FormatError):
        tt_parse("anf:2:x3")  # unknown variable
    with pytest.raises(FormatError):
        tt_parse("anf:2:x1+")
    with pytest.raises(FormatError):
        tt_parse("bogus:2:8")
    with pytest.raises(ValueError):
        tt_parse("tt:30:ff")  # arity over the ceiling


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(1, 4)
    with pytest.raises(ValueError):
        TruthTable(-1, 0)
    assert TruthTable.from_values([0, 1, 1, 0]) == parity(2)
    with pytest.raises(ValueError):
        TruthTable.from_values([0, 1, 1])


def test_from_values_numpy_input_matches_list():
    rng = np.random.default_rng(3)
    for n in (0, 3, 7, 10):
        vals = rng.integers(0, 2, 2**n)
        f = TruthTable.from_values(vals.tolist())
        assert type(f.bits) is int
        for dtype in (np.int64, np.uint8, np.bool_):
            g = TruthTable.from_values(vals.astype(dtype))
            assert g == f and type(g.bits) is int
    assert TruthTable.from_values(np.ones(128, dtype=np.uint8)).bits == 2**128 - 1
    with pytest.raises(ValueError):
        TruthTable.from_values(np.array([0, 1, 2, 1]))
    with pytest.raises(ValueError):
        TruthTable.from_values(np.array([0, -1]))
    with pytest.raises(ValueError):
        TruthTable.from_values(np.ones(6, dtype=np.int64))


def test_relevant_variables():
    f = tt_parse("anf:3:x2")
    assert f.relevant_variables() == (1,)
    assert parity(3).relevant_variables() == (0, 1, 2)


def test_point_strings():
    assert parse_point("110", 3) == 0b011
    assert point_to_str(0b011, 3) == "110"
    with pytest.raises(ValueError):
        parse_point("10", 3)
    with pytest.raises(ValueError):
        parse_point("102", 3)
    # the arity-0 point prints as the empty string and parses back
    assert parse_point("", 0) == 0
    assert point_to_str(0, 0) == ""
    with pytest.raises(ValueError):
        parse_point("", 2)
