import numpy as np
import pytest

from boolfn import (
    ArityLimitError,
    TruthTable,
    alt_to_s_linear,
    alternation,
    apply_affine,
    block_sensitivity,
    bs_to_s_affine,
    is_invertible,
    measures,
    sensitivity,
    sherstov_linear,
    sparsity,
    tt_parse,
)
from boolfn.families import and_, or_, parity, rubinstein, tree_function
from boolfn.transforms import (
    _alt2s_from_chain,
    _alt2s_rows,
    _block_rows,
    _bs2s_from_family,
    _sherstov_from_family,
    _sherstov_rows,
)

from oracles import (
    naive_alt2s,
    naive_and,
    naive_best_chain,
    naive_bs2s,
    naive_gip,
    naive_lex_min_family,
    naive_maj,
    naive_or,
    naive_parity,
    naive_rubinstein,
    naive_sherstov,
    naive_tree_function,
    random_table,
)


def _random_cases(seed, arities=(1, 2, 3, 4), per=5):
    rng = np.random.default_rng(seed)
    return [TruthTable(n, random_table(rng, n)) for n in arities for _ in range(per)]


# --- block transform ---------------------------------------------------------


def test_bs2s_two_quadratic_blocks():
    f = tt_parse("anf:4:x1 x2 + x3 x4")
    tr = bs_to_s_affine(f, 0)
    assert tr.certificate["block_sensitivity"] == 2
    assert tr.certificate["s_g_at_zero"] == 2
    assert tr.certificate["equality_holds"]
    # blocks {1,2} and {3,4} land on columns 1 and 2: g(y) = y1 XOR y2
    assert tr.map.columns == (0b0011, 0b1100, 0, 0)
    assert tr.g == tt_parse("anf:4:x1+x2")


def test_bs2s_or3_is_identity():
    tr = bs_to_s_affine(or_(3), 0)
    assert tr.map.columns == (0b001, 0b010, 0b100)
    assert tr.map.shift == 0
    assert tr.g == or_(3)
    assert tr.certificate["s_g_at_zero"] == 3


def test_bs2s_and2_single_block():
    tr = bs_to_s_affine(and_(2), 0)
    assert tr.certificate["blocks"] == (0b11,)
    assert tr.g == tt_parse("anf:2:x1")
    assert tr.certificate["s_g_at_zero"] == 1 == tr.certificate["block_sensitivity"]


def test_bs2s_equality_exhaustive_small():
    for n in (0, 1, 2, 3):
        for bits in range(1 << (1 << n)):
            f = TruthTable(n, bits)
            for a in (0, block_sensitivity(f, witness=True)[1].point):
                tr = bs_to_s_affine(f, a)
                assert tr.certificate["equality_holds"], (n, bits, a)


def test_bs2s_map_reproduces_g():
    for f in _random_cases(40):
        tr = bs_to_s_affine(f, 0)
        assert apply_affine(f, tr.map) == tr.g
        assert tr.map.shift == 0


def test_bs2s_nonzero_base_point():
    rng = np.random.default_rng(41)
    for f in _random_cases(42, arities=(3, 4), per=4):
        a = int(rng.integers(0, 2**f.n))
        tr = bs_to_s_affine(f, a)
        assert tr.map.shift == a
        assert tr.certificate["equality_holds"]


def test_bs2s_min_in_block_placement():
    f = tt_parse("anf:4:x1 x2 + x3 x4")
    tr = bs_to_s_affine(f, 0, placement="min-in-block")
    # block {1,2} sits on column 1, block {3,4} on column 3
    assert tr.map.columns == (0b0011, 0, 0b1100, 0)
    assert tr.certificate["equality_holds"]
    # g reads x1 on coordinates 1,2 and x3 on coordinates 3,4
    assert tr.g == tt_parse("anf:4:x1+x3")


def test_bs2s_substitution_record():
    f = tt_parse("anf:4:x1 x2 + x3 x4")
    tr = bs_to_s_affine(f, 0)
    # coordinates 1,2 read input 1; coordinates 3,4 read input 2; none constant
    assert tr.certificate["substitution"] == (1, 1, 2, 2)
    g = tt_parse("anf:3:x2 x3")  # block {2,3} at 0, coordinate 1 untouched
    tr2 = bs_to_s_affine(g, 0)
    assert tr2.certificate["substitution"] == (0, 1, 1)


def test_bs2s_respects_limit():
    with pytest.raises(ArityLimitError):
        bs_to_s_affine(rubinstein(4, 4), 0)
    tr = bs_to_s_affine(rubinstein(4, 4), 0, limit=16)
    assert tr.certificate["block_sensitivity"] == 8
    assert tr.certificate["equality_holds"]


# --- chain transform ---------------------------------------------------------


def test_alt2s_parity2():
    tr = alt_to_s_linear(parity(2))
    assert tr.certificate["alt"] == 2
    assert tr.certificate["chain"] == (0, 1, 3)
    assert tr.map.columns == (1, 3)
    assert tr.g == tt_parse("anf:2:x1")
    assert tr.certificate["holds"] and tr.certificate["invertible"]


def test_alt2s_constant():
    tr = alt_to_s_linear(TruthTable(3, 0))
    assert tr.certificate["alt"] == 0
    assert tr.certificate["holds"]
    assert tr.certificate["invertible"]


def test_alt2s_tree2():
    f = tree_function(2)
    tr = alt_to_s_linear(f)
    assert tr.certificate["alt"] >= 1
    assert tr.certificate["holds"]


def test_alt2s_exhaustive_small_and_random():
    for n in (0, 1, 2, 3):
        for bits in range(1 << (1 << n)):
            tr = alt_to_s_linear(TruthTable(n, bits))
            assert tr.certificate["holds"] and tr.certificate["invertible"]
    rng = np.random.default_rng(43)
    for n in (5, 8, 10):
        for _ in range(6):
            f = TruthTable(n, random_table(rng, n))
            tr = alt_to_s_linear(f)
            cert = tr.certificate
            assert cert["holds"] and cert["invertible"]
            assert cert["alt"] <= 2 * cert["s_g_at_zero"] + 1
            assert is_invertible(tr.map)


def test_alt2s_sparsity_invariance():
    for f in _random_cases(44, arities=(2, 3, 4), per=4) + [tree_function(3)]:
        tr = alt_to_s_linear(f)
        assert sparsity(tr.g) == sparsity(f)


def test_alt2s_map_reproduces_g():
    for f in _random_cases(45, per=3):
        tr = alt_to_s_linear(f)
        assert apply_affine(f, tr.map) == tr.g


# --- split-block transform ----------------------------------------------------


def test_sherstov_or3():
    tr = sherstov_linear(or_(3))
    cert = tr.certificate
    assert cert["z"] == 0
    assert cert["blocks"] == (0b001, 0b010, 0b100)
    assert cert["a_sets"] == (0b001, 0b010, 0b100)
    assert cert["b_sets"] == (0, 0, 0)
    assert cert["split_blocks"] == []
    assert tr.map.columns == (0b001, 0b010, 0b100)
    assert tr.g == or_(3)
    assert cert["s_g"] == 3


def test_sherstov_and2():
    # the pointwise-maximum input is 11 with singleton blocks, so the map is
    # the identity and g is the function itself
    tr = sherstov_linear(and_(2))
    cert = tr.certificate
    assert cert["z"] == 0b11
    assert cert["blocks"] == (0b01, 0b10)
    assert cert["a_sets"] == (0, 0)
    assert cert["b_sets"] == (0b01, 0b10)
    assert tr.map.columns == (0b01, 0b10)
    assert tr.g == and_(2)
    assert cert["s_g"] == 2
    assert cert["factor4_holds"]


def _check_column_cases(tr):
    """Recompute the four-case column definition from the certificate sets."""
    cert = tr.certificate
    n = tr.map.n
    union = 0
    for b in cert["blocks"]:
        union |= b
    expected = []
    for j in range(n):
        ej = 1 << j
        if not union & ej:
            expected.append(ej)
            continue
        col = 0
        for part_list in (cert["a_sets"], cert["b_sets"]):
            for part in part_list:
                if part and (part & -part).bit_length() - 1 == j:
                    col = part
        expected.append(col)
    return tuple(expected) == tr.map.columns


def test_sherstov_column_structure():
    for f in _random_cases(46) + [or_(3), and_(2), parity(3), tree_function(2)]:
        tr = sherstov_linear(f)
        assert _check_column_cases(tr)
        assert apply_affine(f, tr.map) == tr.g
        assert tr.certificate["s_g"] == sensitivity(tr.g)


def test_sherstov_split_block_case():
    # found by exhaustive scan: bs peaks at z = 1000 with family
    # ({1,2}, {3}, {4}), and block {1,2} splits into zero part {2}, one part {1}
    f = TruthTable(4, 283)
    cert = sherstov_linear(f).certificate
    assert cert["z"] == 0b0001
    assert cert["blocks"] == (0b0011, 0b0100, 0b1000)
    assert cert["split_blocks"] == [1]
    assert cert["a_sets"] == (0b0010, 0b0100, 0b1000)
    assert cert["b_sets"] == (0b0001, 0, 0)
    assert _check_column_cases(sherstov_linear(f))
    found = 0
    for bits in range(256, 512):  # deterministic stretch known to contain more
        c = sherstov_linear(TruthTable(4, bits)).certificate
        for i in c["split_blocks"]:
            assert c["a_sets"][i - 1] and c["b_sets"][i - 1]
            found += 1
    assert found > 0


def test_alternation_alt2s_interface_values():
    # frozen: the 7-variable depth-3 tree alternates at every chain step
    f = tree_function(3)
    assert alternation(f) == 7
    tr = alt_to_s_linear(f)
    assert tr.certificate["alt"] == 7
    assert tr.certificate["holds"]


# --- every field against the oracles -----------------------------------------


def _assert_transform(tr, want):
    """The map, g and the certificate against an oracle's (columns, shift,
    g, certificate): the same keys in the same order, and each field the
    same value of the same type, element types included."""
    columns, shift, g, cert = want
    assert (tr.map.columns, tr.map.shift, tr.g) == (columns, shift, g)
    assert list(tr.certificate) == list(cert)
    for key, value in cert.items():
        got = tr.certificate[key]
        assert got == value and (type(got), repr(got)) == (type(value), repr(value)), key


def _assert_oracle_transforms(f):
    """bs2s at every point under both placements, alt2s and sherstov, each
    on the oracle's lexicographically smallest family or chain; sherstov at
    the smallest input of the largest family."""
    fams = [naive_lex_min_family(f, x) for x in range(2**f.n)]
    for a, fam in enumerate(fams):
        for placement in ("block-index", "min-in-block"):
            _assert_transform(bs_to_s_affine(f, a, placement), naive_bs2s(f, a, fam, placement))
    _assert_transform(alt_to_s_linear(f), naive_alt2s(f, naive_best_chain(f)))
    z = max(range(2**f.n), key=lambda x: len(fams[x]))
    _assert_transform(sherstov_linear(f), naive_sherstov(f, z, fams[z]))


def test_transforms_match_oracles_every_function_to_n3():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            _assert_oracle_transforms(TruthTable(n, bits))


def test_transforms_match_oracles_seeded_and_families():
    # const(1, 3) has s(g) = 0, so its ratio is None
    cases = _random_cases(43, arities=(4, 5), per=20) + [
        naive_tree_function(2), naive_rubinstein(2, 2), naive_gip(2, 2), naive_maj(5),
        naive_parity(4), naive_and(4), naive_or(3), TruthTable(3, 0xFF),
    ]
    for f in cases:
        _assert_oracle_transforms(f)


def test_transforms_match_oracles_above_n6():
    # above n = 6 g is gathered by index, not read off packed lanes; the
    # families and chains are the library's own, every other field the oracle's
    rng = np.random.default_rng(43)
    cases = [TruthTable(n, random_table(rng, n)) for n in (7, 8, 9) for _ in range(2)]
    for f in cases + [tree_function(3), rubinstein(3, 3)]:
        _, fam0 = block_sensitivity(f, at=0, witness=True)
        _, fam = block_sensitivity(f, witness=True)
        for placement in ("block-index", "min-in-block"):
            for point, blocks in ((0, fam0.blocks), (fam.point, fam.blocks)):
                _assert_transform(bs_to_s_affine(f, point, placement),
                                  naive_bs2s(f, point, blocks, placement))
        _assert_transform(alt_to_s_linear(f), naive_alt2s(f, alternation(f, witness=True)[1].points))
        _assert_transform(sherstov_linear(f), naive_sherstov(f, fam.point, fam.blocks))


def test_one_function_transforms_unpack_no_table_up_to_n6(monkeypatch):
    # up to n = 6 a one-function construction reads g off f's lane, its
    # packed table, and never unpacks f; the results are the oracle's
    rng = np.random.default_rng(48)
    cases = [TruthTable(n, random_table(rng, n)) for n in range(7) for _ in range(2)]
    cases += [naive_maj(5), naive_tree_function(2), naive_parity(6), TruthTable(6, 0)]
    inputs, wants = [], []
    for f in cases:
        alt, chain = alternation(f, witness=True)
        _, fam0 = block_sensitivity(f, at=0, witness=True)
        _, fam = block_sensitivity(f, witness=True)
        inputs.append((f, alt, chain, fam0, fam))
        wants += [naive_bs2s(f, 0, fam0.blocks, "block-index"),
                  naive_bs2s(f, 0, fam0.blocks, "min-in-block"),
                  naive_bs2s(f, fam.point, fam.blocks, "block-index"),
                  naive_alt2s(f, chain.points),
                  naive_sherstov(f, fam.point, fam.blocks)]

    def no_unpack(self):
        raise AssertionError("a one-function transform unpacked f")

    with monkeypatch.context() as m:
        m.setattr(TruthTable, "to_array", no_unpack)
        got = []
        for f, alt, chain, fam0, fam in inputs:
            got += [_bs2s_from_family(f, fam0), _bs2s_from_family(f, fam0, "min-in-block"),
                    _bs2s_from_family(f, fam), _alt2s_from_chain(f, alt, chain),
                    _sherstov_from_family(f, fam)]
    for tr, want in zip(got, wants, strict=True):
        _assert_transform(tr, want)


def test_one_column_transforms_read_s_off_the_slices(monkeypatch):
    # a one-function transform reads s(g,0) and s(g) off g's bit-slices and
    # builds no per-point counts; two maps of f, whose tables g make a
    # two-column matrix, run the level passes, and both give the same values
    rng = np.random.default_rng(490)
    fs = [TruthTable(n, random_table(rng, n)) for n in range(10, 17)] + [tree_function(4)]
    cases = [(f, *alternation(f, witness=True), block_sensitivity(f, witness=True, limit=f.n)[1])
             for f in fs]

    def no_counts(*args):
        raise AssertionError("a one-column transform built per-point counts")

    for f, alt, chain, fam in cases:
        t = f.to_array()
        blocks = np.repeat(_block_rows(f.n, fam.blocks), 2, axis=0)
        twice = [_alt2s_rows(t, np.array([alt] * 2), np.array([chain.points] * 2)).cert,
                 _sherstov_rows(t, np.array([fam.point] * 2), blocks).cert]
        with monkeypatch.context() as m:
            m.setattr(measures, "_pointwise_sensitivity", no_counts)
            m.setattr(measures, "_slice_counts", no_counts)
            one = [_alt2s_from_chain(f, alt, chain).certificate,
                   _sherstov_from_family(f, fam).certificate]
        for key in ("s_g_at_zero", "s_g"):
            assert [one[0][key]] * 2 == twice[0][key].tolist(), (f.n, key)
        assert [one[1]["s_g"]] * 2 == twice[1]["s_g"].tolist(), f.n
