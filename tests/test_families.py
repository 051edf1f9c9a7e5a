import numpy as np
import pytest

from boolfn import (
    MAX_ARITY,
    FormatError,
    TruthTable,
    alternation,
    modp_degree,
    real_degree,
    sensitivity,
    sparsity,
)
from boolfn.families import (
    and_,
    compose,
    const,
    from_family_spec,
    gip,
    ip,
    maj,
    or_,
    or_compose,
    parity,
    rubinstein,
    rubinstein_row,
    tree_function,
)

from oracles import (
    naive_and,
    naive_compose,
    naive_gip,
    naive_ip,
    naive_maj,
    naive_or,
    naive_parity,
    naive_rubinstein,
    naive_rubinstein_row,
    naive_tree_function,
    random_table,
)

# (grammar name, generator, per-input oracle, parameters), every parameter
# tuple with arity <= 12, then the largest tables the suites and the CLI use
_SMALL = 12
_ORACLE_CASES = (
    [("tree", tree_function, naive_tree_function, (k,)) for k in (1, 2, 3)]
    + [("rubinstein_row", rubinstein_row, naive_rubinstein_row, (n,)) for n in range(1, _SMALL + 1)]
    + [("rubinstein", rubinstein, naive_rubinstein, (m, n))
       for m in range(1, _SMALL + 1) for n in range(1, _SMALL // m + 1)]
    + [("gip", gip, naive_gip, (n, k))
       for n in range(1, _SMALL + 1) for k in range(1, _SMALL // n + 1)]
    + [("ip", ip, naive_ip, (n,)) for n in range(1, _SMALL // 2 + 1)]
    + [("maj", maj, naive_maj, (n,)) for n in range(1, _SMALL + 1)]
    + [(name, gen, oracle, (n,))
       for name, gen, oracle in (("parity", parity, naive_parity), ("and", and_, naive_and),
                                 ("or", or_, naive_or))
       for n in range(_SMALL + 1)]
    + [("ip", ip, naive_ip, (9,)), ("maj", maj, naive_maj, (17,)),
       ("tree", tree_function, naive_tree_function, (4,))]
)


def test_tree_function_small():
    assert tree_function(1) == TruthTable(1, 0b10)  # f(x1) = x1
    f2 = tree_function(2)
    # root reads x1: result is x3 when x1 = 1, else x2
    expect = TruthTable.from_callable(
        lambda x: (x >> 2) & 1 if x & 1 else (x >> 1) & 1, 3
    )
    assert f2 == expect


def test_tree_function_sensitivity_ceiling():
    for k in (1, 2, 3, 4):
        assert sensitivity(tree_function(k)) <= k


def test_tree_function_arity():
    for k in (1, 2, 3, 4):
        assert tree_function(k).n == 2**k - 1
    with pytest.raises(ValueError):
        tree_function(0)
    with pytest.raises(ValueError):
        tree_function(5)  # 31 variables exceeds the table ceiling


def test_rubinstein_row_tables():
    def reference(n):
        # 1 iff exactly one aligned pair of ones at an odd start, rest zero
        def val(x):
            pairs = [(0b11 << i) for i in range(0, n - 1, 2)]
            return 1 if any(x == p for p in pairs) else 0

        return TruthTable.from_callable(val, n)

    for n in (1, 2, 3, 4, 5, 6):
        assert rubinstein_row(n) == reference(n)
    h3 = rubinstein_row(3)
    assert [h3.value_at(x) for x in range(8)] == [0, 0, 0, 1, 0, 0, 0, 0]


def test_rubinstein_row_alternation():
    assert alternation(rubinstein_row(6)) == 2


def test_rubinstein_grid():
    f = rubinstein(2, 4)
    # OR of the two rows, disjoint variables
    h = rubinstein_row(4)
    for x in range(2**8):
        assert f.value_at(x) == (h.value_at(x & 0xF) | h.value_at(x >> 4))
    assert alternation(rubinstein(4, 4)) == 8


def test_or_compose():
    h3 = rubinstein_row(3)
    assert alternation(or_compose([h3, h3])) == 4
    assert or_compose([const(0, 2), const(0, 3)]) == const(0, 5)
    # monotone pieces violate the vanish-at-the-top hypothesis: the composed
    # function is monotone, its alternation is 1, and only <= survives
    both_and = or_compose([and_(2), and_(2)])
    assert alternation(both_and) == 1
    assert alternation(both_and) < alternation(and_(2)) * 2


def test_or_compose_mixed_arity_layout():
    rng = np.random.default_rng(50)
    f1 = TruthTable(2, random_table(rng, 2))
    f2 = TruthTable(3, random_table(rng, 3))
    comp = or_compose([f1, f2])
    assert comp.n == 5
    for x in range(2**5):
        assert comp.value_at(x) == (f1.value_at(x & 0b11) | f2.value_at(x >> 2))


def _random_function(rng, n):
    return TruthTable(n, random_table(rng, n))


def test_compose_matches_per_input_oracle():
    rng = np.random.default_rng(37)
    cases = 0
    while cases < 200:
        outer = _random_function(rng, int(rng.integers(0, 5)))
        arities = [int(a) for a in rng.integers(0, 4, size=outer.n)]
        if sum(arities) > 12:
            continue
        inners = [_random_function(rng, a) for a in arities]
        assert compose(outer, inners) == naive_compose(outer, inners), (outer, inners)
        cases += 1


def test_compose_of_single_variables_is_the_outer_function():
    x1 = TruthTable(1, 0b10)
    rng = np.random.default_rng(38)
    for f in [_random_function(rng, n) for n in range(6)] + [maj(5), gip(2, 3), const(1)]:
        assert compose(f, [x1] * f.n) == f


def test_compose_checks_its_arguments():
    assert or_compose([]) == const(0)
    with pytest.raises(ValueError, match="takes 2 inners, not 3"):
        compose(and_(2), [and_(1)] * 3)
    with pytest.raises(ValueError, match="takes 2 inners, not 1"):
        compose(and_(2), [and_(1)])
    with pytest.raises(ValueError, match="exceeds the table ceiling"):
        compose(and_(2), [and_(12), and_(13)])


def test_sort4_composed_with_itself():
    # Ambainis's sort function: 1 iff x1..x4 is sorted up or down
    sort4 = TruthTable(4, 0xD18B)
    h = compose(sort4, [sort4] * 4)
    assert h.n == 16
    assert sensitivity(h) == 4
    assert real_degree(h) == modp_degree(h, 2) == 4
    assert sparsity(h) == 64
    assert alternation(h) == 16


def test_gip_inner():
    g = gip(2, 2)
    for z in range(16):
        expect = (((z & 0b11) == 0b11) ^ ((z >> 2) == 0b11)) & 1
        assert g.value_at(z) == int(expect)
    assert modp_degree(g, 2) == 2
    assert modp_degree(gip(2, 3), 2) == 3


def test_ip():
    f = ip(2)
    assert f.value_at(0b1111) == 0  # (1,1).(1,1) = 2 = 0 mod 2
    for z in range(16):
        x, y = z & 0b11, z >> 2
        assert f.value_at(z) == (x & y).bit_count() % 2


def test_simple_families():
    assert maj(5).value_at(0b10101) == 1
    assert sensitivity(maj(5)) == 3
    assert parity(3) == TruthTable(3, 0x96)
    assert and_(2) == TruthTable(2, 0x8)
    assert or_(2) == TruthTable(2, 0xE)
    assert const(1, 2) == TruthTable(2, 0xF)
    assert const(0).n == 0


def test_family_spec_grammar():
    assert from_family_spec("fam:tree:k=3") == tree_function(3)
    assert from_family_spec("fam:rubinstein:m=4,n=4") == rubinstein(4, 4)
    assert from_family_spec("fam:gip:n=2,k=2") == gip(2, 2)
    assert from_family_spec("fam:maj:n=5") == maj(5)
    assert from_family_spec("fam:const:b=1") == const(1)
    assert from_family_spec("fam:const:b=0,n=2") == const(0, 2)


@pytest.mark.parametrize(
    "bad",
    [
        "fam:unknown:n=2",
        "fam:tree:n=3",          # wrong parameter name
        "fam:tree:",             # missing parameter
        "fam:maj:n=abc",
        "fam:maj",               # missing params section
        "fam:tree:k=9",          # arity overflow
        "fam:maj:n=3,n=5",       # repeated parameter
    ],
)
def test_family_spec_errors(bad):
    with pytest.raises(FormatError):
        from_family_spec(bad)


@pytest.mark.parametrize(
    "gen,oracle,params",
    [case[1:] for case in _ORACLE_CASES],
    ids=[f"{case[0]}{case[3]}" for case in _ORACLE_CASES],
)
def test_generator_matches_per_input_oracle(gen, oracle, params):
    assert gen(*params) == oracle(*params)


# the smallest parameters whose arity exceeds MAX_ARITY, with their grammar keys
_OVER_CEILING = [
    ("tree", tree_function, {"k": 5}),
    ("rubinstein_row", rubinstein_row, {"n": MAX_ARITY + 1}),
    ("rubinstein", rubinstein, {"m": 1, "n": MAX_ARITY + 1}),
    ("gip", gip, {"n": MAX_ARITY + 1, "k": 1}),
    ("ip", ip, {"n": (MAX_ARITY + 2) // 2}),
    ("maj", maj, {"n": MAX_ARITY + 1}),
    ("parity", parity, {"n": MAX_ARITY + 1}),
    ("and", and_, {"n": MAX_ARITY + 1}),
    ("or", or_, {"n": MAX_ARITY + 1}),
    ("const", const, {"b": 1, "n": MAX_ARITY + 1}),
]


@pytest.mark.parametrize("name,gen,params", _OVER_CEILING, ids=[c[0] for c in _OVER_CEILING])
def test_guard_runs_before_the_table_is_built(name, gen, params):
    # TruthTable's own arity check words its error differently, so this
    # message shows the family's guard rejected the arity first
    with pytest.raises(ValueError, match="exceeds the table ceiling"):
        gen(**params)
    spec = f"fam:{name}:" + ",".join(f"{k}={v}" for k, v in params.items())
    with pytest.raises(FormatError, match="exceeds the table ceiling"):
        from_family_spec(spec)
