import numpy as np
import pytest

from boolfn import (
    ArityLimitError,
    BlockFamily,
    Chain,
    TruthTable,
    alternation,
    alternation_under_shifts,
    block_sensitivity,
    certificate,
    dt_depth,
    measure_report,
    modp_degree,
    real_degree,
    sensitivity,
    shift,
    shift_invariant_alternation,
    sparsity,
    tt_parse,
    validate_block_family,
    validate_certificate_set,
    validate_chain,
    validate_decision_tree,
)
from boolfn.families import and_, gip, ip, maj, or_, parity, rubinstein, rubinstein_row, tree_function

from oracles import (
    naive_alternation,
    naive_best_chain,
    naive_block_sensitivity,
    naive_certificate,
    naive_degree,
    naive_dt,
    naive_modp_degree,
    naive_salt,
    naive_sensitivity,
    naive_sparsity,
    naive_tree_verdict,
    random_table,
)


def _random_cases(seed, arities=(1, 2, 3, 4), per=6):
    rng = np.random.default_rng(seed)
    return [TruthTable(n, random_table(rng, n)) for n in arities for _ in range(per)]


# --- sensitivity -----------------------------------------------------------


def test_sensitivity_named():
    assert sensitivity(or_(3), at=0) == 3
    for n in range(1, 7):
        assert sensitivity(parity(n)) == n
    assert sensitivity(maj(3)) == 2


def test_sensitivity_matches_oracle():
    for f in _random_cases(20):
        assert sensitivity(f) == naive_sensitivity(f)
        for a in range(2**f.n):
            assert sensitivity(f, at=a) == naive_sensitivity(f, a)


def test_sensitivity_witness():
    val, (point, mask) = sensitivity(maj(3), witness=True)
    assert val == 2
    assert mask.bit_count() == 2
    for i in range(3):
        if (mask >> i) & 1:
            assert maj(3).value_at(point ^ (1 << i)) != maj(3).value_at(point)


# --- block sensitivity -----------------------------------------------------


def test_block_sensitivity_named():
    assert block_sensitivity(or_(3), at=0) == 3
    f = tt_parse("anf:4:x1 x2 + x3 x4")
    val, fam = block_sensitivity(f, at=0, witness=True)
    assert val == 2
    assert fam.blocks == (0b0011, 0b1100)
    assert validate_block_family(f, fam)


def test_block_sensitivity_matches_oracle():
    for f in _random_cases(21):
        assert block_sensitivity(f) == naive_block_sensitivity(f)
        for a in range(2**f.n):
            assert block_sensitivity(f, at=a) == naive_block_sensitivity(f, a)


def test_block_sensitivity_limit():
    f = rubinstein(4, 4)
    with pytest.raises(ArityLimitError):
        block_sensitivity(f, at=0)
    assert block_sensitivity(f, at=0, limit=16) == 8


def test_block_sensitivity_global_witness_is_lex_min_argmax():
    rng = np.random.default_rng(23)
    for _ in range(8):
        f = TruthTable(3, random_table(rng, 3))
        val, fam = block_sensitivity(f, witness=True)
        firsts = [a for a in range(8) if block_sensitivity(f, at=a) == val]
        assert fam.point == firsts[0]
        assert validate_block_family(f, fam)


# --- certificate -----------------------------------------------------------


def test_certificate_named():
    for n in (2, 3, 4):
        assert certificate(and_(n), at=2**n - 1) == n
    assert certificate(or_(3), at=0) == 3
    val, (point, mask) = certificate(maj(3), at=0b011, witness=True)
    assert val == 2
    assert mask == 0b011  # fixing x1 = x2 = 1 pins the majority
    assert validate_certificate_set(maj(3), point, mask)


def test_certificate_matches_oracle():
    for f in _random_cases(24):
        assert certificate(f) == naive_certificate(f)
        for a in range(2**f.n):
            assert certificate(f, at=a) == naive_certificate(f, a)


def test_certificate_witness_validates():
    for f in _random_cases(25, per=3):
        val, (point, mask) = certificate(f, witness=True)
        assert mask.bit_count() == val
        assert validate_certificate_set(f, point, mask)


# --- alternation -----------------------------------------------------------


def test_alternation_named():
    assert alternation(maj(3)) == 1
    assert alternation(maj(5)) == 1
    for n in range(1, 6):
        assert alternation(parity(n)) == n
    assert alternation(rubinstein_row(6)) == 2


def test_alternation_matches_oracle():
    for f in _random_cases(26, arities=(1, 2, 3, 4), per=5):
        assert alternation(f) == naive_alternation(f)


def test_alternation_witness_is_lex_min_chain():
    for f in _random_cases(27, arities=(2, 3, 4), per=4):
        val, ch = alternation(f, witness=True)
        assert validate_chain(f, ch, val)
        assert ch.points == naive_best_chain(f)


def test_alternation_under_shifts_matches_direct():
    rng = np.random.default_rng(28)
    for n in (1, 2, 3):
        f = TruthTable(n, random_table(rng, n))
        alts = alternation_under_shifts(f)
        for b in range(2**n):
            assert alts[b] == alternation(shift(f, b))


# --- shift-invariant alternation ------------------------------------------


def test_salt_named():
    assert shift_invariant_alternation(parity(3)) == 3
    assert shift_invariant_alternation(and_(2)) == 1
    assert shift_invariant_alternation(tree_function(3)) >= 2


def test_salt_matches_oracle():
    for f in _random_cases(29, arities=(1, 2, 3), per=5):
        assert shift_invariant_alternation(f) == naive_salt(f)


def test_salt_witness_achieves_minimum():
    for f in _random_cases(30, arities=(2, 3, 4), per=3):
        val, b = shift_invariant_alternation(f, witness=True)
        assert alternation(shift(f, b)) == val


def test_salt_limit():
    with pytest.raises(ArityLimitError):
        shift_invariant_alternation(rubinstein(4, 4))


# --- degrees and sparsity ---------------------------------------------------


def test_degree_named():
    assert real_degree(maj(3)) == 3
    for n in (2, 4):
        assert real_degree(parity(n)) == n
        assert modp_degree(parity(n), 2) == 1
    assert modp_degree(parity(4), 3) == 4
    assert modp_degree(gip(2, 2), 2) == 2
    # a prime above int32's maximum divides no coefficient of the int32 table
    big = 2147483659
    assert modp_degree(maj(5), big, witness=True) == real_degree(maj(5), witness=True) == (5, 0b11111)


def test_degree_matches_oracle():
    for f in _random_cases(31):
        assert real_degree(f) == naive_degree(f)
        for p in (2, 3):
            assert modp_degree(f, p) == naive_modp_degree(f, p)


def test_degree_witness_is_max_monomial():
    f = maj(3)
    deg, mask = real_degree(f, witness=True)
    assert deg == 3 and mask == 0b111


def test_sparsity_named():
    for n in (1, 3, 5):
        assert sparsity(parity(n)) == 1
    assert sparsity(TruthTable(3, 0)) == 1
    assert sparsity(and_(2)) == 4


def test_sparsity_matches_oracle():
    for f in _random_cases(32):
        assert sparsity(f) == naive_sparsity(f)


# --- decision-tree depth ----------------------------------------------------


def test_dt_named():
    for n in (1, 3, 5):
        assert dt_depth(parity(n)) == n
        assert dt_depth(and_(n)) == n
    assert dt_depth(maj(3)) == 3


def test_dt_matches_oracle():
    for f in _random_cases(33, per=4):
        assert dt_depth(f) == naive_dt(f)


def test_dt_above_table_floor_matches_oracle():
    rng = np.random.default_rng(34)
    for _ in range(3):
        f = TruthTable(5, random_table(rng, 5))
        assert dt_depth(f) == naive_dt(f)


def test_dt_witness_tree_validates():
    for f in _random_cases(35, arities=(2, 3, 4), per=3) + [maj(3), parity(4)]:
        val, tree = dt_depth(f, witness=True)
        assert validate_decision_tree(f, tree, val)


def test_dt_limit():
    with pytest.raises(ArityLimitError):
        dt_depth(rubinstein(4, 4))
    assert dt_depth(parity(5), limit=5) == 5


# --- pointwise/global consistency ------------------------------------------


def test_global_equals_extreme_of_pointwise():
    rng = np.random.default_rng(36)
    for n in (2, 4, 6):
        f = TruthTable(n, random_table(rng, n))
        assert sensitivity(f) == max(sensitivity(f, at=a) for a in range(2**n))
        assert block_sensitivity(f) == max(block_sensitivity(f, at=a) for a in range(2**n))
        assert certificate(f) == max(certificate(f, at=a) for a in range(2**n))
        alts = alternation_under_shifts(f)
        assert shift_invariant_alternation(f) == int(alts.min())


# --- combined report ---------------------------------------------------------


def test_measure_report_parity4():
    rep = measure_report(parity(4))
    assert rep.measures == {
        "s": 4, "bs": 4, "C": 4, "alt": 4, "salt": 4,
        "deg": 4, "deg_2": 1, "deg_3": 4, "sparsity": 1, "DT": 4,
    }
    data = rep.to_json_dict()
    assert set(data) == {"function", "arity", "measures", "witnesses", "skipped"}
    assert data["function"] == "tt:4:6996"
    assert data["skipped"] == []
    assert data["witnesses"]["deg_2"]["monomial"] in ([1], [2], [3], [4])


@pytest.mark.parametrize("f", [ip(4), parity(4)], ids=["ip4", "parity4"])
def test_report_support_size_is_the_sparsity(f):
    rep = measure_report(f)
    entry = rep.to_json_dict()["witnesses"]["sparsity"]
    assert entry["support_size"] == rep.measures["sparsity"] == naive_sparsity(f)
    # the support list is written out only for a small spectrum
    assert ("support" in entry) == (entry["support_size"] <= 64)
    if "support" in entry:
        assert len(entry["support"]) == entry["support_size"]


def test_measure_report_constant():
    rep = measure_report(TruthTable(3, 0))
    m = rep.measures
    assert (m["s"], m["bs"], m["C"], m["alt"], m["salt"], m["deg"], m["DT"]) == (0,) * 7
    assert m["sparsity"] == 1


def test_measure_report_maj3():
    m = measure_report(maj(3)).measures
    assert m["s"] == 2 and m["bs"] == 2 and m["C"] == 2
    assert m["alt"] == 1 and m["DT"] == 3 and m["deg"] == 3


def test_measure_report_skips_are_explicit():
    rep = measure_report(rubinstein(4, 4))
    skipped = {s["measure"] for s in rep.skipped}
    assert skipped == {"bs", "C", "salt", "DT"}
    assert all("exceeds limit" in s["reason"] for s in rep.skipped)
    assert rep.measures["alt"] == 8
    # explicit limits unlock the skipped measures
    rep2 = measure_report(rubinstein(2, 4), limits={"bs": 8, "C": 8, "salt": 8, "DT": 8})
    assert rep2.skipped == []


def test_measure_report_witnesses_validate():
    for f in [maj(3), parity(3)] + _random_cases(37, arities=(3,), per=4):
        rep = measure_report(f)
        assert validate_block_family(f, rep.witnesses["bs"])
        point, mask = rep.witnesses["C"]
        assert validate_certificate_set(f, point, mask)
        assert validate_chain(f, rep.witnesses["alt"], rep.measures["alt"])
        assert validate_decision_tree(f, rep.witnesses["DT"], rep.measures["DT"])
        assert alternation(shift(f, rep.witnesses["salt"])) == rep.measures["salt"]
        assert rep.witnesses["sparsity"].inverse_table() == f


# maj(3) is 0 at 000: the block 011 flips it there and 100 does not
@pytest.mark.parametrize("blocks", [(0,), (0b011, 0b110), (0b1011,), (0b100,), (0b011, 0b100)])
def test_validate_block_family_rejects_bad_blocks(blocks):
    # a zero, overlapping, out-of-range or non-flipping block
    assert validate_block_family(maj(3), BlockFamily(0, (0b011,)))
    assert not validate_block_family(maj(3), BlockFamily(0, blocks))


def test_validate_certificate_set_rejects_a_non_constant_subcube():
    assert validate_certificate_set(maj(3), 0, 0b011)
    assert not validate_certificate_set(maj(3), 0, 0b001)  # 110 lies in it
    assert not validate_certificate_set(maj(3), 0, 0)


@pytest.mark.parametrize("points,claimed", [
    ((0, 1, 7), 1),  # too short
    ((1, 3, 7, 7), 1),  # starts off 0
    ((0, 1, 3, 3), 1),  # ends off 1^n
    ((0, 3, 7, 7), 1),  # a two-bit step
    ((0, 1, 3, 7), 2),  # the wrong count
])
def test_validate_chain_rejects_bad_chains(points, claimed):
    assert validate_chain(maj(3), Chain((0, 1, 3, 7)), 1)
    assert not validate_chain(maj(3), Chain(points), claimed)


def _requery(tree):
    """The same function, each leaf behind one more query of x1."""
    if "value" in tree:
        return {"var": 1, "low": tree, "high": tree}
    return {**tree, "low": _requery(tree["low"]), "high": _requery(tree["high"])}


_MAJ3_TREE = {"var": 1,
              "low": {"var": 2, "low": {"value": 0},
                      "high": {"var": 3, "low": {"value": 0}, "high": {"value": 1}}},
              "high": {"var": 2, "low": {"var": 3, "low": {"value": 0}, "high": {"value": 1}},
                       "high": {"value": 1}}}
_LEAVES = {"low": {"value": 0}, "high": {"value": 1}}
# x2 AND x3, shared by two parents of maj(3)'s tree: below x1 = 0 its paths
# make 3 queries, and below the repeated query of x1 at x1 = x2 = 1, a slot
# no input reaches, they would make 5
_SHARED = {"var": 2, "low": {"value": 0}, "high": {"var": 3, **_LEAVES}}
_SHARED_OVER_N = {"var": 1, "low": _SHARED,
                  "high": {"var": 2, "low": {"var": 3, **_LEAVES},
                           "high": {"var": 1, "low": _SHARED, "high": {"value": 1}}}}


# each validator returns False, rather than True or an exception, on a
# witness that does not fit maj(3): a point off the cube, a block or fixed
# mask that is negative or has a bit at or above n, a malformed tree node, or
# a tree path of more than n queries
@pytest.mark.parametrize("validate,args", [
    (validate_block_family, (BlockFamily(8, (0b011,)),)),
    (validate_block_family, (BlockFamily(-1, (0b011,)),)),
    (validate_block_family, (BlockFamily(0, (-0b100,)),)),
    (validate_certificate_set, (8, 0b111)),
    (validate_certificate_set, (-1, 0b111)),
    (validate_certificate_set, (7, 0b1111)),
    (validate_certificate_set, (7, -1)),
    (validate_decision_tree, ({"var": 0, **_LEAVES}, 1)),
    (validate_decision_tree, ({"var": 4, "low": _MAJ3_TREE, "high": _MAJ3_TREE}, 4)),
    (validate_decision_tree, ({"var": 1, "low": {"value": 0}}, 1)),
    (validate_decision_tree, ({"var": 1, "low": 0, "high": 1}, 1)),
    (validate_decision_tree, ({"var": 1, "low": {"value": 2}, "high": {"value": 1}}, 1)),
    (validate_decision_tree, ({**_MAJ3_TREE, "value": 0}, 3)),
    (validate_decision_tree, (_requery(_MAJ3_TREE), 4)),
    (validate_decision_tree, (_SHARED_OVER_N, 3)),
], ids=[
    "bs-point-past-2^n", "bs-negative-point", "bs-negative-block",
    "C-point-past-2^n", "C-negative-point", "C-mask-bit-n", "C-negative-mask",
    "DT-var-0", "DT-var-n+1", "DT-no-high", "DT-non-dict-node", "DT-leaf-2", "DT-extra-key",
    "DT-path-over-n", "DT-shared-subtree-over-n",
])
def test_validators_reject_malformed_witnesses(validate, args):
    assert validate_decision_tree(maj(3), _MAJ3_TREE, 3)
    assert not validate(maj(3), *args)


def _flip_first_leaf(tree):
    if "value" in tree:
        return {"value": 1 - tree["value"]}
    return {**tree, "low": _flip_first_leaf(tree["low"])}


def _unshared(tree):
    """A copy of a witness DAG with no shared node, so that changing one
    node changes one path."""
    if "value" in tree:
        return dict(tree)
    return {"var": tree["var"], "low": _unshared(tree["low"]), "high": _unshared(tree["high"])}


def _mutants(tree, n):
    """Copies of ``tree`` that differ at one node: a leaf flipped, a query's
    variable renumbered, or a query's two subtrees swapped, at every node."""
    tree = _unshared(tree)
    nodes = [tree]
    for node in nodes:
        if "var" in node:
            nodes += [node["low"], node["high"]]
    for node in nodes:
        saved = dict(node)
        if "value" in node:
            node["value"] ^= 1
            yield _unshared(tree)
        else:
            for var in range(1, n + 1):
                if var != saved["var"]:
                    node["var"] = var
                    yield _unshared(tree)
            node.update(var=saved["var"], low=saved["high"], high=saved["low"])
            yield _unshared(tree)
        node.clear()
        node.update(saved)


def test_validate_decision_tree_matches_a_per_input_walk_on_mutants():
    rng = np.random.default_rng(41)
    cases = [TruthTable(n, random_table(rng, n)) for n in (3, 4, 5, 6) for _ in range(2)]
    rejected = 0
    for f in cases + [maj(5), tree_function(2), rubinstein(2, 3)]:
        depth, tree = dt_depth(f, witness=True)
        assert validate_decision_tree(f, tree, depth)
        for mutant in _mutants(tree, f.n):
            want = naive_tree_verdict(f, mutant, depth)
            assert validate_decision_tree(f, mutant, depth) == want
            rejected += not want
    assert rejected > 1000


def test_validate_decision_tree_rejects_a_wrong_leaf_or_depth():
    depth, tree = dt_depth(maj(3), witness=True)
    assert validate_decision_tree(maj(3), tree, depth)
    assert not validate_decision_tree(maj(3), _flip_first_leaf(tree), depth)
    assert not validate_decision_tree(maj(3), {"value": 0}, 0)
    for claimed in (depth - 1, depth + 1):
        assert not validate_decision_tree(maj(3), tree, claimed)
