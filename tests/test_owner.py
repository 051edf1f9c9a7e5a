"""One owner of a function's measures (``measures._Measures``): every public
measure is the owner's entry in the report, the one ceiling rule, and the
arrays the owner builds once."""

import json

import numpy as np
import pytest

from boolfn import (
    ArityLimitError,
    TruthTable,
    alternation,
    block_sensitivity,
    certificate,
    dt_depth,
    measure_report,
    modp_degree,
    real_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
)
from boolfn import checks, cli, commlb, measures
from boolfn.families import and_, gip, maj, parity, rubinstein, tree_function
from boolfn.measures import DEFAULT_LIMITS, LatticeBudgetError, _Measures

from oracles import (
    naive_block_sensitivity,
    naive_certificate,
    naive_certificate_set,
    naive_lex_min_family,
    naive_sensitivity,
    random_table,
)

PRIMES = (2, 3)
# the public measure behind each entry of the report
PUBLIC = {
    "s": sensitivity,
    "bs": block_sensitivity,
    "C": certificate,
    "alt": alternation,
    "salt": shift_invariant_alternation,
    "deg": real_degree,
    **{f"deg_{p}": lambda f, witness, p=p: modp_degree(f, p, witness) for p in PRIMES},
    "sparsity": sparsity,
    "DT": dt_depth,
}


def _seeded(seed, arities, per):
    rng = np.random.default_rng(seed)
    return [TruthTable(n, random_table(rng, n)) for n in arities for _ in range(per)]


# the report workload's families, past the default ceilings of none of them
_FAMILIES = [tree_function(3), rubinstein(3, 3), gip(3, 3), maj(11)]


def _plain(witness):
    """A witness as comparable values: a spectrum as its coefficient list."""
    coeffs = getattr(witness, "coeffs", None)
    return witness if coeffs is None else (witness.basis, witness.n, coeffs.tolist())


@pytest.mark.parametrize("f", _seeded(460, range(11), 2) + _FAMILIES,
                         ids=lambda f: f"n{f.n}-{f.bits % 997}")
def test_each_public_measure_is_the_report_entry(f):
    witnessed = measure_report(f, PRIMES)
    plain = measure_report(f, PRIMES, witnesses=False)
    assert witnessed.measures == plain.measures and set(plain.measures) == set(PUBLIC)
    for name, measure in PUBLIC.items():
        assert measure(f, witness=False) == plain.measures[name], name
        value, witness = measure(f, witness=True)
        assert value == witnessed.measures[name], name
        assert _plain(witness) == _plain(witnessed.witnesses[name]), name


@pytest.mark.parametrize("f", _seeded(461, range(8), 2) + [tree_function(2), maj(5)],
                         ids=lambda f: f"n{f.n}-{f.bits % 997}")
def test_pointwise_s_bs_and_c_match_the_oracles(f):
    owner = _Measures(f, {})
    for x in range(2**f.n) if f.n <= 4 else (0, 5, 2**f.n - 1):
        s = naive_sensitivity(f, x)
        flips = sum(1 << i for i in range(f.n) if f.value_at(x ^ (1 << i)) != f.value_at(x))
        assert sensitivity(f, at=x, witness=True) == (s, (x, flips))
        assert owner.sensitivity(False, x) == s
        blocks = naive_lex_min_family(f, x)
        assert len(blocks) == naive_block_sensitivity(f, x)
        value, family = block_sensitivity(f, at=x, witness=True)
        assert (value, family.point, family.blocks) == (len(blocks), x, blocks)
        assert owner.block_sensitivity(False, x) == len(blocks)
        c = naive_certificate(f, x)
        assert certificate(f, at=x, witness=True) == (c, (x, naive_certificate_set(f, x)))
        assert owner.certificate(False, x) == c


def test_a_zero_limit_skips_each_ceilinged_measure_at_arity_one():
    f = TruthTable(1, 2)
    for name, measure in (("bs", block_sensitivity), ("salt", shift_invariant_alternation),
                          ("C", certificate), ("DT", dt_depth)):
        with pytest.raises(ArityLimitError) as exc:
            measure(f, limit=0)
        assert type(exc.value) is ArityLimitError
        assert (exc.value.measure, exc.value.arity, exc.value.limit) == (name, 1, 0)
    rep = measure_report(f, limits=dict.fromkeys(DEFAULT_LIMITS, 0))
    assert [(s["measure"], s["limit"]) for s in rep.skipped] == [
        ("bs", 0), ("C", 0), ("salt", 0), ("DT", 0)]
    assert rep.measures == {"s": 1, "alt": 1, "deg": 1, "deg_2": 1, "deg_3": 1, "sparsity": 1}


def test_the_byte_budget_skips_only_c_and_dt():
    # the subcube table's budget binds C and DT above n = 16, whatever the
    # limit; bs and salt read no subcube table, so their limits alone rule
    f = and_(17)
    assert block_sensitivity(f, limit=17) == 17
    assert shift_invariant_alternation(f, limit=17) == 1
    owner = _Measures(f, dict.fromkeys(DEFAULT_LIMITS, 17))
    assert owner._skip("bs") is None and owner._skip("salt") is None
    for name in ("C", "DT"):
        assert isinstance(owner._skip(name), LatticeBudgetError)
    # a missing or None limit is the default ceiling
    for limits in ({}, dict.fromkeys(DEFAULT_LIMITS)):
        skips = {name: _Measures(f, limits)._skip(name) for name in DEFAULT_LIMITS}
        assert {name: (e.arity, e.limit) for name, e in skips.items()} == {
            name: (17, ceiling) for name, ceiling in DEFAULT_LIMITS.items()}


def test_bound_summary_builds_one_moebius_table(monkeypatch):
    builds, moebius = [], measures._moebius_rows
    monkeypatch.setattr(measures, "_moebius_rows", lambda *a: builds.append(1) or moebius(*a))
    for f in (tree_function(3), rubinstein(3, 3), parity(6), TruthTable(5, 0)):
        builds.clear()
        summary = commlb.bound_summary(f, primes=(2, 3, 5))
        assert len(builds) == 1
        assert summary["deg"] == real_degree(f) and summary["DT"] == dt_depth(f)


def _packed_inputs(monkeypatch):
    """The input of every ``_bs_point`` packing from here on, in call order."""
    calls, bs_point = [], measures._bs_point
    monkeypatch.setattr(measures, "_bs_point", lambda f, a, w: calls.append(a) or bs_point(f, a, w))
    return calls


def test_an_owner_packs_each_input_once(monkeypatch):
    f = rubinstein(3, 3)
    want = {x: block_sensitivity(f, at=x, witness=True) for x in (0, 5)}
    calls, owner = _packed_inputs(monkeypatch), _Measures(f, {})
    for x in (5, 0, 5, 0):
        assert owner.block_sensitivity(True, x) == want[x]
    assert calls == [5, 0]


def test_function_record_packs_bs_at_zero_once(monkeypatch):
    # the search's best input on rubinstein(3,3) is 0, whose kept packing
    # gives bs(f,0) and its family
    calls = _packed_inputs(monkeypatch)
    vals, _, fams, _ = checks._function_record(rubinstein(3, 3), PRIMES, {})
    assert fams["bs"].point == 0 and fams["bs0"] == fams["bs"] and vals["bs0"] == vals["bs"]
    assert calls.count(0) == 1


def test_comm_packs_bs_at_zero_once(monkeypatch, capsys):
    # the certificate and the bound summary read one owner
    calls = _packed_inputs(monkeypatch)
    assert cli.main(["comm", "fam:ip:n=6", "--primes", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["bound_summary"]["bs_at_zero"] == 6
    assert calls == [0]


def test_salt_builds_the_direction_planes_once(monkeypatch):
    # the chain bound reads the planes off the search's own moves
    planes, bounds = [], []
    direction_planes, chain_bound = measures._direction_planes, measures._chain_bound
    monkeypatch.setattr(measures, "_direction_planes",
                        lambda *a: planes.append(1) or direction_planes(*a))
    monkeypatch.setattr(measures, "_chain_bound", lambda *a: bounds.append(1) or chain_bound(*a))
    assert shift_invariant_alternation(tree_function(3)) == 4
    assert (len(planes), len(bounds)) == (1, 1)
