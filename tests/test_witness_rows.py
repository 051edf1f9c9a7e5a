"""Every measure row's witness, as the report prints it, checked against the
brute-force oracles.

Each check reads the witness's JSON (``MeasureReport.to_json_dict``) and the
table alone, through ``oracles``: the value is the oracle's, the witness is
valid, and it is the one the tie-break picks (the smallest point, mask,
chain or shift).  So each check rejects every mutant of a printed witness:
a flipped bit of a point, a chain point or a shift, an index dropped from
or added to an index list, and a decision tree with one leaf flipped.
"""

from functools import cache

import numpy as np
import pytest
from oracles import (
    naive_best_chain,
    naive_block_sensitivity,
    naive_certificate,
    naive_certificate_set,
    naive_dt,
    naive_lex_min_family,
    naive_moebius,
    naive_sensitivity,
    naive_shift_alternations,
    naive_tree_verdict,
    naive_wht,
    random_table,
)

from boolfn import TruthTable, measure_report
from boolfn.families import maj, parity, rubinstein_row, tree_function
from boolfn.measures import _MEASURES, _measure


def _point(text: str) -> int:
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def _mask(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _indices(mask: int) -> list:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _smallest_argmax(values) -> int:
    return values.index(max(values))


@cache
def _pointwise(f, measure):
    return [measure(f, x) for x in range(2**f.n)]


def _check_s(f, name, value, w):
    x, values = _point(w["point"]), _pointwise(f, naive_sensitivity)
    flips = [i + 1 for i in range(f.n) if f.value_at(x ^ 1 << i) != f.value_at(x)]
    return value == max(values) and x == _smallest_argmax(values) and w["sensitive"] == flips


def _check_bs(f, name, value, w):
    x, values = _point(w["point"]), _pointwise(f, naive_block_sensitivity)
    return (value == max(values) and x == _smallest_argmax(values)
            and [_mask(b) for b in w["blocks"]] == list(naive_lex_min_family(f, x)))


def _check_c(f, name, value, w):
    x, values = _point(w["point"]), _pointwise(f, naive_certificate)
    return (value == max(values) and x == _smallest_argmax(values)
            and _mask(w["set"]) == naive_certificate_set(f, x))


def _check_alt(f, name, value, w):
    chain = naive_best_chain(f)
    changes = sum(f.value_at(a) != f.value_at(b) for a, b in zip(chain, chain[1:]))
    return value == changes and [_point(p) for p in w["chain"]] == list(chain)


def _check_salt(f, name, value, w):
    alts = naive_shift_alternations(f)
    return value == min(alts) and _point(w["shift"]) == alts.index(min(alts))


@cache
def _moebius(f):
    return naive_moebius(f)


def _check_deg(f, name, value, w):
    """deg, or deg_p from the name: the smallest monomial of the top degree
    with a coefficient that is nonzero (mod p); the empty monomial where
    every coefficient is zero."""
    p = int(name[4:]) if name != "deg" else None
    nonzero = [s for s, c in enumerate(_moebius(f)) if (c if p is None else c % p)]
    top = max((s.bit_count() for s in nonzero), default=0)
    first = min((s for s in nonzero if s.bit_count() == top), default=0)
    return value == top and w["monomial"] == _indices(first)


@cache
def _walsh_support(f):
    return [s for s, c in enumerate(naive_wht(f)) if c]


def _check_sparsity(f, name, value, w):
    support = _walsh_support(f)
    listed = [_indices(s) for s in support] if len(support) <= 64 else None
    return value == w["support_size"] == len(support) and w.get("support") == listed


def _check_dt(f, name, value, w):
    return value == naive_dt(f) and naive_tree_verdict(f, w["tree"], value)


# each measure row's witness check, by row name; deg's also checks deg_{p}
_WITNESS_CHECKS = {
    "s": _check_s,
    "bs": _check_bs,
    "C": _check_c,
    "alt": _check_alt,
    "salt": _check_salt,
    "deg": _check_deg,
    "sparsity": _check_sparsity,
    "DT": _check_dt,
}

# the rows whose oracles stay cheap up to n = 10
_CHEAP_ROWS = ("s", "deg", "sparsity")


def _flip(text: str, i: int) -> str:
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


def _index_mutants(indices, n):
    """The list with its first index dropped, and with the smallest missing one added."""
    if indices:
        yield indices[1:]
    missing = [i for i in range(1, n + 1) if i not in indices]
    if missing:
        yield sorted(indices + missing[:1])


def _first_leaf_flipped(tree):
    if "value" in tree:
        return {"value": 1 - tree["value"]}
    return {**tree, "low": _first_leaf_flipped(tree["low"])}


def _mutants(w: dict, n: int):
    """Each witness that one change makes of the JSON witness w."""
    for key, val in w.items():
        if key in ("point", "shift"):
            yield from ({**w, key: _flip(val, i)} for i in range(n))
        elif key in ("sensitive", "set", "monomial"):
            yield from ({**w, key: m} for m in _index_mutants(val, n))
        elif key in ("blocks", "support"):
            for j, entry in enumerate(val):
                yield from ({**w, key: val[:j] + [m] + val[j + 1:]}
                            for m in _index_mutants(entry, n))
        elif key == "support_size":
            yield {**w, key: val + 1}
        elif key == "chain":
            for j in range(1, len(val) - 1):
                yield from ({**w, key: val[:j] + [_flip(val[j], i)] + val[j + 1:]}
                            for i in range(n))
        elif key == "tree":
            yield {**w, key: _first_leaf_flipped(val)}
        else:
            raise AssertionError(f"no mutant for witness key {key!r}")


def _random(n, seed):
    return TruthTable(n, random_table(np.random.default_rng(seed), n))


# every row is checked on these; the random tables at n = 8 and 10 check
# the cheap rows alone
_FUNCTIONS = {
    **{f"random{n}": _random(n, 700 + n) for n in range(7)},
    "zero3": TruthTable(3, 0),
    "maj5": maj(5),
    "parity4": parity(4),
    "row4": rubinstein_row(4),
    "tree2": tree_function(2),
    "random8": _random(8, 708),
    "random10": _random(10, 710),
}


def test_every_measure_row_has_a_witness_check():
    assert [name for name in _MEASURES if name not in _WITNESS_CHECKS] == []


@pytest.mark.parametrize("label", list(_FUNCTIONS))
def test_report_witnesses_match_the_oracles_and_mutants_do_not(label):
    f = _FUNCTIONS[label]
    data = measure_report(f, primes=(2, 3, 5)).to_json_dict()
    rows = _MEASURES if f.n <= 6 else _CHEAP_ROWS
    checked = set()
    for name, w in data["witnesses"].items():
        row = _measure(name).name
        if row not in rows:
            continue
        check = _WITNESS_CHECKS[row]
        value = data["measures"][name]
        assert check(f, name, value, w), name
        for mutant in _mutants(w, f.n):
            assert not check(f, name, value, mutant), (name, mutant)
        checked.add(row)
    assert checked == set(rows)
