"""Generators for the named function families used throughout the test suites.

All generators return plain ``TruthTable`` values and are deterministic.
Each table is a numpy expression over the array of input indices (or, for
the sparse ones, the packed int itself); ``TruthTable.from_callable`` is for
callers' own per-input rules.  ``compose(outer, inners)`` is the one block
composition: ``rubinstein`` (OR of rows), ``or_compose`` and ``gip`` (XOR of
ANDs) are each one call of it.
The text grammar ``fam:<name>:<k>=<v>,...`` (for example ``fam:tree:k=3`` or
``fam:rubinstein:m=4,n=4``) builds the same functions from the command line.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_ARITY, FormatError, TruthTable
from ._bitops import pack, popcounts, table_mask, table_size

__all__ = [
    "tree_function",
    "rubinstein_row",
    "rubinstein",
    "compose",
    "or_compose",
    "gip",
    "ip",
    "maj",
    "parity",
    "and_",
    "or_",
    "const",
    "from_family_spec",
    "FAMILY_GRAMMAR",
]


def _guard_arity(n: int) -> None:
    if n > MAX_ARITY:
        raise ValueError(f"family arity {n} exceeds the table ceiling {MAX_ARITY}")
    if n < 0:
        raise ValueError("arity must be nonnegative")


def tree_function(k: int) -> TruthTable:
    """Depth-k full binary decision tree on 2**k - 1 variables.

    Internal nodes are labeled breadth-first (the root reads x1, its children
    x2 and x3, and so on); evaluation walks left on 0 and right on 1, and the
    output is the value of the last variable read.
    """
    if k < 1:
        raise ValueError("tree depth must be at least 1")
    n = (1 << k) - 1
    _guard_arity(n)
    x = np.arange(table_size(n), dtype=np.uint32)
    # every input reads exactly k nodes, one per level
    node = np.ones_like(x)
    for _ in range(k):
        value = (x >> (node - 1)) & 1
        node = 2 * node + value
    return TruthTable(n, pack(value))


def rubinstein_row(n: int) -> TruthTable:
    """1 iff the input is exactly one pair of ones starting at an odd position.

    Pairs that would overrun the row do not exist; on 3 variables the only
    accepting input sets variables 1 and 2.
    """
    if n < 1:
        raise ValueError("row length must be at least 1")
    _guard_arity(n)
    return TruthTable(n, sum(1 << (0b11 << i) for i in range(0, n - 1, 2)))


def compose(outer: TruthTable, inners) -> TruthTable:
    """h(x) = outer(g_1(block 1), ..., g_k(block k)), one inner per outer input.

    Block i holds the inputs of ``inners[i]``, above those of the blocks
    before it.
    """
    inners = list(inners)
    if len(inners) != outer.n:
        raise ValueError(f"the outer function takes {outer.n} inners, not {len(inners)}")
    total = sum(g.n for g in inners)
    _guard_arity(total)
    # each point's outer input, built block by block: the inputs of each new
    # block sit above those already placed, so its index is the major axis
    index = np.zeros(1, dtype=np.min_scalar_type(table_size(outer.n) - 1))
    for i, g in enumerate(inners):
        index = ((g.to_array().astype(index.dtype) << i)[:, None] | index[None, :]).reshape(-1)
    return TruthTable(total, pack(outer.to_array()[index]))


def or_compose(fs) -> TruthTable:
    """OR of variable-disjoint copies: block i holds the inputs of fs[i]."""
    return compose(or_(len(fs)), fs)


def rubinstein(m: int, n: int) -> TruthTable:
    """OR of m disjoint row detectors on n variables each (an m x n grid)."""
    if m < 1:
        raise ValueError("need at least one row")
    return compose(or_(m), [rubinstein_row(n)] * m)


def gip(n: int, k: int) -> TruthTable:
    """XOR of n disjoint k-wise ANDs; variable (i, j) sits at position (i-1)k + j."""
    if n < 1 or k < 1:
        raise ValueError("gip needs n, k >= 1")
    return compose(parity(n), [and_(k)] * n)


def ip(n: int) -> TruthTable:
    """Inner product mod 2 of (x1..xn, y1..yn) on 2n variables."""
    if n < 1:
        raise ValueError("ip needs n >= 1")
    _guard_arity(2 * n)
    z = np.arange(table_size(2 * n), dtype=np.uint32)
    # z >> n is y, so the AND keeps exactly the bits of x & y
    return TruthTable(2 * n, pack(np.bitwise_count(z & (z >> n)) & 1))


def maj(n: int) -> TruthTable:
    """1 iff at least ceil(n/2) inputs are 1."""
    if n < 1:
        raise ValueError("maj needs n >= 1")
    _guard_arity(n)
    return TruthTable(n, pack(popcounts(n) >= (n + 1) // 2))


def parity(n: int) -> TruthTable:
    _guard_arity(n)
    return TruthTable(n, pack(popcounts(n) & 1))


def and_(n: int) -> TruthTable:
    _guard_arity(n)
    return TruthTable(n, 1 << (table_size(n) - 1))


def or_(n: int) -> TruthTable:
    _guard_arity(n)
    return TruthTable(n, table_mask(n) ^ 1)


def const(b: int, n: int = 0) -> TruthTable:
    _guard_arity(n)
    if b not in (0, 1):
        raise ValueError("constant must be 0 or 1")
    return TruthTable(n, table_mask(n) if b else 0)


FAMILY_GRAMMAR = {
    "tree": (tree_function, ("k",)),
    "rubinstein": (rubinstein, ("m", "n")),
    "rubinstein_row": (rubinstein_row, ("n",)),
    "gip": (gip, ("n", "k")),
    "ip": (ip, ("n",)),
    "maj": (maj, ("n",)),
    "parity": (parity, ("n",)),
    "and": (and_, ("n",)),
    "or": (or_, ("n",)),
    "const": (const, ("b", "n")),
}


def from_family_spec(text: str) -> TruthTable:
    """Build a family member from ``fam:<name>:<params>`` text.

    Examples: ``fam:tree:k=3``, ``fam:rubinstein:m=4,n=4``,
    ``fam:gip:n=2,k=2``, ``fam:maj:n=5``, ``fam:const:b=0,n=2``.
    """
    parts = text.strip().split(":")
    if len(parts) != 3 or parts[0] != "fam":
        raise FormatError(f"family spec must look like fam:<name>:<params>: {text!r}")
    name, params = parts[1], parts[2]
    if name not in FAMILY_GRAMMAR:
        raise FormatError(
            f"unknown family {name!r}; known: {', '.join(sorted(FAMILY_GRAMMAR))}"
        )
    fn, argnames = FAMILY_GRAMMAR[name]
    kwargs = {}
    if params:
        for item in params.split(","):
            if "=" not in item:
                raise FormatError(f"bad family parameter {item!r} (expected k=v)")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in argnames:
                raise FormatError(f"family {name!r} takes {argnames}, not {key!r}")
            if key in kwargs:
                raise FormatError(f"family parameter {key!r} is given twice")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise FormatError(f"family parameter {key!r} must be an integer")
    required = [a for a in argnames if not (name == "const" and a == "n")]
    missing = [a for a in required if a not in kwargs]
    if missing:
        raise FormatError(f"family {name!r} is missing parameters {missing}")
    try:
        return fn(**kwargs)
    except ValueError as e:
        raise FormatError(str(e)) from e
