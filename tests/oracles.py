"""Brute-force reference implementations used to pin expected test values.

Everything here works from single-point evaluation only (``TruthTable.value_at``),
by direct enumeration over points, blocks, subsets, chains, or characters, so
these oracles share no algorithmic path with the library code they check.
Only usable at small arity.  The ``naive_*`` family definitions at the end
state each named family one input at a time, tabulated by
``TruthTable.from_callable``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from boolfn import TruthTable


def naive_sensitivity(f, a=None):
    n = f.n
    if a is not None:
        return sum(1 for i in range(n) if f.value_at(a ^ (1 << i)) != f.value_at(a))
    return max(naive_sensitivity(f, a) for a in range(2**n)) if n else 0


def naive_block_sensitivity(f, a=None):
    n = f.n
    if a is None:
        return max(naive_block_sensitivity(f, x) for x in range(2**n)) if n else 0
    blocks = [b for b in range(1, 2**n) if f.value_at(a ^ b) != f.value_at(a)]

    def best(chosen_union, start):
        out = 0
        for i in range(start, len(blocks)):
            if blocks[i] & chosen_union == 0:
                out = max(out, 1 + best(chosen_union | blocks[i], i + 1))
        return out

    return best(0, 0)


def naive_certificate(f, a=None):
    n = f.n
    if a is None:
        return max(naive_certificate(f, x) for x in range(2**n)) if n else 0
    for size in range(n + 1):
        for fixed in combinations(range(n), size):
            free = [i for i in range(n) if i not in fixed]
            base = None
            constant = True
            for y in range(2 ** len(free)):
                x = a & sum(1 << i for i in fixed)
                for j, i in enumerate(free):
                    if (y >> j) & 1:
                        x |= 1 << i
                v = f.value_at(x)
                if base is None:
                    base = v
                elif v != base:
                    constant = False
                    break
            if constant:
                return size
    raise AssertionError("unreachable")


def naive_certificate_set(f, a):
    """Smallest mask among the smallest sets of variables that, fixed as in
    ``a``, make f constant."""
    n = f.n
    for mask in sorted(range(2**n), key=lambda m: (m.bit_count(), m)):
        values = {f.value_at((a & mask) | (y & ~mask)) for y in range(2**n)}
        if len(values) == 1:
            return mask
    raise AssertionError("unreachable")


def chain_points(order):
    pts = [0]
    x = 0
    for i in order:
        x |= 1 << i
        pts.append(x)
    return pts


def naive_alternation(f):
    n = f.n
    if n == 0:
        return 0
    best = 0
    for order in permutations(range(n)):
        pts = chain_points(order)
        best = max(best, sum(f.value_at(a) != f.value_at(b) for a, b in zip(pts, pts[1:])))
    return best


def naive_best_chain(f):
    """Lexicographically smallest maximum-alternation chain."""
    n = f.n
    best_alt = naive_alternation(f)
    best = None
    for order in permutations(range(n)):
        pts = tuple(chain_points(order))
        alt = sum(f.value_at(a) != f.value_at(b) for a, b in zip(pts, pts[1:]))
        if alt == best_alt and (best is None or pts < best):
            best = pts
    return best


def naive_path_maxima(f):
    """Most value changes along a monotone path from x up to 1^n, for every
    x, by a memoized recursion over the single steps up from x."""
    n = f.n

    @lru_cache(maxsize=None)
    def down(x):
        return max(
            (down(y) + (f.value_at(x) != f.value_at(y))
             for y in (x | (1 << i) for i in range(n) if not (x >> i) & 1)),
            default=0,
        )

    return [down(x) for x in range(2**n)]


def naive_salt(f):
    n = f.n
    best = None
    for b in range(2**n):
        shifted = _shifted(f, b)
        alt = naive_alternation(shifted)
        if best is None or alt < best:
            best = alt
    return best


def naive_shift_alternations(f):
    """alt(x -> f(x XOR b)) for every shift b, by brute force over chains."""
    return [naive_alternation(_shifted(f, b)) for b in range(2**f.n)]


class _PointFn:
    """Minimal function-like wrapper so oracles can feed each other."""

    def __init__(self, n, fn):
        self.n = n
        self._fn = fn

    def value_at(self, x):
        return self._fn(x)


def _shifted(f, b):
    return _PointFn(f.n, lambda x: f.value_at(x ^ b))


def restrict(f, fixed_mask, fixed_vals):
    """f with the variables in ``fixed_mask`` pinned to their bits in
    ``fixed_vals``; the arity stays n and the pinned variables become
    irrelevant."""
    return _PointFn(f.n, lambda x: f.value_at((x & ~fixed_mask) | (fixed_vals & fixed_mask)))


def naive_moebius(f):
    n = f.n
    coeffs = []
    for s in range(2**n):
        acc = 0
        sub = s
        while True:
            sign = -1 if ((s ^ sub).bit_count() & 1) else 1
            acc += sign * f.value_at(sub)
            if sub == 0:
                break
            sub = (sub - 1) & s
        coeffs.append(acc)
    return coeffs


def naive_degree(f):
    return max((s.bit_count() for s, c in enumerate(naive_moebius(f)) if c != 0), default=0)


def naive_modp_degree(f, p):
    return max(
        (s.bit_count() for s, c in enumerate(naive_moebius(f)) if c % p != 0), default=0
    )


def naive_wht(f):
    n = f.n
    out = []
    for s in range(2**n):
        acc = 0
        for x in range(2**n):
            chi = 1 - 2 * f.value_at(x)
            sign = -1 if ((s & x).bit_count() & 1) else 1
            acc += sign * chi
        out.append(acc)
    return out


def naive_sparsity(f):
    return sum(1 for c in naive_wht(f) if c != 0)


def naive_dt(f):
    n = f.n

    def rec(fixed_mask, fixed_vals):
        free = [i for i in range(n) if not (fixed_mask >> i) & 1]
        values = set()
        for y in range(2 ** len(free)):
            x = fixed_vals
            for j, i in enumerate(free):
                if (y >> j) & 1:
                    x |= 1 << i
            values.add(f.value_at(x))
            if len(values) > 1:
                break
        if len(values) <= 1:
            return 0
        return 1 + min(
            max(
                rec(fixed_mask | (1 << i), fixed_vals),
                rec(fixed_mask | (1 << i), fixed_vals | (1 << i)),
            )
            for i in free
        )

    return rec(0, 0)


def table_matrix(n, ids):
    """The (2**n, len(ids)) uint8 matrix whose column r is the table of the
    function id ids[r], read one input at a time."""
    fs = [TruthTable(n, int(bits)) for bits in ids]
    return np.array([[f.value_at(x) for f in fs] for x in range(2**n)], dtype=np.uint8)


def random_table(rng, n):
    """A random function as (n, bits), from a numpy Generator."""
    bits = 0
    for x in range(2**n):
        if rng.integers(0, 2):
            bits |= 1 << x
    return bits


# ---------------------------------------------------------------------------
# named families, one input at a time


def naive_tree_function(k):
    n = (1 << k) - 1

    def walk(x):
        node = 1
        value = 0
        while node <= n:
            value = (x >> (node - 1)) & 1
            node = 2 * node + value
        return value

    return TruthTable.from_callable(walk, n)


def naive_rubinstein_row(n):
    accepted = {(0b11 << i) for i in range(0, n - 1, 2)}
    return TruthTable.from_callable(lambda x: 1 if x in accepted else 0, n)


def naive_gip(n, k):
    block = (1 << k) - 1

    def f(z):
        acc = 0
        for i in range(n):
            if (z >> (i * k)) & block == block:
                acc ^= 1
        return acc

    return TruthTable.from_callable(f, n * k)


def naive_ip(n):
    mask = (1 << n) - 1
    return TruthTable.from_callable(lambda z: ((z & mask) & (z >> n)).bit_count() & 1, 2 * n)


def naive_maj(n):
    threshold = (n + 1) // 2
    return TruthTable.from_callable(lambda x: 1 if x.bit_count() >= threshold else 0, n)


def naive_parity(n):
    return TruthTable.from_callable(lambda x: x.bit_count() & 1, n)


def naive_and(n):
    full = (1 << n) - 1
    return TruthTable.from_callable(lambda x: 1 if x == full else 0, n)


def naive_or(n):
    return TruthTable.from_callable(lambda x: 1 if x else 0, n)
