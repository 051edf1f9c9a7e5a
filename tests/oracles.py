"""Brute-force reference implementations used to pin expected test values.

Everything here works from single-point evaluation only (``TruthTable.value_at``),
by direct enumeration over points, blocks, subsets, chains, or characters, so
these oracles share no algorithmic path with the library code they check.
The one exception, ``rule_walk``, walks a given table of subcube depths
with the decision-tree witness rule, reading its leaves one point at a
time.  The transform oracles build each map from its definition, on a
given family or chain, and g from f one image point at a time.  Only
usable at small arity.  The ``naive_*`` family definitions at
the end state each named family one input at a time, tabulated by
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


def naive_lex_min_family(f, a):
    """The lexicographically smallest maximum family of disjoint sensitive
    blocks at a: every disjoint family, each an ascending tuple of block
    masks, enumerated, and the largest kept, then the smallest tuple."""
    blocks = [b for b in range(1, 2**f.n) if f.value_at(a ^ b) != f.value_at(a)]

    def families(used, start):
        yield ()
        for i in range(start, len(blocks)):
            if not blocks[i] & used:
                for rest in families(used | blocks[i], i + 1):
                    yield (blocks[i],) + rest

    return min(families(0, 0), key=lambda family: (-len(family), family))


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


def naive_chain_walk(f):
    """The chain of the smallest-direction rule over ``naive_path_maxima``:
    from 0, each step sets the smallest free variable whose point y keeps
    a path of the most changes, d[y] + (f(y) != f(x)) == d[x].  Usable
    wherever the path maxima are, far above ``naive_best_chain``'s n!
    orders."""
    d = naive_path_maxima(f)
    x, points = 0, [0]
    for _ in range(f.n):
        x = next(y for y in (x | (1 << i) for i in range(f.n)) if y != x
                 and d[y] + (f.value_at(y) != f.value_at(x)) == d[x])
        points.append(x)
    return tuple(points)


def naive_salt(f):
    n = f.n
    best = None
    for b in range(2**n):
        shifted = _shifted(f, b)
        alt = naive_alternation(shifted)
        if best is None or alt < best:
            best = alt
    return best


def naive_chain_bound(f):
    """The most value changes of four greedy chains from b to ~b, for every
    shift b < 2**(n-1), each walked one point at a time: from b and from
    ~b, flipping at each step the first free direction, in ascending or in
    descending order, whose flip changes f, else the first free one; 2
    where all four count 0 and f is not constant."""
    n, top = f.n, 2**f.n - 1

    def greedy(x, order):
        count, free = 0, list(order)
        for _ in range(n):
            changing = [i for i in free if f.value_at(x ^ 1 << i) != f.value_at(x)]
            i = (changing or free)[0]
            count += bool(changing)
            x ^= 1 << i
            free.remove(i)
        return count

    constant = len({f.value_at(x) for x in range(2**n)}) == 1
    bounds = []
    for b in range(2**n // 2):
        most = max(greedy(start, order) for start in (b, b ^ top)
                   for order in (range(n), range(n - 1, -1, -1)))
        bounds.append(2 if most == 0 and not constant else most)
    return bounds


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


def naive_subcube_dt(f):
    """The optimal decision-tree depth of f with the variables in
    ``fixed_mask`` pinned to their bits in ``fixed_vals``, as a function of
    (fixed_mask, fixed_vals), memoized over the subcubes of one f."""
    n = f.n

    @lru_cache(maxsize=None)
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

    return rec


def naive_dt(f):
    return naive_subcube_dt(f)(0, 0)


def naive_tree_verdict(f, tree, claimed_depth):
    """Does a well-formed decision tree compute f with a deepest path of
    ``claimed_depth`` queries: walked from the root once per input."""
    worst = 0
    for x in range(2**f.n):
        node, used = tree, 0
        while "value" not in node:
            node = node["high"] if (x >> (node["var"] - 1)) & 1 else node["low"]
            used += 1
        if node["value"] != f.value_at(x):
            return False
        worst = max(worst, used)
    return worst == claimed_depth


def rule_walk(f, depth):
    """The tree the DT witness rule walks on ``depth``, the optimal depth of
    every subcube of f flattened by its ternary state sum(t_i * 3**i), with
    t_i = 2 where variable i is free: a leaf where the depth is 0, else a
    query of the smallest free variable i with 1 + max(depth of the halves
    t_i = 0 and t_i = 1) == depth, 1-based, as ``dt_depth`` writes it."""

    def walk(state, point, free):
        here = int(depth[state])
        if here == 0:
            return {"value": f.value_at(point)}
        for i in free:
            low, high = state - 2 * 3**i, state - 3**i
            if 1 + max(int(depth[low]), int(depth[high])) == here:
                rest = [j for j in free if j != i]
                return {
                    "var": i + 1,
                    "low": walk(low, point, rest),
                    "high": walk(high, point | 1 << i, rest),
                }
        raise AssertionError("no free variable reaches the depth")

    return walk(3**f.n - 1, 0, list(range(f.n)))


def _naive_transform(f, columns, shift):
    """(columns, images, g) of the map x -> shift XOR (the sum of column i
    over the set bits i of x): its image at every x, and g = f at each."""
    images = []
    for x in range(2**f.n):
        y = shift
        for i, col in enumerate(columns):
            if (x >> i) & 1:
                y ^= col
        images.append(y)
    return tuple(columns), images, TruthTable.from_callable(lambda x: f.value_at(images[x]), f.n)


def _low_bit(mask):
    return (mask & -mask).bit_length() - 1


def naive_bs2s(f, a, blocks, placement):
    """(columns, shift, g, certificate) of the block map at a: block j of
    the family on column j (``block-index``) or on the column of its
    smallest member (``min-in-block``), the rest zero, shifted by a."""
    n, k = f.n, len(blocks)
    columns = [0] * n
    for j, block in enumerate(blocks):
        columns[j if placement == "block-index" else _low_bit(block)] = block
    columns, _, g = _naive_transform(f, columns, a)
    sg0 = naive_sensitivity(g, 0)
    # output coordinate t is read from the 1-based column that holds t
    sources = tuple(next((j + 1 for j, col in enumerate(columns) if (col >> t) & 1), 0)
                    for t in range(n))
    return columns, a, g, {
        "point": a,
        "block_sensitivity": k,
        "s_g_at_zero": sg0,
        "equality_holds": sg0 == k,
        "blocks": tuple(blocks),
        "placement": placement,
        "substitution": sources,
    }


def naive_alt2s(f, chain):
    """(columns, shift, g, certificate) of the chain map: column i is the
    chain's point i + 1, with no shift; alt counts the changes along the
    chain, and the map is invertible iff its 2**n images are distinct."""
    n = f.n
    columns, images, g = _naive_transform(f, chain[1:], 0)
    alt = sum(f.value_at(p) != f.value_at(q) for p, q in zip(chain, chain[1:]))
    sg0 = naive_sensitivity(g, 0)
    bound = 2 * sg0 + 1
    return columns, 0, g, {
        "alt": alt,
        "s_g_at_zero": sg0,
        "s_g": naive_sensitivity(g),
        "bound": bound,
        "holds": alt <= bound,
        "invertible": len(set(images)) == 2**n,
        "chain": tuple(chain),
    }


def naive_sherstov(f, z, blocks):
    """(columns, shift, g, certificate) of Sherstov's split-block map: each
    block splits into the members where z is 0 and those where z is 1, the
    column of each part's smallest member holds that part, a variable in no
    block keeps its own column, every other column is zero, no shift."""
    n, k = f.n, len(blocks)
    zeros = tuple(block & ~z for block in blocks)
    ones = tuple(block & z for block in blocks)
    covered = 0
    for block in blocks:
        covered |= block
    columns = [0 if (covered >> i) & 1 else 1 << i for i in range(n)]
    for part in zeros + ones:
        if part:
            columns[_low_bit(part)] = part
    columns, _, g = _naive_transform(f, columns, 0)
    sg = naive_sensitivity(g)
    return columns, 0, g, {
        "z": z,
        "block_sensitivity": k,
        "blocks": tuple(blocks),
        "a_sets": zeros,
        "b_sets": ones,
        "split_blocks": [j + 1 for j in range(k) if zeros[j] and ones[j]],
        "s_g": sg,
        "ratio_bs_over_s_g_sq": k / (sg * sg) if sg else None,
        "factor4_holds": 4 * sg * sg >= k,
    }


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


def naive_compose(outer, inners):
    """outer(g_1(block 1), ..., g_k(block k)), block i above the blocks before it."""

    def h(x):
        y = 0
        for i, g in enumerate(inners):
            y |= g.value_at(x & ((1 << g.n) - 1)) << i
            x >>= g.n
        return outer.value_at(y)

    return TruthTable.from_callable(h, sum(g.n for g in inners))


def naive_rubinstein(m, n):
    return naive_compose(naive_or(m), [naive_rubinstein_row(n)] * m)


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
