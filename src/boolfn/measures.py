"""Exact complexity measures of Boolean functions, with checkable witnesses.

Every measure here is computed exactly, by enumeration, dynamic programming,
or an exact integer transform; there are no approximations.  Measures whose
cost grows too fast carry a configurable arity ceiling and raise
``ArityLimitError`` beyond it, so a caller always sees an explicit skip
rather than a silently degraded answer.

Ties between optimal witnesses are broken toward the smallest packed-integer
encoding, which makes every output deterministic and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._bitops import (
    low_half_mask,
    mask_indices,
    pack,
    point_to_str,
    popcounts,
    table_mask,
    table_size,
    unpack,
    weight_layers,
    xor_shift,
    xor_shuffle,
)
from .core import TruthTable, tt_serialize
from .spectral import (
    WALSH,
    is_prime,
    moebius_coefficients,
    moebius_coefficients_mod,
    spectrum,
)

__all__ = [
    "DEFAULT_LIMITS",
    "ArityLimitError",
    "BlockFamily",
    "Chain",
    "MeasureReport",
    "sensitivity",
    "block_sensitivity",
    "certificate",
    "alternation",
    "alternation_under_shifts",
    "shift_invariant_alternation",
    "real_degree",
    "modp_degree",
    "sparsity",
    "dt_depth",
    "measure_report",
    "validate_block_family",
    "validate_certificate_set",
    "validate_chain",
    "validate_decision_tree",
]

# Cost ceilings (arity) beyond which a measure refuses to run unless the
# caller passes an explicit higher limit.
DEFAULT_LIMITS = {"bs": 14, "C": 12, "salt": 15, "DT": 13}


class ArityLimitError(ValueError):
    """A measure was asked to run above its configured arity ceiling."""

    def __init__(self, measure: str, arity: int, limit: int):
        self.measure = measure
        self.arity = arity
        self.limit = limit
        super().__init__(
            f"{measure} skipped: arity {arity} exceeds limit {limit} "
            "(pass an explicit limit to override)"
        )


def _ensure_limit(measure: str, arity: int, limit: int | None) -> None:
    ceiling = DEFAULT_LIMITS[measure] if limit is None else limit
    if arity > ceiling:
        raise ArityLimitError(measure, arity, ceiling)


@dataclass(frozen=True)
class BlockFamily:
    """Pairwise-disjoint sensitive blocks at one input, each block a bitmask."""

    point: int
    blocks: tuple[int, ...]

    def block_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_indices(b) for b in self.blocks)


@dataclass(frozen=True)
class Chain:
    """A maximal monotone chain 0^n = x0 < x1 < ... < xn = 1^n."""

    points: tuple[int, ...]


# ---------------------------------------------------------------------------
# sensitivity


def _sensitive_mask(f: TruthTable, x: int) -> int:
    """Mask of the coordinates whose flip changes f at x."""
    v = f.value_at(x)
    return sum(1 << i for i in range(f.n) if f.value_at(x ^ (1 << i)) != v)


def _pointwise_sensitivity(tables: np.ndarray) -> np.ndarray:
    """Sensitivity at every input of every row of an (m, 2**n) table matrix."""
    m, size = tables.shape
    counts = np.zeros((m, size), dtype=np.int8)
    for i in range(size.bit_length() - 1):
        step = 1 << i
        halves = tables.reshape(m, -1, 2, step)
        diff = halves[:, :, 0, :] != halves[:, :, 1, :]
        view = counts.reshape(m, -1, 2, step)
        view[:, :, 0, :] += diff
        view[:, :, 1, :] += diff
    return counts


def sensitivity(f: TruthTable, at: int | None = None, witness: bool = False):
    """Number of single-bit flips that change f, at one input or maximized.

    Witness: (point, mask of sensitive coordinates).
    """
    n = f.n
    if at is not None:
        if not 0 <= at < table_size(n):
            raise ValueError(f"assignment {at} out of range for arity {n}")
        mask = _sensitive_mask(f, at)
        val = mask.bit_count()
        return (val, (at, mask)) if witness else val
    if n == 0:
        return (0, (0, 0)) if witness else 0
    counts = _pointwise_sensitivity(f.to_array()[None, :])[0]
    val = int(counts.max())
    if not witness:
        return val
    point = int(np.argmax(counts == val))
    return val, (point, _sensitive_mask(f, point))


# ---------------------------------------------------------------------------
# block sensitivity


def _sensitive_profile(f: TruthTable, a: int) -> np.ndarray:
    """Boolean array over block masks B: does flipping B change f at a."""
    ta = xor_shuffle(f.bits, f.n, a)
    arr = unpack(ta, f.n)
    sens = arr != arr[0]
    sens[0] = False
    return sens


def _minimal_blocks(sens: np.ndarray, n: int) -> list[int]:
    """Sensitive blocks with no sensitive proper subset, ascending."""
    z = sens.copy()
    for i in range(n):
        step = 1 << i
        view = z.reshape(-1, 2, step)
        view[:, 1, :] |= view[:, 0, :]
    strict = np.zeros_like(sens)
    for i in range(n):
        step = 1 << i
        sv = strict.reshape(-1, 2, step)
        zv = z.reshape(-1, 2, step)
        sv[:, 1, :] |= zv[:, 0, :]
    return [int(b) for b in np.flatnonzero(sens & ~strict)]


_PACK_LUT_CEILING = 4
_pack_luts: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _packing_lut(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For n <= 4: maximum disjoint packing of every sensitive-block pattern.

    A pattern is a bitmask over the 2**n - 1 nonempty blocks (pattern bit
    B-1 marks block B sensitive).  Entry p of the first table is the size of
    the largest disjoint subfamily; row p of the second lists the
    lexicographically smallest such family, ascending and zero-padded to n
    blocks.  Both fold from the lowest block b of p: a best packing either
    skips b (pattern p without b) or takes b plus a best packing of the
    blocks of p disjoint from b, and the family takes b whenever that
    reaches the maximum.  Both sub-patterns have fewer bits, so the tables
    fill level by level of popcount.
    """
    got = _pack_luts.get(n)
    if got is not None:
        return got
    nblocks = table_size(n) - 1
    blocks = np.arange(1, nblocks + 1)
    disj = ((blocks[:, None] & blocks[None, :]) == 0).astype(np.int64) @ (
        np.int64(1) << np.arange(nblocks, dtype=np.int64)
    )
    pats = np.arange(1 << nblocks, dtype=np.int64)
    low = np.bitwise_count((pats & -pats) - 1)
    level = np.bitwise_count(pats)
    lut = np.zeros(pats.size, dtype=np.uint8)
    fams = np.zeros((pats.size, n), dtype=np.min_scalar_type(nblocks))
    for w in range(1, nblocks + 1):
        p = pats[level == w]
        b = low[p]
        skip = p & (p - 1)
        rest = p & disj[b]
        take = lut[rest] + 1
        taken = take >= lut[skip]
        lut[p] = np.where(taken, take, lut[skip])
        fams[p] = fams[skip]
        p, rest = p[taken], rest[taken]
        fams[p, 0] = b[taken] + 1
        fams[p, 1:] = fams[rest, :-1]
    _pack_luts[n] = (lut, fams)
    return lut, fams


def _pattern_at(f: TruthTable, a: int) -> int:
    """Sensitive-block pattern at ``a`` as a packed int (bit B-1 = block B)."""
    ta = xor_shuffle(f.bits, f.n, a)
    if ta & 1:
        ta ^= table_mask(f.n)
    return ta >> 1


def _make_packer(cands: list[int]):
    """Memoized maximum-disjoint-packing oracle over candidate blocks.

    Branches on the lowest coordinate still covered by a usable candidate:
    either no chosen block uses it, or one of the candidates containing it is
    chosen.  Memoized on the available-coordinate mask.
    """
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        got = memo.get(avail)
        if got is not None:
            return got
        usable = [b for b in cands if not b & ~avail]
        if not usable:
            memo[avail] = 0
            return 0
        union = 0
        for b in usable:
            union |= b
        c = union & -union
        res = best(avail & ~c)
        for b in usable:
            if b & c:
                r = 1 + best(avail & ~b)
                if r > res:
                    res = r
        memo[avail] = res
        return res

    return best


def _lex_min_family(cands: list[int], n: int, best) -> tuple[int, ...]:
    avail = table_size(n) - 1
    target = best(avail)
    chosen: list[int] = []
    while target:
        for b in cands:
            if not b & ~avail and best(avail & ~b) == target - 1:
                chosen.append(b)
                avail &= ~b
                target -= 1
                break
        else:
            raise AssertionError("disjoint-packing reconstruction failed")
    return tuple(chosen)


def _bs_point_generic(
    f: TruthTable, a: int, want_witness: bool
) -> tuple[int, BlockFamily | None]:
    sens = _sensitive_profile(f, a)
    if not sens.any():
        return 0, (BlockFamily(a, ()) if want_witness else None)
    cands = _minimal_blocks(sens, f.n)
    best = _make_packer(cands)
    val = best(table_size(f.n) - 1)
    fam = None
    if want_witness:
        fam = BlockFamily(a, _lex_min_family(cands, f.n, best))
    return val, fam


def _bs_point(f: TruthTable, a: int, want_witness: bool) -> tuple[int, BlockFamily | None]:
    if f.n <= _PACK_LUT_CEILING:
        pattern = _pattern_at(f, a)
        lut, fams = _packing_lut(f.n)
        val = int(lut[pattern])
        fam = None
        if want_witness:
            fam = BlockFamily(a, tuple(int(b) for b in fams[pattern, :val]))
        return val, fam
    return _bs_point_generic(f, a, want_witness)


def block_sensitivity(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Maximum number of disjoint blocks whose flip changes f.

    Pointwise at ``at`` when given, else maximized over all inputs.  The
    witness ``BlockFamily`` is the lexicographically smallest maximum family,
    at ``at`` or at the smallest maximizing input.
    """
    n = f.n
    _ensure_limit("bs", n, limit)
    if at is not None:
        if not 0 <= at < table_size(n):
            raise ValueError(f"assignment {at} out of range for arity {n}")
        val, fam = _bs_point(f, at, witness)
        return (val, fam) if witness else val
    best_val, best_at = 0, 0
    for a in range(table_size(n)):
        v, _ = _bs_point(f, a, False)
        if v > best_val:
            best_val, best_at = v, a
    if not witness:
        return best_val
    _, fam = _bs_point(f, best_at, True)
    return best_val, fam


# ---------------------------------------------------------------------------
# certificate complexity


def _certificate_tables(f: TruthTable) -> tuple[np.ndarray, np.ndarray]:
    """Per input: size of the best constant free-subcube, and its free mask.

    Runs the subcube DP over all 2**n free-variable sets; subcube (V, a) is
    constant iff its min equals its max, and those fold from the two child
    subcubes of any variable in V.
    """
    n = f.n
    size = table_size(n)
    arr = f.to_array()
    pc = popcounts(n)
    idx = np.arange(size)
    mins: list[np.ndarray | None] = [None] * size
    maxs: list[np.ndarray | None] = [None] * size
    mins[0] = arr
    maxs[0] = arr
    best_free = np.zeros(size, dtype=np.int8)
    best_v = np.zeros(size, dtype=np.int64)
    for v in range(1, size):
        i = (v & -v).bit_length() - 1
        vp = v & (v - 1)
        flip = idx ^ (1 << i)
        mn = np.minimum(mins[vp], mins[vp][flip])
        mx = np.maximum(maxs[vp], maxs[vp][flip])
        mins[v] = mn
        maxs[v] = mx
        const = mn == mx
        pcv = int(pc[v])
        gain = const & (pcv > best_free)
        best_free[gain] = pcv
        best_v[gain] = v
        tie = const & (pcv == best_free) & (v > best_v)
        best_v[tie] = v
    return best_free, best_v


def certificate(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Smallest set of coordinates that, fixed as in the input, pins f constant.

    Witness: (point, mask of the fixed set).
    """
    n = f.n
    _ensure_limit("C", n, limit)
    if n == 0:
        return (0, (0, 0)) if witness else 0
    best_free, best_v = _certificate_tables(f)
    full = table_size(n) - 1
    if at is not None:
        if not 0 <= at < table_size(n):
            raise ValueError(f"assignment {at} out of range for arity {n}")
        val = n - int(best_free[at])
        return (val, (at, full ^ int(best_v[at]))) if witness else val
    c_pt = n - best_free.astype(np.int16)
    val = int(c_pt.max())
    if not witness:
        return val
    point = int(np.argmax(c_pt == val))
    return val, (point, full ^ int(best_v[point]))


# ---------------------------------------------------------------------------
# alternation and shift-invariant alternation


def _alternation_down(tables: np.ndarray) -> np.ndarray:
    """Layered DP for every row of an (m, 2**n) table matrix: entry (r, x) is
    the most value changes along a monotone path from x up to 1^n."""
    m, size = tables.shape
    n = size.bit_length() - 1
    layers = weight_layers(n)
    down = np.zeros((m, size), dtype=np.int8)
    for w in range(n - 1, -1, -1):
        pts = layers[w]
        for i in range(n):
            sel = pts[((pts >> i) & 1) == 0]
            if sel.size == 0:
                continue
            nxt = sel | (1 << i)
            cand = down[:, nxt] + (tables[:, nxt] != tables[:, sel])
            down[:, sel] = np.maximum(down[:, sel], cand)
    return down


def _best_chains(tables: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Lexicographically smallest maximum-alternation chain of every row.

    Returns the (m, n + 1) chain points; each step sets the smallest free
    variable that keeps the row on an optimal path of ``down``.
    """
    m, size = tables.shape
    n = size.bit_length() - 1
    rows = np.arange(m)[:, None]
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    points = np.zeros((m, n + 1), dtype=np.int64)
    x = points[:, :1]
    for step in range(1, n + 1):
        y = x | bits
        here = tables[rows, x]
        ok = (y != x) & (down[rows, y] + (tables[rows, y] != here) == down[rows, x])
        x = y[rows, np.argmax(ok, axis=1)[:, None]]
        points[:, step : step + 1] = x
    return points


def alternation(f: TruthTable, witness: bool = False):
    """Maximum number of value changes along a maximal monotone chain.

    Layered DP over the hypercube; the witness is the lexicographically
    smallest chain achieving the maximum.
    """
    if f.n == 0:
        return (0, Chain((0,))) if witness else 0
    table = f.to_array()[None, :]
    down = _alternation_down(table)
    alt = int(down[0, 0])
    if not witness:
        return alt
    return alt, Chain(tuple(int(p) for p in _best_chains(table, down)[0]))


def _alternation_at_shift(diffs: list[int], n: int, b: int, cap: int) -> int:
    """min(alt(x -> f(x XOR b)), cap), by level sets of packed point sets.

    Works in the frame of f, so no table is shifted: bit x of ``diffs[i]``
    says f(x) != f(x XOR e_i), and a chain of the shifted function steps
    along direction i from x to x XOR e_i wherever bit i of x equals bit i
    of b.  Level k is the set of points that some chain from the bottom
    point b reaches with at least k value changes: the points one changing
    step above level k-1, closed upward along the chain order.  So every
    nonempty level holds the top point, alt is the last nonempty level, and
    the levels stop at ``cap``.
    """
    moves = [(1 << i, low_half_mask(n, i), (b >> i) & 1, d) for i, d in enumerate(diffs)]
    level = table_mask(n)
    for k in range(cap):
        nxt = 0
        for s, m, down, d in moves:
            nxt |= (((level >> s) & m) if down else ((level & m) << s)) & d
        if not nxt:
            return k
        if k + 1 == cap:
            break
        for s, m, down, _ in moves:
            nxt |= ((nxt >> s) & m) if down else ((nxt & m) << s)
        level = nxt
    return cap


def _direction_diffs(f: TruthTable) -> list[int]:
    """Packed tables of f(x) XOR f(x XOR e_i), one per direction i."""
    return [f.bits ^ xor_shift(f.bits, f.n, i) for i in range(f.n)]


def alternation_under_shifts(f: TruthTable) -> np.ndarray:
    """Alternation of every shifted function x -> f(x XOR b), indexed by b.

    Runs the level-set kernel of ``shift_invariant_alternation`` without a
    cap on the shifts b < 2**(n-1) and mirrors them into the top half:
    alt(f XOR b) == alt(f XOR b XOR 1^n), because complementing the shift
    walks every chain in reverse.
    """
    n = f.n
    if n == 0:
        return np.zeros(1, dtype=np.int16)
    diffs = _direction_diffs(f)
    half = np.array(
        [_alternation_at_shift(diffs, n, b, n) for b in range(table_size(n) >> 1)],
        dtype=np.int16,
    )
    return np.concatenate([half, half[::-1]])


def shift_invariant_alternation(
    f: TruthTable, witness: bool = False, limit: int | None = None
):
    """Minimum alternation over all XOR shifts of the input; witness is an argmin shift.

    Visits only the shifts b < 2**(n-1), since alt(f XOR b) equals
    alt(f XOR b XOR 1^n) (the chain runs in reverse), in ascending order.
    Each shift builds its level sets (see ``_alternation_at_shift``) only up
    to the smallest alternation found so far, and replaces it only when
    strictly smaller, so the witness is the smallest argmin shift.
    """
    _ensure_limit("salt", f.n, limit)
    n = f.n
    diffs = _direction_diffs(f)
    best, best_shift = n, 0
    for b in range(table_size(n) >> 1):
        alt = _alternation_at_shift(diffs, n, b, best)
        if alt < best:
            best, best_shift = alt, b
    return (best, best_shift) if witness else best


# ---------------------------------------------------------------------------
# polynomial degrees and Fourier sparsity


def _degree_of(coeffs: np.ndarray, n: int, witness: bool):
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return (0, 0) if witness else 0
    pc = popcounts(n)[nz]
    deg = int(pc.max())
    if not witness:
        return deg
    return deg, int(nz[pc == deg].min())


def real_degree(f: TruthTable, witness: bool = False):
    """Degree of the multilinear polynomial for f over the rationals.

    Computed from exact integer coefficients; the witness is the smallest
    maximal-degree monomial mask.
    """
    return _degree_of(moebius_coefficients(f), f.n, witness)


def modp_degree(f: TruthTable, p: int, witness: bool = False):
    """Degree of the multilinear polynomial for f over the p-element field."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _degree_of(moebius_coefficients_mod(f, p), f.n, witness)


def sparsity(f: TruthTable, witness: bool = False):
    """Number of nonzero Walsh-Hadamard coefficients of the +-1 view."""
    rep = spectrum(f, WALSH)
    val = rep.nonzero_count()
    return (val, rep) if witness else val


# ---------------------------------------------------------------------------
# decision-tree depth

_DT_TABLE_CEILING = 4


def _all_tables_as_bits(m: int) -> np.ndarray:
    ids = np.arange(1 << (1 << m), dtype=np.uint32)
    return ((ids[:, None] >> np.arange(1 << m)[None, :]) & 1).astype(np.uint8)


_dt_tables: dict[int, np.ndarray] = {}


def _dt_table(m: int) -> np.ndarray:
    """Optimal decision-tree depth of every m-variable function, m <= 4."""
    if m in _dt_tables:
        return _dt_tables[m]
    if m == 0:
        table = np.zeros(2, dtype=np.uint8)
    else:
        prev = _dt_table(m - 1)
        size = 1 << m
        bits = _all_tables_as_bits(m)
        pow2 = (1 << np.arange(size // 2, dtype=np.uint32)).astype(np.uint32)
        depth = np.full(bits.shape[0], m, dtype=np.uint8)
        idx = np.arange(size)
        for i in range(m):
            lo = bits[:, idx[((idx >> i) & 1) == 0]] @ pow2
            hi = bits[:, idx[((idx >> i) & 1) == 1]] @ pow2
            cand = 1 + np.maximum(prev[lo], prev[hi]).astype(np.uint8)
            depth = np.minimum(depth, cand)
        depth[0] = 0
        depth[-1] = 0
        table = depth
    _dt_tables[m] = table
    return table


def _split_table(bits: int, n: int, i: int) -> tuple[int, int]:
    """Restrict variable i to 0 and 1, renumbering the remaining variables."""
    if i == n - 1:
        half = 1 << (n - 1)
        return bits & ((1 << half) - 1), bits >> half
    arr = unpack(bits, n)
    idx = np.arange(1 << n)
    sel = (idx >> i) & 1
    return pack(arr[idx[sel == 0]]), pack(arr[idx[sel == 1]])


def _dt_value(n: int, bits: int, memo: dict) -> int:
    if n <= _DT_TABLE_CEILING:
        return int(_dt_table(n)[bits])
    if bits == 0 or bits == table_mask(n):
        return 0
    key = (n, bits)
    got = memo.get(key)
    if got is not None:
        return got
    best = n
    for i in range(n):
        lo, hi = _split_table(bits, n, i)
        d = 1 + max(_dt_value(n - 1, lo, memo), _dt_value(n - 1, hi, memo))
        if d < best:
            best = d
            if best == 1:
                break
    memo[key] = best
    return best


def _dt_tree(n: int, bits: int, varmap: tuple[int, ...], memo: dict) -> dict:
    if bits == 0:
        return {"value": 0}
    if bits == table_mask(n):
        return {"value": 1}
    depth = _dt_value(n, bits, memo)
    for i in range(n):
        lo, hi = _split_table(bits, n, i)
        if 1 + max(_dt_value(n - 1, lo, memo), _dt_value(n - 1, hi, memo)) == depth:
            sub_map = varmap[:i] + varmap[i + 1 :]
            return {
                "var": varmap[i] + 1,
                "low": _dt_tree(n - 1, lo, sub_map, memo),
                "high": _dt_tree(n - 1, hi, sub_map, memo),
            }
    raise AssertionError("decision-tree reconstruction failed")


def dt_depth(f: TruthTable, witness: bool = False, limit: int | None = None):
    """Depth of an optimal decision tree, by memoized minimax over restrictions.

    The witness tree queries 1-based variables ('var', 'low', 'high' nodes,
    'value' leaves) and always picks the smallest optimal variable.
    """
    _ensure_limit("DT", f.n, limit)
    memo: dict = {}
    val = _dt_value(f.n, f.bits, memo)
    if not witness:
        return val
    return val, _dt_tree(f.n, f.bits, tuple(range(f.n)), memo)


# ---------------------------------------------------------------------------
# witness validation


def validate_block_family(f: TruthTable, fam: BlockFamily) -> bool:
    seen = 0
    base = f.value_at(fam.point)
    for b in fam.blocks:
        if b == 0 or b & seen or b >= table_size(f.n):
            return False
        seen |= b
        if f.value_at(fam.point ^ b) == base:
            return False
    return True


def validate_certificate_set(f: TruthTable, point: int, fixed_mask: int) -> bool:
    free = [i for i in range(f.n) if not (fixed_mask >> i) & 1]
    base = None
    for y in range(1 << len(free)):
        x = point & fixed_mask
        for j, i in enumerate(free):
            if (y >> j) & 1:
                x |= 1 << i
        v = f.value_at(x)
        if base is None:
            base = v
        elif v != base:
            return False
    return True


def validate_chain(f: TruthTable, chain: Chain, claimed_alt: int) -> bool:
    pts = chain.points
    if len(pts) != f.n + 1 or pts[0] != 0 or pts[-1] != table_size(f.n) - 1:
        return False
    changes = 0
    for a, b in zip(pts, pts[1:]):
        step = a ^ b
        if b & a != a or step.bit_count() != 1:
            return False
        changes += f.value_at(a) != f.value_at(b)
    return changes == claimed_alt


def _tree_eval(tree: dict, x: int) -> tuple[int, int]:
    """(value, depth used) of a witness tree at x."""
    if "value" in tree:
        return tree["value"], 0
    branch = tree["high"] if (x >> (tree["var"] - 1)) & 1 else tree["low"]
    v, d = _tree_eval(branch, x)
    return v, d + 1


def validate_decision_tree(f: TruthTable, tree: dict, claimed_depth: int) -> bool:
    worst = 0
    for x in range(table_size(f.n)):
        v, d = _tree_eval(tree, x)
        if v != f.value_at(x):
            return False
        worst = max(worst, d)
    return worst == claimed_depth


# ---------------------------------------------------------------------------
# combined report

@dataclass
class MeasureReport:
    """Every measure of one function, with witnesses and explicit skips."""

    function: TruthTable
    primes: tuple[int, ...]
    measures: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        n = self.function.n
        wit = {}
        for name, w in self.witnesses.items():
            if name == "s":
                point, mask = w
                wit[name] = {
                    "point": point_to_str(point, n),
                    "sensitive": list(mask_indices(mask)),
                }
            elif name == "bs":
                wit[name] = {
                    "point": point_to_str(w.point, n),
                    "blocks": [list(ix) for ix in w.block_indices()],
                }
            elif name == "C":
                point, mask = w
                wit[name] = {
                    "point": point_to_str(point, n),
                    "set": list(mask_indices(mask)),
                }
            elif name == "alt":
                wit[name] = {"chain": [point_to_str(p, n) for p in w.points]}
            elif name == "salt":
                wit[name] = {"shift": point_to_str(w, n)}
            elif name.startswith("deg"):
                wit[name] = {"monomial": list(mask_indices(w))}
            elif name == "sparsity":
                support = w.support()
                entry = {"support_size": len(support)}
                if len(support) <= 64:
                    entry["support"] = [list(mask_indices(s)) for s in support]
                wit[name] = entry
            elif name == "DT":
                wit[name] = {"tree": w}
        return {
            "function": tt_serialize(self.function),
            "arity": n,
            "measures": dict(self.measures),
            "witnesses": wit,
            "skipped": list(self.skipped),
        }


def measure_report(
    f: TruthTable,
    primes=(2, 3),
    limits: dict | None = None,
    witnesses: bool = True,
) -> MeasureReport:
    """Compute every measure that fits its arity ceiling; skips are explicit."""
    limits = limits or {}
    rep = MeasureReport(f, tuple(primes))

    def run(name: str, fn, *, limited: str | None = None):
        try:
            out = fn()
        except ArityLimitError as e:
            rep.skipped.append(
                {"measure": name, "reason": str(e), "arity": e.arity, "limit": e.limit}
            )
            return
        if witnesses:
            rep.measures[name], rep.witnesses[name] = out
        else:
            rep.measures[name] = out

    w = witnesses
    run("s", lambda: sensitivity(f, witness=w))
    run("bs", lambda: block_sensitivity(f, witness=w, limit=limits.get("bs")))
    run("C", lambda: certificate(f, witness=w, limit=limits.get("C")))
    run("alt", lambda: alternation(f, witness=w))
    run(
        "salt",
        lambda: shift_invariant_alternation(f, witness=w, limit=limits.get("salt")),
    )
    run("deg", lambda: real_degree(f, witness=w))
    for p in primes:
        run(f"deg_{p}", lambda p=p: modp_degree(f, p, witness=w))
    run("sparsity", lambda: sparsity(f, witness=w))
    run("DT", lambda: dt_depth(f, witness=w, limit=limits.get("DT")))
    return rep
