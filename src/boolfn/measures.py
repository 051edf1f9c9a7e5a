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

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from ._bitops import (
    level_views,
    low_half_mask,
    mask_indices,
    point_to_str,
    popcounts,
    set_bits,
    table_mask,
    table_size,
    unpack,
    xor_shift,
    xor_shuffle,
)
from .core import TruthTable, _check_point, tt_serialize
from .spectral import (
    WALSH,
    SpectrumRep,
    _check_primes,
    _degrees,
    _moebius_rows,
    _residues,
    _sparsities,
    _subset_sum,
    _walsh_rows,
)

__all__ = [
    "DEFAULT_LIMITS",
    "ArityLimitError",
    "BlockFamily",
    "Chain",
    "LatticeBudgetError",
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

class ArityLimitError(ValueError):
    """A measure was asked to run above its arity ceiling: a default one of
    ``DEFAULT_LIMITS``, which an explicit limit lifts, or a fixed one."""

    def __init__(self, measure: str, arity: int, limit: int):
        self.measure = measure
        self.arity = arity
        self.limit = limit
        advice = ("pass an explicit limit to override" if measure in DEFAULT_LIMITS
                  else "a fixed ceiling, which no limit or override lifts")
        super().__init__(f"{measure} skipped: arity {arity} exceeds limit {limit} ({advice})")


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


def _direction_planes(table, n: int):
    """Yield the direction planes d_i = f XOR (f o e_i), i < n, one at a
    time: bit x of d_i says f(x) != f(x XOR e_i).  A Python int for one
    packed table, an array for lanes, one ``_lane(n)`` table each (the
    function ids of ``_bulk._columns``).  One-table sensitivity and the
    level-set moves (``_shift_moves``) read them; the per-point direction
    masks (``_direction_masks``) read them off salt's moves."""
    for i in range(n):
        yield table ^ xor_shift(table, n, i)


def _sensitivity_slices(bits: int, n: int) -> list[int]:
    """s(f,x) at every input x of one packed table, as packed bit-slices:
    bit x of slice j is bit j of s(f,x).  One table's sensitivity kernel.

    Each direction plane (``_direction_planes``) is added into the slices
    by a ripple carry that stops at the first slice it leaves no carry
    from, so no per-point array is made."""
    slices: list[int] = []
    for carry in _direction_planes(bits, n):
        for j, part in enumerate(slices):
            slices[j], carry = part ^ carry, part & carry
            if not carry:
                break
        else:
            if carry:
                slices.append(carry)
    return slices


def _slice_max(slices: list[int], n: int) -> tuple[int, int]:
    """s(f) and its smallest maximizing input, from the bit-slices
    (``_sensitivity_slices``): the inputs that can still reach the maximum
    are narrowed from the top slice down; a slice with a set bit among them
    sets its bit of s and keeps only those inputs, so the lowest input left
    is the smallest maximizer."""
    s, best = 0, table_mask(n)
    for j in reversed(range(len(slices))):
        if best & slices[j]:
            s, best = s | 1 << j, best & slices[j]
    return s, (best & -best).bit_length() - 1


def _slice_at_zero(slices: list[int]) -> int:
    """s(f,0), from bit 0 of each bit-slice (``_sensitivity_slices``)."""
    return sum((part & 1) << j for j, part in enumerate(slices))


def _slice_counts(slices: list[int], n: int) -> np.ndarray:
    """s(f,x) at every input x, as (2**n,) int8, from the bit-slices
    (``_sensitivity_slices``), unpacked one slice at a time: the bs bound
    u(x) (``_sensitivity_bound``) reads them."""
    counts = np.zeros(table_size(n), dtype=np.int8)
    for j, part in enumerate(slices):
        bits = unpack(part, n).view(np.int8)
        counts |= np.left_shift(bits, j, out=bits)
        del bits  # freed before the next slice unpacks
    return counts


def _pointwise_sensitivity(tables: np.ndarray) -> np.ndarray:
    """Sensitivity at every input of every table of a (2**n, m) matrix, one
    table per column, as int8 of its shape, by n level passes, whose fixed
    cost the columns share: each level's halves are ``level_views``, as in
    ``butterfly``, and a count rises where they differ."""
    width = tables.shape[1]
    counts = np.zeros(tables.shape, dtype=np.int8)
    for i in range(tables.shape[0].bit_length() - 1):
        run = width << i
        diff = np.not_equal(*level_views(tables, 2, run), order="C").view(np.int8)
        for half in level_views(counts, 2, run):
            np.add(half, diff, out=half, order="C")
    return counts


def _column_sensitivity(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s(g,0), s(g)) of every table g of a (2**n, m) matrix, one per
    column, as two (m,) int64 arrays: one column from its packed
    bit-slices, more from the level passes (``_pointwise_sensitivity``)."""
    if tables.shape[1] == 1:
        n = tables.shape[0].bit_length() - 1
        # entries are 0 or 1, so packbits reads them with no masked copy
        bits = int.from_bytes(np.packbits(tables, bitorder="little").tobytes(), "little")
        slices = _sensitivity_slices(bits, n)
        return (np.array([_slice_at_zero(slices)], dtype=np.int64),
                np.array([_slice_max(slices, n)[0]], dtype=np.int64))
    counts = _pointwise_sensitivity(tables)
    return counts[0].astype(np.int64), counts.max(axis=0).astype(np.int64)


def sensitivity(f: TruthTable, at: int | None = None, witness: bool = False):
    """Number of single-bit flips that change f, at one input or maximized.

    Witness: (point, mask of sensitive coordinates).
    """
    return _Measures(f, {}).sensitivity(witness, at)


# ---------------------------------------------------------------------------
# block sensitivity


def _minimal_blocks(sens, n: int):
    """The sensitive blocks with no sensitive proper subset, of a packed set
    of blocks ``sens`` (bit B set where flipping block B changes f): a
    Python int for one input, or an array of ``_lane(n)`` lanes, one set
    per lane.

    The result is sens & ~up, up being every strict superset of a
    sensitive block: one pass per direction i moves the sets closed so far
    one step up along i, into up and into the closure, with the
    mask-and-shift passes of ``_level_sets``.
    """
    up, closed = sens & 0, sens
    for i in range(n):
        step = (closed & low_half_mask(n, i)) << (1 << i)
        up |= step
        closed = closed | step
    return sens & ~up


def _packing(cands: list[int], memo: dict, avail: int) -> int:
    """The most pairwise-disjoint blocks of ``cands`` inside the mask
    ``avail``, memoized in ``memo`` on that mask.

    Branches on the lowest coordinate still covered by a usable candidate:
    either no chosen block uses it, or one of the candidates containing it
    is chosen.
    """
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
    res = _packing(cands, memo, avail & ~c)
    for b in usable:
        if b & c:
            r = 1 + _packing(cands, memo, avail & ~b)
            if r > res:
                res = r
    memo[avail] = res
    return res


def _make_packer(cands: list[int]):
    """Memoized maximum-disjoint-packing oracle over candidate blocks: a
    function of the available-coordinate mask (``_packing``).

    It recurses by name at module level, not through its own closure, so a
    dropped packer, its memo and its candidates are freed by reference
    counting, with no cycle left for the collector.
    """
    return partial(_packing, cands, {})


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


def _bs_point(f: TruthTable, a: int, want_witness: bool):
    """(bs(f, a), family) by the memoized packer over the minimal sensitive
    blocks at a: the family is the lexicographically smallest maximum one,
    a ``BlockFamily`` with ``want_witness``, else a function of no arguments
    that packs it on call from this packer and its memo.

    The sensitive blocks at a are a packed set: the table shifted by a,
    bit B holding f(a XOR B), complemented where f(a) = 1, so bit B is set
    where flipping B changes f and bit 0 is clear.  The candidates are its
    minimal blocks (``_minimal_blocks``), read off ascending.

    This is the one packing of every per-function caller, one input at a
    time, at every arity: the unpointed search keeps the packing function
    of its best input, so its witness reuses that packing.  The exhaustive
    scans' table of bs(p, 0) over every flip pattern p (``_bulk._bs_table``)
    runs the same packer and family rule once per distinct antichain of
    minimal blocks.
    """
    n = f.n
    sens = xor_shuffle(f.bits, n, a)
    if sens & 1:
        sens ^= table_mask(n)
    cands = list(set_bits(_minimal_blocks(sens, n)))
    best = _make_packer(cands)

    def pack():
        return BlockFamily(a, _lex_min_family(cands, n, best))

    return best(table_size(n) - 1), (pack() if want_witness else pack)


def _sensitivity_bound(s: np.ndarray) -> np.ndarray:
    """u(x) = s(f,x) + (n - s(f,x)) // 2, an upper bound on bs(f,x) at every x,
    from the pointwise sensitivity ``s`` of one table (``_slice_counts``)
    or of a (2**n, m) matrix (``_pointwise_sensitivity``).

    A maximum disjoint family of sensitive blocks stays one when each block
    shrinks to a minimal sensitive block.  The minimal singletons are the
    sensitive coordinates; every other minimal block has two or more
    coordinates, none of them sensitive.
    """
    n = s.shape[0].bit_length() - 1
    return s + (n - s) // 2


def _best_first(bound, value, tighten=None, after=0) -> tuple[int, int, int, object]:
    """(best, argbest, evaluated, payload): the maximum of the values over
    the positions x of the int array ``bound``, its smallest maximizer, the
    positions evaluated, and the payload of that maximizer.  ``bound[x]`` is
    an upper bound on the value at x.

    Visits the positions by descending bound, then ascending x, and stops at
    the first that can neither beat the best value nor tie it at a smaller
    position.  The best is replaced on a larger value, or on an equal one at
    a smaller x, so the result is that of a scan of every position.
    ``value(x, best, at)`` returns (value, payload) at x, and is handed the
    best so far and its position (-inf before the first), so it may stop
    early once x cannot win.  Only the best's payload is kept (None if no
    position is evaluated).

    Once ``after`` positions have been evaluated without settling the
    search, ``tighten(bound)`` is called once and may return a tighter
    bound, or None: the positions not yet visited are then re-ordered under
    it, ascending x within ties, and the best so far is kept.  The stop
    rule holds under any valid upper bound, so the result does not depend
    on the switch, only the number of positions evaluated.  The order is
    indexed one position at a time, since most searches stop after a few.
    """
    order = np.argsort(-bound, kind="stable")
    best, at, kept = -math.inf, 0, None
    pos = evaluated = 0
    while pos < len(order):
        x = order.item(pos)
        b = bound.item(x)
        if b < best or (b == best and x > at):
            break
        if evaluated == after and tighten is not None:
            tighter, tighten = tighten(bound), None
            if tighter is not None:
                rest = np.sort(order[pos:])
                order = rest[np.argsort(-tighter[rest], kind="stable")]
                bound, pos = tighter, 0
                continue
        v, payload = value(x, best, at)
        evaluated += 1
        if v > best or (v == best and x < at):
            best, at, kept = v, x, payload
        pos += 1
    return best, at, evaluated, kept


def block_sensitivity(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Maximum number of disjoint blocks whose flip changes f.

    Pointwise at ``at`` when given, else maximized over all inputs.  The
    witness ``BlockFamily`` is the lexicographically smallest maximum family,
    at ``at`` or at the smallest maximizing input.  Each input runs the
    memoized packer of ``_bs_point``, at every arity.  Unpointed, it runs
    the one search of ``_Measures.block_sensitivity``: the inputs in
    order of the bound s(f,x) + (n - s(f,x)) // 2, stopping once no input
    left can beat the best (``_best_first``, the search that salt runs
    over its shifts too).  That settles most random functions at one to
    three inputs.  Where n inputs have not settled it and the subcube table
    fits its byte budget, up to n = 16, the certificate sizes
    (``_certificate_sizes``, from the fold, without the DT sweeps) are
    built and the inputs left are searched under the certificate bound
    C(f,x) as well, which is tight on the structured families.  The
    exhaustive scans search nothing: at n <= 4 they read bs(f, x) and its
    family at every input from a table over the flip patterns p_x(y) =
    f(x ^ y) ^ f(x), built once per arity by this packer, run once per
    distinct antichain of minimal blocks (``_bulk._bs_table``).
    """
    return _Measures(f, {"bs": limit}).block_sensitivity(witness, at)


# ---------------------------------------------------------------------------
# the ternary subcube table: certificate complexity and decision-tree depth


# Bytes the subcube table of one function may take (see ``_table_bytes``):
# it fits for n <= 16, for C and DT alike.  Above that both are skipped
# even under an explicit limit.  The budget bounds the table's own arrays,
# not the process, which adds the interpreter and numpy to it.
_LATTICE_BUDGET = 1 << 28


def _table_bytes(n: int) -> int:
    """Peak bytes of the subcube table of one function of arity n, read by
    C and by DT alike.

    ``val`` (``_subcube_fold``), one byte per state, stays alive under the
    work of its reader, the most of:

    * C's counts (``_certificate_sizes``), one byte per state, and the
      shifted counts that a pass multiplies in, over a third of the
      states: 4/3 byte per state;
    * DT's sweeps (``_depth_sweeps``), ``dt`` one byte per state in 4-byte
      words and a work buffer over a third of the states: 4/3 likewise;
    * with a witness, the sweeps of a slab (``_dt_slab``), a copy of at
      most 2/3 of the states (a hole at depth 1): 14/9 byte per state.

    Up to 16 bytes per point cover the arrays around the table: the input,
    C(f,x), and the bs search's bound and visiting order.  The constant
    covers numpy's iteration buffers (8192 elements per operand), which the
    in-place passes take because their operands interleave.
    """
    return 3**n + 14 * 3**n // 9 + 16 * table_size(n) + (1 << 17)


def _table_limit() -> int:
    """Largest arity whose subcube table fits the byte budget, which is
    below the budget's bit length: the table takes more than 2**n bytes."""
    return max(n for n in range(_LATTICE_BUDGET.bit_length()) if _table_bytes(n) <= _LATTICE_BUDGET)


class LatticeBudgetError(ArityLimitError):
    """The subcube table behind C or DT would exceed its fixed byte budget."""

    def __init__(self, measure: str, arity: int):
        self.measure = measure
        self.arity = arity
        self.limit = _table_limit()
        ValueError.__init__(
            self,
            f"{measure} skipped: arity {arity} needs a {_table_bytes(arity)}-byte "
            f"subcube table, over the fixed budget of {_LATTICE_BUDGET} bytes",
        )


def _subcube_fold(tables: np.ndarray) -> np.ndarray:
    """Constancy of every subcube of every table of a (2**n, m) matrix, one
    table per column.

    A subcube is a ternary state t in {0, 1, *}**n: variable i is free where
    t_i = * (digit 2) and fixed to t_i elsewhere.  ``val`` has the shape
    (3,) * n + (m,), with the tables on the last axis, as in the input, and
    variable i on axis n - 1 - i, so the flat index of t is sum(t_i * 3**i)
    per table: the constant value of the table on t, or 2 where it is not
    constant.  It folds in n per-axis passes from the points; each pass ORs
    the value sets (bit 0: a 0 seen, bit 1: a 1 seen) of the halves t_i = 0
    and t_i = 1 into t_i = *.

    C reads the sizes of its constant subcubes (``_certificate_sizes``), and
    DT's sweeps (``_depth_sweeps``) start from ``val`` alone.  Per-function
    callers go through ``_Measures``, which checks the byte budget first.
    """
    size, m = tables.shape
    n = size.bit_length() - 1
    val = np.empty((3,) * n + (m,), dtype=np.uint8)
    np.add(tables.reshape((2,) * n + (m,)), 1, out=val[(slice(0, 2),) * n])
    for k in reversed(range(n)):
        lead = (slice(0, 2),) * k
        np.bitwise_or(val[lead + (0,)], val[lead + (1,)], out=val[lead + (2,)])
    val -= 1
    return val


def _certificate_sizes(val: np.ndarray) -> np.ndarray:
    """C(f,x) at every point x of every table of a fold's ``val``
    (``_subcube_fold``), as a (2**n, m) uint8 array indexed by point: n less
    the most free variables of a constant subcube through x.

    A count array holds 1 + the free variables of each constant state, 0 on
    the others.  It starts as ``val != 2``, 1 on every constant state, and
    folds along the passes of ``val``: a state with t_i = * still holds its
    constancy when pass i reaches it, so one in-place multiply by the count
    at t_i = 0, plus 1, sets it, with no mask built per pass.  n max-passes
    then push the counts from t_i = * down into t_i = 0 and t_i = 1, to the
    points.
    """
    n = val.ndim - 1
    count = np.empty(val.shape, dtype=np.uint8)
    np.not_equal(val, 2, out=count.view(np.bool_))
    for k in reversed(range(n)):
        lead = (slice(0, 2),) * k
        free = count[lead + (2,)]
        free *= count[lead + (0,)] + 1
    for k in range(n):
        lead = (slice(0, 2),) * k
        halves = count[lead + (slice(0, 2),)]
        np.maximum(halves, count[lead + (slice(2, 3),)], out=halves)
    return (n + 1 - count[(slice(0, 2),) * n]).reshape(-1, val.shape[-1])


@cache
def _ternary(d: int) -> np.ndarray:
    """sum(3**i) over the set bits i of every mask b < 2**d: the ternary
    state of the point b, in a fixed number of numpy calls.  Read-only and
    built once per arity, as ``_bit_reversal``: ``_certificate_set`` and
    ``_dt_slab`` read it on every witness."""
    axes = np.arange(d)
    tern = ((np.arange(1 << d)[:, None] >> axes) & 1) @ 3**axes
    tern.flags.writeable = False
    return tern


def _certificate_set(val: np.ndarray, x: int, size: int) -> int:
    """The smallest certificate at the point x of a fold's one table
    ``val``, given its size: the complement of the largest free set V of
    n - size variables whose subcube through x is constant, the largest
    mask among them.  That subcube is the state of the point x & ~V plus
    twice that of V (``_ternary``).
    """
    n = val.ndim - 1
    masks, tern = np.arange(table_size(n)), _ternary(n)
    constant = val.reshape(-1)[tern[x & ~masks] + 2 * tern] != 2
    return (masks.size - 1) ^ int(masks[constant & (np.bitwise_count(masks) == n - size)].max())


def _depth_sweeps(val: np.ndarray, lower: int = -1) -> np.ndarray:
    """The optimal decision-tree depth of every subcube of a fold's ``val``,
    one table per column: ``dt``, int8, of the shape of ``val``, 0 where
    ``val != 2``, else 1 + min over free i of max(dt[t_i = 0], dt[t_i = 1]).

    ``dt`` starts at n on every state that is not constant.  Sweeps of n
    per-axis relaxations, in place, lower it; every entry stays an upper
    bound on its depth.  The sweeps stop at the stop rule: a sweep that
    changes nothing, which only the exact depths survive, or sweep d once
    the whole cube's depth is at most d, since sweep d makes every state of
    depth <= d exact.  That is at most n**2 passes of 3**(n-1) entries, and
    a few sweeps on most functions.  Given a lower bound on the whole cube's
    depth, they also stop once every table's entry meets it, which makes
    that entry exact, though not the other entries of ``dt``.

    Each axis's relaxation reads four ``level_views``: the halves and the
    free part of ``dt``, and a work buffer over a third of the states.  The
    n tuples are built once per call and read by every sweep, since at the
    report's arities the sweeps cost mostly such fixed numpy work.
    """
    n = val.ndim - 1
    # dt fills the front of a zeroed array of 4-byte words; its entries only
    # fall, so the exact sum of the words is unchanged only after a sweep
    # that changed nothing
    words = np.zeros(-(-val.size // 4), dtype=np.uint32)
    dt = words.view(np.int8)[: val.size].reshape(val.shape)
    np.equal(val, 2, out=dt.view(np.bool_))
    dt *= n
    full = dt[(2,) * n]  # the whole cube's entry of every table
    buf = np.empty(dt.size // 3, dtype=np.int8)
    # the (low, high, free, out) views of each axis, built once for every sweep
    axes = []
    for k in range(n):
        run = 3 ** (n - 1 - k) * full.size
        axes.append((*level_views(dt, 3, run), *level_views(buf, 1, run)))
    total = None
    for sweep in range(1, n + 1):
        if full.max() <= lower:
            break
        for low, high, free, out in axes:
            np.maximum(low, high, out=out, order="C")
            out += 1
            np.minimum(free, out, out=free, order="C")
        before, total = total, int(words.sum(dtype=np.uint64))
        if total == before or full.max() <= sweep:
            break
    return dt


def _dt_query(dt, s: int, free: list) -> int:
    """The position in ``free`` of the variable that the witness rule queries
    at the ternary state s of flat sweeps ``dt``, s not constant: the
    smallest free variable whose two halves reach dt[s]."""
    depth = dt[s]
    for j, (_, stride) in enumerate(free):
        if 1 + max(dt[s - 2 * stride], dt[s - stride]) == depth:
            return j
    raise AssertionError("decision-tree reconstruction failed")


def _full_prefixes(coeffs: np.ndarray) -> memoryview:
    """Whether each prefix restriction x_1..x_d = a (d < n, a < 2**d) has
    full degree n - d, at index 2**d - 1 + a, from f's Moebius coefficients.

    The restriction's top coefficient, of x_{d+1}...x_n, is the sum of
    c[H_d | T] over T within a, H_d the mask of bits d..n-1: after d passes
    of a subset sum over the low bits it sits at H_d | a, among the table's
    last 2**d entries.  Every index read has bit n - 1 set, so the passes
    run over the upper half alone, n - 1 passes of 2**(n-2) additions.
    """
    n = coeffs.size.bit_length() - 1
    full = np.empty(coeffs.size - 1, dtype=np.bool_)
    sums = coeffs[coeffs.size // 2 :].copy()
    for d in range(n):
        np.not_equal(sums[-(1 << d) :], 0, out=full[(1 << d) - 1 : (2 << d) - 1])
        if d < n - 1:
            _subset_sum(*level_views(sums, 2, 1 << d))
    return full.data


# Most free variables of a prefix restriction whose subtree ``_dt_tree``
# shares with every restriction of the same table: its key is then at most
# 64 bytes.
_DT_MEMO_FREE = 6


def _dt_slab(val: np.ndarray, d0: int) -> np.ndarray:
    """The subcube tables of the 2**d0 prefix restrictions x_1..x_d0 = a of a
    fold's ``val``, one per column a, contiguous, of shape (3,) * (n - d0) +
    (2**d0,): ``val`` itself at d0 = 0.

    Above, the columns are the ternary states sum(a_i * 3**i) of
    ``val.reshape(-1, 3**d0)`` (``_ternary``), read by one ``take``.  A
    strided view with the same entries has innermost runs of 2 bytes, and
    copying it flat, which the walk's reads need, is slower: on a random
    n = 14 function (2-core Xeon VM, best of 7) the take costs 3.6, 2.0
    and 0.9 ms at d0 = 1, 2 and 4, against 9.3, 7.6 and 3.7 ms for the
    copy.
    """
    if d0 == 0:
        return val
    shape = (3,) * (val.ndim - 1 - d0) + (1 << d0,)
    return val.reshape(-1, 3**d0).take(_ternary(d0), axis=1).reshape(shape)


def _dt_tree(val: np.ndarray, coeffs: np.ndarray) -> tuple[int, dict]:
    """DT and the tree the witness rule walks from the whole cube, built
    top-down by one breadth-first walk: at each state that is not constant,
    the rule queries the smallest free variable whose two halves reach its
    depth (``_dt_query``).

    The walk's queue holds (node, d, a, s, free) entries, each a node to
    fill.  With ``free`` None, the node is the prefix restriction x_1..x_d
    = a, at the ternary state s of ``val``.  A restriction with k free
    variables whose top Moebius coefficient is nonzero (``_full_prefixes``)
    has degree k, so DT = k (deg <= DT <= k).  One of its halves on x_{d+1}
    then has full degree k - 1 (the top coefficient is the difference of
    theirs), so x_{d+1}, its smallest free variable, meets the rule's
    tie-break, and the node queries it with no table read.  Any other
    restriction that is not constant is a hole.  Holes lie below full-degree
    nodes, or one sits at the root.  The queue is first-in first-out, so the
    first hole popped lies at the shallowest hole depth d0: the sweeps
    (``_depth_sweeps``) run then, once, on the slab of all 2**d0
    restrictions at that depth (``_dt_slab``), and every hole takes the
    rule's variable from them.  A hole that queries x_{d+1} has prefix
    restrictions for children, as a full-degree node does; below any other
    query the states are no longer prefix restrictions, and their entries
    hold a slab state s and ``free``, the pairs (i, stride of i) of its free
    variables i, ascending (their d and a are not read).  The tree is the
    one the rule walks on the whole lattice, since it reads only exact
    depths.  DT is n, unless the hole is at the root, where the sweeps are
    those of the whole lattice and give it.

    The rule reads only a restriction's own subcubes, so two restrictions of
    one depth with the same table have the same subtree.  ``points`` holds
    f's values, one byte per input, so the table of x_1..x_d = a is the
    slice from a in steps of 2**d; its length, 2**(n-d), sets the depth, so
    one dict keys every depth.  Where a restriction has at most
    ``_DT_MEMO_FREE`` free variables, its node is made once per table, and
    every later restriction with that table, reached from a full-degree
    node or from a hole that queries its smallest free variable, gets the
    same object; every constant state, of a prefix or of the slab, is one
    of two shared leaves.  The tree is thus a DAG of shared nodes, and
    read-only.  The walk is one loop of plain reads, with no closure, so it
    makes no reference cycle, and the fold is freed when its caller drops
    it.
    """
    n = val.ndim - 1
    full = _full_prefixes(coeffs)
    vals = val.reshape(-1).data
    points = val[(slice(0, 2),) * n].tobytes()
    memo: dict = {0: {"value": 0}, 1: {"value": 1}}
    if vals[-1] != 2:
        return 0, memo[vals[-1]]
    tree: dict = {}
    queue = deque([(tree, 0, 0, 3**n - 1, None)])
    d0 = None
    while queue:
        node, d, a, s, free = queue.popleft()
        if free is not None:
            j = _dt_query(dt, s, free)
        elif not full[(1 << d) - 1 + a]:
            if d0 is None:
                d0, m, lead = d, 1 << d, 3**d
                slab = _dt_slab(val, d0)
                slab_vals, dt = slab.reshape(-1).data, _depth_sweeps(slab).reshape(-1).data
                slab_free = [(i, m * 3 ** (i - d0)) for i in range(d0, n)]
            t, free = (a & (m - 1)) + m * (s // lead), slab_free[d - d0 :]
            j = _dt_query(dt, t, free)
            if j:
                s = t
            else:
                free = None
        if free is None:
            i, stride, table, rest = d, 3**d, vals, None
        else:
            (i, stride), table, rest = free[j], slab_vals, free[:j] + free[j + 1 :]
        node["var"] = i + 1
        for side, b, c in (("low", a, s - 2 * stride), ("high", a | 1 << d, s - stride)):
            v = table[c]
            if v != 2:
                child = memo[v]
            elif rest is None and len(points) >> (d + 1) <= 1 << _DT_MEMO_FREE:
                key = points[b :: 2 << d]
                child = memo.get(key)
                if child is None:
                    child = memo[key] = {}
                    queue.append((child, d + 1, b, c, None))
            else:
                child = {}
                queue.append((child, d + 1, b, c, rest))
            node[side] = child
    return (dt[-1] if d0 == 0 else n), tree


def certificate(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Smallest set of coordinates that, fixed as in the input, pins f constant.

    Reads the certificate sizes (``_certificate_sizes``) of the fold of the
    ternary subcube table (``_subcube_fold``: 3**n states, 3n passes, 7/3
    bytes per state), not the DT sweeps: C(f,x) at every input x is n less
    the most free variables of a constant subcube through x.  The fixed set
    is then rebuilt at its one point as the complement of the largest free
    set of that many variables whose subcube is constant, so it is the
    smallest mask among the smallest certificates.  Unpointed, the witness
    point is the smallest input of maximum certificate size.  Above the
    table's byte budget (n > 16) it raises ``LatticeBudgetError`` whatever
    ``limit`` says.

    Witness: (point, mask of the fixed set).
    """
    return _Measures(f, {"C": limit}).certificate(witness, at)


def dt_depth(f: TruthTable, witness: bool = False, limit: int | None = None):
    """Depth of an optimal decision tree, from the degree and the ternary
    subcube table.

    deg <= DT <= n, so where f's top Moebius coefficient is nonzero DT = n
    and no subcube table is built.  Otherwise the DT sweeps
    (``_depth_sweeps``) lower an upper bound on the optimal depth of each of
    the 3**n subcubes, from the fold's ``val`` alone, in at most
    n**2 * 3**(n-1) entries of work, and stop once the whole cube's entry
    meets deg.  The ceiling and the byte budget of the table, the one that
    ``certificate`` checks, come first: above the budget (n > 16) it raises
    ``LatticeBudgetError`` whatever ``limit`` says.  The reports and
    ``commlb.bound_summary`` also stop the sweeps at bs, with the same value.

    The witness tree queries 1-based variables ('var', 'low', 'high' nodes,
    'value' leaves): at each subcube, from the whole cube down, it queries
    the smallest variable whose two halves reach the optimum, and it ends in
    a leaf wherever the subcube is constant.  It is built top-down by one
    breadth-first walk from the prefix restrictions x_1..x_d = a
    (``_dt_tree``): one of full degree queries x_{d+1} without reading a
    table, and the sweeps run once, on the slab of restrictions at the depth
    of the shallowest one of lower degree that is not constant; the states
    below it read them.  Restrictions x_1..x_d = a with at most 6 free
    variables and the same table share one subtree object, and every
    constant subcube is one of two leaf objects, one per value, so the tree
    is a DAG: read it, serialize it or validate it, but do not mutate it, as
    with the read-only pattern tables.
    """
    return _Measures(f, {"DT": limit}).dt_depth(witness)


# ---------------------------------------------------------------------------
# alternation and shift-invariant alternation


def _best_chains(table, n: int):
    """alt and the lexicographically smallest maximum-alternation chain of
    one packed table, a Python int at any n, as (int, list of the n + 1
    chain points), or of every table of (m,) ``_lane(n)`` lanes (n <= 6),
    as ((m,) int64, (m, n + 1) uint8); the chains are the transpose of the
    step-major array the walk fills, so row j of ``chains.T`` is step j of
    every chain, contiguous.

    Reads the level sets run down from 1^n (``_level_sets`` at shift
    2**n - 1).  Level k is then {x : d[x] >= k}, with d[x] the most value
    changes along a monotone path from x up to 1^n, so alt = d[0] is the
    number of nonempty levels.  Each step from x takes the smallest free
    direction i whose point y = x | e_i stays on an optimal path, d[y] + c
    == d[x] with c = 1 where f(y) != f(x), and d falls by c; one exists
    below 1^n, since d[x] is the best of its steps up.  Every path from x
    to 1^n changes value f(x) XOR f(1^n) times mod 2, so d[y] + c has the
    parity of d[x], and d[y] + c <= d[x] always: y is optimal iff it lies
    in level d[x] - 1, or anywhere where d[x] = 0.  So one level is read
    per step, and f only to lower d.

    One table reads each level and f as bytes, so every probe is O(1).
    Lanes walk every table at once, on level sets packed the same way:
    each step gathers one level of every table and takes the lowest of
    its points among the up neighbours of x.
    """
    size = table_size(n)
    batch = isinstance(table, np.ndarray)
    moves, full = _shift_moves(table, n)
    levels = [full, *_level_sets(moves, full, size - 1, n + 1)]
    if not batch:
        def at(data: bytes, y: int) -> int:
            return (data[y >> 3] >> (y & 7)) & 1

        width = max(1, size >> 3)
        by = [level.to_bytes(width, "little") for level in levels]
        t = table.to_bytes(width, "little")
        alt = len(levels) - 1
        x, d, points = 0, alt, [0]
        for _ in range(n):
            level, bit = by[max(d - 1, 0)], 1
            while x & bit or not at(level, x | bit):
                bit <<= 1
            d -= at(t, x) ^ at(t, x | bit)
            x |= bit
            points.append(x)
        return alt, points

    # row d holds level max(d - 1, 0) of every column
    stack = np.stack([full, *levels])
    alt = np.count_nonzero(stack[2:], axis=0).astype(np.int64)
    # up[x]: the points x | e_i of the free directions i of x
    every = np.arange(size, dtype=table.dtype)
    up = np.zeros_like(every)
    for i in range(n):
        y = every | (1 << i)
        up |= (y != every).astype(up.dtype) << y
    cols = np.arange(table.size)
    x, d = np.zeros(table.size, dtype=np.uint8), alt.astype(table.dtype)
    points = np.zeros((n + 1, table.size), dtype=np.uint8)
    for step in range(1, n + 1):
        reach = stack[d, cols] & up[x]
        y = np.bitwise_count(reach ^ (reach - 1)) - 1  # its lowest point
        d -= ((table >> x) ^ (table >> y)) & 1
        x = y
        points[step] = x
    return alt, points.T


def alternation(f: TruthTable, witness: bool = False):
    """Maximum number of value changes along a maximal monotone chain.

    alt is the number of nonempty level sets of the shift 0
    (``_alternation_at_shift``).  The witness is the lexicographically
    smallest chain achieving it, walked on plain ints off the level sets
    run down from 1^n (``_best_chains``), whose nonempty levels number alt
    too.
    """
    return _Measures(f, {}).alternation(witness)


# Arity from which the salt search tightens the parity floor by
# ``_chain_bound`` after its first shift.  Below it the bound's fixed cost,
# about 9n + 25 numpy calls (about 10 for the masks, 9 a step of the walk),
# is more than it saves: mean per call over 20 random functions, best of 15
# alternating rounds, on a 2-core VM, floor only against floor and chain
# bound: 33 against 65 us at n = 4 (6.5 against 1.7 shifts), 100-110
# against 82-91 us at n = 5 (16 against 2.0), 283-311 against 100-111 us
# at n = 6 (32 against 1.8), 793-844 against 126-136 us at n = 7 (64
# against 2.4).
_BOUND_MIN_ARITY = 5


def _level_sets(moves: list, full, b: int, cap: int):
    """Yield the level sets 1, 2, ... of the shift b, up to ``cap``, as packed
    point sets; alt(x -> f(x XOR b)) is the number of nonempty ones.

    ``moves`` and ``full`` come from ``_shift_moves``, of one function, a
    Python int at any n, or of lanes, an array with one function per lane
    of max(8, 2**n) bits (n <= 6); the point sets have that type.
    Works in the frame of f, so no table is shifted: a chain of the shifted
    function steps along direction i from x to x XOR e_i wherever bit i of
    x equals bit i of b.  Level k is the set of points that some chain from
    the bottom point b reaches with at least k value changes: the points
    one changing step above level k-1, closed upward along the chain order.
    So every nonempty level holds the top point, a level built from an
    empty one is empty, and the levels stop at the first level empty in
    every row.  The level at ``cap`` is only tested for emptiness, so it is
    yielded unclosed.  Run down from 1^n (b = 2**n - 1, cap n + 1), level k
    is the set of x with a monotone path up to 1^n of at least k changes,
    on which ``_best_chains`` walks the witness chains.
    """
    level = full
    for k in range(1, cap + 1):
        nxt = 0
        for s, _, low, high in moves:
            nxt |= ((level >> s) & low) if b & s else ((level << s) & high)
        if not (nxt if type(nxt) is int else nxt.any()):
            return
        if k < cap:
            for s, m, _, _ in moves:
                nxt |= ((nxt >> s) & m) if b & s else ((nxt & m) << s)
        yield nxt
        level = nxt


def _alternation_at_shift(moves: list, full, b: int, cap: int):
    """min(alt(x -> f(x XOR b)), cap), by the level sets of ``_level_sets``:
    an int for one function, an int array for lanes."""
    alt = 0
    for level in _level_sets(moves, full, b, cap):
        alt += level != 0
    return alt


def _lane(n: int) -> np.dtype:
    """The unsigned little-endian type of max(8, 2**n) bits (n <= 6)."""
    return np.dtype(f"<u{max(1, table_size(n) >> 3)}")


def _shift_moves(table, n: int) -> tuple[list, object]:
    """The moves of ``_level_sets`` and the mask of all 2**n points: Python
    ints for one packed table, (m,) arrays of ``_lane(n)`` for (m,) lanes,
    bit x of a lane holding its table's value at x.

    Each pass of the level sets moves max(8, 2**n) bits per table, and bit
    x of lane r is ``(lanes[r] >> x) & 1``, which reads a table at any
    inputs with no index arithmetic.  The masks are those of one table,
    since no move carries a bit past the 2**n points of its table.

    Per direction i the move is (1 << i, its low-half mask m, d & m, d ^
    (d & m)), bit x of d saying f(x) != f(x XOR e_i).  A changing step down
    along i lands in d & m and one up in the rest of d, so these halves
    also drop the bits that a shifted level carries across halves.
    """
    moves = []
    for i, d in enumerate(_direction_planes(table, n)):
        m = low_half_mask(n, i)
        moves.append((1 << i, m, d & m, d ^ (d & m)))
    return moves, table | table_mask(n)


@cache
def _bit_reversal(n: int) -> np.ndarray:
    """The bit reversal of every point of n bits, as read-only int32: a
    permutation that ``_chain_bound`` reads once per call."""
    points = np.arange(table_size(n), dtype=np.int32)
    rev = np.zeros_like(points)
    for i in range(n):
        rev |= ((points >> i) & 1) << (n - 1 - i)
    rev.flags.writeable = False
    return rev


@cache
def _byte_spread() -> np.ndarray:
    """Read-only (8, 256) uint64: byte j of entry [i, b] is bit j of the
    byte b, shifted left by i.  The OR of entries [i, b_i] over i < 8 is
    the transpose of the 8 x 8 bit matrix of rows b_i."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    spread = bits.view("<u8")[:, 0] << np.arange(8, dtype=np.uint64)[:, None]
    spread.flags.writeable = False
    return spread


def _direction_masks(planes: list[int], n: int) -> np.ndarray:
    """The mask of sensitive directions at every point x, bit i set where
    f(x) != f(x XOR e_i), as (2**n,) intp, from f's n direction planes
    (``_direction_planes``): plane i is the packed table of f(x) XOR
    f(x XOR e_i).

    Each group of 8 planes, as bytes, is transposed into one byte of every
    point's mask by one gather from ``_byte_spread`` and one OR-reduction:
    a fixed number of numpy calls per 8 variables, not about 7 per
    variable, and no array above 8 bytes per point.
    """
    size = table_size(n)
    nbytes = max(1, size >> 3)
    groups = -(-n // 8)
    raw = bytearray(8 * groups * nbytes)
    for i, plane in enumerate(planes):
        raw[i * nbytes : (i + 1) * nbytes] = plane.to_bytes(nbytes, "little")
    grouped = np.frombuffer(raw, dtype=np.uint8).reshape(groups, 8, nbytes)
    width = 1 << max(0, groups - 1).bit_length()  # 1, 2 or 4 bytes a mask
    masks = np.zeros((size, width), dtype=np.uint8)
    rows = np.arange(8)[:, None]
    for g in range(groups):
        words = np.bitwise_or.reduce(_byte_spread()[rows, grouped[g]], axis=0)
        masks[:, g] = words.astype("<u8", copy=False).view(np.uint8)[:size]
    return masks.view(f"<u{width}")[:, 0].astype(np.intp)


def _chain_bound(f: TruthTable, planes: list[int]) -> np.ndarray:
    """A lower bound on alt(f XOR b) for every shift b < 2**(n-1), given f's
    n direction planes (``_direction_planes``).

    In the frame of f a maximal chain of x -> f(x XOR b) runs from b to
    ~b, flipping every direction once, and any one chain's value changes
    are at most the maximum.  A greedy chain flips at each step the
    smallest free direction that changes f, else the smallest free one.
    The bound is the most changes of four greedy chains: from b and, since
    alt(f XOR b) == alt(f XOR ~b), from ~b, each with the directions taken
    smallest or largest first.  Every count has the parity of f(b) XOR
    f(~b), as every chain's does.  Largest first is smallest first with the
    variables reversed (``_bit_reversal``), so the chains from every point,
    the b and ~b of every shift, walk at once both ways: n gathers from the
    per-point masks of sensitive directions (``_direction_masks``) of f and
    of f reversed, stacked in one table.
    The positions, the free directions and the table are intp, the type
    numpy gathers with, so no gather converts its index.  Where all four
    count 0, f(b) == f(~b) and no greedy step changes f; the bound is then
    2 unless f is constant, since some chain from b to ~b passes a point
    where f differs from f(b) and must change back.
    """
    n = f.n
    size = table_size(n)
    rev = _bit_reversal(n)
    sens = _direction_masks(planes, n)
    table = np.concatenate([sens, rev[sens[rev]]], dtype=np.intp)
    # a chain from every point, then from every point reversed, which reads
    # the second half of the table; the shifts b and ~b take the most of both
    x = np.concatenate([np.arange(size), rev | size], dtype=np.intp)
    free = np.full_like(x, size - 1)
    count = np.zeros_like(x)
    for _ in range(n):
        step = table[x] & free
        changes = step != 0
        count += changes
        step = np.where(changes, step, free)
        step &= -step
        x ^= step
        free ^= step
    most = count.reshape(2, -1).max(axis=0)
    bound = np.maximum(most[: size >> 1], most[::-1][: size >> 1])
    if 0 < f.bits < table_mask(n):
        bound[bound == 0] = 2
    return bound


def _salt_search(f: TruthTable) -> tuple[int, int, int]:
    """(salt(f), its smallest argmin shift b < 2**(n-1), shifts evaluated).

    Every alt(f XOR b) has the parity of f(b) XOR f(~b), and is at least 1
    if f is not constant, so it is at least its parity floor: 1 where
    f(b) != f(~b), else 2, and 0 for a constant f.  The search
    (``_best_first``) maximizes -alt(f XOR b) under -floor(b), so it first
    evaluates the smallest shift of the least floor, and stops there if that
    shift meets its floor.  From ``_BOUND_MIN_ARITY`` on, the shifts left
    are then ordered by ``_chain_bound``, on the direction planes that the
    moves hold as their two halves.  Each shift runs alone on packed ints
    (``_alternation_at_shift``), its level sets only up to the best value
    so far, or one more when it lies below the best shift.
    """
    n = f.n
    half = max(1, table_size(n) >> 1)
    moves, full = _shift_moves(f.bits, n)
    t = f.to_array()
    odd = t[:half] != t[::-1][:half]  # f(b) != f(~b)
    neg_floor = odd - 2 * (0 < f.bits < table_mask(n))

    def alt(b, best, at):
        return -_alternation_at_shift(moves, full, b, min(-best + (b < at), n)), None

    tighten = ((lambda _: -_chain_bound(f, [lo | hi for _, _, lo, hi in moves]))
               if n >= _BOUND_MIN_ARITY else None)
    best, at, evaluated, _ = _best_first(neg_floor, alt, tighten, 1)
    return -best, at, evaluated


def alternation_under_shifts(f: TruthTable) -> np.ndarray:
    """Alternation of every shifted function x -> f(x XOR b), indexed by b.

    Needs every value, so it takes no bound and prunes nothing: each shift
    b < 2**(n-1) runs ``_alternation_at_shift`` without a cap, as int16,
    mirrored into the top half, since alt(f XOR b) == alt(f XOR b XOR 1^n):
    complementing the shift walks every chain in reverse.  At n = 0 the one
    shift 0 is kept.
    """
    moves, full = _shift_moves(f.bits, f.n)
    half = np.array([_alternation_at_shift(moves, full, b, f.n)
                     for b in range(max(1, table_size(f.n) >> 1))], dtype=np.int16)
    return half if f.n == 0 else np.concatenate([half, half[::-1]])


def shift_invariant_alternation(
    f: TruthTable, witness: bool = False, limit: int | None = None
):
    """Minimum alternation over all XOR shifts of the input; witness is the
    smallest argmin shift.

    Visits only the shifts b < 2**(n-1), since alt(f XOR b) equals
    alt(f XOR b XOR 1^n) (the chain runs in reverse).  The search
    (``_salt_search``, the best-first search that bs runs over its inputs
    too) visits the shifts by a lower bound on alt(f XOR b), skips those
    that cannot win, and runs each only up to the best value so far.  The
    bound is first the parity floor (1 where f(b) != f(~b), else 2), so
    the first shift run is the smallest of the least floor, which settles
    salt on its own where it meets that floor, as on majority, AND and OR.
    Otherwise, from n = ``_BOUND_MIN_ARITY`` on, the shifts left are
    ordered by the most changes of four greedy chains between b and ~b
    (``_chain_bound``): at most 2**(n-1) shifts x salt levels x n moves
    over 2**n points, and on most functions a few dozen shifts, each run
    alone on packed ints.
    """
    return _Measures(f, {"salt": limit}).shift_invariant_alternation(witness)


# ---------------------------------------------------------------------------
# polynomial degrees and Fourier sparsity


def real_degree(f: TruthTable, witness: bool = False):
    """Degree of the multilinear polynomial for f over the rationals.

    Computed from exact integer coefficients (int8 to int32 by arity, see
    ``spectral``); the witness is the smallest maximal-degree monomial mask.
    """
    return _Measures(f, {}).degree(witness)


def modp_degree(f: TruthTable, p: int, witness: bool = False):
    """Degree of the multilinear polynomial for f over the p-element field."""
    _check_primes((p,))
    return _Measures(f, {}).degree(witness, p)


def sparsity(f: TruthTable, witness: bool = False):
    """Number of nonzero Walsh-Hadamard coefficients of the +-1 view.

    The witness is the full spectrum, with the int64 coefficients of
    ``spectrum(f, WALSH)``.
    """
    return _Measures(f, {}).sparsity(witness)


# ---------------------------------------------------------------------------
# witness validation


def validate_block_family(f: TruthTable, fam: BlockFamily) -> bool:
    size = table_size(f.n)
    if not 0 <= fam.point < size:
        return False
    seen = 0
    base = f.value_at(fam.point)
    for b in fam.blocks:
        if not 0 < b < size or b & seen:
            return False
        seen |= b
        if f.value_at(fam.point ^ b) == base:
            return False
    return True


def validate_certificate_set(f: TruthTable, point: int, fixed_mask: int) -> bool:
    if not (0 <= point < table_size(f.n) and 0 <= fixed_mask < table_size(f.n)):
        return False
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


def _well_formed(tree, n: int, queries: int) -> bool:
    """Is every node a leaf ``{"value": 0 or 1}`` or a query ``{"var": 1..n,
    "low": ..., "high": ...}``, with at most ``queries`` queries on a path.

    Witness trees share the subtrees of equal restrictions, so each query
    node is checked once per number of queries left below it: the memo keys
    on both, since a subtree within the budget below one parent may exceed
    it below a deeper one."""
    memo: dict[tuple[int, int], bool] = {}

    def ok(node, left: int) -> bool:
        if not isinstance(node, dict):
            return False
        if node.keys() == {"value"}:
            return node["value"] in (0, 1)
        if left == 0 or node.keys() != {"var", "low", "high"} or node["var"] not in range(1, n + 1):
            return False
        key = (id(node), left)
        if key not in memo:
            memo[key] = ok(node["low"], left - 1) and ok(node["high"], left - 1)
        return memo[key]

    return ok(tree, queries)


def validate_decision_tree(f: TruthTable, tree: dict, claimed_depth: int) -> bool:
    """Does ``tree`` compute f, with a deepest path of ``claimed_depth``
    queries.

    After the structure check (``_well_formed``), the tree's distinct node
    objects are numbered once, so a witness DAG is read once per node, not
    per path, and every input steps down together: step k takes each input
    at a query to the child of its bit, a leaf keeps it, and the first step
    with no input at a query is the deepest path's length.  A well-formed
    tree makes at most n queries on a path, so that is n + 1 vectorized
    steps over the 2**n inputs; then each input's leaf must hold f's value.
    """
    n = f.n
    if not _well_formed(tree, n, n):
        return False
    number, nodes = {id(tree): 0}, [tree]
    for node in nodes:  # grows as it is read: breadth-first over the DAG
        for side in ("low", "high") if "var" in node else ():
            if id(node[side]) not in number:
                number[id(node[side])] = len(nodes)
                nodes.append(node[side])
    # per node: its variable, 0-based; its children, low then high, where a
    # leaf is its own; and its value, -1 at a query
    var = np.array([node.get("var", 1) - 1 for node in nodes])
    child = np.array([[number[id(node["low"])], number[id(node["high"])]] if "var" in node
                      else [j, j] for j, node in enumerate(nodes)]).reshape(-1)
    value = np.array([node.get("value", -1) for node in nodes])
    query = value < 0
    points = np.arange(table_size(n))
    at = np.zeros_like(points)
    for depth in range(n + 1):
        if not query[at].any():
            return depth == claimed_depth and bool((value[at] == f.to_array()).all())
        at = child[2 * at + ((points >> var[at]) & 1)]
    raise AssertionError("a well-formed tree makes at most n queries on a path")


# ---------------------------------------------------------------------------
# one function's measures and their report

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
        wit = {name: _measure(name).witness_json(w, n) for name, w in self.witnesses.items()}
        return {
            "function": tt_serialize(self.function),
            "arity": n,
            "measures": dict(self.measures),
            "witnesses": wit,
            "skipped": list(self.skipped),
        }


class _Measures:
    """Every measure of one function f, and its report: the one route by
    which every per-function caller reads them.

    The measures are s, bs and C, maximized or at one input ``at``; alt and
    salt; deg and deg_p (``degree``); sparsity; and DT.  Each is one row of
    ``_MEASURES``: its name, its method here, its default arity ceiling and
    its witness as JSON; ``DEFAULT_LIMITS``, the report's methods, its
    witness JSON, the CLI's CSV columns and the statistics' inputs all read
    the rows.  To add a measure, write its method here, add its row, and
    ``run`` it in ``report`` at its place in the report order.  The public
    functions are thin calls on a fresh owner; a caller that reads several
    measures of one f, or reads more after the report, builds one owner and
    reads them all from it.  A measure with an arity ceiling (bs, C, salt,
    DT) checks it first, by the one rule of ``_skip``.

    The owner keeps five things, each built on first use:

    * the bit-slices of s(f,x) at every input (``_sensitivity_slices``):
      s reads their maximum, and the bs search unpacks them once, into
      its bound u(x) on bs(f,x) (``_sensitivity_bound``);
    * the fold's ``val`` (``_subcube_fold``: 3**n states, n passes), read by
      C, by DT and by the bs search;
    * C(f,x) at every input (``_certificate_sizes``: n more passes and n
      max-passes, then 2**n bytes), built from the fold and read by C,
      pointwise C and the bs search; DT never builds it;
    * the bs search's value and best input, and the packing of each input
      that bs has read (``_bs_point``), the search's best among them;
    * the Moebius table (2**n coefficients, int8 to int32 by arity), read
      by deg, by every deg_p as its residues mod p (exact: see
      ``spectral``) and by DT.

    ``report`` drops two of them once no later measure of its list reads
    them: the bit-slices right after s where bs skips, and the Moebius table
    after the last deg_p where DT skips, before sparsity builds the Walsh
    table.  A caller that reads s or a degree after such a report builds
    the table again.  A skip holds no reference to any of them: ``_check``
    leaves its exception in no local, so no reference cycle keeps the
    owner alive after the skip is caught, and the packer (``_packing``) is
    no cycle either; the owner and its tables are freed when the last
    reference goes, without the collector.

    alt, salt and sparsity keep nothing: each builds what it reads (the
    level-set moves of ``_shift_moves``, the Walsh table) on each call,
    which the report makes once.  The moves are not kept for salt to share
    with alt: they hold the two halves of each of the n direction planes,
    2n * 2**n bits, which would stay alive through deg, deg_p, sparsity and
    DT.  Keeping alt's raised the maxrss of ``measures`` on the CI n = 24
    table, where salt is skipped, from 392 to 497 MiB (2-core VM).

    The DT sweeps (``_depth_sweeps``: up to n**2 * 3**(n-1) entries of
    work) run on each DT call, which every caller makes once, and only
    where the degree does not settle DT.  Without a witness, DT is at least
    deg and any lower bound the caller passes: at n it needs no table,
    since DT <= n, and otherwise the sweeps stop once the whole cube's
    entry meets it.  A witness is built top-down by one breadth-first walk
    from the prefix restrictions (``_dt_tree``): those of full degree query
    their next variable with no table read, and the sweeps run once, on the
    slab of the first restriction of lower degree that the walk meets,
    which is at the shallowest depth; every state below it reads them.

    The unpointed bs search (``_best_first`` over the inputs, valued by
    ``_bs_point``) runs under min(u(x), C(f,x)), since bs(f,x) <= C(f,x),
    from its first input if the certificate sizes exist; otherwise under u
    alone until n inputs have not settled it, and then it builds them if
    the table fits the byte budget, whatever the C and DT ceilings say.
    The search runs once.  It holds the packing function of its best input
    so far (``_bs_point``) as ``_best_first``'s payload, so at most one
    packer beyond the one being evaluated; the value, the input and that
    packing are kept.  A pointwise bs keeps its packing too, by input, so
    a second read at an input, or a read at the search's best input, packs
    nothing, and a call with ``witness`` reads the family off the packer's
    memo.
    """

    def __init__(self, f: TruthTable, limits: dict):
        self.f = f
        self.limits = limits
        self._slices: list[int] | None = None
        self._val: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._bs_argmax: int | None = None  # the bs search's best input
        self._packs: dict = {}  # input -> (bs there, the function packing its family)
        self._coeffs: np.ndarray | None = None

    def _skip(self, measure: str) -> ArityLimitError | None:
        """The skip that keeps ``measure`` from running: its ceiling,
        ``limits[measure]`` or, where that is None, ``DEFAULT_LIMITS``; then,
        for C and DT, the byte budget of the subcube table."""
        n, ceiling = self.f.n, self.limits.get(measure)
        if ceiling is None:
            ceiling = DEFAULT_LIMITS[measure]
        if n > ceiling:
            return ArityLimitError(measure, n, ceiling)
        if measure in ("C", "DT") and _table_bytes(n) > _LATTICE_BUDGET:
            return LatticeBudgetError(measure, n)
        return None

    def _check(self, measure: str, at: int | None = None) -> None:
        """Raise on a point out of range, then on ``measure``'s skip.

        The skip is raised straight from the call that builds it: held in a
        local, it would form a cycle with its traceback, which holds this
        frame, and keep the frames above, with this owner and its tables,
        alive until a full collection."""
        if at is not None:
            _check_point(at, self.f.n)
        if self._skip(measure) is not None:
            raise self._skip(measure)

    def _sliced(self) -> list[int]:
        if self._slices is None:
            self._slices = _sensitivity_slices(self.f.bits, self.f.n)
        return self._slices

    def _folded(self) -> np.ndarray:
        """The fold's val, shaped (3,) * n + (1,)."""
        if self._val is None:
            self._val = _subcube_fold(self.f.to_array()[:, None])
        return self._val

    def _certificates(self) -> np.ndarray:
        if self._sizes is None:
            self._sizes = _certificate_sizes(self._folded())[:, 0]
        return self._sizes

    def _moebius(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _moebius_rows(self.f)
        return self._coeffs

    def _certificate_bound(self, bound: np.ndarray) -> np.ndarray | None:
        """min(bound, C(f,x)) at every input x; None where the subcube table
        would exceed its byte budget."""
        fits = self._sizes is not None or _table_bytes(self.f.n) <= _LATTICE_BUDGET
        return np.minimum(bound, self._certificates()) if fits else None

    def sensitivity(self, witness: bool, at: int | None = None):
        """s, or s(f, at), with the point (the smallest maximizing input
        unpointed) and the mask of the coordinates sensitive there if
        ``witness``.  Unpointed, s and its point are read off the kept
        bit-slices (``_slice_max``); one input reads its n neighbours."""
        if at is None:
            s, at = _slice_max(self._sliced(), self.f.n)
            if not witness:
                return s
        else:
            _check_point(at, self.f.n)
        mask = _sensitive_mask(self.f, at)
        return (mask.bit_count(), (at, mask)) if witness else mask.bit_count()

    def block_sensitivity(self, witness: bool, at: int | None = None):
        """bs, or bs(f, at), with its ``BlockFamily`` if ``witness``."""
        f = self.f
        self._check("bs", at)
        if at is None:
            if self._bs_argmax is None:
                bound = _sensitivity_bound(_slice_counts(self._sliced(), f.n))
                tighten = self._certificate_bound
                if self._sizes is not None:
                    bound, tighten = tighten(bound), None
                bs, x, _, pack = _best_first(
                    bound, lambda x, best, at: _bs_point(f, x, False), tighten, f.n)
                self._bs_argmax = x
                self._packs.setdefault(x, (bs, pack))
            at = self._bs_argmax
        if at not in self._packs:
            self._packs[at] = _bs_point(f, at, False)
        val, pack = self._packs[at]
        return (val, pack()) if witness else val

    def certificate(self, witness: bool, at: int | None = None):
        """C, or C(f, at), with (point, mask of the fixed set) if ``witness``."""
        self._check("C", at)
        sizes = self._certificates()
        point = int(np.argmax(sizes)) if at is None else at
        val = int(sizes[point])
        return (val, (point, _certificate_set(self._folded(), point, val))) if witness else val

    def alternation(self, witness: bool):
        """alt, with its ``Chain`` if ``witness``."""
        n = self.f.n
        if not witness:
            return _alternation_at_shift(*_shift_moves(self.f.bits, n), 0, n)
        alt, points = _best_chains(self.f.bits, n)
        return alt, Chain(tuple(points))

    def shift_invariant_alternation(self, witness: bool):
        """salt, with its smallest argmin shift if ``witness``."""
        self._check("salt")
        best, best_shift, _ = _salt_search(self.f)
        return (best, best_shift) if witness else best

    def degree(self, witness: bool, p: int | None = None):
        """deg, or deg_p for a prime p, from the kept Moebius table, with the
        smallest monomial mask of that degree if ``witness``."""
        coeffs = self._moebius() if p is None else _residues(self._moebius(), p)
        deg = int(_degrees(coeffs))
        if not witness:
            return deg
        top = (coeffs != 0) & (popcounts(self.f.n) == deg)
        return deg, int(np.argmax(top))

    def sparsity(self, witness: bool):
        """sparsity, with the full Walsh spectrum if ``witness``."""
        coeffs = _walsh_rows(self.f)
        val = int(_sparsities(coeffs))
        return (val, SpectrumRep(WALSH, self.f.n, coeffs.astype(np.int64))) if witness else val

    def dt_depth(self, witness: bool, lower: int = -1):
        """DT, with its tree if ``witness``; ``lower`` is a lower bound on DT,
        besides deg, that a call without a witness may stop at."""
        self._check("DT")
        n = self.f.n
        if witness:
            return _dt_tree(self._folded(), self._moebius())
        if lower < n:
            # DT >= deg, which is n exactly when the top coefficient is nonzero
            lower = max(lower, self.degree(False))
        if lower >= n:
            return n
        return _depth_sweeps(self._folded(), lower).item(-1)

    def report(self, primes, witnesses: bool) -> MeasureReport:
        """``measure_report`` of f, from this owner, which a caller may read
        further: the CLI's pointwise s, bs and C, or the bs family of
        ``inequality_suite`` and of the scan's cross-check, which the kept
        search's packing gives without a second search or packing.

        Each measure runs its row's method; the order of the calls is the
        report's order, and this is the one place that decides to build the
        certificate sizes between s and bs, and to drop the tables no later
        measure reads.  Each prime is checked before anything is computed.
        """
        _check_primes(primes)
        rep = MeasureReport(self.f, tuple(primes))

        def run(name: str, *args):
            try:
                out = _measure(name).method(self, witnesses, *args)
            except ArityLimitError as e:
                rep.skipped.append(
                    {"measure": name, "reason": str(e), "arity": e.arity, "limit": e.limit}
                )
                return
            if witnesses:
                rep.measures[name], rep.witnesses[name] = out
            else:
                rep.measures[name] = out

        run("s")
        if self._skip("bs") is not None:
            self._slices = None  # read by s and the bs search alone
        if self._skip("C") is None or self._skip("DT") is None:
            self._certificates()
        run("bs")
        run("C")
        run("alt")
        run("salt")
        run("deg")
        for p in primes:
            run(f"deg_{p}", p)
        if self._skip("DT") is not None:
            self._coeffs = None  # read by deg, the deg_p and DT alone
        run("sparsity")
        # DT >= bs (Nisan); only a call without a witness stops there, or at deg
        run("DT", rep.measures.get("bs", -1))
        return rep


@dataclass(frozen=True)
class _Measure:
    """One measure of the report: its name, the owner's method that computes
    it (``method(owner, witness, *args)``), its default arity ceiling (None
    where it has none) and its witness as JSON (``witness_json(w, n)``)."""

    name: str
    method: Callable
    ceiling: int | None
    witness_json: Callable


def _point_and(key: str) -> Callable:
    """The JSON of a witness (point, mask): the point, and the mask's indices under ``key``."""
    return lambda w, n: {"point": point_to_str(w[0], n), key: list(mask_indices(w[1]))}


def _support_json(w: SpectrumRep, n: int) -> dict:
    """The JSON of a Walsh spectrum: its support's size, and its support up to 64 sets."""
    count = w.nonzero_count()
    entry = {"support_size": count}
    if count <= 64:
        entry["support"] = [list(mask_indices(s)) for s in w.support()]
    return entry


# the report's measures, one row each, in report order; deg's row also
# serves every deg_{p}, which the report puts after deg
_MEASURES = {row.name: row for row in (
    _Measure("s", _Measures.sensitivity, None, _point_and("sensitive")),
    _Measure("bs", _Measures.block_sensitivity, 14,
             lambda w, n: {"point": point_to_str(w.point, n),
                           "blocks": [list(ix) for ix in w.block_indices()]}),
    _Measure("C", _Measures.certificate, 12, _point_and("set")),
    _Measure("alt", _Measures.alternation, None,
             lambda w, n: {"chain": [point_to_str(p, n) for p in w.points]}),
    _Measure("salt", _Measures.shift_invariant_alternation, 15,
             lambda w, n: {"shift": point_to_str(w, n)}),
    _Measure("deg", _Measures.degree, None, lambda w, n: {"monomial": list(mask_indices(w))}),
    _Measure("sparsity", _Measures.sparsity, None, _support_json),
    _Measure("DT", _Measures.dt_depth, 13, lambda w, n: {"tree": w}),
)}

# Cost ceilings (arity) beyond which a measure refuses to run unless the
# caller passes an explicit higher limit: bs, C, salt and DT.
DEFAULT_LIMITS = {name: row.ceiling for name, row in _MEASURES.items() if row.ceiling is not None}


def _measure(name: str) -> _Measure:
    """The row of a report key; deg_{p} is read by deg's row."""
    return _MEASURES[name.partition("_")[0]]


def measure_report(
    f: TruthTable,
    primes=(2, 3),
    limits: dict | None = None,
    witnesses: bool = True,
) -> MeasureReport:
    """Compute every measure that fits its arity ceiling; skips are explicit.

    Reads one owner of f's measures (``_Measures.report``).  bs, C and DT
    share its ternary subcube table.  Its fold and certificate sizes are
    built before bs when C or DT fits its ceiling, so the bs search runs
    under min(u(x), C(f,x)) from its first input, which on most functions
    leaves one packing search.  Otherwise bs runs the switch of the public
    ``block_sensitivity``, with the same value and witness.  deg, every
    deg_p and DT read the owner's one Moebius table.  DT comes last,
    and reads that table and the fold's ``val`` alone.  With ``witnesses``
    it builds the tree of ``dt_depth``, and sweeps only below the prefix
    restrictions of full degree; without, the sweeps stop once they meet
    max(bs, deg), a lower bound on DT (bs <= C <= DT, and deg <= DT), which
    makes the value exact, and where that bound is n they do not run at all.
    """
    return _Measures(f, limits or {}).report(primes, witnesses)
