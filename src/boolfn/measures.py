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

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ._bitops import (
    butterfly,
    level_views,
    low_half_mask,
    mask_indices,
    point_to_str,
    popcounts,
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


def _ceiling(measure: str, limit: int | None) -> int:
    return DEFAULT_LIMITS[measure] if limit is None else limit


def _ensure_limit(measure: str, arity: int, limit: int | None) -> None:
    ceiling = _ceiling(measure, limit)
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
    """Sensitivity at every input, as int8 of the shape of ``tables``: one
    table of 2**n entries, or a (2**n, m) matrix with one table per column.
    Each level's halves are ``level_views``, as in ``butterfly``."""
    width = tables[:1].size
    counts = np.zeros(tables.shape, dtype=np.int8)
    for i in range(tables.shape[0].bit_length() - 1):
        run = width << i
        diff = np.not_equal(*level_views(tables, 2, run), order="C").view(np.int8)
        for half in level_views(counts, 2, run):
            np.add(half, diff, out=half, order="C")
    return counts


def sensitivity(f: TruthTable, at: int | None = None, witness: bool = False):
    """Number of single-bit flips that change f, at one input or maximized.

    Witness: (point, mask of sensitive coordinates).
    """
    n = f.n
    if at is not None:
        _check_point(at, n)
        mask = _sensitive_mask(f, at)
        val = mask.bit_count()
        return (val, (at, mask)) if witness else val
    if n == 0:
        return (0, (0, 0)) if witness else 0
    counts = _pointwise_sensitivity(f.to_array())
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


def _minimal_blocks(sens: np.ndarray) -> list[int]:
    """Sensitive blocks with no sensitive proper subset, ascending.

    Subset sums count the sensitive subsets of every block, itself included,
    so a sensitive block is minimal where its count is 1.
    """
    below = butterfly(sens.astype(np.int32), _subset_sum)
    return [int(b) for b in np.flatnonzero(sens & (below == 1))]


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


def _bs_point(f: TruthTable, a: int, want_witness: bool) -> tuple[int, BlockFamily | None]:
    """bs(f, a) by the memoized packer over the minimal sensitive blocks at a.

    The witness is the lexicographically smallest maximum family.  Every
    per-function caller sends one input at a time here, at every arity:
    ``_bulk._packings`` batches the same packing over a table matrix, but
    for one input it costs more than this search (see ``_bulk``).
    """
    sens = _sensitive_profile(f, a)
    if not sens.any():
        return 0, (BlockFamily(a, ()) if want_witness else None)
    cands = _minimal_blocks(sens)
    best = _make_packer(cands)
    val = best(table_size(f.n) - 1)
    fam = None
    if want_witness:
        fam = BlockFamily(a, _lex_min_family(cands, f.n, best))
    return val, fam


def _sensitivity_bound(f: TruthTable) -> np.ndarray:
    """u(x) = s(f,x) + (n - s(f,x)) // 2, an upper bound on bs(f,x) at every x.

    A maximum disjoint family of sensitive blocks stays one when each block
    shrinks to a minimal sensitive block.  The minimal singletons are the
    sensitive coordinates; every other minimal block has two or more
    coordinates, none of them sensitive.
    """
    s = _pointwise_sensitivity(f.to_array())
    return s + (f.n - s) // 2


def _bs_search(f: TruthTable, bound: np.ndarray, tighten=None) -> tuple[int, int]:
    """Maximum pointwise block sensitivity under an upper bound per input,
    and its smallest maximizing input.

    Visits the inputs by descending bound, then ascending input, and stops
    at the first input that can neither beat the best value nor tie it at a
    smaller input.  A tie replaces the best only at a smaller input, so the
    maximizer is the smallest one, as in a scan of every input.  The caller
    packs the witness family there (``_bs_point``).

    Once n inputs (n the arity) have not settled it, ``tighten`` may hand
    it a tighter bound, or None: the inputs not yet visited are then
    re-ordered under that bound, and the best so far is kept.  The stop
    rule holds under any valid upper bound, so the value and the maximizer
    do not depend on the switch, only the number of inputs visited.
    """
    order = np.argsort(-bound, kind="stable").tolist()
    best, best_at = -1, 0
    pos = 0
    while pos < len(order):
        x = order[pos]
        b = int(bound[x])
        if b < best or (b == best and x > best_at):
            break
        if pos == f.n and tighten is not None:
            tighter, tighten = tighten(bound), None
            if tighter is not None:
                rest = np.sort(order[pos:])
                order = rest[np.argsort(-tighter[rest], kind="stable")].tolist()
                bound, pos = tighter, 0
                continue
        v, _ = _bs_point(f, x, False)
        if v > best or (v == best and x < best_at):
            best, best_at = v, x
        pos += 1
    return best, best_at


def block_sensitivity(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Maximum number of disjoint blocks whose flip changes f.

    Pointwise at ``at`` when given, else maximized over all inputs.  The
    witness ``BlockFamily`` is the lexicographically smallest maximum family,
    at ``at`` or at the smallest maximizing input.  Each input runs the
    memoized packer of ``_bs_point``, at every arity.  Unpointed, it runs
    the one search of ``_LatticeMeasures.block_sensitivity``: the inputs in
    order of the bound s(f,x) + (n - s(f,x)) // 2, stopping once no input
    left can beat the best (see ``_bs_search``).  That settles most random
    functions at one to three inputs.  Where n inputs have not settled it
    and the fold of the subcube table (``_subcube_fold``, without the DT
    sweeps) fits its byte budget, up to n = 16, the fold is built and the
    inputs left are searched under the certificate bound C(f,x) as well,
    which is tight on the structured families.  The exhaustive scans take
    the same values and families from the batched subset DP of
    ``_bulk._packings``.
    """
    if at is None:
        return _LatticeMeasures(f, {"bs": limit}).block_sensitivity(witness)
    _ensure_limit("bs", f.n, limit)
    _check_point(at, f.n)
    val, fam = _bs_point(f, at, witness)
    return (val, fam) if witness else val


# ---------------------------------------------------------------------------
# the ternary subcube table: certificate complexity and decision-tree depth


# Bytes the subcube table of one function may take (see ``_table_bytes``):
# the fold fits for n <= 16, the fold and the DT sweeps for n <= 15.  Above
# them C and DT are skipped even under an explicit limit.  The budget bounds
# the table's own arrays, not the process, which adds the interpreter and
# numpy to it.
_LATTICE_BUDGET = 1 << 28


def _key_dtype(n: int) -> np.dtype:
    """Smallest unsigned type holding the subcube key (|V| << n) | V."""
    return np.min_scalar_type((n << n) | (table_size(n) - 1))


def _table_bytes(n: int, measure: str) -> int:
    """Peak bytes of the subcube table that ``measure`` reads on one function
    of arity n.

    C, and the bs search's certificate bound, read the fold
    (``_subcube_fold``): per state val (one byte) and a key, held at once,
    plus one byte for the fold's masks, the points' keys and the input.  The
    constant covers numpy's iteration buffers (8192 elements per operand),
    which the in-place passes take because their operands interleave.  DT
    adds the sweeps (``_DepthSweeps``): dt, one byte per state in 4-byte
    words, and a work buffer of 3**(n-1) bytes.  The sum bounds DT's peak
    from above: the fold's per-state keys are freed before the sweeps start.
    """
    size = 3**n * (2 + _key_dtype(n).itemsize) + (1 << 17)
    if measure == "DT":
        size += 4 * -(-(3**n) // 4) + 3 ** max(n - 1, 0)
    return size


def _table_limit(measure: str) -> int:
    """Largest arity whose subcube table for ``measure`` fits the byte budget."""
    n = 0
    while _table_bytes(n + 1, measure) <= _LATTICE_BUDGET:
        n += 1
    return n


class LatticeBudgetError(ArityLimitError):
    """The subcube table behind C or DT would exceed its fixed byte budget."""

    def __init__(self, measure: str, arity: int):
        self.measure = measure
        self.arity = arity
        self.limit = _table_limit(measure)
        ValueError.__init__(
            self,
            f"{measure} skipped: arity {arity} needs a {_table_bytes(arity, measure)}-byte "
            f"subcube table, over the fixed budget of {_LATTICE_BUDGET} bytes",
        )


def _subcube_fold(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constancy of every subcube, and the largest constant subcube through
    every point, of every table of a (2**n, m) matrix, one table per column.

    A subcube is a ternary state t in {0, 1, *}**n: variable i is free where
    t_i = * (digit 2) and fixed to t_i elsewhere.

    * ``val``, of shape (3,) * n + (m,), with the tables on the last axis, as
      in the input, and variable i on axis n - 1 - i, so the flat index of t
      is sum(t_i * 3**i) per table: the constant value of the table on t, or
      2 where it is not constant.  It folds in n per-axis passes from the
      points; each pass ORs the value sets (bit 0: a 0 seen, bit 1: a 1
      seen) of the halves t_i = 0 and t_i = 1 into t_i = *.
    * ``key``, of shape (2**n, m), indexed by point: the key (|V| << n) | V
      of the largest constant subcube through the point, V its free set, the
      largest mask among the largest.  The key of each constant subcube adds
      up along the folds, and n max-passes push it from t_i = * down into
      t_i = 0 and t_i = 1.

    C reads ``key`` alone, and DT's sweeps (``_DepthSweeps``) start from
    ``val``.  Per-function callers go through ``_LatticeMeasures``, which
    checks the byte budget first.
    """
    size, m = tables.shape
    n = size.bit_length() - 1
    shape = (3,) * n + (m,)
    points = (slice(0, 2),) * n
    val = np.empty(shape, dtype=np.uint8)
    key = np.zeros(shape, dtype=_key_dtype(n))
    np.add(tables.reshape((2,) * n + (m,)), 1, out=val[points])
    for k in reversed(range(n)):
        lead = (slice(0, 2),) * k
        v_free, k_free = val[lead + (2,)], key[lead + (2,)]
        np.bitwise_or(val[lead + (0,)], val[lead + (1,)], out=v_free)
        np.add(key[lead + (0,)], (1 << n) | (1 << (n - 1 - k)), out=k_free)
        k_free *= v_free != 3
    val -= 1
    for k in range(n):
        lead = (slice(0, 2),) * k
        free = key[lead + (2,)]
        for b in (0, 1):
            np.maximum(key[lead + (b,)], free, out=key[lead + (b,)])
    return val, key[points].reshape(size, m)


class _DepthSweeps:
    """The optimal decision-tree depth of every subcube of a fold's ``val``,
    one table per column: ``dt``, int8, of the shape of ``val``, 0 where
    ``val != 2``, else 1 + min over free i of max(dt[t_i = 0], dt[t_i = 1]).

    ``dt`` starts at n on every state that is not constant.  Sweeps of n
    per-axis relaxations, in place, lower it; every entry stays an upper
    bound on its depth.  ``run`` sweeps until the stop rule: a sweep that
    changes nothing, which only the exact depths survive, or sweep d once
    the whole cube's depth is at most d, since sweep d makes every state of
    depth <= d exact.  That is at most n**2 passes of 3**(n-1) entries, and
    a few sweeps on most functions.  Given a lower bound on the whole cube's
    depth, ``run`` also stops once every table's entry meets it, which makes
    that entry exact; a later ``run`` resumes the same sweeps, so the table
    it leaves does not depend on the stop.
    """

    def __init__(self, val: np.ndarray):
        self.n = n = val.ndim - 1
        # dt fills the front of a zeroed array of 4-byte words; its entries
        # only fall, so the exact sum of the words is unchanged only after a
        # sweep that changed nothing
        self._words = np.zeros(-(-val.size // 4), dtype=np.uint32)
        self.dt = self._words.view(np.int8)[: val.size].reshape(val.shape)
        np.equal(val, 2, out=self.dt.view(np.bool_))
        self.dt *= n
        self.full = self.dt[(2,) * n]  # the whole cube's entry of every table
        self._buf = np.empty(self.dt.size // 3, dtype=np.int8)
        self._total = None
        self._sweeps = 0
        self._settled = n == 0

    def run(self, lower: int = -1) -> np.ndarray:
        """``dt`` after the sweeps up to the stop rule, or up to the first at
        which every entry of ``full`` is at most ``lower``."""
        n, dt = self.n, self.dt
        while not self._settled and self.full.max() > lower:
            self._sweeps += 1
            for k in range(n):
                run = 3 ** (n - 1 - k) * self.full.size
                low, high, free = level_views(dt, 3, run)
                (out,) = level_views(self._buf, 1, run)
                np.maximum(low, high, out=out, order="C")
                out += 1
                np.minimum(free, out, out=free, order="C")
            before, self._total = self._total, int(self._words.sum(dtype=np.uint64))
            self._settled = self._total == before or self.full.max() <= self._sweeps
        return dt


def _dt_witness(val: np.ndarray, dt: np.ndarray, s: int, free: list) -> dict:
    """Optimal tree of the ternary state s of one row's flat tables, smallest
    variable first; ``free`` lists the pairs (i, 3**i) of the free variables
    i of s, ascending, and each query hands its children the rest."""
    depth = dt.item(s)
    if depth == 0:
        return {"value": val.item(s)}
    for j, (i, stride) in enumerate(free):
        low, high = s - 2 * stride, s - stride
        if 1 + max(dt.item(low), dt.item(high)) == depth:
            rest = free[:j] + free[j + 1 :]
            return {
                "var": i + 1,
                "low": _dt_witness(val, dt, low, rest),
                "high": _dt_witness(val, dt, high, rest),
            }
    raise AssertionError("decision-tree reconstruction failed")


class _LatticeMeasures:
    """bs, C and DT of one function, from at most one ternary subcube table.

    The table comes in two parts, each built once, within the arity
    ceilings (``limits``, else ``DEFAULT_LIMITS``) and its byte budget
    (``_table_bytes``).  The fold (``_subcube_fold``: 3**n states, about 2n
    passes) is built on first use by C, by DT, or by the bs search.  The DT
    sweeps (``_DepthSweeps``: up to n**2 * 3**(n-1) entries of work) run on
    first use by DT, and only as far as it asks.  Without a witness, DT
    takes a lower bound: at n it needs no table, since DT <= n, and
    otherwise the sweeps stop once the whole cube's entry meets it.  A
    witness sweeps to the stop rule, resuming any earlier sweeps.

    The unpointed bs search (``_bs_search``) runs under min(u(x), C(f,x)),
    since bs(f,x) <= C(f,x), from its first input if the fold exists;
    otherwise under u alone until n inputs have not settled it, and then
    it builds the fold if it fits the byte budget, whatever the C and DT
    ceilings say.  The search runs once: its value and smallest maximizer
    are kept, so a later call with ``witness`` only packs the family at
    that input.
    """

    def __init__(self, f: TruthTable, limits: dict):
        self.f = f
        self.limits = limits
        self._fold: tuple[np.ndarray, np.ndarray] | None = None
        self._sweeps: _DepthSweeps | None = None
        self._bs: tuple[int, int] | None = None

    def _skip(self, measure: str) -> ArityLimitError | None:
        """The skip that keeps ``measure`` off the table: ceiling, then budget."""
        n = self.f.n
        ceiling = _ceiling(measure, self.limits.get(measure))
        if n > ceiling:
            return ArityLimitError(measure, n, ceiling)
        if _table_bytes(n, measure) > _LATTICE_BUDGET:
            return LatticeBudgetError(measure, n)
        return None

    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """val, shaped (3,) * n + (1,), and the key per point."""
        if self._fold is None:
            val, key = _subcube_fold(self.f.to_array()[:, None])
            self._fold = val, key[:, 0]
        return self._fold

    def _check(self, measure: str) -> None:
        skip = self._skip(measure)
        if skip is not None:
            raise skip

    def _certificate_bound(self, bound: np.ndarray) -> np.ndarray | None:
        """min(bound, C(f,x)) at every input x; None where the fold would
        exceed its byte budget."""
        n = self.f.n
        if self._fold is None and _table_bytes(n, "C") > _LATTICE_BUDGET:
            return None
        key = self._folded()[1]
        return np.minimum(bound, n - (key >> n).astype(bound.dtype))

    def block_sensitivity(self, witness: bool):
        f = self.f
        _ensure_limit("bs", f.n, self.limits.get("bs"))
        if self._bs is None:
            bound = _sensitivity_bound(f)
            if self._fold is not None:
                self._bs = _bs_search(f, self._certificate_bound(bound))
            else:
                self._bs = _bs_search(f, bound, self._certificate_bound)
        val, point = self._bs
        return (val, _bs_point(f, point, True)[1]) if witness else val

    def certificate(self, witness: bool, at: int | None = None):
        n = self.f.n
        if at is not None:
            _check_point(at, n)
        self._check("C")
        key = self._folded()[1]
        full = table_size(n) - 1
        point = int(np.argmin(key >> n)) if at is None else at
        k = int(key[point])
        val = n - (k >> n)
        return (val, (point, full ^ (k & full))) if witness else val

    def dt_depth(self, witness: bool, lower: int = -1):
        """DT, with its tree if ``witness``; ``lower`` is a lower bound on DT
        that a call without a witness may stop at."""
        self._check("DT")
        n = self.f.n
        if not witness and lower >= n:
            return n
        if self._sweeps is None:
            self._sweeps = _DepthSweeps(self._folded()[0])
        dt = self._sweeps.run(-1 if witness else lower).reshape(-1)
        depth = int(dt[-1])
        if not witness:
            return depth
        val = self._folded()[0].reshape(-1)
        return depth, _dt_witness(val, dt, 3**n - 1, [(i, 3**i) for i in range(n)])


def certificate(
    f: TruthTable, at: int | None = None, witness: bool = False, limit: int | None = None
):
    """Smallest set of coordinates that, fixed as in the input, pins f constant.

    Reads the fold of the ternary subcube table (``_subcube_fold``: 3**n
    states, 2n passes, 3 to 6 bytes per state), not the DT sweeps.  At each
    input the fixed set is the complement of the largest constant subcube
    through it, so it is the smallest mask among the smallest certificates.
    Unpointed, the witness point is the smallest input of maximum
    certificate size.  Above the fold's byte budget (n > 16) it raises
    ``LatticeBudgetError`` whatever ``limit`` says.

    Witness: (point, mask of the fixed set).
    """
    return _LatticeMeasures(f, {"C": limit}).certificate(witness, at)


def dt_depth(f: TruthTable, witness: bool = False, limit: int | None = None):
    """Depth of an optimal decision tree, read off the ternary subcube table.

    The DT sweeps (``_DepthSweeps``) lower an upper bound on the optimal
    depth of each of the 3**n subcubes, from the fold that ``certificate``
    reads, in at most n**2 * 3**(n-1) entries of work; DT(f) is the entry
    of the whole cube.  Above the byte budget of the fold and the sweeps
    (n > 15) it raises ``LatticeBudgetError`` whatever ``limit`` says.  The
    witness tree queries 1-based variables ('var', 'low', 'high' nodes,
    'value' leaves): it walks down from the whole cube, queries at each
    subcube the smallest variable whose two halves reach the optimum, and
    ends in a leaf wherever the subcube is constant.  The reports and
    ``commlb.bound_summary`` stop the sweeps early at a lower bound, with
    the same value.
    """
    return _LatticeMeasures(f, {"DT": limit}).dt_depth(witness)


# ---------------------------------------------------------------------------
# alternation and shift-invariant alternation


def _best_chains(tables: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Lexicographically smallest maximum-alternation chain of every table.

    ``tables`` and ``down`` are one table and its path maxima, or (2**n, m)
    matrices with one function per column.  Returns the n + 1 chain points,
    (n + 1,) or one chain per row of an (m, n + 1) array; each step sets the
    smallest free variable that keeps the function on an optimal path of
    ``down``.
    """
    size = tables.shape[0]
    n = size.bit_length() - 1
    t, d = tables.reshape(-1), down.reshape(-1)  # entry (x, r) sits at x * m + r
    m = t.size // size
    cols = np.arange(m)
    bits = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    points = np.zeros((m, n + 1), dtype=np.int64)
    x = points[:, 0]
    for step in range(1, n + 1):
        here = x * m + cols
        y = x | bits
        there = y * m + cols
        ok = (y != x) & (d[there] + (t[there] != t[here]) == d[here])
        x = y[np.argmax(ok, axis=0), cols]
        points[:, step] = x
    return points.reshape(tables.shape[1:] + (n + 1,))


def _path_maxima(table, n: int) -> np.ndarray:
    """The most value changes along a monotone path from x up to 1^n, at
    every input x, as uint8: (2**n,) for one packed table, (2**n, m) for a
    (2**n, m) table matrix (see ``_level_sets``).

    Runs the level sets down from 1^n: level k is then the set of inputs
    with such a path of at least k changes, so their indicators sum to the
    path maximum.  A matrix's levels are unpacked in one call, as the bytes
    of the stacked lanes of ``_shift_moves``, little-endian; unpacking runs
    along the last axis, fastest on contiguous bytes, so the (m, 2**n) sums
    are copied into the table layout once.
    """
    size = table_size(n)
    levels = list(_level_sets(*_shift_moves(table, n), size - 1, n + 1))
    if isinstance(table, np.ndarray):
        raw = np.array(levels, dtype=_lane(n)).reshape(len(levels), table.shape[1], 1)
        indicators = np.unpackbits(raw.view(np.uint8), axis=-1, count=size, bitorder="little")
        return np.ascontiguousarray(indicators.sum(axis=0, dtype=np.uint8).T)
    down = np.zeros(size, dtype=np.uint8)
    for level in levels:
        down += unpack(level, n)
    return down


def alternation(f: TruthTable, witness: bool = False):
    """Maximum number of value changes along a maximal monotone chain.

    alt is the number of nonempty level sets of the shift 0
    (``_alternation_at_shift``), and the path maximum (``_path_maxima``) at
    the bottom point 0.  The witness is the lexicographically smallest
    chain achieving it, read off the path maxima by ``_best_chains``.
    """
    n = f.n
    if not witness:
        return _alternation_at_shift(*_shift_moves(f.bits, n), 0, n)
    down = _path_maxima(f.bits, n)
    chain = _best_chains(f.to_array(), down)
    return int(down[0]), Chain(tuple(int(p) for p in chain))


# Arity from which the salt search orders its shifts by ``_chain_bound``.
# Below it the bound's fixed cost, about 7n + 20 numpy calls, is more than
# it saves, and the shifts run in ascending order, as under a zero bound:
# mean per call over 20 random functions, best of 15, ascending against
# ordered: 102-107 against 108-141 us at n = 5, 300-435 against 143-248 us
# at n = 6.
_BOUND_MIN_ARITY = 6


def _level_sets(moves: list, full, b: int, cap: int):
    """Yield the level sets 1, 2, ... of the shift b, up to ``cap``, as packed
    point sets; alt(x -> f(x XOR b)) is the number of nonempty ones.

    ``moves`` and ``full`` come from ``_shift_moves``, of one function, a
    Python int at any n, or of a table matrix, an array with one function
    per lane of max(8, 2**n) bits (n <= 6); the point sets have that type.
    Works in the frame of f, so no table is shifted: a chain of the shifted
    function steps along direction i from x to x XOR e_i wherever bit i of
    x equals bit i of b.  Level k is the set of points that some chain from
    the bottom point b reaches with at least k value changes: the points
    one changing step above level k-1, closed upward along the chain order.
    So every nonempty level holds the top point, a level built from an
    empty one is empty, and the levels stop at the first level empty in
    every row.  The level at ``cap`` is only tested for emptiness, so it is
    yielded unclosed.
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
    an int for one function, an int array for a table matrix."""
    alt = 0
    for level in _level_sets(moves, full, b, cap):
        alt += level != 0
    return alt


def _alternation_by_shift(table, n: int) -> np.ndarray:
    """alt(x -> f(x XOR b)) for the shifts b < 2**(n-1), along the last axis
    of an int16 array: (2**(n-1),) for one packed table, (m, 2**(n-1)) for
    a (2**n, m) table matrix (see ``_level_sets``).  At n = 0 the one shift
    0 is kept.

    Each shift runs ``_alternation_at_shift`` without a cap.  The upper
    shifts are left out because alt(f XOR b) equals alt(f XOR b XOR 1^n):
    complementing the shift walks every chain in reverse.
    """
    moves, full = _shift_moves(table, n)
    out = np.empty(np.shape(full) + (max(1, table_size(n) >> 1),), dtype=np.int16)
    for b in range(out.shape[-1]):
        out[..., b] = _alternation_at_shift(moves, full, b, n)
    return out


def _lane(n: int) -> np.dtype:
    """The unsigned little-endian type of max(8, 2**n) bits (n <= 6)."""
    return np.dtype(f"<u{max(1, table_size(n) >> 3)}")


def _shift_moves(table, n: int) -> tuple[list, object]:
    """The moves of ``_level_sets`` and the mask of all 2**n points: Python
    ints for one packed table, (m,) arrays of ``_lane(n)`` for a (2**n, m)
    table matrix.

    A matrix is packed along its input axis, bit x of a lane holding row x,
    so each lane of max(8, 2**n) bits holds one table and each pass of the
    level sets moves max(8, 2**n) bits per table.  The packing ORs the rows
    shifted into place, one pass over the matrix in the lane type: on a
    16,384-column slice at n = 4 (2-core Xeon VM, best of 20) it takes
    0.07 ms, where ``np.packbits`` along axis 0 and the transpose into
    lanes take 0.8 ms.  The masks are those of one table, since no move
    carries a bit past the 2**n points of its table.

    Per direction i the move is (1 << i, its low-half mask m, d & m, d ^
    (d & m)), bit x of d saying f(x) != f(x XOR e_i).  A changing step down
    along i lands in d & m and one up in the rest of d, so these halves
    also drop the bits that a shifted level carries across halves.
    """
    if isinstance(table, np.ndarray):
        lane = _lane(n)
        rows = np.arange(table_size(n), dtype=lane)[:, None]
        table = np.bitwise_or.reduce(table.astype(lane) << rows, axis=0)
    moves = []
    for i in range(n):
        m = low_half_mask(n, i)
        d = table ^ xor_shift(table, n, i)
        moves.append((1 << i, m, d & m, d ^ (d & m)))
    return moves, table | table_mask(n)


def _chain_bound(f: TruthTable) -> np.ndarray:
    """A lower bound on alt(f XOR b) for every shift b < 2**(n-1).

    In the frame of f a maximal chain of x -> f(x XOR b) runs from b to
    ~b, flipping every direction once, and any one chain's value changes
    are at most the maximum.  A greedy chain flips at each step the
    smallest free direction that changes f, else the smallest free one.
    The bound is the most changes of four greedy chains: from b and, since
    alt(f XOR b) == alt(f XOR ~b), from ~b, each with the directions taken
    smallest or largest first.  Every count has the parity of f(b) XOR
    f(~b), as every chain's does.  Largest first is smallest first with the
    variables reversed, so all four walk at once, with all shifts: n
    gathers from the per-point masks of sensitive directions of f and of
    f reversed, stacked in one table.  Where all four count 0, f(b) ==
    f(~b) and no greedy step changes f; the bound is then 2 unless f is
    constant, since some chain from b to ~b passes a point where f differs
    from f(b) and must change back.
    """
    n = f.n
    size = table_size(n)
    t = f.to_array()
    points = np.arange(size, dtype=np.int32)
    sens = np.zeros_like(points)
    rev = np.zeros_like(points)  # the bit reversal of every point and mask
    for i in range(n):
        pairs = t.reshape(-1, 2, 1 << i)
        flips = (pairs[:, 0] != pairs[:, 1]).astype(np.int32) << i
        view = sens.reshape(-1, 2, 1 << i)
        view[:, 0] |= flips
        view[:, 1] |= flips
        rev |= ((points >> i) & 1) << (n - 1 - i)
    table = np.concatenate([sens, rev[sens[rev]]])
    half = points[: size >> 1]
    # rows: b, ~b, and both reversed, which read the second half of the table
    x = np.concatenate([half, half ^ (size - 1), rev[half] | size, rev[half ^ (size - 1)] | size])
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
    bound = count.reshape(4, -1).max(axis=0)
    if 0 < f.bits < table_mask(n):
        bound[bound == 0] = 2
    return bound


def _salt_search(f: TruthTable) -> tuple[int, int, int]:
    """(salt(f), its smallest argmin shift b < 2**(n-1), shifts evaluated).

    Visits the shifts by ascending (``_chain_bound``, b), or by ascending b
    below ``_BOUND_MIN_ARITY``, and stops at the first that can neither
    beat the best value nor tie it at a smaller shift; the best is replaced
    on a smaller value, or on an equal one at a smaller shift, so the result
    is that of a scan of every shift.  Each shift runs alone on packed ints
    (``_alternation_at_shift``), its level sets only up to the best value,
    or one more when it lies below the best shift.
    """
    n = f.n
    if n == 0:
        return 0, 0, 0
    half = table_size(n) >> 1
    # the keys (bound, b) as bound << (n - 1) | b, sorted; below
    # _BOUND_MIN_ARITY every bound reads 0
    if n >= _BOUND_MIN_ARITY:
        order = np.sort((_chain_bound(f).astype(np.int64) << (n - 1)) | np.arange(half)).tolist()
    else:
        order = range(half)
    moves, full = _shift_moves(f.bits, n)
    best = (n, half)  # (value, shift); no shift is at half
    pos, limit = 0, half  # every key lies below best's
    while pos < limit:
        b = order[pos] & (half - 1)
        pos += 1
        cap = min(best[0] + (b < best[1]), n)
        found = (_alternation_at_shift(moves, full, b, cap), b)
        if found < best:
            best = found
            limit = bisect_left(order, (best[0] << (n - 1)) + best[1])
    return best[0], best[1], pos


def alternation_under_shifts(f: TruthTable) -> np.ndarray:
    """Alternation of every shifted function x -> f(x XOR b), indexed by b.

    Needs every value, so it takes no bound and prunes nothing: the lower
    half is ``_alternation_by_shift``, mirrored into the top half, since
    alt(f XOR b) == alt(f XOR b XOR 1^n).
    """
    half = _alternation_by_shift(f.bits, f.n)
    return half if f.n == 0 else np.concatenate([half, half[::-1]])


def shift_invariant_alternation(
    f: TruthTable, witness: bool = False, limit: int | None = None
):
    """Minimum alternation over all XOR shifts of the input; witness is the
    smallest argmin shift.

    Visits only the shifts b < 2**(n-1), since alt(f XOR b) equals
    alt(f XOR b XOR 1^n) (the chain runs in reverse).  Four greedy chains
    between b and ~b bound each alt(f XOR b) from below (``_chain_bound``),
    and the search (``_salt_search``) visits the shifts by that bound, skips
    those that cannot win, and runs each only up to the best value so far:
    at most 2**(n-1) shifts x salt levels x n moves over 2**n points, and on
    most functions a few dozen shifts, each run alone on packed ints.  For
    n < ``_BOUND_MIN_ARITY`` the bound costs more than it saves, and the
    shifts run in ascending order.
    """
    _ensure_limit("salt", f.n, limit)
    best, best_shift, _ = _salt_search(f)
    return (best, best_shift) if witness else best


# ---------------------------------------------------------------------------
# polynomial degrees and Fourier sparsity


def _degree_of(coeffs: np.ndarray, witness: bool):
    deg = int(_degrees(coeffs))
    if not witness:
        return deg
    top = (coeffs != 0) & (popcounts(coeffs.size.bit_length() - 1) == deg)
    return deg, int(np.argmax(top))


def real_degree(f: TruthTable, witness: bool = False):
    """Degree of the multilinear polynomial for f over the rationals.

    Computed from exact integer coefficients (int32, see ``spectral``); the
    witness is the smallest maximal-degree monomial mask.
    """
    return _degree_of(_moebius_rows(f.to_array(), np.int32), witness)


def modp_degree(f: TruthTable, p: int, witness: bool = False):
    """Degree of the multilinear polynomial for f over the p-element field."""
    _check_primes((p,))
    return _degree_of(_moebius_rows(f.to_array(), np.int32) % p, witness)


def sparsity(f: TruthTable, witness: bool = False):
    """Number of nonzero Walsh-Hadamard coefficients of the +-1 view.

    The witness is the full spectrum, with the int64 coefficients of
    ``spectrum(f, WALSH)``.
    """
    coeffs = _walsh_rows(f.to_array(), np.int32)
    val = int(_sparsities(coeffs))
    return (val, SpectrumRep(WALSH, f.n, coeffs.astype(np.int64))) if witness else val


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
                count = w.nonzero_count()
                entry = {"support_size": count}
                if count <= 64:
                    entry["support"] = [list(mask_indices(s)) for s in w.support()]
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
    """Compute every measure that fits its arity ceiling; skips are explicit.

    bs, C and DT share one ternary subcube table (``_LatticeMeasures``).
    Its fold is built before bs when C or DT fits its ceiling, so the bs
    search runs under min(u(x), C(f,x)) from its first input, which on most
    functions leaves one packing search.  Otherwise bs runs the switch of
    the public ``block_sensitivity``, with the same value and witness.  DT
    comes last.  With ``witnesses`` its sweeps run to the end, for the tree
    of ``dt_depth``; without, they stop once they meet max(bs, deg), a lower
    bound on DT (bs <= C <= DT, and deg <= DT), which makes the value exact,
    and where that bound is n they do not run at all.
    """
    return _measure_report(_LatticeMeasures(f, limits or {}), primes, witnesses)


def _measure_report(subcubes: _LatticeMeasures, primes, witnesses: bool) -> MeasureReport:
    """``measure_report`` on a caller's subcube table, which it may read further.

    This is the one list of a function's measures, in report order, and the
    one place that decides to build the fold between s and bs.  A caller
    passes its own table when it reads more after the report: the CLI's
    pointwise C, or the bs family of ``inequality_suite`` and of the scan's
    cross-check, which the kept search packs without a second search.

    deg and every deg_p read one int32 Moebius table, deg_p as its residues
    mod p (exact: see ``spectral``); each prime is checked before anything
    is computed.
    """
    _check_primes(primes)
    f, limits = subcubes.f, subcubes.limits
    rep = MeasureReport(f, tuple(primes))

    def run(name: str, fn):
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
    if subcubes._skip("C") is None or subcubes._skip("DT") is None:
        subcubes._folded()
    run("bs", lambda: subcubes.block_sensitivity(w))
    run("C", lambda: subcubes.certificate(w))
    run("alt", lambda: alternation(f, witness=w))
    run(
        "salt",
        lambda: shift_invariant_alternation(f, witness=w, limit=limits.get("salt")),
    )
    coeffs = _moebius_rows(f.to_array(), np.int32)
    run("deg", lambda: _degree_of(coeffs, w))
    for p in primes:
        run(f"deg_{p}", lambda p=p: _degree_of(coeffs % p, w))
    run("sparsity", lambda: sparsity(f, witness=w))
    # DT >= bs (Nisan) and DT >= deg; only a call without a witness stops there
    lower = max(rep.measures.get("bs", 0), rep.measures["deg"])
    run("DT", lambda: subcubes.dt_depth(w, lower))
    return rep
