"""Array-parallel measure evaluation across every function of a small arity.

The exhaustive verification suites need all measures of all 2**(2**n)
functions for n <= 4.  Calling the per-function API that many times would
dominate the runtime, so this module computes the same quantities with the
function axis vectorized: tables become the columns of one (2**n, m)
matrix (``_tables``), the function axis innermost and contiguous, and each
measure is a kernel of a handful of numpy passes over whole rows of m
entries, indexed by input.  This matrix is the one batch type: every
batched kernel in ``measures``, ``spectral`` and ``transforms`` takes it,
and so does ``measure_arrays``; a per-function call passes one table, or
one column, through the same code.  Per-function records (block families,
map columns, chains) stay one row per function, as ``measure_arrays``
returns them.  Function ids live only in ``_tables`` and in the callers'
reports: callers walk the ids in the fixed slices of ``_slices``
(``_SLICE`` ids each: n <= 3 is one slice, n = 4 is four), build each
slice's matrix once and pass it to ``measure_arrays`` and the transform
kernels, which bounds the memory of every kernel, the subcube table
included.  A caller that reads only some measures names them in
``needs``, and only the kernels they read run: ``extremal_search`` passes
its statistic's, so ranking by salt/s runs the s and alternation kernels
alone, while the scan reads every measure.  The kernels:

* ``measures``: pointwise sensitivity, the packed level sets of alt and
  salt (``measures._alternation_by_shift``), which pack the matrix along
  its input axis into one lane of max(8, 2**n) bits per table
  (``measures._lanes``, read by ``measures._shift_moves``), and the
  ternary subcube table behind certificate complexity and decision-tree
  depth, the ones the per-function API runs: the fold
  (``measures._subcube_fold``), which C reads, and the DT sweeps
  (``measures._depth_sweeps``) on it.  DT = n wherever max(bs, deg) = n,
  since both bound DT from below, so the sweeps run only on the other
  columns, gathered (2,065 to 2,490 of the 16,384 of each n = 4 slice),
  to their stop rule: the per-function reports stop at max(bs, deg), but
  a slice would stop only once every column meets its bound, and on every
  n = 4 slice some column needs all 4 sweeps;
* ``spectral``: the Moebius and Walsh butterflies, run here in int16 and
  int32, and the degree and sparsity kernels; ``deg`` and every ``deg_p``
  are read from one Moebius matrix;
* here: block sensitivity, searched as the per-function API searches it.

Block sensitivity is the one measure whose batched and per-function
kernels differ, and only in how they pack the blocks at one input.  Both
visit the inputs in the order of ``measures._bs_search``, descending
upper bound, then ascending input, and stop where no input left can win;
the batch runs that rule in vectorized rounds over the unsettled columns
(``_bs_rounds``), under min(u, C): u = s + (n - s) // 2 from the
pointwise sensitivity, and C from the fold, which the C group reads too.
That settles all but 8 of the 65,536 functions of arity 4 at their first
input, and those within 3.  At each visited input, and at 0 for ``bs0``
and ``fam0``, the batch packs by a max-plus DP over the free sets
(``_point_packings``: about 3**n steps per table in 2**n - 1 passes over
the columns), and ``_families`` walks those packings by the rule of
``measures._lex_min_family``, so both routes give the same witnesses.
One function wants the per-function packer
(``measures._bs_point``), which packs only the minimal sensitive blocks:
at one input of a random function (2-core Xeon VM, best of 300), the DP
and its family take 0.40 ms at n = 4 and 1.9 ms at n = 6, the packer
0.05 and 0.07 ms.
"""

from __future__ import annotations

import numpy as np

from ._bitops import table_size, xor_shift
from .measures import (
    _alternation_by_shift,
    _depth_sweeps,
    _lanes,
    _pointwise_sensitivity,
    _sensitivity_bound,
    _subcube_fold,
)
from .spectral import _degrees, _moebius_rows, _sparsities, _walsh_rows

MAX_BULK_ARITY = 4
_SLICE = 16384  # function ids per slice


def _slices(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) ranges of function ids, in order, that cover arity n."""
    total = 1 << table_size(n)
    return [(lo, min(lo + _SLICE, total)) for lo in range(0, total, _SLICE)]


def _tables(n: int, lo: int, hi: int) -> np.ndarray:
    """The (2**n, m) table matrix of the function ids in [lo, hi): row x holds
    every function's value at input x, column r the table of id lo + r."""
    ids = np.arange(lo, hi, dtype=np.uint32)
    points = np.arange(table_size(n), dtype=np.uint32)
    return ((ids >> points[:, None]) & 1).astype(np.uint8)


def _point_packings(lanes: np.ndarray, at: np.ndarray, n: int) -> np.ndarray:
    """P[S, j]: the most disjoint blocks inside free set S that flip table j
    at input at[j], as an int8 (2**n, k) array, for k tables of arity n
    packed into ``measures._lanes``.

    Whether block T flips table j at at[j] is bit at[j] ^ T of lanes[j]
    against bit at[j], read for every T in one elementwise pass.  Then one
    in-place pass per block T over the free sets S that contain it:
    P[S] = max(P[S], P[S ^ T] + flip_T).  S ^ T does not contain T, so no
    packing uses T twice; P is monotone in S, so a block that does not flip
    needs no mask.  Both sides of a pass are views on the (2,)*n grid of
    free sets, about 3**n entries per table in all.
    """
    size = table_size(n)
    blocks = np.arange(size, dtype=lanes.dtype)[:, None]
    values = (lanes >> (at.astype(lanes.dtype) ^ blocks)) & 1
    flips = (values != values[0]).view(np.int8)
    P = np.zeros((2,) * n + (at.size,), dtype=np.int8)
    for T in range(1, size):
        axes = [n - 1 - i for i in range(n) if T >> i & 1]  # axis j holds coordinate n - 1 - j
        with_t = P[tuple(1 if j in axes else slice(None) for j in range(n))]
        without = P[tuple(0 if j in axes else slice(None) for j in range(n))]
        np.maximum(with_t, without + flips[T], out=with_t)
    return P.reshape(size, at.size)


def _bs_rounds(lanes: np.ndarray, bound: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block sensitivity of every table of arity n packed in ``lanes``, and
    its smallest maximizing input, under an upper bound on bs(f, x) at every
    input: a (2**n, m) array.

    The rule of ``measures._bs_search``, run on every table at once: each
    round visits the next input of every table not yet settled, in order of
    descending bound, then ascending input, and packs there
    (``_point_packings``); a table settles at the first input that can
    neither beat its best value nor tie it at a smaller input, and a tie
    replaces the best only at a smaller input.  The next input is the least
    key (n - bound) << n | x not yet visited, one reduction over the
    unsettled columns; a full sort along the input axis would cost more
    than the rounds.  Under min(u, C) (``_bs_bound``) all but 8 of the
    65,536 functions of arity 4 settle after their first input, and those
    after at most 3; under u alone 12,244 need more than one, and some
    visit all 16.
    """
    size, m = bound.shape
    visited = np.iinfo(np.int16).max
    keys = ((n - bound).astype(np.int16) << n) | np.arange(size, dtype=np.int16)[:, None]
    best = np.full(m, -1, dtype=np.int8)
    best_at = np.zeros(m, dtype=np.intp)
    cols = np.arange(m)
    for _ in range(size):
        k = keys.min(axis=0)
        x, b = (k & (size - 1)).astype(np.intp), n - (k >> n)
        go = (b > best[cols]) | ((b == best[cols]) & (x < best_at[cols]))
        if not go.all():
            cols, keys, x = cols[go], keys[:, go], x[go]
            if not cols.size:
                break
        v = _point_packings(lanes[cols], x, n)[-1]
        won = (v > best[cols]) | ((v == best[cols]) & (x < best_at[cols]))
        best[cols[won]], best_at[cols[won]] = v[won], x[won]
        keys[x, np.arange(cols.size)] = visited
    return best, best_at


def _families(packs: np.ndarray) -> np.ndarray:
    """The lexicographically smallest maximum family of disjoint blocks that
    flip table j at its input, from its packings ``packs[:, j]``
    (``_point_packings``).

    Walks the blocks in ascending order and takes T when it fits in the free
    set, flips the function at the input, and leaves a free set that still
    packs the blocks still needed after it: P[free ^ T] == want.  That is the
    rule of ``measures._lex_min_family``, so the families are the
    per-function witnesses.  The flip test reads P[T] >= 1, which holds when
    some T' inside T flips.  If T itself does not flip, T' < T was walked
    first, inside the free set, and not taken; the free set without T' then
    packs fewer than want blocks (the blocks taken since are disjoint
    from T'), and the smaller free set without T packs no more, so T is not
    taken either.  Returns a (k, n) array of blocks, ascending and
    zero-padded.
    """
    size, k = packs.shape
    n = size.bit_length() - 1
    flips = packs >= 1
    flat = packs.reshape(-1)  # entry (S, j) sits at S * k + j
    free = np.full(k, size - 1, dtype=np.intp)
    want = packs[-1] - 1  # the blocks still needed once T is taken
    fam = np.zeros(k * n, dtype=np.min_scalar_type(size - 1))
    slot = np.arange(k) * n
    for T in range(1, size):
        fits = np.flatnonzero(((free & T) == T) & flips[T])
        j = fits[flat[(free[fits] ^ T) * k + fits] == want[fits]]
        fam[slot[j]] = T
        slot[j] += 1
        free[j] ^= T
        want[j] -= 1
    return fam.reshape(k, n)


def _bs_bound(s_pt: np.ndarray, key: np.ndarray, n: int) -> np.ndarray:
    """min(u(x), C(f, x)) at every input of every table: u = s + (n - s) // 2
    from the pointwise sensitivity (``measures._sensitivity_bound``), and C
    from the key of the fold (``measures._subcube_fold``), since bs <= C."""
    cert = n - (key >> n).astype(np.int8)
    return np.minimum(_sensitivity_bound(s_pt), cert)


def _bs_arrays(t: np.ndarray, bound: np.ndarray, families: bool) -> dict:
    """``bs``, ``bs0``, ``depends_on_all`` and ``bs_argmax`` of every column
    of the (2**n, m) table matrix t (n <= 6), by the search of ``_bs_rounds``
    under ``bound``, with ``fam0`` and ``fam_argmax`` if ``families``."""
    n = t.shape[0].bit_length() - 1
    lanes = _lanes(t)
    # a variable is relevant iff flipping it changes f somewhere
    relevant = np.ones(t.shape[1], dtype=bool)
    for i in range(n):
        relevant &= (lanes ^ xor_shift(lanes, n, i)) != 0
    bs, argmax = _bs_rounds(lanes, bound, n)
    at_zero = _point_packings(lanes, np.zeros(t.shape[1], dtype=np.intp), n)
    out = {"depends_on_all": relevant, "bs": bs.astype(np.int64),
           "bs0": at_zero[-1].astype(np.int64), "bs_argmax": argmax.astype(np.int64)}
    if families:
        out["fam0"] = _families(at_zero)
        out["fam_argmax"] = _families(_point_packings(lanes, argmax, n))
    return out


def measure_arrays(t: np.ndarray, primes=(2, 3), needs=None) -> dict:
    """Every scalar measure of each column of the (2**n, m) table matrix t,
    as 1-D arrays of m entries.

    All columns are measured at once, so callers pass the table matrix of
    one slice of ``_slices``, or any other columns of at most that many.

    Also returns the smallest bs maximizer (``bs_argmax``) and the
    lexicographically smallest maximum block families at the all-zero input
    (``fam0``) and there (``fam_argmax``), the ``BlockFamily`` witnesses of
    ``block_sensitivity``.  Each is an (m, n) array of blocks, ascending and
    zero-padded, from which the transforms are built.

    ``needs`` names the measures the caller reads, as the ``needs`` of a
    ``checks`` statement row do (``"deg_p"`` for every ``deg_{p}``,
    ``"sherstov"`` for the families at the maximizer).  A kernel group runs
    only if one of them reads it: s; the bs search and the packings at 0
    (``bs``, ``bs0``, ``depends_on_all``, ``bs_argmax``), which read the
    s kernel and the fold; the family walk (``fam0``, ``fam_argmax``), for
    ``"sherstov"`` only; alt and salt; deg and deg_p; sparsity; the subcube
    fold (C and DT); the DT sweeps, which read deg and, if it ran, bs.
    ``None`` runs every group.  Each value returned is the full call's.
    """
    n = t.shape[0].bit_length() - 1
    if n > MAX_BULK_ARITY:
        raise ValueError(f"bulk engine supports arity <= {MAX_BULK_ARITY}")

    def wants(*names) -> bool:
        return needs is None or any(name in needs for name in names)

    out: dict = {}
    bs_group = wants("bs", "bs0", "depends_on_all", "bs_argmax", "sherstov")

    if bs_group or wants("s"):
        s_pt = _pointwise_sensitivity(t)
    if wants("s"):
        out["s"] = s_pt.max(axis=0).astype(np.int64)
    # the fold bounds the bs search and gives C and DT
    if bs_group or wants("C", "DT"):
        val, key = _subcube_fold(t)

    if bs_group:
        out.update(_bs_arrays(t, _bs_bound(s_pt, key, n), wants("sherstov")))

    if wants("alt", "salt"):
        alt_by_shift = _alternation_by_shift(t, n)
        out["alt"] = alt_by_shift[:, 0].astype(np.int64)
        out["salt"] = alt_by_shift.min(axis=1).astype(np.int64)

    if wants("deg", "deg_p", "DT"):
        # |coefficients| <= 2**(n-1), so int16 holds them; the mod-p
        # coefficients are these reduced mod p
        coeffs = _moebius_rows(t, np.int16)
        out["deg"] = _degrees(coeffs).astype(np.int64)
        for p in primes:
            out[f"deg_{p}"] = _degrees(coeffs % p).astype(np.int64)
        del coeffs

    if wants("sparsity"):
        out["sparsity"] = _sparsities(_walsh_rows(t, np.int32))

    if wants("C", "DT"):
        # C is n minus the smallest free set of a largest constant subcube
        # through a point; the key of that subcube orders by the size of its
        # free set first
        out["C"] = (n - (key.min(axis=0) >> n)).astype(np.int64)
    if wants("DT"):
        # DT >= max(bs, deg) and DT <= n, so only the columns below n sweep
        lower = np.maximum(out["deg"], out["bs"]) if bs_group else out["deg"]
        below = np.flatnonzero(lower < n)
        out["DT"] = np.full(t.shape[1], n, dtype=np.int64)
        if below.size:
            out["DT"][below] = _depth_sweeps(val[..., below])[(2,) * n]
    return out
