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
kernels, which bounds the memory of every kernel, the packing table and
the subcube table included.  A caller that reads only some measures names
them in ``needs``, and only the kernels they read run: ``extremal_search``
passes its statistic's, so ranking by salt/s runs the s and alternation
kernels alone, while the scan reads every measure.  The kernels:

* ``measures``: pointwise sensitivity, the packed level sets of alt and
  salt (``measures._alternation_by_shift``), which pack the matrix along
  its input axis into one lane of max(8, 2**n) bits per table
  (``measures._shift_moves``), and the ternary subcube table behind
  certificate complexity and decision-tree depth, the ones the
  per-function API runs: the fold (``measures._subcube_fold``), which C
  reads, and the DT sweeps (``measures._DepthSweeps``) on it.  The sweeps
  here run to their stop rule, with no lower bound: the per-function
  reports stop at max(bs, deg), but a slice stops only once every column
  meets its bound, and on the first two n = 4 slices some column needs
  all 4 sweeps;
* ``spectral``: the Moebius and Walsh butterflies, run here in int16 and
  int32, and the degree and sparsity kernels; ``deg`` and every ``deg_p``
  are read from one Moebius matrix;
* here: block sensitivity, a subset DP over free sets (``_packings``) and
  the family walk on it (``_families``), for every input of every function.

Block sensitivity is the one measure whose batched and per-function
kernels differ.  The DP packs every free set at every input, about 3**n
max-plus steps in 3 * (2**n - 1) numpy calls, which pays off over a slice's
functions.  A per-function call wants few inputs (``measures._bs_search``
settles most random functions at one to three, and structured ones after
about n + 1 once it switches to the certificate bound), where
``measures._bs_point`` packs only the minimal sensitive blocks.  On one
function (2-core Xeon VM, best of 5), the DP with one family against the
packer at one input and all of ``block_sensitivity`` with its witness:
n = 4, 319 us against 21 and 76 us; n = 8, 6.5 ms against 0.08 and
0.15 ms; ``rubinstein(2, 4)`` (n = 8, 8 inputs under the sensitivity
bound, then the fold of the subcube table and 1 input under the
certificate bound), 6.5 ms against 0.80 ms for the search.  So the
per-function route keeps the packer; the walk takes the families by its rule
(``measures._lex_min_family``), so both give the same witnesses.

The scan reuses the sensitivity and sparsity kernels on the transformed
tables g, checks every function's submatrix identity at n <= 3 with the
kernel of ``commlb.submatrix_witness`` on the families at 0, and
cross-checks these arrays, the transforms built from the families and the
submatrix certificates against the per-function API on a deterministic
subsample.  That
guards the batching (dtypes, the function axis) and compares two algorithms
for bs (the DP and the packer).  alt and salt share the API's kernel, so
their independent checks are the scan's check of each alternation chain of
its transforms against its alt value, and the tests of the arrays against
brute-force oracles.
"""

from __future__ import annotations

import numpy as np

from ._bitops import table_size
from .measures import (
    _alternation_by_shift,
    _DepthSweeps,
    _pointwise_sensitivity,
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


def _packings(t: np.ndarray) -> np.ndarray:
    """B[S, x, r]: the most disjoint blocks inside free set S that flip
    function r of a (2**n, m) table matrix at input x, as an int8
    (2**n, 2**n, m) array.

    One in-place pass per block T over the free sets S that contain it:
    B[S] = max(B[S], B[S ^ T] + flip_T[x, r]).  S ^ T does not contain T, so
    no packing uses T twice; B is monotone in S, so a block that does not
    flip needs no mask.  Both sides of a pass, and the tables XORed by T, are
    views on the (2,)*n grid, so a pass is three numpy calls into buffers
    allocated once; the largest, half the size of B, holds B[S ^ T] + flip_T.
    """
    size, m = t.shape
    n = size.bit_length() - 1
    cube = (2,) * n  # axis j holds coordinate n - 1 - j
    tt = t.astype(bool).reshape(cube + (m,))
    B = np.zeros(cube + (size, m), dtype=np.int8)
    flip = np.empty((size, m), dtype=bool)
    buf = np.empty((size >> 1) * size * m, dtype=np.int8)
    for T in range(1, size):
        axes = tuple(n - 1 - i for i in range(n) if T >> i & 1)
        np.not_equal(tt, np.flip(tt, axes), out=flip.reshape(tt.shape))
        with_t = B[tuple(1 if j in axes else slice(None) for j in range(n))]
        without = B[tuple(0 if j in axes else slice(None) for j in range(n))]
        step = buf[: without.size].reshape(without.shape)
        np.add(without, flip.view(np.int8), out=step)
        np.maximum(with_t, step, out=with_t)
    return B.reshape(size, size, m)


def _families(B: np.ndarray, cols: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The lexicographically smallest maximum family of disjoint blocks that
    flip function cols[j] of the table matrix at input at[j], from its
    packings B (``_packings``).

    Walks the blocks in ascending order and takes T when it fits in the free
    set, flips the function at at[j], and leaves a free set that still packs
    the blocks still needed: B[free ^ T] == need - 1.  That is the rule of
    ``measures._lex_min_family``, so the families are the per-function
    witnesses.  The flip test reads B[T] >= 1, which holds when some T'
    inside T flips.  If T itself does not flip, T' < T was walked first,
    inside the free set, and not taken; the free set without T' then packs
    fewer than need - 1 blocks (the blocks taken since are disjoint from
    T'), and the smaller free set without T packs no more, so T is not
    taken either.  Returns a (len(cols), n) array of blocks, ascending and
    zero-padded.
    """
    size, m = B.shape[0], B.shape[2]
    n = size.bit_length() - 1
    k = len(cols)
    # packs[S, j] = B[S, at[j], cols[j]], which sits at S * size * m + at[j] * m + cols[j]
    packs = np.take(B.reshape(size, -1), at * m + cols, axis=1)
    flips = packs >= 1
    packs = packs.ravel()
    pos = np.arange(k)
    free = np.full(k, size - 1, dtype=np.intp)
    need = packs[(size - 1) * k :].copy()
    fam = np.zeros(k * n, dtype=np.min_scalar_type(size - 1))
    slot = pos * n
    for T in range(1, size):
        take = (free & T) == T
        take &= flips[T]
        take &= packs[(free ^ T) * k + pos] == need - 1
        j = np.flatnonzero(take)
        fam[slot[j]] = T
        slot[j] += 1
        free[j] ^= T
        need[j] -= 1
    return fam.reshape(k, n)


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
    only if one of them reads it: s; the bs packings (``bs``, ``bs0``,
    ``depends_on_all``, ``bs_argmax``); the family walk (``fam0``,
    ``fam_argmax``), for ``"sherstov"`` only; alt and salt; deg and deg_p;
    sparsity; the subcube table (C and DT).  ``None`` runs every group.
    Each value returned is the full call's.
    """
    n = t.shape[0].bit_length() - 1
    if n > MAX_BULK_ARITY:
        raise ValueError(f"bulk engine supports arity <= {MAX_BULK_ARITY}")

    def wants(*names) -> bool:
        return needs is None or any(name in needs for name in names)

    out: dict = {}

    if wants("s"):
        out["s"] = _pointwise_sensitivity(t).max(axis=0).astype(np.int64)

    # block sensitivity by the subset DP: bs(f, x) packs the full free set,
    # and a variable is relevant iff its singleton block flips f somewhere
    if wants("bs", "bs0", "depends_on_all", "bs_argmax", "sherstov"):
        B = _packings(t)
        out["depends_on_all"] = B[[1 << i for i in range(n)]].any(axis=1).all(axis=0)
        bs_pt = B[-1]
        bs_all = bs_pt.max(axis=0)
        argmax = np.argmax(bs_pt == bs_all, axis=0)
        out["bs"] = bs_all.astype(np.int64)
        out["bs0"] = bs_pt[0].astype(np.int64)
        out["bs_argmax"] = argmax.astype(np.int64)
        if wants("sherstov"):
            out["fam0"] = _families(B, np.arange(t.shape[1]), np.zeros_like(argmax))
            # the family at a maximizer 0 is fam0
            moved = np.flatnonzero(argmax)
            out["fam_argmax"] = out["fam0"].copy()
            out["fam_argmax"][moved] = _families(B, moved, argmax[moved])
        del B, bs_pt

    if wants("alt", "salt"):
        alt_by_shift = _alternation_by_shift(t, n)
        out["alt"] = alt_by_shift[:, 0].astype(np.int64)
        out["salt"] = alt_by_shift.min(axis=1).astype(np.int64)
        out["salt_argmin"] = np.argmin(alt_by_shift, axis=1).astype(np.int64)

    if wants("deg", "deg_p"):
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
        val, key = _subcube_fold(t)
        out["C"] = (n - (key.min(axis=0) >> n)).astype(np.int64)
        sweeps = _DepthSweeps(val)
        sweeps.run()
        out["DT"] = sweeps.full.astype(np.int64)
    return out
