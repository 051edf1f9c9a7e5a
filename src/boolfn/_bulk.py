"""Array-parallel measure evaluation across every function of a small arity.

The exhaustive verification suites need all measures of all 2**(2**n)
functions for n <= 4.  Calling the per-function API that many times would
dominate the runtime, so this module computes the same quantities with the
function axis vectorized.  A batch of functions is its lanes: one element
of max(8, 2**n) bits per function (``measures._lane``), bit x holding the
value at input x, which is the function's packed table and so its id.
Every batch entry point, ``measure_arrays`` and, up to n = 6, the
transform kernels of ``transforms``, takes the lanes alone.  A kernel that reads table entries
by input gets the (2**n, m) table matrix from them (``_table_matrix``):
row x holds every function's value at input x, the function axis
innermost and contiguous, and each such kernel is a handful of numpy
passes over whole rows of m entries.  ``measure_arrays`` builds that
matrix once for all its kernels; a per-function call passes one table, or
one column, through the same code.  Per-function records (block families,
map columns, chains) stay one row per function, as ``measure_arrays``
returns them.

Function ids live only in ``_columns`` and in the callers' reports:
the one column source, which walks the ids in fixed slices (``_SLICE``
ids each: n <= 3 is one slice, n = 4 is four) and yields each slice's
lanes, the ids themselves.  That bounds the memory of every kernel, the
subcube table included.  A caller that reads only some measures names
them in ``needs``, and only the kernels they read run: ``extremal_search``
passes its statistic's, so ranking by salt/s runs the s kernel and reads
the alt table alone, while the scan reads every measure.

bs, C and alt are read from tables over flip patterns.  A shift by x
carries every pointwise measure at x to the input 0: with p_x(y) =
f(x ^ y) ^ f(x), so that p_x(0) = 0, bs(f, x) = bs(p_x, 0) with the same
blocks, C(f, x) = C(p_x, 0), and the shift y -> f(x ^ y) has the
alternation of p_x, since complementing the output keeps every value
change.  Up to n = 4 there are only 2**(2**n - 1) patterns (32,768 at
n = 4; at n = 5 there would be 2**31, and ``measure_arrays`` stops at
``MAX_BULK_ARITY``).  So each table, ``_bs_table``, ``_cert_table`` and
``_alt_table``, is built once per arity and process, on its first read,
by the kernels below over the even ids of each slice of ``_columns``, and
kept read-only: 224 KiB at n = 4, all three built in 15 to 21 ms (2-core
Xeon VM).  A slice finds the pattern of each column at each input
(``_patterns``: n xor-shift doublings of its lanes) and reads the tables
by gather: bs is the max over x of bs(p_x, 0), ``bs_argmax`` its smallest
maximizer, and ``bs0`` and the families the entries at p_0 and at the
maximizer's pattern; C is the max over x of C(p_x, 0); alt is the entry at
p_0 and salt the min over the shifts b < 2**(n-1).  The kernels:

* ``measures``: s per column (``measures._column_sensitivity``); the
  minimal sensitive blocks and the packer behind the bs table (below);
  the packed level sets of alternation
  (``measures._alternation_at_shift``) at shift 0, behind the
  alt table, which run on the lanes (``measures._shift_moves``), so each
  pass moves max(8, 2**n) bits per table; and the ternary subcube table
  behind certificate complexity and decision-tree depth, the one the
  per-function API runs: the fold (``measures._subcube_fold``), whose
  certificate sizes (``measures._certificate_sizes``) at point 0 are the C
  table, and the DT sweeps (``measures._depth_sweeps``) on the fold alone,
  with no sizes.  DT = n wherever max(bs, deg) = n, since both bound DT
  from below, so the fold and the sweeps run only on the other columns
  (2,065 to 2,490 of the 16,384 of each n = 4 slice), the sweeps to their
  stop rule: the per-function reports stop at max(bs, deg), but a slice
  would stop only once every column meets its bound, and on every n = 4
  slice some column needs all 4 sweeps;
* ``spectral``: the Moebius and Walsh butterflies, which stay int8 here,
  since by the type rule of ``spectral`` they widen only from level 6,
  and the degree and sparsity kernels; ``deg`` and every ``deg_p`` are
  read from one Moebius matrix.  On an n = 4 slice (2-core Xeon VM, best
  of 30) int8 took the Moebius butterfly from 0.06 to 0.04 ms against
  int16, and Walsh with its sparsity from 0.45-0.65 to 0.25-0.35 ms
  against int32.

The bs table runs the per-function packer.  A pattern's lexicographically
smallest maximum family at 0 depends only on its antichain of minimal
sensitive blocks, and n = 4 has only 167 of them: the Dedekind number
M(4) = 168, less the antichain of the empty block, which flips nothing.
p(0) = 0, so the sensitive blocks of a pattern at 0 are its ones, and its
lane is already their packed set: the antichains of a slice are the
minimal blocks of its lanes (``measures._minimal_blocks``, the packed
up-closure that ``measures._bs_point`` runs on one int).  So each distinct
antichain is packed once per arity, by ``measures._make_packer`` and
``measures._lex_min_family`` as in ``measures._bs_point``, and every block
family in the library comes from that one rule.
"""

from __future__ import annotations

import functools

import numpy as np

from ._bitops import set_bits, table_mask, table_size, xor_shift
from .measures import (
    _alternation_at_shift,
    _certificate_sizes,
    _column_sensitivity,
    _depth_sweeps,
    _lane,
    _lex_min_family,
    _make_packer,
    _minimal_blocks,
    _shift_moves,
    _subcube_fold,
)
from .spectral import _degrees, _moebius_rows, _residues, _sparsities, _walsh_rows

MAX_BULK_ARITY = 4
_SLICE = 16384  # function ids per slice


def _columns(n: int, step: int = 1):
    """Yield the lanes of the function ids 0, step, 2 * step, ... of arity
    n, one slice of ``_SLICE`` ids at a time, ascending.  An id is its
    packed table, so a slice's lanes, of the lane type (``measures._lane``),
    whose shifts are the cheapest, are its ids."""
    lane = _lane(n)
    total = 1 << table_size(n)
    for lo in range(0, total, _SLICE):
        yield np.arange(lo, min(lo + _SLICE, total), step, dtype=lane)


def _table_matrix(lanes: np.ndarray, n: int) -> np.ndarray:
    """The (2**n, m) uint8 table matrix of the (m,) lanes of arity n: row x
    holds every function's value at input x, column r the table packed in
    ``lanes[r]``."""
    points = np.arange(table_size(n), dtype=lanes.dtype)[:, None]
    return ((lanes >> points) & 1).astype(np.uint8)


def _pattern_table(n: int, kernel) -> np.ndarray:
    """``kernel(lanes)`` on the flip patterns of arity n, read-only: its
    results on the lanes of the patterns in each slice of ``_columns``,
    joined along their first axis.  Pattern r is the function whose table
    is 2r, the even ids, whose value at 0 is 0; a slice's even ids keep the
    kernels' arrays to half those of a slice."""
    table = np.concatenate([kernel(lanes) for lanes in _columns(n, 2)])
    table.flags.writeable = False
    return table


@functools.cache
def _bs_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """bs(p, 0) of every flip pattern p of arity n, as uint8, and its
    lexicographically smallest maximum family, a row of n blocks,
    ascending and zero-padded; bs is the number of blocks in the family.

    p(0) = 0, so the sensitive blocks of p at 0 are its ones, and the
    minimal blocks of its lane are the key of its family.  Each distinct
    key not met in an earlier slice is packed once."""
    families: dict[int, tuple[int, ...]] = {}

    def kernel(lanes: np.ndarray) -> np.ndarray:
        keys, inverse = np.unique(_minimal_blocks(lanes, n), return_inverse=True)
        rows = np.zeros((keys.size, n), dtype=np.min_scalar_type(table_size(n) - 1))
        for row, key in zip(rows, keys.tolist()):
            if key not in families:
                cands = list(set_bits(key))
                families[key] = _lex_min_family(cands, n, _make_packer(cands))
            row[: len(families[key])] = families[key]
        return rows[inverse]

    fam = _pattern_table(n, kernel)
    bs = np.count_nonzero(fam, axis=1).astype(np.uint8)
    bs.flags.writeable = False
    return bs, fam


@functools.cache
def _cert_table(n: int) -> np.ndarray:
    """C(p, 0) of every flip pattern p of arity n, as uint8: the certificate
    sizes of the fold at point 0 (``measures._certificate_sizes``) of the
    patterns' table matrix."""
    return _pattern_table(
        n, lambda lanes: _certificate_sizes(_subcube_fold(_table_matrix(lanes, n)))[0])


@functools.cache
def _alt_table(n: int) -> np.ndarray:
    """alt(p) of every flip pattern p of arity n, as uint8: the level sets at
    shift 0 (``measures._alternation_at_shift``, an int at n = 0) on the
    patterns' lanes."""
    return _pattern_table(n, lambda lanes: np.broadcast_to(
        _alternation_at_shift(*_shift_moves(lanes, n), 0, n), lanes.shape).astype(np.uint8))


def _patterns(lanes: np.ndarray, n: int) -> np.ndarray:
    """The id of the flip pattern p_x(y) = f(x ^ y) ^ f(x) of every table f
    packed in ``lanes`` at every input x, as a (2**n, m) intp array.

    Row x first holds the tables shifted by x, y -> f(x ^ y): the rows
    x | 1 << i, x < 1 << i, are the rows x moved by ``xor_shift``, so n
    doublings fill them.  Complementing a row where its bit 0, f(x), is set
    gives p_x, whose bit 0 is then clear, and the id drops that bit.
    """
    rows = np.empty((table_size(n),) + lanes.shape, dtype=lanes.dtype)
    rows[0] = lanes
    for i in range(n):
        rows[1 << i: 2 << i] = xor_shift(rows[: 1 << i], n, i)
    return ((rows ^ (rows & 1) * table_mask(n)) >> 1).astype(np.intp)


def measure_arrays(lanes: np.ndarray, n: int, primes=(2, 3), needs=None) -> dict:
    """Every scalar measure of each function of arity n packed in the (m,)
    lanes, one ``measures._lane(n)`` element each, bit x holding its value
    at input x, as 1-D arrays of m entries.

    All functions are measured at once, so callers pass one slice of
    ``_columns``, or any other lanes of at most that many.  The kernels
    that read table entries (s, the degrees, sparsity and the DT fold)
    share one (2**n, m) table matrix, built from the lanes once
    (``_table_matrix``).

    Also returns the smallest bs maximizer (``bs_argmax``) and the
    lexicographically smallest maximum block families at the all-zero input
    (``fam0``) and there (``fam_argmax``), the ``BlockFamily`` witnesses of
    ``block_sensitivity``.  Each is an (m, n) array of blocks, ascending and
    zero-padded, from which the transforms are built.

    ``needs`` names the measures the caller reads, as the ``needs`` of a
    ``checks`` statement row do (``"deg_p"`` for every ``deg_{p}``,
    ``"sherstov"`` for the families at the maximizer).  A kernel group runs
    only if one of them reads it: s; bs (``bs``, ``bs0``,
    ``depends_on_all``, ``bs_argmax``) and, for ``"sherstov"`` only, its
    families (``fam0``, ``fam_argmax``), from the bs table; C, from its
    table; alt and salt, from the alt table; deg and deg_p; sparsity; DT,
    which reads deg and, if it ran, bs.  The three tables are built on
    their first read and read through the pattern ids (``_patterns``).
    ``None`` runs every group.  Each value returned is the full call's.
    """
    if n > MAX_BULK_ARITY:
        raise ValueError(f"bulk engine supports arity <= {MAX_BULK_ARITY}")

    def wants(*names) -> bool:
        return needs is None or any(name in needs for name in names)

    size, m = table_size(n), lanes.size
    out: dict = {}
    bs_group = wants("bs", "bs0", "depends_on_all", "bs_argmax", "sherstov")
    t = _table_matrix(lanes, n)

    if wants("s"):
        out["s"] = _column_sensitivity(t)[1]
    if bs_group or wants("C", "alt", "salt"):
        pat = _patterns(lanes, n)
        if bs_group:
            bs_of, fam_of = _bs_table(n)
            # bs(f, x) << n | (size - 1 - x): the max is bs(f) at its smallest maximizer
            rank = np.arange(size - 1, -1, -1, dtype=np.uint8)[:, None]
            key = ((bs_of[pat] << n) | rank).max(axis=0)
            argmax = size - 1 - (key & (size - 1)).astype(np.intp)
            # f depends on x_i iff some p_x flips at e_i: bit 2**i - 1 of its id
            flips = sum(1 << ((1 << i) - 1) for i in range(n))
            relevant = (np.bitwise_or.reduce(pat, axis=0) & flips) == flips
            out.update(depends_on_all=relevant, bs=(key >> n).astype(np.int64),
                       bs0=bs_of[pat[0]].astype(np.int64), bs_argmax=argmax.astype(np.int64))
            if wants("sherstov"):
                # take copies whole rows: indexing fam_of took 14 times as long
                out["fam0"] = fam_of.take(pat[0], axis=0)
                out["fam_argmax"] = fam_of.take(pat[argmax, np.arange(m)], axis=0)
        if wants("alt", "salt"):
            # alt(f XOR b) = alt(p_b) for the shifts b < 2**(n-1): alt at b = 0,
            # and salt the min
            alt = _alt_table(n)[pat[: max(1, size >> 1)]]
            out["alt"], out["salt"] = alt[0].astype(np.int64), alt.min(axis=0).astype(np.int64)
        if wants("C"):
            out["C"] = _cert_table(n)[pat].max(axis=0).astype(np.int64)
        # freed before the kernels below allocate, which then reuse its
        # pages: kept alive, it made about 1,200 minor page faults per call
        del pat

    if wants("deg", "deg_p", "DT"):
        # int8 at n <= 4 (the type rule of ``spectral``); the mod-p
        # coefficients are these reduced mod p
        coeffs = _moebius_rows(t)
        out["deg"] = _degrees(coeffs).astype(np.int64)
        for p in primes:
            out[f"deg_{p}"] = _degrees(_residues(coeffs, p)).astype(np.int64)
        del coeffs

    if wants("sparsity"):
        out["sparsity"] = _sparsities(_walsh_rows(t))

    if wants("DT"):
        # DT >= max(bs, deg) and DT <= n, so only the columns below n fold and sweep
        lower = np.maximum(out["deg"], out["bs"]) if bs_group else out["deg"]
        below = np.flatnonzero(lower < n)
        out["DT"] = np.full(m, n, dtype=np.int64)
        if below.size:
            out["DT"][below] = _depth_sweeps(_subcube_fold(t[:, below]))[(2,) * n]
    return out
