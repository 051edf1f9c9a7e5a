"""Array-parallel measure evaluation across every function of a small arity.

The exhaustive verification suites need all measures of all 2**(2**n)
functions for n <= 4.  Calling the per-function API that many times would
dominate the runtime, so this module computes the same quantities with the
function axis vectorized: tables become rows of one matrix and each measure
is a row kernel of a handful of numpy passes.  Callers walk the function
ids in the fixed slices of ``_slices`` (``_SLICE`` ids each: n <= 3 is one
slice, n = 4 is four) and pass one slice at a time to ``measure_arrays``,
which bounds the memory of every kernel, the block patterns and the
subcube table included.  Every kernel but the block-pattern scan is the one
the per-function API runs:

* ``measures``: pointwise sensitivity, the layered alternation DP, the
  block-packing table, and the ternary subcube table
  (``measures._subcube_table``) behind certificate complexity and
  decision-tree depth;
* ``spectral``: the Moebius and Walsh butterflies, run here in int16 and
  int32, and the degree and sparsity kernels; ``deg`` and every ``deg_p``
  are read from one Moebius matrix.

The scan reuses the sensitivity and sparsity kernels on the transformed
tables g, and cross-checks these arrays against the per-function API on a
deterministic subsample.  Since both routes share most kernels, that
guards the batching (dtypes, the row axis) and compares two algorithms only
for alt and salt: here the layered DP (``measures._alternation_down``) of
the function and of each shift, there the packed level sets of
``measures._level_sets``, which ``alternation`` sums into the same path
maxima and the salt search runs one shift at a time.  On
16,384 rows at n = 4 the layered DP took 1.2 ms against 20.1 ms for level
sets on bool arrays (best of 7, 2-core Xeon VM), so the batched route keeps
it.  The scan also checks
each alternation chain of its transforms against its alt value, and the
tests check the arrays against brute-force oracles.
"""

from __future__ import annotations

import numpy as np

from ._bitops import table_size
from .measures import (
    _alternation_down,
    _packing_lut,
    _pointwise_sensitivity,
    _subcube_table,
)
from .spectral import _degrees, _moebius_rows, _sparsities, _walsh_rows

MAX_BULK_ARITY = 4
_SLICE = 16384  # function ids per slice


def _slices(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) ranges of function ids, in order, that cover arity n."""
    total = 1 << table_size(n)
    return [(lo, min(lo + _SLICE, total)) for lo in range(0, total, _SLICE)]


def _tables(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows = function ids in [lo, hi), columns = the 2**n table entries."""
    ids = np.arange(lo, hi, dtype=np.uint32)
    cols = np.arange(table_size(n), dtype=np.uint32)
    return ((ids[:, None] >> cols[None, :]) & 1).astype(np.uint8)


def _block_patterns(t: np.ndarray) -> np.ndarray:
    """Sensitive-block pattern at every input (bit B-1 set = block B flips f).

    One uint32 buffer takes each block's bit in place, so the loop allocates
    no pattern-sized temporaries.
    """
    m, size = t.shape
    idx = np.arange(size)
    pattern = np.zeros((m, size), dtype=np.uint32)
    bit = np.empty_like(pattern)
    for block in range(1, size):
        np.not_equal(t, t[:, idx ^ block], out=bit)
        bit <<= block - 1
        pattern |= bit
    return pattern


def _alternation_by_shift(t: np.ndarray) -> np.ndarray:
    """Column b of the result is alt(f XOR b), for the shifts b < 2**(n-1).

    Runs the layered DP of ``measures._alternation_down`` on each shifted
    table.  The upper shifts are left out because alt(f XOR b) equals
    alt(f XOR b XOR 1^n): the minimum over these columns and its smallest
    argmin are those over all shifts.  At n = 0 the one shift 0 is kept.
    """
    m, size = t.shape
    idx = np.arange(size)
    out = np.empty((m, max(1, size >> 1)), dtype=np.int8)
    for b in range(out.shape[1]):
        out[:, b] = _alternation_down(t[:, idx ^ b])[:, 0]
    return out


def measure_arrays(n: int, lo: int, hi: int, primes=(2, 3)) -> dict:
    """Every scalar measure for each function id in [lo, hi), as 1-D arrays.

    All rows are measured at once, so callers pass one slice of ``_slices``.

    Also returns the sensitive-block patterns at the all-zero input
    (``pattern0``) and at the smallest block-sensitivity maximizer
    (``pattern_argmax``), from which the transforms take their block families.
    """
    if n > MAX_BULK_ARITY:
        raise ValueError(f"bulk engine supports arity <= {MAX_BULK_ARITY}")
    t = _tables(n, lo, hi)
    rows = np.arange(t.shape[0])
    out: dict = {"ids": np.arange(lo, hi, dtype=np.int64)}

    out["s"] = _pointwise_sensitivity(t).max(axis=1).astype(np.int64)

    # block sensitivity through the packing table; a variable is relevant iff
    # its singleton block is sensitive somewhere
    lut, _ = _packing_lut(n)
    pattern = _block_patterns(t)
    seen = np.bitwise_or.reduce(pattern, axis=1)
    singles = sum(1 << ((1 << i) - 1) for i in range(n))
    out["depends_on_all"] = (seen & singles) == singles
    bs_pt = lut[pattern]
    bs_all = bs_pt.max(axis=1)
    argmax = np.argmax(bs_pt == bs_all[:, None], axis=1)
    out["bs"] = bs_all.astype(np.int64)
    out["bs0"] = bs_pt[:, 0].astype(np.int64)
    out["bs_argmax"] = argmax.astype(np.int64)
    out["pattern0"] = pattern[:, 0].copy()
    out["pattern_argmax"] = pattern[rows, argmax]
    del pattern, bs_pt

    alt_by_shift = _alternation_by_shift(t)
    out["alt"] = alt_by_shift[:, 0].astype(np.int64)
    out["salt"] = alt_by_shift.min(axis=1).astype(np.int64)
    out["salt_argmin"] = np.argmin(alt_by_shift, axis=1).astype(np.int64)

    # |coefficients| <= 2**(n-1), so int16 holds them; the mod-p coefficients
    # are these reduced mod p
    coeffs = _moebius_rows(t, np.int16)
    out["deg"] = _degrees(coeffs).astype(np.int64)
    for p in primes:
        out[f"deg_{p}"] = _degrees(coeffs % p).astype(np.int64)
    del coeffs

    out["sparsity"] = _sparsities(_walsh_rows(t, np.int32))

    # C is n minus the smallest free set of a largest constant subcube through
    # a point; the key of that subcube orders by the size of its free set first
    _, depth, key = _subcube_table(t)
    out["C"] = (n - (key.min(axis=0) >> n)).astype(np.int64)
    out["DT"] = depth[(2,) * n].astype(np.int64)
    return out
