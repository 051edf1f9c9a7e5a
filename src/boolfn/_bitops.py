"""Packed-bitstring and hypercube-indexing primitives shared across the library.

A function table on n variables is a plain Python int carrying 2**n bits:
bit x holds the value at input index x, and variable x1 sits on the least
significant bit of the index.  All modules share this one convention.
numpy views are produced on demand for array kernels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ARITY = 24  # 2**24-bit tables (2 MiB) keep every table-level operation in memory


def table_size(n: int) -> int:
    return 1 << n


@lru_cache(maxsize=None)
def table_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def low_half_mask(n: int, i: int) -> int:
    """Mask over 2**n table positions selecting indices whose bit i is clear."""
    s = 1 << i
    chunk = (1 << s) - 1
    width = 1 << n
    m = chunk
    covered = 2 * s
    while covered < width:
        m |= m << covered
        covered *= 2
    return m & table_mask(n)


def xor_shift(table: int, n: int, i: int) -> int:
    """Reindex a packed table by x -> x XOR e_i."""
    s = 1 << i
    m0 = low_half_mask(n, i)
    return ((table & m0) << s) | ((table >> s) & m0)


def set_bits(x: int):
    """Yield the positions of the set bits of the int x >= 0, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def xor_shuffle(table: int, n: int, b: int) -> int:
    """Reindex a packed table by x -> x XOR b."""
    for i in set_bits(b):
        table = xor_shift(table, n, i)
    return table


def unpack(table: int, n: int) -> np.ndarray:
    """Packed int table -> uint8 array of length 2**n."""
    size = 1 << n
    nbytes = (size + 7) // 8
    raw = np.frombuffer(table.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=size)


def pack(values: np.ndarray) -> int:
    """uint8/bool array -> packed int table."""
    arr = np.asarray(values, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


# A level whose contiguous runs are shorter than this many elements is
# iterated down its long strided axis (see ``level_views``)
SHORT_RUN = 16


def level_views(a: np.ndarray, parts: int, run: int) -> tuple[np.ndarray, ...]:
    """The ``parts`` interleaved parts of one level of a C-contiguous array.

    ``a`` is cut into blocks of ``parts * run`` consecutive elements, and
    part j holds elements [j * run, (j + 1) * run) of every block, as a
    (blocks, run) view.  Where the run is shorter than ``SHORT_RUN`` each
    view is handed over transposed, (run, blocks), so that a ufunc called
    on them with ``order="C"`` loops down the long strided axis instead of
    paying numpy's per-run overhead on every short run; on the
    untransposed views ``order="C"`` is their memory order.
    """
    view = a.reshape(-1, parts, run)
    return tuple(view.transpose(1, 2, 0) if run < SHORT_RUN else view.swapaxes(0, 1))


def butterfly(a: np.ndarray, step, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Run a subset butterfly in place over the first axis of ``a`` and return it:
    levels ``start`` to ``stop`` - 1, every level by default.

    The first axis has 2**n entries indexed by subset masks; the trailing
    axes are a batch of independent tables, so a (2**n, m) matrix holds one
    table per column and each half is a run of whole contiguous rows.  At
    level i, ``step(lo, hi)`` is called once on the two halves, lo over the
    masks with bit i clear and hi over the same masks with bit i set, and
    must update them in place elementwise.

    The halves are ``level_views`` of the level: a (blocks, run) view per
    half, run being 2**i times the batch width, transposed where the run is
    shorter than ``SHORT_RUN``.  Steps call their ufuncs with ``order="C"``
    so that those short levels loop down the long axis; a step that does
    not gets the same values, more slowly.
    """
    if not a.flags.c_contiguous:
        raise ValueError("butterfly needs a C-contiguous array")
    width = a[:1].size
    if stop is None:
        stop = a.shape[0].bit_length() - 1
    for i in range(start, stop):
        step(*level_views(a, 2, width << i))
    return a


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Popcount of every index below 2**n, as uint8."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


def point_to_str(x: int, n: int) -> str:
    """Assignment as a bitstring, x1 first: '110' means x1=1, x2=1, x3=0."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def point_from_str(s: str) -> tuple[int, int]:
    """Bitstring -> (packed assignment, arity); the empty string is the arity-0 point."""
    if any(c not in "01" for c in s):
        raise ValueError(f"not a bitstring: {s!r}")
    x = 0
    for i, c in enumerate(s):
        if c == "1":
            x |= 1 << i
    return x, len(s)


def mask_indices(mask: int) -> tuple[int, ...]:
    """Bitmask -> sorted 1-based variable indices (for reports and JSON)."""
    return tuple(i + 1 for i in set_bits(mask))
