"""Constructive affine and linear transforms that trade one measure for another.

Three constructions are provided, each returning the map, the transformed
function g = f(A(x)), and a certificate recording the quantities the
construction guarantees:

* ``bs_to_s_affine``: disjoint sensitive blocks at a point become single
  sensitive coordinates of g at the all-zero input, so the block sensitivity
  of f at the point equals the sensitivity of g at 0.
* ``alt_to_s_linear``: the points of a maximum-alternation chain become the
  columns of an invertible map, forcing alt(f) <= 2*s(g, 0) + 1.
* ``sherstov_linear``: the block-substitution map built from the sensitive
  blocks at a block-sensitivity-maximizing input, split by the input's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bitops import mask_indices, pack, point_to_str, set_bits, table_size
from .core import AffineMap, TruthTable, affine_images, tt_serialize
from .measures import (
    BlockFamily,
    Chain,
    _column_sensitivity,
    _lane,
    alternation,
    block_sensitivity,
)

__all__ = [
    "TransformResult",
    "bs_to_s_affine",
    "alt_to_s_linear",
    "sherstov_linear",
]


@dataclass(frozen=True)
class TransformResult:
    """A constructed map, the resulting function, and its guarantee record."""

    kind: str
    source: TruthTable
    map: AffineMap
    g: TruthTable
    certificate: dict

    def to_json_dict(self) -> dict:
        n = self.map.n
        hex_width = max(1, (n + 3) // 4)
        cert = {}
        for key, value in self.certificate.items():
            if key in ("point", "shift", "z"):
                cert[key] = point_to_str(value, n)
            elif key == "chain":
                cert[key] = [point_to_str(p, n) for p in value]
            elif key in ("blocks", "a_sets", "b_sets"):
                cert[key] = [list(mask_indices(m)) for m in value]
            elif key == "substitution":
                cert[key] = list(value)
            else:
                cert[key] = value
        return {
            "transform": self.kind,
            "arity": n,
            "map": {
                "columns": [point_to_str(c, n) for c in self.map.columns],
                "shift": f"{self.map.shift:0{hex_width}x}",
            },
            "g": tt_serialize(self.g),
            "certificate": cert,
        }


# ---------------------------------------------------------------------------
# batch kernels: each transform built for every function of a batch, given
# as its ``source``: up to n = 6 its lanes, one ``measures._lane`` element
# per function holding its packed table (the ids of ``_bulk._columns``),
# and above n = 6 the (2**n,) 0/1 table of the one function a call builds.
# Each certificate field is one array with a row per function, or one value
# shared by all of them, and ``_Batch.result`` turns row r of every field
# into plain values by one rule, so a new field needs no converter; the
# per-function constructions below are the m = 1 case (``_one``)


@dataclass(frozen=True)
class _Batch:
    """One construction for every function: map columns, shifts, the tables
    of g (one per column), and each certificate field as a per-function
    array (or one shared value)."""

    kind: str
    columns: np.ndarray
    shifts: np.ndarray
    g: np.ndarray
    cert: dict

    def result(self, r: int, f: TruthTable) -> TransformResult:
        """The construction for function r: row r of the map, column r of g,
        and row r of each certificate field as plain values.

        A field shared by every function is kept as it is.  A per-function
        scalar becomes its Python value, or None where a float is not
        finite.  A row becomes a tuple of ints, cut to the family's
        ``block_sensitivity`` where the certificate has one, and a bool row
        becomes the list of its 1-based positions that are set.  bs2s adds
        the ``substitution`` record of its map's columns, built here for
        the one function, since the scan's bs2s batches never read it.
        """
        n = f.n
        amap = AffineMap(n, tuple(self.columns[r].tolist()), self.shifts.item(r))
        g = TruthTable(n, pack(self.g[:, r]))
        k = self.cert["block_sensitivity"].item(r) if "block_sensitivity" in self.cert else None
        cert = {key: _plain(value, r, k) for key, value in self.cert.items()}
        if self.kind == "bs2s":
            cert["substitution"] = _substitution_record(amap.columns, n)
        return TransformResult(self.kind, f, amap, g, cert)


def _plain(value, r: int, k):
    """Row r of one certificate field, by ``_Batch.result``'s rule."""
    if not isinstance(value, np.ndarray):
        return value
    if value.ndim == 1:
        v = value.item(r)
        return v if math.isfinite(v) else None
    row = value[r, :k].tolist()
    if value.dtype == bool:
        return [i + 1 for i, bit in enumerate(row) if bit]
    return tuple(row)


def _block_rows(n: int, blocks) -> np.ndarray:
    """One family as a (1, n) block row, zero-padded."""
    row = np.zeros((1, n), dtype=np.min_scalar_type(table_size(n) - 1))
    row[0, : len(blocks)] = blocks
    return row


def _units(n: int, dtype) -> np.ndarray:
    """The unit vectors 1 << i, i < n, as an (n, 1) column of ``dtype``."""
    return (1 << np.arange(n, dtype=np.uint64)).astype(dtype)[:, None]


def _place_on_low_bit(cols: np.ndarray, parts: np.ndarray) -> None:
    """Write each nonzero part onto the column of its smallest member.

    Both arrays hold one function per column: ``cols`` is (n, m), row i the
    map column i of every function, and zero wherever a part lands;
    ``parts`` is (k, m), the disjoint parts of each function, zero-padded.
    Row i takes each part whose lowest bit is bit i, so every pass runs over
    whole rows of m entries, with no index arithmetic.
    """
    unit = _units(cols.shape[0], cols.dtype)
    for part in parts:
        cols |= ((part & -part) == unit) * part


def _one(f: TruthTable) -> np.ndarray:
    """The batch kernels' source for one function: up to n = 6 its lane,
    which is its packed table, with nothing unpacked, and above n = 6 its
    0/1 table."""
    return np.array([f.bits], dtype=_lane(f.n)) if f.n <= 6 else f.to_array()


def _gather(source: np.ndarray, columns: np.ndarray, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Image tables of the maps and the uint8 tables of g(x) = f(A(x)), (2**n, m).

    Up to n = 6 the source is the lanes, and every table fits one lane, so
    entry (x, r) of g is ``(lanes[r] >> A_r(x)) & 1``: one elementwise pass
    with no index arithmetic.  On a 16,384-column slice at n = 4 (2-core
    Xeon VM, best of 30) that takes 0.10 ms, where ``np.take_along_axis``
    on the table matrix takes 1.2-2.1 ms.  Above n = 6 only per-function
    calls come here, and g indexes the one function's table by the images.
    """
    n = columns.shape[1]
    img = affine_images(n, columns, shifts)
    if n > 6:
        return img, source[img]
    return img, (np.right_shift(source, img) & 1).astype(np.uint8)


def _bs2s_rows(source, points, blocks, placement: str) -> _Batch:
    n = blocks.shape[1]
    by_block = np.ascontiguousarray(blocks.T)  # row j: block j of every function
    if placement == "block-index":
        cols = by_block
    elif placement == "min-in-block":
        cols = np.zeros_like(by_block)
        _place_on_low_bit(cols, by_block)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    _, g = _gather(source, cols.T, points)
    k = np.count_nonzero(by_block, axis=0)
    # s(g, 0): the unit points where g differs from g(0)
    sg0 = (g[[1 << i for i in range(n)]] != g[0]).sum(axis=0)
    cert = {
        "point": points,
        "block_sensitivity": k,
        "s_g_at_zero": sg0,
        "equality_holds": sg0 == k,
        "blocks": blocks,
        "placement": placement,
    }
    return _Batch("bs2s", cols.T, points, g, cert)


def _substitution_record(columns, n: int) -> tuple:
    """Which input variable drives each output coordinate (0 = held constant)."""
    sources = [0] * n
    for j, col in enumerate(columns):
        for i in set_bits(col):
            sources[i] = j + 1
    return tuple(sources)


def _alt2s_rows(source, alt, chains) -> _Batch:
    """``alt_to_s_linear`` for every function of a batch ``source``, from its
    alt values, (m,), and maximum-alternation chains, (m, n + 1), as
    ``measures._best_chains`` gives them."""
    shifts = np.zeros(chains.shape[0], dtype=np.int64)
    img, g = _gather(source, chains[:, 1:], shifts)
    # a linear map is invertible iff its image table is a permutation, that
    # is iff no x != 0 maps to A(0): A(x) == A(y) iff A(x ^ y) == A(0)
    invertible = (img[1:] != img[0]).all(axis=0)
    sg0, sg = _column_sensitivity(g)
    bound = 2 * sg0 + 1
    cert = {
        "alt": alt,
        "s_g_at_zero": sg0,
        "s_g": sg,
        "bound": bound,
        "holds": alt <= bound,
        "invertible": invertible,
        "chain": chains,
    }
    return _Batch("alt2s", chains[:, 1:], shifts, g, cert)


def _sherstov_rows(source, z, blocks) -> _Batch:
    m, n = blocks.shape
    # one function per column, so every pass below runs over whole rows
    by_block = np.ascontiguousarray(blocks.T)
    zb = np.asarray(z).astype(by_block.dtype)
    zeros, ones = by_block & ~zb, by_block & zb
    k = np.count_nonzero(by_block, axis=0)
    # variables outside every block keep their own column
    cols = _units(n, by_block.dtype) & ~np.bitwise_or.reduce(by_block, axis=0)
    _place_on_low_bit(cols, zeros)
    _place_on_low_bit(cols, ones)
    shifts = np.zeros(m, dtype=np.int64)
    _, g = _gather(source, cols.T, shifts)
    sg = _column_sensitivity(g)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = k / (sg * sg)
    cert = {
        "z": z,
        "block_sensitivity": k,
        "blocks": blocks,
        "a_sets": zeros.T,
        "b_sets": ones.T,
        "split_blocks": ((zeros != 0) & (ones != 0)).T,
        "s_g": sg,
        "ratio_bs_over_s_g_sq": ratio,
        "factor4_holds": 4 * sg * sg >= k,
    }
    return _Batch("sherstov", cols.T, shifts, g, cert)


# ---------------------------------------------------------------------------
# per-function constructions


def bs_to_s_affine(
    f: TruthTable,
    a: int,
    placement: str = "block-index",
    limit: int | None = None,
) -> TransformResult:
    """Affine map turning a maximum disjoint block family at ``a`` into
    single sensitive coordinates of g at the all-zero input.

    ``placement`` fixes where the block columns sit: ``block-index`` puts the
    j-th block on column j (columns beyond the family are zero), while
    ``min-in-block`` puts each block on the column of its smallest member.
    Both yield s(g, 0) equal to the block sensitivity of f at ``a``; the
    second additionally makes g read, at every coordinate of a block, the
    input variable indexed by that block's smallest member, which is the
    form the submatrix certificate construction needs.
    """
    _, fam = block_sensitivity(f, at=a, witness=True, limit=limit)
    return _bs2s_from_family(f, fam, placement)


def _bs2s_from_family(
    f: TruthTable, fam: BlockFamily, placement: str = "block-index"
) -> TransformResult:
    """``bs_to_s_affine`` at ``fam.point`` on a witness family already found."""
    blocks = _block_rows(f.n, fam.blocks)
    return _bs2s_rows(_one(f), np.array([fam.point]), blocks, placement).result(0, f)


def alt_to_s_linear(f: TruthTable) -> TransformResult:
    """Invertible linear map whose columns are the points of a maximum
    alternation chain, so that alt(f) <= 2*s(g, 0) + 1.

    The chain is the witness of ``alternation``.  Column supports strictly
    increase along it, which makes the map invertible; this is verified and
    recorded rather than assumed.
    """
    return _alt2s_from_chain(f, *alternation(f, witness=True))


def _alt2s_from_chain(f: TruthTable, alt: int, chain: Chain) -> TransformResult:
    """``alt_to_s_linear`` on a maximum-alternation chain already found."""
    return _alt2s_rows(_one(f), np.array([alt]), np.array([chain.points])).result(0, f)


def sherstov_linear(f: TruthTable, limit: int | None = None) -> TransformResult:
    """Block-substitution linear map at a block-sensitivity-maximizing input.

    With z the smallest input maximizing pointwise block sensitivity and
    S_1..S_k the witness blocks there, each block splits into its zero part
    (members where z is 0) and one part (members where z is 1).  The column
    of the smallest member of each part carries that part's indicator;
    columns of untouched variables stay themselves; every other column is
    zero.
    """
    _, fam = block_sensitivity(f, witness=True, limit=limit)
    return _sherstov_from_family(f, fam)


def _sherstov_from_family(f: TruthTable, fam: BlockFamily) -> TransformResult:
    """``sherstov_linear`` on a witness family already found by a bs search."""
    blocks = _block_rows(f.n, fam.blocks)
    return _sherstov_rows(_one(f), np.array([fam.point]), blocks).result(0, f)
