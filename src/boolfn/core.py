"""Truth tables on the Boolean hypercube and affine maps over GF(2).

Conventions, used everywhere in this package:

* A function on n variables is stored as a ``TruthTable``: arity ``n`` plus a
  packed integer of 2**n bits.  Bit x is the value at input x, and variable
  x1 is the least significant bit of the index x.
* Assignments, blocks of coordinates, and shift vectors are plain ints under
  the same bit convention (bit i-1 encodes variable xi).
* Outputs are stored 0/1; the +-1 view needed for spectral work is derived
  as 1 - 2*f(x) where required, never stored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._bitops import (
    MAX_ARITY,
    butterfly,
    mask_indices,
    pack,
    point_from_str,
    set_bits,
    table_mask,
    table_size,
    unpack,
    xor_shift,
    xor_shuffle,
)

__all__ = [
    "MAX_ARITY",
    "TruthTable",
    "AffineMap",
    "Restriction",
    "FormatError",
    "apply_affine",
    "shift",
    "restrict",
    "is_invertible",
    "tt_parse",
    "tt_serialize",
]


class FormatError(ValueError):
    """Raised when a serialized function string does not parse."""


def _check_arity(n: int) -> None:
    if not 0 <= n <= MAX_ARITY:
        raise ValueError(f"arity {n} outside supported range 0..{MAX_ARITY}")


def _check_point(x: int, n: int) -> None:
    if not 0 <= x < table_size(n):
        raise ValueError(f"assignment {x} out of range for arity {n}")


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function as an immutable packed table of 2**n bits."""

    n: int
    bits: int

    def __post_init__(self):
        _check_arity(self.n)
        if not 0 <= self.bits <= table_mask(self.n):
            raise ValueError(f"table value does not fit 2**{self.n} bits")

    @classmethod
    def from_values(cls, values) -> "TruthTable":
        """Build from an iterable of 0/1 outputs, indexed by input."""
        vals = list(values)
        n = max(len(vals) - 1, 0).bit_length()
        if len(vals) != table_size(n):
            raise ValueError(f"table length {len(vals)} is not a power of two")
        if any(v not in (0, 1) for v in vals):
            raise ValueError("table entries must be 0 or 1")
        return cls(n, pack(np.array(vals, dtype=np.uint8)))

    @classmethod
    def from_callable(cls, fn, n: int) -> "TruthTable":
        """Tabulate ``fn(x)`` over all packed assignments x."""
        _check_arity(n)
        bits = 0
        for x in range(table_size(n)):
            if fn(x) & 1:
                bits |= 1 << x
        return cls(n, bits)

    def value_at(self, x: int) -> int:
        _check_point(x, self.n)
        return (self.bits >> x) & 1

    __call__ = value_at

    def to_array(self) -> np.ndarray:
        """Outputs as a uint8 array of length 2**n."""
        return unpack(self.bits, self.n)

    def is_constant(self) -> bool:
        return self.bits in (0, table_mask(self.n))

    def relevant_variables(self) -> tuple[int, ...]:
        """0-based indices of variables the function actually depends on."""
        return tuple(
            i for i in range(self.n) if xor_shift(self.bits, self.n, i) != self.bits
        )

    def __repr__(self):
        return f"TruthTable({tt_serialize(self)!r})"


@dataclass(frozen=True)
class AffineMap:
    """x -> Mx + b over GF(2): column i is the image of e_i, plus a shift."""

    n: int
    columns: tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        _check_arity(self.n)
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        size = table_size(self.n)
        for c in self.columns:
            if not 0 <= c < size:
                raise ValueError("column does not fit the arity")
        if not 0 <= self.shift < size:
            raise ValueError("shift does not fit the arity")

    @classmethod
    def identity(cls, n: int, shift: int = 0) -> "AffineMap":
        return cls(n, tuple(1 << i for i in range(n)), shift)

    def apply_linear(self, x: int) -> int:
        y = 0
        for i in set_bits(x):
            y ^= self.columns[i]
        return y

    def apply(self, x: int) -> int:
        _check_point(x, self.n)
        return self.apply_linear(x) ^ self.shift

    __call__ = apply

    def compose(self, other: "AffineMap") -> "AffineMap":
        """The map x -> self(other(x))."""
        if other.n != self.n:
            raise ValueError("arity mismatch in composition")
        cols = tuple(self.apply_linear(c) for c in other.columns)
        return AffineMap(self.n, cols, self.apply(other.shift))


@dataclass(frozen=True)
class Restriction:
    """Fix the variables in ``mask`` to the bits of ``values``."""

    mask: int
    values: int

    def __post_init__(self):
        if self.values & ~self.mask:
            raise ValueError("fixed values set outside the fixed mask")

    def embed(self, y: int, n: int) -> int:
        """Map an assignment of the free variables into the full cube."""
        x = self.values
        j = 0
        for i in range(n):
            if not (self.mask >> i) & 1:
                if (y >> j) & 1:
                    x |= 1 << i
                j += 1
        return x


def affine_images(n: int, columns, shifts) -> np.ndarray:
    """Image tables of affine maps: entry x (of column r) is A(x) (A_r(x)).

    One map has ``columns`` (n,) and a scalar shift, and gets a (2**n,)
    table; m maps have ``columns`` (m, n), one map per row, and ``shifts``
    (m,), and get a (2**n, m) matrix with one map per column.  The table
    doubles over the columns: the images of the inputs in [2**i, 2**(i+1))
    are those of the inputs below 2**i XOR column i, whole contiguous rows
    of the matrix, so column i of every map is first made one contiguous
    row (free where ``columns`` is the transpose of such rows): for 16,384
    maps at n = 4 the doublings took 0.15-0.2 ms on strided columns and
    0.02 ms on the rows (2-core Xeon VM).  Entries use the narrowest
    unsigned type that holds 2**n - 1.
    """
    dtype = np.min_scalar_type(table_size(n) - 1)
    shifts = np.asarray(shifts)
    cols = np.asarray(columns, dtype=dtype).reshape(shifts.shape + (n,))
    rows = np.ascontiguousarray(cols.T)
    img = np.empty((table_size(n),) + shifts.shape, dtype=dtype)
    img[0] = shifts
    for i in range(n):
        half = 1 << i
        np.bitwise_xor(img[:half], rows[i], out=img[half : 2 * half])
    return img


def apply_affine(f: TruthTable, a: AffineMap) -> TruthTable:
    """The function g(x) = f(a(x)), gathered through the map's image table."""
    if a.n != f.n:
        raise ValueError(f"arity mismatch: function {f.n}, map {a.n}")
    img = affine_images(f.n, a.columns, a.shift)
    return TruthTable(f.n, pack(f.to_array()[img]))


def shift(f: TruthTable, b: int) -> TruthTable:
    """The shifted function x -> f(x XOR b)."""
    _check_point(b, f.n)
    return TruthTable(f.n, xor_shuffle(f.bits, f.n, b))


def restrict(f: TruthTable, rho: Restriction) -> TruthTable:
    """Project f onto the unfixed variables of ``rho``.

    The result has arity n - popcount(mask) and agrees with f on the subcube
    selected by the restriction.
    """
    n = f.n
    if rho.mask >> n:
        raise ValueError("restriction mask exceeds arity")
    free = [i for i in range(n) if not (rho.mask >> i) & 1]
    m = len(free)
    sub = np.full(table_size(m), rho.values, dtype=np.int64)
    y = np.arange(table_size(m), dtype=np.int64)
    for j, i in enumerate(free):
        sub |= ((y >> j) & 1) << i
    return TruthTable(m, pack(f.to_array()[sub]))


def is_invertible(a: AffineMap) -> bool:
    """Whether the linear part has full rank over GF(2)."""
    basis: list[int] = []
    for col in a.columns:
        cur = col
        for vec in basis:
            low = vec & -vec
            if cur & low:
                cur ^= vec
        if cur == 0:
            return False
        basis.append(cur)
    return True


_TT_RE = re.compile(r"^tt:(\d+):([0-9a-fA-F]+)$")
_ANF_RE = re.compile(r"^anf:(\d+):(.*)$", re.DOTALL)
_VAR_RE = re.compile(r"^x(\d+)$")


def _hex_width(n: int) -> int:
    return max(1, table_size(n) // 4)


def _parse_anf_poly(poly: str, n: int) -> int:
    """ANF text -> packed coefficient vector over GF(2) (bit S = monomial S)."""
    coeffs = 0
    text = poly.strip()
    if text == "0":
        return 0
    if not text:
        raise FormatError("empty polynomial (use '0' for the zero function)")
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise FormatError("empty term in polynomial")
        if term == "1":
            coeffs ^= 1
            continue
        mask = 0
        for tok in re.split(r"[*\s]+", term):
            if not tok:
                continue
            m = _VAR_RE.match(tok)
            if not m:
                raise FormatError(f"unknown variable {tok!r} in ANF form")
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise FormatError(f"unknown variable x{i} for arity {n}")
            mask |= 1 << (i - 1)
        if mask == 0:
            raise FormatError(f"malformed term {term!r}")
        coeffs ^= 1 << mask
    return coeffs


def _xor(lo: np.ndarray, hi: np.ndarray) -> None:
    """Step of the ANF butterfly; the transform is its own inverse over GF(2)."""
    np.bitwise_xor(hi, lo, out=hi, order="C")


def tt_parse(text: str) -> TruthTable:
    """Parse ``tt:<n>:<hex>`` or ``anf:<n>:<poly>``.

    The hex group encodes the packed table little-endian: table index 0 is
    the least significant bit of the integer the hex digits spell.
    """
    text = text.strip()
    m = _TT_RE.match(text)
    if m:
        n = int(m.group(1))
        _check_arity(n)
        digits = m.group(2)
        if len(digits) != _hex_width(n):
            raise FormatError(
                f"bad hex length for arity {n}: expected {_hex_width(n)} digits, got {len(digits)}"
            )
        bits = int(digits, 16)
        if bits > table_mask(n):
            raise FormatError(f"table value does not fit 2**{n} bits")
        return TruthTable(n, bits)
    m = _ANF_RE.match(text)
    if m:
        n = int(m.group(1))
        _check_arity(n)
        coeffs = _parse_anf_poly(m.group(2), n)
        return TruthTable(n, pack(butterfly(unpack(coeffs, n), _xor)))
    raise FormatError(f"unrecognized function format: {text[:40]!r}")


def tt_serialize(f: TruthTable, form: str = "tt") -> str:
    """Canonical text for a table; ``form`` is ``tt`` (hex) or ``anf``."""
    if form == "tt":
        return f"tt:{f.n}:{f.bits:0{_hex_width(f.n)}x}"
    if form == "anf":
        coeffs = pack(butterfly(f.to_array(), _xor))
        if coeffs == 0:
            poly = "0"
        else:
            terms = []
            for mask in set_bits(coeffs):
                if mask == 0:
                    terms.append("1")
                else:
                    terms.append("*".join(f"x{i}" for i in mask_indices(mask)))
            poly = "+".join(terms)
        return f"anf:{f.n}:{poly}"
    raise ValueError(f"unknown serialization form {form!r}")


def parse_point(text: str, n: int) -> int:
    """Bitstring assignment ('010...') checked against arity n."""
    x, m = point_from_str(text)
    if m != n:
        raise ValueError(f"assignment {text!r} has {m} bits, expected {n}")
    return x
