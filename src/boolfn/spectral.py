"""Exact polynomial and Fourier coefficient tables for packed truth tables.

The public coefficient arrays are int64 with no normalization, so every
coefficient is an exact integer: a zero test is a genuine zero test.
Coefficient index S (a bitmask of variables) addresses the monomial
prod_{i in S} x_i for the multilinear bases, and the character
(-1)^<S,x> for the Walsh basis.

Every transform is ``_bitops.butterfly`` with its own in-place step, whose
ufuncs run with ``order="C"`` so that the butterfly's short-run levels loop
down their long axis.  The kernels (``_moebius_rows``, ``_walsh_rows``) take
one 0/1 table of 2**n entries, a (2**n, m) matrix with one table per
column, or one ``TruthTable``.  ``_degrees`` and ``_sparsities`` reduce over
the first axis to the degree and the number of nonzero coefficients of each
table, a scalar for one table and an (m,) array for a matrix; ``measures``,
``SpectrumRep`` and ``_bulk`` all use them.

The kernels have one type rule: each starts in int8 and widens, once to
int16 and once to int32, before the first level whose values could outgrow
the type.  After level i (from 0) every |value| of the Moebius butterfly of
a 0/1 table is at most 2**i, and every |value| of the Walsh one, the step's
doubled half included, at most 2**(i + 1).  So Moebius widens before
levels 7 and 15, Walsh before levels 6 and 14, and a table comes back in
the narrowest of the three types that holds 2**(n-1) (Moebius) or 2**n
(Walsh): int32 is exact up to ``MAX_ARITY`` (24), and ``_bulk``'s n <= 4
matrices and the scan's sparsity of the chain maps' tables stay int8.  A
table that needs int32 runs its int8 and int16 levels in blocks of
``_BLOCK_ROWS`` rows, each cast into the int32 table, since no level below
15 crosses a block of 2**15 rows, so no whole int16 copy is held beside
it.  One ``TruthTable`` of n >= 3 starts at level 3 from its packed bytes:
a (256, 8) int8 lookup (``_byte_levels``) holds the first three levels of
every byte's 8 entries, so the table is never unpacked.  At n = 24 the
kernels then peak at 66.8 MiB (tracemalloc), against 80 for the int32
kernels with the 0/1 table they unpacked.  On random tables (2-core Xeon
VM, best of 3) Walsh went from 27.3 to 10.9 ms at n = 20 and from 717 to
250 ms at n = 24, and Moebius from 8.8 to 5.8 ms and from 255 to 102 ms,
against int32 throughout.  On the ``perfbench`` cli items, best of 72
against the same kernels started from ``f.to_array()``, the lookup took
``measures fam:ip:n=9`` from 13.0 to 11.7 ms, ``fam:maj:n=17`` from 4.1 to
3.7 and ``fam:rubinstein:m=4,n=4`` from 3.0 to 2.6, and the whole pass from
77.2 to 70.9 ms.  Matrices start from their 0/1 entries: on an n = 4 slice
the lookup, with the packing and transpose it needs there, took 0.85 ms
against 0.05 ms.

The owner of a function's measures (``measures._Measures``), which the
report, ``commlb.bound_summary``, the CLI, the checks and the public
measures all read, builds one Moebius table per function: deg and DT read
it, and every deg_p reads its residues mod p (``_residues``), which equal
those of the integer coefficients.  Mod 2 they are ``c & 1``; otherwise
they come from floor division, ``c - c // p * p``, which numpy runs by a
precomputed multiply for a scalar divisor, where its ``%`` divides every
entry: on the 16 x 16,384 int16 Moebius matrix of an n = 4 slice (2-core
Xeon VM, best of 30) ``%`` took 0.6-0.9 ms per prime and floor division
0.08-0.10 ms, and 0.04-0.06 ms in int8.  The public arrays
(``moebius_coefficients``, ``walsh_coefficients``, ``spectrum`` and the
sparsity witness's ``SpectrumRep``) are the kernels' tables cast to int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._bitops import butterfly, pack, popcounts
from .core import TruthTable

__all__ = [
    "MOEBIUS_Z",
    "MOEBIUS_MOD_P",
    "WALSH",
    "SpectrumRep",
    "moebius_coefficients",
    "moebius_coefficients_mod",
    "walsh_coefficients",
    "spectrum",
    "is_prime",
]

MOEBIUS_Z = "moebius-Z"
MOEBIUS_MOD_P = "moebius-mod-p"
WALSH = "walsh-hadamard-unnormalized"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); ``is_prime`` refuses anything at or above it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin over ``_MR_BASES``.

    Raises ValueError for p >= ``_MR_BOUND``, where these bases are no
    longer known to be exact.
    """
    if p >= _MR_BOUND:
        raise ValueError(f"cannot test {p} for primality: "
                         f"the deterministic test is exact only below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_primes(primes) -> None:
    """Raise ValueError naming the first entry of ``primes`` that is not
    prime, or that repeats an earlier one."""
    seen = set()
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in seen:
            raise ValueError(f"prime {p} is repeated")
        seen.add(p)


def _difference(lo: np.ndarray, hi: np.ndarray) -> None:
    np.subtract(hi, lo, out=hi, order="C")


def _subset_sum(lo: np.ndarray, hi: np.ndarray) -> None:
    np.add(hi, lo, out=hi, order="C")


def _walsh_step(lo: np.ndarray, hi: np.ndarray) -> None:
    """(lo, hi) -> (lo + hi, lo - hi) without copying either half."""
    np.add(lo, hi, out=lo, order="C")
    np.multiply(hi, -2, out=hi, order="C")
    np.add(hi, lo, out=hi, order="C")


def _residues(coeffs: np.ndarray, p: int) -> np.ndarray:
    """The integer coefficients mod the prime p, in [0, p), for their zero
    tests: those of ``coeffs % p``, by a mask at p = 2 and otherwise by
    floor division (module docstring).

    ``c & 1`` is c mod 2 on two's complement integers, negative ones
    included.  ``coeffs // p * p`` may wrap around the dtype, but the
    difference is exact all the same: the wraps cancel mod 2**bits, and the
    true residue lies in [0, p), inside the dtype.  Where p exceeds the
    dtype's maximum, that maximum bounds every |coefficient| below p, so no
    nonzero coefficient is a multiple of p and the table comes back
    unchanged (deg_p = deg); p would not fit into the dtype."""
    if p == 2:
        return coeffs & 1
    if p > np.iinfo(coeffs.dtype).max:
        return coeffs
    # one temporary, reused: at n = 18 a fresh 1 MiB array per operation
    # took the int32 residues from 0.16 to 0.81 ms
    r = coeffs // p
    r *= p
    return np.subtract(coeffs, r, out=r)


def _zero_one(t: np.ndarray) -> np.ndarray:
    return t.astype(np.int8)


def _signs(t: np.ndarray) -> np.ndarray:
    """The +-1 view 1 - 2t of a 0/1 table, as int8."""
    a = t.astype(np.int8)
    a *= -2
    a += 1
    return a


def _byte_levels(first, step) -> np.ndarray:
    """Levels 0-2 of a kernel on the 8 table entries of every byte, as a
    read-only (256, 8) int8 table: row b holds ``first`` of the bits of b,
    bit j as entry j (the packed table's order), after three levels of
    ``step``."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[None, :], axis=0, bitorder="little")
    table = np.ascontiguousarray(butterfly(first(bits), step).T)
    table.flags.writeable = False
    return table


# the rows of one block of a large table's narrow levels (``_run``)
_BLOCK_ROWS = 1 << 18


def _narrow(a: np.ndarray, step, start: int, widen: int, stop: int) -> np.ndarray:
    """Levels ``start`` to ``stop`` - 1 of a kernel on its int8 table ``a``,
    in int16 from level ``widen``."""
    if stop <= widen:
        return butterfly(a, step, start, stop)
    return butterfly(butterfly(a, step, start, widen).astype(np.int16), step, widen, stop)


def _run(t, first, step, widens: tuple[int, int], lookup: np.ndarray) -> np.ndarray:
    """One kernel on a 0/1 table of 2**n entries, a (2**n, m) matrix of
    them, one per column, or one ``TruthTable``, by the type rule (module
    docstring): ``first`` makes the int8 start from the 0/1 entries,
    ``step`` runs a level, and the table widens to int16 and then to int32
    before the levels of ``widens``.  A ``TruthTable`` of n >= 3 starts at
    level 3, from its packed bytes through ``lookup``, the kernel's
    ``_byte_levels``."""
    if isinstance(t, TruthTable) and t.n >= 3:
        raw = np.frombuffer(t.bits.to_bytes(1 << (t.n - 3), "little"), dtype=np.uint8)
        shape, start = (1 << t.n,), 3

        def begin(k: int, rows: int) -> np.ndarray:
            return lookup.take(raw[k >> 3:(k + rows) >> 3], axis=0).reshape(-1)
    else:
        t = t.to_array() if isinstance(t, TruthTable) else t
        shape, start = t.shape, 0

        def begin(k: int, rows: int) -> np.ndarray:
            return first(t[k:k + rows])
    n = shape[0].bit_length() - 1
    if n <= widens[1]:
        return _narrow(begin(0, shape[0]), step, start, widens[0], n)
    # every level below widens[1] stays inside blocks of 2**widens[1] rows,
    # so a table that needs int32 runs them block by block into its int32
    # table, and no whole int16 copy is held beside it
    a = np.empty(shape, np.int32)
    rows = max(1 << widens[1], _BLOCK_ROWS)
    for k in range(0, shape[0], rows):
        a[k:k + rows] = _narrow(begin(k, rows), step, start, *widens)
    return butterfly(a, step, widens[1])


_MOEBIUS_BYTES = _byte_levels(_zero_one, _difference)
_WALSH_BYTES = _byte_levels(_signs, _walsh_step)


def _moebius_rows(t) -> np.ndarray:
    """Multilinear coefficients over the integers of every 0/1 table column,
    or of one ``TruthTable``.  After level i every |value| is at most 2**i,
    so the table widens before levels 7 and 15."""
    return _run(t, _zero_one, _difference, (7, 15), _MOEBIUS_BYTES)


def _walsh_rows(t) -> np.ndarray:
    """Walsh-Hadamard coefficients of the +-1 view 1 - 2t of every 0/1
    table column, or of one ``TruthTable``.  After level i every |value| is
    at most 2**(i + 1), so the table widens before levels 6 and 14."""
    return _run(t, _signs, _walsh_step, (6, 14), _WALSH_BYTES)


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Largest popcount of an index with a nonzero coefficient, per column (0 if none)."""
    pc = popcounts(coeffs.shape[0].bit_length() - 1)
    weights = (coeffs != 0) * pc.reshape(pc.shape + (1,) * (coeffs.ndim - 1))
    return weights.max(axis=0)


def _sparsities(coeffs: np.ndarray) -> np.ndarray:
    """Number of nonzero coefficients per column, as ``np.count_nonzero``
    along the first axis gives it.

    The nonzero mask is summed as bytes into the narrowest unsigned type
    that holds the column length, which is faster than ``count_nonzero``
    along an axis, and cast back to intp, so that ratios with the counts
    stay float64.
    """
    nonzero = (coeffs != 0).view(np.uint8)
    return np.add.reduce(nonzero, axis=0, dtype=np.min_scalar_type(coeffs.shape[0])).astype(np.intp)


def moebius_coefficients(f: TruthTable) -> np.ndarray:
    """Coefficients of the unique multilinear polynomial for f over the integers."""
    return _moebius_rows(f).astype(np.int64)


def moebius_coefficients_mod(f: TruthTable, p: int) -> np.ndarray:
    """Multilinear coefficients reduced modulo the prime p (``_residues``:
    above int64's maximum, the integer coefficients themselves)."""
    _check_primes((p,))
    return _residues(moebius_coefficients(f), p)


def walsh_coefficients(f: TruthTable) -> np.ndarray:
    """Unnormalized Walsh-Hadamard coefficients of the +-1 view 1 - 2f."""
    return _walsh_rows(f).astype(np.int64)


@dataclass(frozen=True)
class SpectrumRep:
    """A full coefficient table in one of the exact bases."""

    basis: str
    n: int
    coeffs: np.ndarray
    p: int | None = field(default=None)

    def nonzero_count(self) -> int:
        return int(_sparsities(self.coeffs))

    def support(self) -> tuple[int, ...]:
        """Subset masks with a nonzero coefficient, ascending."""
        return tuple(int(s) for s in np.flatnonzero(self.coeffs))

    def degree(self) -> int:
        return int(_degrees(self.coeffs))

    def inverse_table(self) -> TruthTable:
        """Reconstruct the 0/1 table; exact by construction."""
        if self.basis not in (MOEBIUS_Z, MOEBIUS_MOD_P, WALSH):
            raise ValueError(f"unknown basis {self.basis!r}")
        step = _walsh_step if self.basis == WALSH else _subset_sum
        vals = butterfly(self.coeffs.astype(np.int64), step)
        if self.basis == MOEBIUS_MOD_P:
            assert self.p is not None
            vals = _residues(vals, self.p)
        elif self.basis == WALSH:
            vals = (1 - (vals >> self.n)) // 2  # self-inverse up to the factor 2**n
        if not np.isin(vals, (0, 1)).all():
            raise ValueError("coefficient table is not the spectrum of a 0/1 function")
        return TruthTable(self.n, pack(vals))


def spectrum(f: TruthTable, basis: str = MOEBIUS_Z, p: int | None = None) -> SpectrumRep:
    if basis == MOEBIUS_Z:
        return SpectrumRep(basis, f.n, moebius_coefficients(f))
    if basis == MOEBIUS_MOD_P:
        if p is None:
            raise ValueError("basis moebius-mod-p needs a prime p")
        return SpectrumRep(basis, f.n, moebius_coefficients_mod(f, p), p=p)
    if basis == WALSH:
        return SpectrumRep(basis, f.n, walsh_coefficients(f))
    raise ValueError(f"unknown basis {basis!r}")
