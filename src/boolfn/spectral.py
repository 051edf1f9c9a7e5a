"""Exact polynomial and Fourier coefficient tables for packed truth tables.

The public coefficient arrays are int64 with no normalization, so every
coefficient is an exact integer: a zero test is a genuine zero test.
Coefficient index S (a bitmask of variables) addresses the monomial
prod_{i in S} x_i for the multilinear bases, and the character
(-1)^<S,x> for the Walsh basis.

Every transform is ``_bitops.butterfly`` with its own in-place step, whose
ufuncs run with ``order="C"`` so that the butterfly's short-run levels loop
down their long axis.  The kernels (``_moebius_rows``, ``_walsh_rows``) take
one 0/1 table of 2**n entries, or a (2**n, m) matrix with one table per
column, and a dtype.  ``_degrees`` and ``_sparsities`` reduce over the first
axis to the degree and the number of nonzero coefficients of each table, a
scalar for one table and an (m,) array for a matrix; ``measures``,
``SpectrumRep`` and ``_bulk`` all use them.

The kernels run in a narrow exact dtype.  Every Moebius coefficient of a
0/1 table, and every partial sum of its butterfly, is at most 2**(n-1) in
absolute value, and every Walsh coefficient and every value its step
passes through at most 2**n, so int32 is exact up to ``MAX_ARITY`` (24)
and int8 up to n = 6.  ``_bulk`` runs both butterflies in int8 at arity
<= 4, and so does the scan's sparsity of the chain maps' tables.  The
measures (``real_degree``, ``modp_degree``, ``sparsity``) run in int32.
The one owner of a function's measures (``measures._Measures``), which the
report, ``commlb.bound_summary``, the CLI, the checks and the public
measures all read, builds one int32 Moebius table per function: deg and DT
read it, and every deg_p reads its residues mod p (``_residues``), which
equal those of the integer coefficients.  The residues come from floor
division, ``c - c // p * p``, which numpy runs by a precomputed multiply
for a scalar divisor, where its ``%`` divides every entry: on the 16 x
16,384 int16 Moebius matrix of an n = 4 slice (2-core Xeon VM, best of
30) ``%`` took 0.6-0.9 ms per prime and floor division 0.08-0.10 ms, and
0.04-0.06 ms in int8.  The public arrays
(``moebius_coefficients``, ``walsh_coefficients``, ``spectrum`` and the
sparsity witness's ``SpectrumRep``) stay int64.
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
    tests: those of ``coeffs % p``, by floor division (module docstring).

    ``coeffs // p * p`` may wrap around the dtype, but the difference is
    exact all the same: the wraps cancel mod 2**bits, and the true residue
    lies in [0, p), inside the dtype.  Where p exceeds the dtype's maximum,
    that maximum bounds every |coefficient| below p, so no nonzero
    coefficient is a multiple of p and the table comes back unchanged
    (deg_p = deg); p would not fit into the dtype."""
    if p > np.iinfo(coeffs.dtype).max:
        return coeffs
    return coeffs - coeffs // p * p


def _moebius_rows(t: np.ndarray, dtype) -> np.ndarray:
    """Multilinear coefficients over the integers of every 0/1 table column."""
    return butterfly(t.astype(dtype), _difference)


def _walsh_rows(t: np.ndarray, dtype) -> np.ndarray:
    """Walsh-Hadamard coefficients of the +-1 view 1 - 2t of every 0/1 table column."""
    a = t.astype(dtype)
    a *= -2
    a += 1
    return butterfly(a, _walsh_step)


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
    return _moebius_rows(f.to_array(), np.int64)


def moebius_coefficients_mod(f: TruthTable, p: int) -> np.ndarray:
    """Multilinear coefficients reduced modulo the prime p (``_residues``:
    above int64's maximum, the integer coefficients themselves)."""
    _check_primes((p,))
    return _residues(moebius_coefficients(f), p)


def walsh_coefficients(f: TruthTable) -> np.ndarray:
    """Unnormalized Walsh-Hadamard coefficients of the +-1 view 1 - 2f."""
    return _walsh_rows(f.to_array(), np.int64)


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
