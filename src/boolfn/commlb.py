"""Combinatorial communication-complexity artifacts for F(x, y) = f(x AND y).

The two-party problem attached to f is the 2**n x 2**n matrix F with entry
(x, y) = f(x AND y).  This module builds that matrix, the restricted
submatrix certificate whose existence converts a disjoint-block family at
the all-zero input into a lower-bound witness of strength sqrt(k), and the
deterministic upper bound 2 * DT(f).  Protocol values themselves are never
computed here: the outputs are certificates and exactly-checked inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bitops import mask_indices, pack, point_to_str, table_size
from .core import TruthTable, tt_serialize
from .measures import (
    ArityLimitError,
    BlockFamily,
    _Measures,
    block_sensitivity,
    dt_depth,
)
from .spectral import _check_primes
from .transforms import _bs2s_from_family

__all__ = [
    "AND_MATRIX_MAX_ARITY",
    "BitMatrix",
    "LowerBoundCertificate",
    "VerificationError",
    "and_matrix",
    "submatrix_witness",
    "det_upper_bound",
    "bound_summary",
]

AND_MATRIX_MAX_ARITY = 13  # 2**26-bit matrix; anything larger must stay implicit


class VerificationError(RuntimeError):
    """An identity that must hold by construction failed; treat as a bug."""


@dataclass(frozen=True)
class BitMatrix:
    """A square 0/1 matrix with rows packed little-endian into bytes."""

    n: int
    rows: np.ndarray  # shape (2**n, ceil(2**n / 8)), uint8

    @property
    def dim(self) -> int:
        return table_size(self.n)

    def entry(self, x: int, y: int) -> int:
        return (int(self.rows[x, y >> 3]) >> (y & 7)) & 1

    def row_bits(self, x: int) -> np.ndarray:
        return np.unpackbits(self.rows[x], bitorder="little", count=self.dim)

    def to_pbm(self) -> str:
        dim = self.dim
        lines = [f"P1\n{dim} {dim}"]
        for x in range(dim):
            lines.append(" ".join("1" if v else "0" for v in self.row_bits(x)))
        return "\n".join(lines) + "\n"

    def to_raw(self) -> bytes:
        """8-byte little-endian dimension, then the packed rows in order."""
        return self.dim.to_bytes(8, "little") + self.rows.tobytes()

    @classmethod
    def from_raw(cls, blob: bytes) -> "BitMatrix":
        """The matrix of a ``to_raw`` blob; ``ValueError`` for any other bytes."""
        if len(blob) < 8:
            raise ValueError(f"raw matrix has {len(blob)} bytes, less than its 8-byte dimension")
        dim = int.from_bytes(blob[:8], "little")
        if dim < 1 or dim & (dim - 1):
            raise ValueError(f"raw matrix dimension {dim} is not a power of two")
        row_bytes = (dim + 7) // 8
        if len(blob) != 8 + dim * row_bytes:
            raise ValueError(f"raw matrix of dimension {dim} takes {8 + dim * row_bytes} "
                             f"bytes, got {len(blob)}")
        rows = np.frombuffer(blob, dtype=np.uint8, offset=8).reshape(dim, row_bytes)
        # below 8 columns a row is one byte, whose high bits are padding
        if dim < 8 and (rows >> dim).any():
            raise ValueError(f"raw matrix of dimension {dim} sets a bit past column {dim - 1}")
        return cls(dim.bit_length() - 1, rows.copy())


def and_matrix(f: TruthTable) -> BitMatrix:
    """The matrix with entry (x, y) = f(x AND y)."""
    if f.n > AND_MATRIX_MAX_ARITY:
        raise ArityLimitError("and_matrix", f.n, AND_MATRIX_MAX_ARITY)
    dim = table_size(f.n)
    arr = f.to_array()
    y = np.arange(dim)
    rows = np.empty((dim, (dim + 7) // 8), dtype=np.uint8)
    for x in range(dim):
        rows[x] = np.packbits(arr[x & y], bitorder="little")
    return BitMatrix(f.n, rows)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Witness data whose existence certifies a sqrt(k) communication bound."""

    function: TruthTable
    k: int
    blocks: tuple[int, ...]
    w_points: tuple[int, ...]
    g: TruthTable
    verified: bool
    verification_mode: str
    pairs_checked: int

    @property
    def bound(self) -> float:
        return math.sqrt(self.k)

    def to_json_dict(self) -> dict:
        n = self.function.n
        return {
            "function": tt_serialize(self.function),
            "arity": n,
            "k": self.k,
            "blocks": [list(mask_indices(b)) for b in self.blocks],
            "w": [point_to_str(p, n) for p in self.w_points],
            "g": tt_serialize(self.g),
            "bound": {"form": "sqrt(k)", "k": self.k, "value": self.bound},
            "verified": self.verified,
            "verification": {
                "mode": self.verification_mode,
                "pairs": self.pairs_checked,
            },
        }


_FULL_PAIR_BUDGET = 1 << 22
# pairs drawn from W x W when the full grid exceeds the budget
_SAMPLE_PAIRS = 4096


def _w_points(blocks: np.ndarray) -> np.ndarray:
    """W for each row of an (m, k) block array: every XOR of a subset of the
    row's blocks, ascending, as an (m, 2**k) array.  W doubles with each
    block, the points so far then each XOR the block, so a zero block (the
    padding of a shorter family) only repeats points."""
    w = np.zeros((blocks.shape[0], 1), dtype=np.int64)
    for j in range(blocks.shape[1]):
        w = np.concatenate([w, w ^ blocks[:, j : j + 1]], axis=1)
    w.sort(axis=1)
    return w


def _identity_error(f: TruthTable, g: TruthTable, u: int, y: int) -> VerificationError:
    n = f.n
    return VerificationError(
        f"submatrix identity failed for {tt_serialize(f)} at "
        f"u={point_to_str(u, n)} y={point_to_str(y, n)}: "
        f"f={f.value_at(u & y)} g={g.value_at(u & y)}"
    )


def _check_submatrix_rows(tables: np.ndarray, g: np.ndarray, us: np.ndarray,
                          ys: np.ndarray) -> None:
    """The identity f(u AND y) = g(u AND y) at the given pairs (u, y), for
    every function of a (2**n, m) table matrix, with the tables of g in the
    same layout.  ``us`` and ``ys`` broadcast to one array whose first axis
    is the m functions and whose other axes hold each function's pairs: all
    of W x W (``_w_points``) as (m, |W|, 1) and (m, 1, |W|), or draws as
    (m, draws).

    A failure raises ``VerificationError`` for the first failing column, at
    its first failing pair in that array's order: u, then y, ascending on
    W x W, or draw order.
    """
    meet = us & ys
    cols = np.arange(tables.shape[1]).reshape((-1,) + (1,) * (meet.ndim - 1))
    bad = np.argwhere(tables[meet, cols] != g[meet, cols])
    if bad.size:
        at = tuple(bad[0])
        n = tables.shape[0].bit_length() - 1
        f_r, g_r = (TruthTable(n, pack(a[:, at[0]])) for a in (tables, g))
        u, y = (int(np.broadcast_to(p, meet.shape)[at]) for p in (us, ys))
        raise _identity_error(f_r, g_r, u, y)


def submatrix_witness(
    f: TruthTable,
    limit: int | None = None,
    seed: int = 0,
) -> LowerBoundCertificate:
    """Certificate that the AND-matrix of f contains the AND-matrix of g.

    g comes from the block-substitution transform at the all-zero input with
    each block column placed on the block's smallest member, and W is the set
    of all XOR combinations of the witness blocks.  The identity
    f(u AND y) = g(u AND y) for u, y in W is checked entrywise (exhaustively
    when W x W has at most ``_FULL_PAIR_BUDGET`` pairs, at any arity, by
    seeded sampling otherwise); a failure is an implementation bug, not a
    finding, and raises ``VerificationError``.
    Both modes are ``_check_submatrix_rows`` on one function, given its
    pairs, the kernel the exhaustive scan runs on all of W x W for every
    function of a slice at once.
    """
    _, fam = block_sensitivity(f, at=0, witness=True, limit=limit)
    return _submatrix_from_family(f, fam, seed)


def _submatrix_from_family(f: TruthTable, fam: BlockFamily, seed: int = 0) -> LowerBoundCertificate:
    """``submatrix_witness`` on a witness family at the all-zero input already
    found by a bs search."""
    transform = _bs2s_from_family(f, fam, "min-in-block")
    blocks = transform.certificate["blocks"]
    k = transform.certificate["block_sensitivity"]
    g = transform.g
    w = _w_points(np.array(blocks, dtype=np.int64).reshape(1, k))
    if 4**k <= _FULL_PAIR_BUDGET:
        mode, us, ys = "exhaustive", w[:, :, None], w[:, None, :]
    else:
        mode = "sampled"
        rng = np.random.default_rng(seed)
        us = w[:, rng.integers(0, w.size, _SAMPLE_PAIRS)]
        ys = w[:, rng.integers(0, w.size, _SAMPLE_PAIRS)]
    _check_submatrix_rows(f.to_array()[:, None], g.to_array()[:, None], us, ys)
    return LowerBoundCertificate(
        function=f,
        k=k,
        blocks=blocks,
        w_points=tuple(w[0].tolist()),
        g=g,
        verified=True,
        verification_mode=mode,
        pairs_checked=np.broadcast(us, ys).size,
    )


def det_upper_bound(f: TruthTable) -> int:
    """Deterministic communication upper bound 2 * DT(f) for the AND-matrix.

    DT without a witness: n with no subcube table where f has full degree,
    else from sweeps that stop at deg (``dt_depth``)."""
    return 2 * dt_depth(f)


def bound_summary(f: TruthTable, primes=(2, 3), limits: dict | None = None) -> dict:
    """All desk-computable bound ingredients for the AND-matrix of f.

    Per prime p this reports the block sensitivity at the all-zero input and
    its square root, the decision-tree depth with the derived certificate
    sqrt(DT)/deg_p, the exactly-checked inequality DT <= bs(f, 0) * deg_p**2,
    and, when f depends on all its variables, deg(f) * 2**deg_p(f) >= n.
    A table of degree gaps between prime pairs is included.  Everything
    asymptotic is labeled a certificate; nothing here is a protocol value.

    bs(f,0), s, deg, every deg_p and DT read the function's one owner of its
    measures (``measures._Measures``), under the caller's ``limits``: deg
    and DT its one Moebius table, deg_p that table's residues mod p
    (exact: see ``spectral``).  Each prime is checked before anything is
    computed, so a bad prime raises ValueError with no work done.  DT's
    sweeps stop once they meet max(bs(f,0), deg), a lower bound on DT;
    where that bound is n, DT = n needs no subcube table.
    """
    return _bound_summary(_Measures(f, limits or {}), primes)


def _bound_summary(owner: _Measures, primes) -> dict:
    """``bound_summary`` of the owner's function, read off that owner, so a
    caller that has packed bs(f,0) on it, as ``cli comm`` has for the
    certificate, packs it once."""
    _check_primes(primes)
    f, n = owner.f, owner.f.n
    summary: dict = {
        "function": tt_serialize(f),
        "arity": n,
        "depends_on_all": len(f.relevant_variables()) == n,
        "note": "asymptotic communication bounds are emitted as certificates, not values",
    }
    skipped = []

    def attempt(name, fn):
        try:
            return fn()
        except ArityLimitError as e:
            skipped.append({"quantity": name, "reason": str(e)})
            return None

    bs0 = attempt("bs_at_zero", lambda: owner.block_sensitivity(False, 0))
    deg = owner.degree(False)
    # DT >= bs(f) >= bs(f,0), and DT >= deg, so the sweeps may stop there
    dt = attempt("DT", lambda: owner.dt_depth(False, -1 if bs0 is None else bs0))
    summary["bs_at_zero"] = bs0
    summary["sqrt_bs_at_zero"] = math.sqrt(bs0) if bs0 is not None else None
    summary["DT"] = dt
    summary["comm_upper_2dt"] = 2 * dt if dt is not None else None
    summary["deg"] = deg
    summary["s"] = owner.sensitivity(False)
    per_prime = {}
    degs = {}
    for p in primes:
        dp = owner.degree(False, p)
        degs[p] = dp
        entry: dict = {"deg_p": dp}
        if dt is not None:
            entry["sqrt_dt_over_deg_p"] = math.sqrt(dt) / dp if dp else None
            if bs0 is not None:
                entry["dt_le_bs0_degp_sq"] = {
                    "left": dt,
                    "right": bs0 * dp * dp,
                    "holds": dt <= bs0 * dp * dp,
                }
        if summary["depends_on_all"]:
            entry["deg_lower_bound"] = {
                "left": deg * (1 << dp),
                "right": n,
                "statement": "deg(f) * 2**deg_p(f) >= n",
                "holds": deg * (1 << dp) >= n,
            }
        else:
            entry["deg_lower_bound"] = {"holds": None, "reason": "hypothesis-not-met"}
        per_prime[str(p)] = entry
    summary["per_prime"] = per_prime
    gap_table = []
    for p in primes:
        for q in primes:
            if p == q:
                continue
            dp, dq = degs[p], degs[q]
            exponent = (
                math.log(dq) / math.log(dp) if dp and dp > 1 and dq else None
            )
            gap_table.append(
                {
                    "p": p,
                    "q": q,
                    "deg_p": dp,
                    "deg_q": dq,
                    "exponent": exponent,
                    "epsilon": (1 - 2 / exponent) if exponent and exponent > 2 else None,
                }
            )
    summary["degree_gap_table"] = gap_table
    summary["skipped"] = skipped
    return summary
