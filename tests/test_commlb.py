import dataclasses

import numpy as np
import pytest

import boolfn.commlb as commlb
from boolfn import (
    ArityLimitError,
    BitMatrix,
    TruthTable,
    and_matrix,
    bound_summary,
    det_upper_bound,
    submatrix_witness,
    tt_parse,
)
from boolfn._bitops import pack
from boolfn._bulk import _columns, measure_arrays
from boolfn.families import and_, gip, maj, or_, parity, rubinstein
from boolfn.transforms import _bs2s_rows

from oracles import naive_dt, random_table, table_matrix


def test_and_matrix_and1():
    m = and_matrix(and_(1))
    assert [[m.entry(x, y) for y in range(2)] for x in range(2)] == [[0, 0], [0, 1]]


def test_and_matrix_entries_match_definition():
    rng = np.random.default_rng(60)
    for n in (1, 2, 3, 5):
        f = TruthTable(n, random_table(rng, n))
        m = and_matrix(f)
        for x in range(2**n):
            row = m.row_bits(x)
            for y in range(2**n):
                assert row[y] == f.value_at(x & y)
    p2 = parity(2)
    assert and_matrix(p2).entry(0b11, 0b11) == 0


def test_and_matrix_or2():
    m = and_matrix(or_(2))
    for x in range(4):
        for y in range(4):
            assert m.entry(x, y) == (1 if x & y else 0)


def test_and_matrix_limit():
    with pytest.raises(ArityLimitError):
        and_matrix(rubinstein(4, 4))


def test_and_matrix_ceiling_is_fixed():
    # and_matrix takes no limit, so its message offers none; the measures'
    # default ceilings keep their advice
    with pytest.raises(ArityLimitError) as exc:
        and_matrix(maj(14))
    assert str(exc.value) == ("and_matrix skipped: arity 14 exceeds limit 13 "
                              "(a fixed ceiling, which no limit or override lifts)")
    assert (exc.value.measure, exc.value.arity, exc.value.limit) == ("and_matrix", 14, 13)
    assert str(ArityLimitError("bs", 15, 14)) == (
        "bs skipped: arity 15 exceeds limit 14 (pass an explicit limit to override)")


def test_pbm_export():
    text = and_matrix(and_(1)).to_pbm()
    assert text == "P1\n2 2\n0 0\n0 1\n"


def test_raw_roundtrip():
    rng = np.random.default_rng(61)
    f = TruthTable(3, random_table(rng, 3))
    m = and_matrix(f)
    blob = m.to_raw()
    assert blob[:8] == (8).to_bytes(8, "little")
    m2 = BitMatrix.from_raw(blob)
    assert m2.n == m.n and np.array_equal(m2.rows, m.rows)


@pytest.mark.parametrize("n", range(5))
def test_raw_roundtrip_small_arities(n):
    m = and_matrix(parity(n))
    m2 = BitMatrix.from_raw(m.to_raw())
    assert m2.n == n and np.array_equal(m2.rows, m.rows)


def _header(dim: int) -> bytes:
    return dim.to_bytes(8, "little")


@pytest.mark.parametrize("blob, message", [
    (b"", "raw matrix has 0 bytes, less than its 8-byte dimension"),
    (b"\x04\x00\x00", "raw matrix has 3 bytes, less than its 8-byte dimension"),
    (_header(0), "raw matrix dimension 0 is not a power of two"),
    (_header(6) + bytes(6), "raw matrix dimension 6 is not a power of two"),
    (_header(8) + bytes(7), "raw matrix of dimension 8 takes 16 bytes, got 15"),
    (_header(8) + bytes(9), "raw matrix of dimension 8 takes 16 bytes, got 17"),
    (_header(16) + bytes(31), "raw matrix of dimension 16 takes 40 bytes, got 39"),
    (_header(2) + bytes([0xff, 0xfd]), "raw matrix of dimension 2 sets a bit past column 1"),
], ids=["empty", "short-header", "zero-dim", "dim-6", "truncated", "trailing", "truncated-row",
        "padding-bits"])
def test_from_raw_rejects_malformed_blobs(blob, message):
    with pytest.raises(ValueError) as exc:
        BitMatrix.from_raw(blob)
    assert str(exc.value) == message


def test_submatrix_and2():
    cert = submatrix_witness(and_(2))
    assert cert.k == 1
    assert cert.w_points == (0b00, 0b11)
    assert cert.g == tt_parse("anf:2:x1")
    assert cert.verified and cert.verification_mode == "exhaustive"
    assert cert.bound == 1.0
    # the restricted 2x2 matrix is the 1-variable AND matrix of g
    f = and_(2)
    sub = [[f.value_at(u & y) for y in cert.w_points] for u in cert.w_points]
    assert sub == [[0, 0], [0, 1]]
    # above the AND-matrix ceiling W x W is still small, so it is checked in full
    big = submatrix_witness(and_(14), limit=14)
    assert (big.k, big.w_points) == (1, (0, (1 << 14) - 1))
    assert (big.verification_mode, big.pairs_checked) == ("exhaustive", 4)


def test_submatrix_or3_full_cube():
    cert = submatrix_witness(or_(3))
    assert cert.k == 3
    assert cert.w_points == tuple(range(8))
    assert cert.g == or_(3)  # G coincides with F here


def test_submatrix_exhaustive_n3():
    for bits in range(256):
        cert = submatrix_witness(TruthTable(3, bits))
        assert cert.verified


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_batched_submatrix_rows_match_submatrix_witness(n):
    """The identity kernel on every function's batched family at 0 gives the
    certificate of ``submatrix_witness``; so the DP's ``fam0`` is also the
    packer's family at 0 on every function of arity <= 3."""
    m = 1 << (1 << n)
    lanes = next(_columns(n))
    fam0 = measure_arrays(lanes, n)["fam0"]
    sub = _bs2s_rows(lanes, np.zeros(m, dtype=np.int64), fam0, "min-in-block")
    w = commlb._w_points(fam0)
    assert w.shape == (m, 2**n)
    commlb._check_submatrix_rows(table_matrix(n, lanes), sub.g, w[:, :, None], w[:, None, :])
    for r in range(m):
        cert = submatrix_witness(TruthTable(n, r))
        blocks = tuple(int(b) for b in fam0[r] if b)
        points = tuple(np.unique(w[r]).tolist())
        assert (cert.k, cert.blocks) == (len(blocks), blocks)
        assert cert.w_points == points
        assert cert.g == TruthTable(n, pack(sub.g[:, r]))
        assert cert.pairs_checked == len(points) ** 2
        assert cert.verification_mode == "exhaustive"


def test_submatrix_rows_report_the_first_failing_pair_in_the_given_order():
    """The identity kernel checks the pairs it is given, and a failure names
    the first failing column at its first failing pair: u, then y,
    ascending on W x W, or the order of the draws."""
    f = maj(3)
    g = TruthTable(3, f.bits ^ 0b10000001)  # differs at 000 and 111
    tables = np.stack([f.to_array(), f.to_array()], axis=1)
    wrong = np.stack([f.to_array(), g.to_array()], axis=1)
    w = np.array([[0, 3, 5, 6], [0, 3, 5, 6]])
    grid = (w[:, :, None], w[:, None, :])
    commlb._check_submatrix_rows(tables, tables, *grid)
    # column 0 agrees; on W, column 1 differs where u & y = 000, which is
    # where u or y is 000
    with pytest.raises(commlb.VerificationError, match=r"tt:3:e8 at u=000 y=000: f=0 g=1"):
        commlb._check_submatrix_rows(tables, wrong, *grid)
    # the draws meet at 3 & 5 = 1, 6 & 3 = 2 and 5 & 6 = 4, where f and g
    # agree, then at 3 & 4 = 0, printed x1 first as u=110 y=001
    us, ys = np.array([[3, 6, 5, 3, 0]] * 2), np.array([[5, 3, 6, 4, 0]] * 2)
    commlb._check_submatrix_rows(tables, wrong, us[:, :3], ys[:, :3])
    with pytest.raises(commlb.VerificationError, match=r"at u=110 y=001: f=0 g=1"):
        commlb._check_submatrix_rows(tables, wrong, us, ys)
    # where both columns fail, the first is named
    other = np.stack([g.to_array(), f.to_array()], axis=1)
    with pytest.raises(commlb.VerificationError, match=r"tt:3:69 at u=000 y=000: f=1 g=0"):
        commlb._check_submatrix_rows(other, wrong, *grid)


def test_submatrix_sampled_mode(monkeypatch):
    monkeypatch.setattr(commlb, "_FULL_PAIR_BUDGET", 1)
    rng = np.random.default_rng(62)
    f = TruthTable(6, random_table(rng, 6))
    one = submatrix_witness(f, seed=5)
    two = submatrix_witness(f, seed=5)
    assert one.verification_mode == "sampled"
    assert one.verified and one.pairs_checked == two.pairs_checked


@pytest.mark.parametrize("budget", [1 << 22, 1])
def test_submatrix_mismatch_raises_with_values(monkeypatch, budget):
    """A wrong g fails the identity in both modes, and the error names f and g there."""
    real = commlb._bs2s_from_family

    def wrong_g(f, fam, placement):
        tr = real(f, fam, placement)
        return dataclasses.replace(tr, g=TruthTable(tr.g.n, tr.g.bits ^ 1))

    monkeypatch.setattr(commlb, "_bs2s_from_family", wrong_g)
    monkeypatch.setattr(commlb, "_FULL_PAIR_BUDGET", budget)
    with pytest.raises(commlb.VerificationError, match=r"at u=[01]{3} y=[01]{3}: f=0 g=1"):
        submatrix_witness(maj(3))


def test_submatrix_json_schema():
    data = submatrix_witness(and_(2)).to_json_dict()
    assert set(data) == {
        "function", "arity", "k", "blocks", "w", "g", "bound", "verified", "verification",
    }
    assert data["bound"]["k"] == 1
    assert data["w"] == ["00", "11"]


def test_det_upper_bound():
    for n in (2, 4):
        assert det_upper_bound(parity(n)) == 2 * n
    assert det_upper_bound(TruthTable(3, 0)) == 0
    assert det_upper_bound(maj(3)) == 6
    rng = np.random.default_rng(63)
    for _ in range(5):
        f = TruthTable(3, random_table(rng, 3))
        if not f.is_constant():
            assert det_upper_bound(f) >= 1


def test_bound_summary_gip():
    f = gip(2, 2)
    assert naive_dt(f) == 4  # oracle for the frozen value below
    data = bound_summary(f, primes=(2, 3))
    assert data["per_prime"]["2"]["deg_p"] == 2
    assert data["DT"] == 4
    assert data["bs_at_zero"] == 2
    entry = data["per_prime"]["2"]["dt_le_bs0_degp_sq"]
    assert entry == {"left": 4, "right": 8, "holds": True}
    assert data["comm_upper_2dt"] == 8


def test_bound_summary_parity4():
    data = bound_summary(parity(4), primes=(2, 3))
    lb = data["per_prime"]["2"]["deg_lower_bound"]
    assert lb["holds"] and lb["left"] == 4 * 2 and lb["right"] == 4
    gaps = {(g["p"], g["q"]): g for g in data["degree_gap_table"]}
    assert gaps[(2, 3)]["deg_p"] == 1 and gaps[(2, 3)]["deg_q"] == 4


def test_bound_summary_constant():
    data = bound_summary(TruthTable(2, 0))
    assert data["bs_at_zero"] == 0 and data["DT"] == 0
    assert data["per_prime"]["2"]["deg_lower_bound"]["holds"] is None


def test_bound_summary_skip_propagation():
    data = bound_summary(rubinstein(4, 4))
    assert data["bs_at_zero"] is None and data["DT"] is None
    assert any("bs" in s["quantity"] for s in data["skipped"])
    assert data["per_prime"]["2"]["deg_p"] >= 1
