"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything asserts in
exact integer arithmetic; sampled steps carry fixed seeds.  The k=4 shift
scan is marked ``long`` (it runs by default; deselect with -m 'not long').
"""

import hashlib
import json

import numpy as np
import pytest

from boolfn import (
    TruthTable,
    alternation,
    block_sensitivity,
    bound_summary,
    exhaustive_scan,
    or_compose,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
    submatrix_witness,
    alt_to_s_linear,
)
from boolfn._bitops import pack, table_size
from boolfn.checks import _random_zero_ended_tuple
from boolfn.families import gip, rubinstein, tree_function


@pytest.fixture(scope="module")
def scan4():
    return exhaustive_scan(4)


# sha256 of each scan's canonical JSON: a changed count, tie-break or
# witness anywhere in the report changes its digest
SCAN_DIGESTS = {
    2: "731252a32f267a826051406374183ca6a117dec9a4727ecc00a274f66fcc3b16",
    3: "6ae535e6432282051e3b424fc0117e24b22d6158565f0371efabe43ada4f9cb0",
    4: "bb52a52e5ae1de036a7e9273e825311ecd35d15b0ef46b5ec2a76c23fe02c45e",
}


def _scan_digest(report):
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_exhaustive_scan_golden_digests(scan4):
    got = {2: _scan_digest(exhaustive_scan(2)), 3: _scan_digest(exhaustive_scan(3))}
    got[4] = _scan_digest(scan4)
    assert got == SCAN_DIGESTS


def test_criterion_1_exhaustive_small_arities(scan4):
    """All proven statements hold for every function of arity <= 4."""
    for n in (2, 3):
        rep = exhaustive_scan(n)
        assert rep.ok and rep.counts()["fails"] == 0
        by_name = {c.name: c for c in rep.checks}
        assert by_name["submatrix_identity"].witness["fails"] == 0
    assert scan4.ok
    by_name = {c.name: c for c in scan4.checks}
    expected_checks = {
        "s_le_bs", "bs_le_C", "deg2_le_deg", "deg3_le_deg", "deg_le_dt",
        "dt_le_bs_cubed", "bs_le_2deg_sq", "dt_le_bs0_deg2_sq", "dt_le_bs0_deg3_sq",
        "deg_lb_from_deg2", "deg_lb_from_deg3", "bs2s_equality_at_zero",
        "bs2s_equality_at_argmax", "alt_le_2sg_plus_1", "sparsity_linear_invariance",
    }
    assert expected_checks <= set(by_name)
    for name in expected_checks:
        check = by_name[name]
        assert check.verdict == "holds", name
        assert check.witness["fails"] == 0
        covered = check.witness["holds"] + check.witness["hypothesis_not_met"]
        assert covered == 65536, name
    print("ACCEPTANCE 1: exhaustive n<=4 suite (65536 functions, zero failures): PASS")


def test_criterion_2_tree_function_shift_floor():
    f3 = tree_function(3)
    salt3 = shift_invariant_alternation(f3)
    s3 = sensitivity(f3)
    assert salt3 >= 2
    assert s3 <= 3
    print(f"ACCEPTANCE 2: salt(tree_3) = {salt3} >= 2 with s = {s3} <= 3: PASS")


@pytest.mark.long
def test_criterion_2_long_tree4():
    f4 = tree_function(4)
    salt4 = shift_invariant_alternation(f4)
    assert salt4 >= 4
    assert sensitivity(f4) <= 4
    print(f"ACCEPTANCE 2 (long): salt(tree_4) = {salt4} >= 4 over 32768 shifts: PASS")


def test_criterion_3_rubinstein():
    f44 = rubinstein(4, 4)
    alt44 = alternation(f44)
    bs0 = block_sensitivity(f44, at=0, limit=16)
    s44 = sensitivity(f44)
    assert alt44 == 8
    assert bs0 == 8 and 2 * bs0 >= 16  # n**2 / 2 with n = 4
    assert s44 <= 4
    f33 = rubinstein(3, 3)
    bs33 = block_sensitivity(f33)
    s33 = sensitivity(f33)
    salt33 = shift_invariant_alternation(f33)
    assert 4 * bs33 >= s33 * salt33
    print(
        f"ACCEPTANCE 3: alt={alt44}, bs(.,0)={bs0}, s={s44} at 16 vars; "
        f"4*bs={4*bs33} >= s*salt={s33*salt33} at 9 vars: PASS"
    )


def test_criterion_4_or_composition_equality():
    rng = np.random.default_rng(20260404)
    checked = 0
    for _ in range(200):
        fs = _random_zero_ended_tuple(rng)
        if not fs:
            continue
        lhs = alternation(or_compose(fs))
        rhs = sum(alternation(g) for g in fs)
        assert lhs == rhs, [g.bits for g in fs]
        checked += 1
    assert checked >= 190
    print(f"ACCEPTANCE 4: alternation additivity exact on {checked} random tuples: PASS")


def test_criterion_5_sparsity_pipeline():
    lines = []
    for k in (2, 3, 4):
        f = tree_function(k)
        tr = alt_to_s_linear(f)
        assert tr.certificate["invertible"]
        g = tr.g
        sg = sensitivity(g)
        sp_g, sp_f = sparsity(g), sparsity(f)
        assert sp_g == sp_f
        assert 4 * (sg + 1) ** 2 >= sp_g  # s(g) >= sqrt(sparsity)/2 - 1, exactly
        lines.append(f"k={k}: s(g)={sg}, sparsity={sp_g}")
    print("ACCEPTANCE 5: chain-transform sparsity pipeline (" + "; ".join(lines) + "): PASS")


def test_criterion_6_comm_certificates():
    for bits in range(256):
        assert submatrix_witness(TruthTable(3, bits)).verified
    rng = np.random.default_rng(20260808)
    verified = 0
    for n in (6, 7, 8, 9, 10):
        for _ in range(200):
            f = TruthTable(n, pack(rng.integers(0, 2, table_size(n), dtype=np.uint8)))
            cert = submatrix_witness(f)
            assert cert.verified and cert.verification_mode == "exhaustive"
            verified += 1
    assert verified == 1000
    summary = bound_summary(gip(2, 2), primes=(2,))
    assert summary["per_prime"]["2"]["deg_p"] == 2
    assert summary["per_prime"]["2"]["dt_le_bs0_degp_sq"]["holds"]
    print(
        "ACCEPTANCE 6: submatrix identity exhaustive at n=3 plus 1000 random "
        "functions at n=6..10; inner-product bound summary holds: PASS"
    )


def test_criterion_7_empirical_findings_stable(scan4):
    rerun = exhaustive_scan(4)
    first = {r.statistic: (r.value, r.function) for r in scan4.extremal}
    second = {r.statistic: (r.value, r.function) for r in rerun.extremal}
    assert first == second
    assert json.dumps(scan4.to_json_dict()) == json.dumps(rerun.to_json_dict())
    for stat in ("bs_over_salt2_s", "bs_over_sherstov_s2"):
        value, fn = first[stat]
        assert np.isfinite(value)
        print(f"ACCEPTANCE 7: corpus max {stat} = {value} at {fn} (stable across runs)")
    print("ACCEPTANCE 7: empirical-constant findings logged, never asserted: PASS")
