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
    certificate,
    exhaustive_scan,
    measure_report,
    or_compose,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
    submatrix_witness,
    alt_to_s_linear,
)
from boolfn._bitops import pack, table_size
from boolfn.checks import STATISTICS, _random_zero_ended_tuple, extremal_search, inequality_suite
from boolfn.core import tt_serialize
from boolfn.families import gip, maj, parity, rubinstein, tree_function


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


def test_exhaustive_scan_twice_in_one_process_keeps_its_digest():
    # the first scan builds the flip-pattern tables of n = 3, the second
    # reads them from the cache
    from boolfn import _bulk

    builders = (_bulk._bs_table, _bulk._cert_table, _bulk._alt_table)
    for build in builders:
        build.cache_clear()
    digests = [_scan_digest(exhaustive_scan(3)) for _ in range(2)]
    assert digests == [SCAN_DIGESTS[3]] * 2
    assert [build.cache_info().misses for build in builders] == [1, 1, 1]


def _json_digest(payload):
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def _seeded(n):
    return TruthTable(n, pack(np.random.default_rng(n).integers(0, 2, table_size(n), dtype=np.uint8)))


def _golden_suite_functions():
    fs = {tt_serialize(TruthTable(n, b)): TruthTable(n, b)
          for n in range(3) for b in range(1 << (1 << n))}
    fs.update({
        "parity(4)": parity(4),
        "zero(3)": TruthTable(3, 0),
        "rubinstein(3,3)": rubinstein(3, 3),
        "rubinstein(4,4)": rubinstein(4, 4),
        "gip(2,3)": gip(2, 3),
        "maj(5)": maj(5),
        "tree_function(3)": tree_function(3),
    })
    # 13: C skipped; 14: C and DT skipped, bs and bs(f,0) run; 15: bs and
    # bs(f,0) skipped with one reason
    fs.update({f"random({n})": _seeded(n) for n in (5, 6, 7, 13, 14, 15)})
    return fs


# sha256 of each inequality_suite(f) report's JSON, key order kept.  At n = 0
# deg_lb_from_deg{p} holds vacuously (0 <= 0), as in the exhaustive scan.
SUITE_DIGESTS = {
    "tt:0:0": "23fc6e2c5dd0e0b6bab301c9a41ebf24498a22e6c647bf86af1d3375700c0f72",
    "tt:0:1": "e01d45a5b39b0610b9259872ac036402bf8153610bca561af018d1f102f6eb5f",
    "tt:1:0": "550984f5c3028504ea9506791c20a87d051326f6a76d19037702327a25e2a7a2",
    "tt:1:1": "827cb006720ac4567314b2d7ab24106865efd9907649e9e613c4ab577956d24c",
    "tt:1:2": "286c6c5c2ae45698ac83d47a5bc5d8db1a267c701e59516b158102e8431d9f9b",
    "tt:1:3": "0c0a19ac0ab60546b6ebf3b34189ff6eee0c34c7de804b7629c42bf8fcfcfb4d",
    "tt:2:0": "723c5bbd99449eb1380e51593919119d6ab08dfb0a4627d2f862e007602f93fc",
    "tt:2:1": "73acc437eb177e1a73a1818ea103e3f2b215a5a32f33a45a59cc2d21020ccc21",
    "tt:2:2": "9945b46126c66d00c55539f94768e8f6cddcf804341e4896321ae66bb4006a1c",
    "tt:2:3": "9686384bdfd8c3c2c8acb753393c92c898a92ecda3e3d091a7b2df973c73a344",
    "tt:2:4": "04bad625a8c43a9e071aa8581177f7417d7752244a9501637fee17a348fa501c",
    "tt:2:5": "9e254c509c7ac900c8d4eff1eaf961c96607cdc1296fb153dc5782e89361bfb8",
    "tt:2:6": "908ebb409887b24258d75d89f00de2a66fa082bea01edc75b5fa3c1672015464",
    "tt:2:7": "a449ad5437e99bbdbc71b4cd2d151c4e16beceac53baa0edf44e2739123e7c8d",
    "tt:2:8": "e158d7c3cbf8f63efe6e89e5417d037140a2d96b72a8403b75cb79b7c1dd3eff",
    "tt:2:9": "e743559c35e4440b17d178964c74dd365919c57612a8924d886e2dca2684778f",
    "tt:2:a": "031cade3d137a93c56be618078fdc50e2c8f880ec98b5e6ed63ca3b2fb86269c",
    "tt:2:b": "ac8850218004bbfb729fe415fe1eb596871dd5c602cdea4fa10dd3d3dec1ba7f",
    "tt:2:c": "1dc4ad6142ca0d5f1b24d7a68dae8d77b08573b41ec7ec1ba49a3be9582e28b3",
    "tt:2:d": "c7f62eead2bf5742012bf19e3bc4e209e9023e412828139157d9523aae1000b8",
    "tt:2:e": "d28ede33db02d340a890b3e7d7aa07fd92edadc57fa5aafb7d2d436822d5f749",
    "tt:2:f": "1209c6460c9a89ed185dac993d1b9457f8b598b0fa875116bc5b5d9895ff6605",
    "parity(4)": "ef10334531aa8c17ee9bf7209076b0d750a3c13d0dcd9daf9bb388bb640ed66c",
    "zero(3)": "0ac2f3b56429dd4ea12ffdd560c2a566a139ee9dffcedd59c47694ae8084a91c",
    "rubinstein(3,3)": "068b802cc239acb2f55b94a93b3e0eb8dc0143a3c53e2f8bdad932a2199a619c",
    "rubinstein(4,4)": "fff49a7c0cfdbacdec8bfe265c0c104046d4011e582cfee7ecf90109131465b3",
    "gip(2,3)": "0e3e3906dd14ba59003c5436c5716f7d0556a153b97f309b6c34b044b8606fa2",
    "maj(5)": "b50fde34a01f0f66aaceadde9b391945c2152f0b9f5d2210f0c4d5918bf59d5d",
    "tree_function(3)": "0c3bee303168f2b1677498376e0ec3d6b396073403c76d748afef06b57bcf05f",
    "random(5)": "4707a94de27d7f5992939d7a61eaa9bcb790f620913c1bf6a8d96ee70c6e85a8",
    "random(6)": "3bc289ac6d842f185b89289877983058eb04113712b1772a57071de88ad70779",
    "random(7)": "7f6df0e341c432e75afefe4cf12110f754fb83b9327bf5192f038c453d6091ba",
    "random(13)": "8a957bb8e22623691f7673f99f68989db9c53a7b03a58f4c96f375fb7c7e0166",
    "random(14)": "ef81701d277a455e0959009dd439ecb251197433bfe8a8aaab0bfba52d7fdb0a",
    "random(15)": "69a85a760c0658519247f3bc9ceea515311dbddf0ac7dd09079a7c479d0d2e90",
}

# sha256 of each extremal_search JSON: exhaustive at n <= 4, sampled at n = 6
SEARCH_DIGESTS = {
    "salt_minus_s@2": "29729958dfc6f34af9e2c1fbc75910206fcb36aaa95cea8cb73bb2d853ca6b6b",
    "salt_over_s@2": "cbcfeb6761d4ac095e73647177fa9c9d699908759066c5706a7736f90f574a90",
    "bs_over_salt2_s@2": "ade758f91eab59f3027b8ef0daf0f3ec630fdd88e638e48a14ee5c8f044005ac",
    "s_over_sqrt_sparsity@2": "19f2ed675023be352c5dd68195356e350998a12518046642c6e211b0f1aee606",
    "bs_over_sherstov_s2@2": "a0ae71dd9648c7915075bb009c64a98b1daed13d26efd3eda737b89e80dc4a19",
    "salt_minus_s@3": "007f1ef8684e9d3a0e7e434b448cb01f36c9dd5c02854cd66723cd6a5e00799a",
    "salt_over_s@3": "e14ad76eb2a538ee5aeffcf5ba0ac76d552dc99068b0cb7a0d0f265562ceb599",
    "bs_over_salt2_s@3": "2403f6dab8c4daff0b715700fd9cdafbe70993c6f1646727a04db37c8fe5094c",
    "s_over_sqrt_sparsity@3": "cfaed54360bde9d50a32e0c46bf2bc023491421b8138ce93a9c3e07104a3047b",
    "bs_over_sherstov_s2@3": "19780d5a20234fb41ed90f801fef803c819269de3d5d11e09a6bdef7187a1e12",
    "salt_minus_s@4": "b0444bc4710a0393db3d7bf935177393e06e2a204152a20ebbba224c5448dab4",
    "salt_over_s@4": "fa544c7e842f433593d412edb5b6c8cdf8a9d35b0bdd682ea5faba0962958723",
    "bs_over_salt2_s@4": "e796c7d61dc2e1fb5b5c168ce03fe932d595fb007aabea049ed28bda5970a5ed",
    "s_over_sqrt_sparsity@4": "5e8fd66c8b02255668cfbc564af40b1f33651969ea93b44c98b3e485cd7881a0",
    "bs_over_sherstov_s2@4": "7311ede1193fb84f6e924e43a45acf43183f3701e5a928c181416e31301f375e",
    "salt_minus_s@6": "2c93866be8b3feea9958d5714a191748a7987d853bbcb3f61738ccc00804870e",
    "salt_over_s@6": "ba224e6a1246e5dbca6713c723bca302643fdf419858c6ac8804178fa8f92f6d",
    "bs_over_salt2_s@6": "b1af3c5b3805db731cd5e05e7120c3e37d91e45165e3bcc2c17678acbf8ddf13",
    "s_over_sqrt_sparsity@6": "cab37044ea32f16560c4036d25fb8a567d35f4f7b9493e3375f81ef40b0812bb",
    "bs_over_sherstov_s2@6": "fb16d08266ecdba59b8cda7e7962c4f329cbb313f4678f4e72d419bbae538626",
}


def test_inequality_suite_golden_digests():
    got = {label: _json_digest(inequality_suite(f).to_json_dict())
           for label, f in _golden_suite_functions().items()}
    assert got == SUITE_DIGESTS


def test_extremal_search_golden_digests():
    got = {}
    for n in (2, 3, 4, 6):
        for stat in STATISTICS:
            records = extremal_search(n, stat, budget=200)  # the budget applies at n = 6
            got[f"{stat}@{n}"] = _json_digest([r.to_json_dict() for r in records])
    assert got == SEARCH_DIGESTS


# sha256 of each measure_report(f, witnesses=True) JSON, key order kept, and
# of certificate(f, at=x, witness=True) at every x of random(10): these pin
# the C-mask and DT-witness tie-breaks at the arities the benchmark runs
REPORT_DIGESTS = {
    "random(5)": "e134f08a3eb6b3babe6be2f7d0b62e9f476e85f85fa39648819086561b790152",
    "random(6)": "271200e6db6f68d8498241542bbf816902d080c3bb994acf9a4ef41e34e7e56a",
    "random(7)": "1c455d49f54618e89b52e859c0edb275f9fe3c530dffbac3dfb79840a24efebd",
    "random(8)": "36b8718c14205f3105da9b77a9e58e25003926482cac1d2723b8016c1c19071e",
    "random(9)": "eb2c52898acc94d3efb544d6e7159a4b28cd4238f000e4f7011c06e4e2e7f290",
    "random(10)": "7e55a5e4c5e32ea16ebd14c8c605f1089e7d3a0287a48bda5055022ec90b6986",
    "random(11)": "5f3f8703112bd35faa4e77610fc15ce6c5345f37f62dd9c01f469ec61b7af91a",
    "random(12)": "d2351802811765dd5548ed1e8fe9c12a6991bc0b49921473b024b808fcb9f5f7",
    "random(13)": "0548b1165aec876473f0adb12fdd0c4d49855c3d58366b594f0f2c063c64b062",
    "rubinstein(3,4)": "5feb6478dac5671d0614429ac6103ca467cf2e4cbf6e85452d48de174e3d4cce",
    "maj(11)": "c05647d6d6776b8f479455daef0dff7f576665f0be638b92df1bc803dd658533",
    "tree_function(3)": "44420edbb7fdfd1d06208bcc6d04d1373b759ca087b8e7a40238939e25b22071",
    "gip(3,3)": "83740e64d44c0f60b57ddfffc68cc778f2da3a0d7ff4b4b104f094c33464e6ac",
    "C_at_every_point(random(10))": "ed9d05ccde2297b0ef48a837697fe1521c3869d29abb8fb7e748ecd223facb14",
}


def test_measure_report_golden_digests():
    fs = {f"random({n})": _seeded(n) for n in range(5, 14)}
    fs.update({"rubinstein(3,4)": rubinstein(3, 4), "maj(11)": maj(11),
               "tree_function(3)": tree_function(3), "gip(3,3)": gip(3, 3)})
    got = {label: _json_digest(measure_report(f, witnesses=True).to_json_dict())
           for label, f in fs.items()}
    f = fs["random(10)"]
    got["C_at_every_point(random(10))"] = _json_digest(
        [certificate(f, at=x, witness=True) for x in range(table_size(f.n))]
    )
    assert got == REPORT_DIGESTS


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
