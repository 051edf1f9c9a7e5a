import dataclasses
import importlib
import json
import subprocess
import sys

import pytest

import boolfn
from boolfn import _bulk, checks, cli, commlb, measures
from boolfn.cli import main
from boolfn.commlb import BitMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measures_parity_json(capsys):
    code, out, err = run_cli(capsys, "measures", "fam:parity:n=4")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["measures"]["s"] == 4
    assert data["measures"]["deg_2"] == 1
    assert data["function"] == "tt:4:6996"


def test_measures_tt_source(capsys):
    code, out, _ = run_cli(capsys, "measures", "tt:2:8")
    assert code == 0
    data = json.loads(out)
    assert data["measures"] == {
        "s": 2, "bs": 2, "C": 2, "alt": 1, "salt": 1,
        "deg": 2, "deg_2": 2, "deg_3": 2, "sparsity": 4, "DT": 2,
    }


def test_measures_csv_row(capsys):
    code, out, _ = run_cli(capsys, "measures", "fam:maj:n=5", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("function,arity,s,bs,")
    cells = row.split(",")
    assert cells[1] == "5" and cells[2] == "3"  # arity, sensitivity


def test_measures_pointwise_flag(capsys):
    code, out, _ = run_cli(capsys, "measures", "fam:or:n=3", "--at", "000")
    data = json.loads(out)
    assert code == 0
    assert data["measures"]["s_at"] == 3
    assert data["measures"]["bs_at"] == 3
    assert data["measures"]["C_at"] == 3


def test_measures_pointwise_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "measures", "fam:or:n=3", "--at", "000", "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.strip().splitlines())
    assert header[-4:] == ["s_at", "bs_at", "C_at", "skipped"]
    assert row[-4:] == ["3", "3", "3", ""]
    # a pointwise skip leaves the cells it did not reach empty
    code, out, _ = run_cli(capsys, "measures", "fam:and:n=15", "--at", "0" * 15, "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.strip().splitlines())
    assert header[-4:] == ["s_at", "bs_at", "C_at", "skipped"]
    assert row[-4:-1] == ["0", "", ""] and row[-1].endswith("pointwise")
    code, out, _ = run_cli(capsys, "measures", "fam:or:n=3", "--format", "csv")
    assert "s_at" not in out


def test_measures_from_file(tmp_path, capsys):
    src = tmp_path / "fn.txt"
    src.write_text("anf:2:x1+x2\n")
    code, out, _ = run_cli(capsys, "measures", str(src))
    assert code == 0
    assert json.loads(out)["function"] == "tt:2:6"


def test_source_file_must_hold_a_source(tmp_path, capsys):
    # a file whose content is its own path, or another file's path, is a
    # usage error (exit 2), not a followed reference
    own = tmp_path / "self.txt"
    own.write_text(str(own))
    other = tmp_path / "other.txt"
    other.write_text(str(tmp_path / "fn.txt"))
    (tmp_path / "fn.txt").write_text("tt:2:8")
    binary = tmp_path / "binary.bin"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00]))
    for path in (own, other, binary):
        code, out, err = run_cli(capsys, "measures", str(path))
        assert code == 2 and out == ""
        assert "Traceback" not in err


def test_transform_bs2s(capsys):
    code, out, _ = run_cli(capsys, "transform", "bs2s", "fam:or:n=3", "--at", "000")
    assert code == 0
    data = json.loads(out)
    assert data["map"]["columns"] == ["100", "010", "001"]
    assert data["certificate"]["s_g_at_zero"] == 3
    assert data["certificate"]["equality_holds"] is True


def test_arity_zero_point_is_the_empty_string(capsys):
    code, out, _ = run_cli(capsys, "transform", "bs2s", "tt:0:1", "--at", "")
    assert code == 0
    assert json.loads(out)["certificate"]["point"] == ""
    code, out, _ = run_cli(capsys, "measures", "tt:0:1", "--at", "", "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.strip().splitlines())
    assert header[-4:] == ["s_at", "bs_at", "C_at", "skipped"]
    assert row[-4:] == ["0", "0", "0", ""]


def test_transform_bs2s_needs_point(capsys):
    code, _, err = run_cli(capsys, "transform", "bs2s", "fam:or:n=3")
    assert code == 2 and "needs --at" in err


def test_transform_alt2s_text(capsys):
    code, out, _ = run_cli(capsys, "transform", "alt2s", "fam:tree:k=3", "--format", "text")
    assert code == 0
    assert "alt <= 2*s(g,0)+1: 7 <=" in out
    assert "invertible: True" in out


def test_transform_sherstov(capsys):
    code, out, _ = run_cli(capsys, "transform", "sherstov", "fam:and:n=2")
    data = json.loads(out)
    assert code == 0
    assert data["certificate"]["z"] == "11"
    assert data["certificate"]["factor4_holds"] is True


def test_check_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "check", "exhaustive:2", "--format", "text")
    assert code == 0
    assert "ok=True" in out


def test_check_function(capsys):
    code, out, _ = run_cli(capsys, "check", "function", "fam:rubinstein:m=3,n=3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_family(capsys):
    code, out, _ = run_cli(capsys, "check", "family", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,kind,verdict,left,right,statement"
    assert "fails" not in {line.split(",")[2] for line in out.splitlines()[1:]}


def test_check_search_suite(capsys):
    # extremal search is the `search` subcommand; `check` has no search suite
    code, out, _ = run_cli(capsys, "search", "--n", "2",
                           "--statistic", "s_over_sqrt_sparsity")
    assert code == 0
    data = json.loads(out)
    assert data[0]["value"] == 2.0
    code, out, err = run_cli(capsys, "check", "search")
    assert code == 2 and out == ""
    assert "unknown suite" in err


def test_comm_and2(capsys):
    code, out, _ = run_cli(capsys, "comm", "fam:and:n=2")
    data = json.loads(out)
    assert code == 0
    assert data["certificate"]["k"] == 1
    assert data["certificate"]["w"] == ["00", "11"]
    assert data["det_upper_bound"] == 4


def test_comm_gip_bound_summary(capsys):
    code, out, _ = run_cli(capsys, "comm", "fam:gip:n=2,k=2", "--primes", "2")
    data = json.loads(out)
    assert code == 0
    summary = data["bound_summary"]
    assert summary["per_prime"]["2"]["deg_p"] == 2
    assert summary["per_prime"]["2"]["dt_le_bs0_degp_sq"]["holds"] is True


def test_comm_at_arity_zero_agrees_with_check_function(capsys):
    # f vacuously depends on all of its 0 variables, and deg * 2**deg_p >= 0
    for source in ("tt:0:0", "tt:0:1"):
        code, out, _ = run_cli(capsys, "comm", source)
        assert code == 0
        per_prime = json.loads(out)["bound_summary"]["per_prime"]
        for entry in per_prime.values():
            bound = entry["deg_lower_bound"]
            assert (bound["left"], bound["right"], bound["holds"]) == (0, 0, True)
        code, out, _ = run_cli(capsys, "check", "function", source)
        assert code == 0
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert all(verdicts[f"deg_lb_from_deg{p}"] == "holds" for p in per_prime)


def test_comm_export_matrix(tmp_path, capsys):
    pbm = tmp_path / "m.pbm"
    code, out, _ = run_cli(capsys, "comm", "fam:and:n=1", "--export-matrix", str(pbm))
    assert code == 0
    assert pbm.read_text() == "P1\n2 2\n0 0\n0 1\n"
    raw = tmp_path / "m.bin"
    code, out, _ = run_cli(capsys, "comm", "fam:and:n=1", "--export-matrix", str(raw))
    assert code == 0
    mat = BitMatrix.from_raw(raw.read_bytes())
    assert mat.n == 1 and mat.entry(1, 1) == 1


def test_comm_export_matrix_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "m.pbm"
    code, out, err = run_cli(capsys, "comm", "fam:and:n=3", "--export-matrix", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_search_deterministic(capsys):
    args = ("search", "--n", "8", "--statistic", "s_over_sqrt_sparsity",
            "--budget", "200", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_top_zero_gives_no_records(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--statistic",
                           "s_over_sqrt_sparsity", "--top", "0", "--format", "csv")
    assert code == 0
    assert out == "function,statistic,value,arity\n"


@pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--budget", "-3"), ("--top", "-2")])
def test_search_negative_argument_exits_2(capsys, flag, value):
    argv = {"--n": "5", "--statistic": "s_over_sqrt_sparsity", flag: value}
    code, out, err = run_cli(capsys, "search", *[a for kv in argv.items() for a in kv])
    assert code == 2 and out == ""
    assert err == f"error: {flag[2:]} must be at least 0, got {value}\n"


def test_search_over_a_default_ceiling_exits_2_naming_it(capsys):
    # search takes no --override-ceilings, so the message does not advise a limit
    code, out, err = run_cli(capsys, "search", "--n", "15", "--statistic", "bs_over_salt2_s")
    assert code == 2 and out == ""
    assert err == ("error: search ranks at the default ceilings, which it cannot lift: "
                   "bs at arity 15 is over its ceiling of 14\n")


def test_measures_over_ceiling_skips_but_succeeds(capsys):
    code, out, _ = run_cli(capsys, "measures", "fam:rubinstein:m=4,n=4")
    assert code == 0
    data = json.loads(out)
    skipped = {s["measure"] for s in data["skipped"]}
    assert skipped == {"bs", "C", "salt", "DT"}
    assert data["measures"]["alt"] == 8


def test_measures_override_ceilings_over_lattice_budget(capsys):
    code, out, err = run_cli(capsys, "measures", "fam:and:n=17", "--override-ceilings")
    assert code == 0 and err == ""
    data = json.loads(out)
    # the subcube table behind C and DT fits the byte budget up to n = 16
    assert [s["measure"] for s in data["skipped"]] == ["C", "DT"]
    assert all("budget" in s["reason"] and s["limit"] == 16 for s in data["skipped"])
    assert data["measures"]["bs"] == 17


def test_usage_errors(capsys):
    assert run_cli(capsys, "measures", "garbage")[0] == 2
    assert run_cli(capsys, "measures", "tt:2:99")[0] == 2
    assert run_cli(capsys, "measures", "fam:nope:n=2")[0] == 2
    assert run_cli(capsys, "check", "mystery")[0] == 2
    assert run_cli(capsys, "measures", "fam:parity:n=4", "--primes", "x")[0] == 2


@pytest.mark.parametrize("argv,message", [
    (["measures", "tt:2:8", "--primes", ","], "error: primes list is empty\n"),
    (["check", "function"], "error: check function needs a SOURCE\n"),
    # a strong pseudoprime to the bases 2, 3, 5 and 7, and the first value
    # at which the deterministic Miller-Rabin test is no longer exact
    (["measures", "tt:2:8", "--primes", "3215031751"], "error: 3215031751 is not prime\n"),
    (["measures", "tt:2:8", "--primes", "3317044064679887385961981"],
     "error: cannot test 3317044064679887385961981 for primality: the deterministic test "
     "is exact only below 3317044064679887385961981\n"),
    (["measures", "fam:maj:n=3,n=5"], "error: family parameter 'n' is given twice\n"),
    (["transform", "bs2s", "fam:or:n=3", "--at", "0101"],
     "error: assignment '0101' has 4 bits, expected 3\n"),
    (["transform", "bs2s", "fam:or:n=3", "--at", "01x"], "error: not a bitstring: '01x'\n"),
    (["transform", "sherstov", "tt:2:x"], "error: unrecognized function format: 'tt:2:x'\n"),
    (["transform", "sherstov", "fam:tree:k=4"],
     "error: bs skipped: arity 15 exceeds limit 14 (pass an explicit limit to override)\n"),
])
def test_malformed_invocation_exits_2_with_empty_stdout(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


def test_check_function_proven_failure_exits_1_with_the_report(monkeypatch, capsys):
    rows = list(checks._INEQUALITIES)
    assert rows[0].name == "s_le_bs"
    rows[0] = dataclasses.replace(rows[0], right=lambda v: -1)
    monkeypatch.setattr(checks, "_INEQUALITIES", tuple(rows))
    code, out, err = run_cli(capsys, "check", "function", "fam:maj:n=3")
    assert code == 1
    assert err.startswith("proven-statement failure: proven check s_le_bs failed on tt:3:e8")
    data = json.loads(out)
    assert data["ok"] is False
    assert {c["name"]: c["verdict"] for c in data["checks"]}["s_le_bs"] == "fails"


def test_comm_verification_failure_exits_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise commlb.VerificationError("f(u&y) != g(u&y)")

    monkeypatch.setattr(cli, "_submatrix_from_family", broken)
    code, out, err = run_cli(capsys, "comm", "fam:and:n=2")
    assert (code, out) == (1, "")
    assert err == "verification failure (implementation bug): f(u&y) != g(u&y)\n"


def _forms(capsys, *argv):
    """The JSON payload of one invocation, and its csv and text stdout."""
    outs = [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "csv", "text")]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    return json.loads(outs[0][1]), outs[1][1].splitlines(), outs[2][1].splitlines()


def test_measures_csv_and_text_carry_the_json_values(capsys):
    data, csv, text = _forms(capsys, "measures", "fam:maj:n=5", "--at", "10101")
    want = {k: str(v) for k, v in data["measures"].items()}
    header, row = (line.split(",") for line in csv)
    cells = dict(zip(header, row, strict=True))
    assert (cells.pop("function"), cells.pop("arity"), cells.pop("skipped")) == (
        data["function"], str(data["arity"]), "")
    assert cells == want
    assert text[0] == f"function: {data['function']}  (arity {data['arity']})"
    assert dict(line.split() for line in text[1:]) == want


@pytest.mark.parametrize("argv,summary", [
    (("bs2s", "tt:3:fe", "--at", "010"),
     lambda c: f"s(g,0) == bs(f,a): {c['s_g_at_zero']} == {c['block_sensitivity']}"
               f" -> {c['equality_holds']}"),
    (("alt2s", "tt:3:e8"),
     lambda c: f"alt <= 2*s(g,0)+1: {c['alt']} <= {c['bound']} -> {c['holds']}"
               f" (invertible: {c['invertible']})"),
    (("sherstov", "tt:2:8"),
     lambda c: f"bs(f) = {c['block_sensitivity']}, s(g) = {c['s_g']},"
               f" 4*s(g)**2 >= bs: {c['factor4_holds']}"),
])
def test_transform_csv_and_text_carry_the_json_values(capsys, argv, summary):
    data, csv, text = _forms(capsys, "transform", *argv)
    cert = data["certificate"]
    assert csv[0] == "key,value"
    assert dict(row.split(",", 1) for row in csv[1:]) == {k: f'"{v}"' for k, v in cert.items()}
    assert text == [
        f"transform {argv[0]} on {argv[1]}",
        f"  columns: {' '.join(data['map']['columns']) or '(none)'}",
        f"  shift:   {data['map']['shift']}",
        f"  g:       {data['g']}",
        "  " + summary(cert),
    ]


def test_comm_csv_and_text_carry_the_json_values(capsys):
    data, csv, text = _forms(capsys, "comm", "fam:gip:n=2,k=2")
    cert, upper = data["certificate"], data["det_upper_bound"]
    assert csv == ["key,value", f"k,{cert['k']}", f"verified,{cert['verified']}",
                   f"det_upper_bound,{upper}"]
    assert text == [
        f"block certificate: k={cert['k']} bound=sqrt(k)={cert['bound']['value']:.4f}"
        f" verified={cert['verified']} ({cert['verification']['mode']})",
        "  W = " + " ".join(cert["w"]),
        f"deterministic upper bound 2*DT = {upper}",
    ]


def test_search_csv_and_text_carry_the_json_values(capsys):
    data, csv, text = _forms(capsys, "search", "--n", "3", "--statistic", "salt_over_s",
                             "--top", "3")
    assert len(data) == 3
    assert csv == ["function,statistic,value,arity"] + [
        f"{r['function']},{r['statistic']},{r['value']},{r['arity']}" for r in data]
    assert text == ["top 3 by salt_over_s at arity 3:"] + [
        f"  {r['value']:<10g} {r['function']}" for r in data]


def test_measures_bad_point_exits_2_before_the_report(monkeypatch, capsys):
    def no_report(*args, **kwargs):
        raise AssertionError("the report ran before --at was parsed")

    monkeypatch.setattr(measures._Measures, "report", no_report)
    code, out, err = run_cli(capsys, "measures", "tt:2:8", "--at", "1x")
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("command", ["measures", "comm"])
def test_non_prime_exits_2_before_the_moebius_table(monkeypatch, capsys, command):
    def no_table(*args, **kwargs):
        raise AssertionError("the Moebius table was built before the primes were checked")

    # both commands read the table that ``measures._Measures`` keeps
    monkeypatch.setattr(measures, "_moebius_rows", no_table)
    code, out, err = run_cli(capsys, command, "fam:or:n=3", "--primes", "2,4")
    assert (code, out, err) == (2, "", "error: 4 is not prime\n")


@pytest.mark.parametrize("argv,prime", [
    (["check", "exhaustive:2", "--primes", "3,3", "--format", "csv"], 3),
    (["check", "function", "tt:3:e8", "--primes", "3,3"], 3),
    (["measures", "tt:3:e8", "--primes", "7,7", "--format", "csv"], 7),
    (["comm", "tt:3:e8", "--primes", "2,3,2"], 2),
])
def test_repeated_prime_exits_2_before_any_work(monkeypatch, capsys, argv, prime):
    # a repeated prime would count a row twice or print a column twice
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built before the primes were checked")

    monkeypatch.setattr(measures, "_moebius_rows", no_work)
    monkeypatch.setattr(_bulk, "measure_arrays", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: prime {prime} is repeated\n")


@pytest.mark.parametrize("argv", [
    ["measures", "tt:2:8", "--primes", "2147483659"],
    ["comm", "tt:2:8", "--primes", "2147483659"],
    ["check", "function", "tt:2:8", "--primes", "2147483659"],
    ["check", "exhaustive:2", "--primes", "32771"],
    ["measures", "tt:2:8", "--primes", "18446744073709551557"],
    ["check", "exhaustive:2", "--primes", "131"],
    ["check", "exhaustive:2", "--primes", "127"],
])
def test_prime_above_the_kernels_integer_type_is_valid_input(capsys, argv):
    # the Moebius tables are int32 (one function) and int8 (the scan); a
    # prime above the type's maximum divides no nonzero coefficient and
    # leaves the table as it is, and 127, int8's maximum, is reduced in int8
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    data, p = json.loads(out), int(argv[-1])
    if argv[0] == "measures":
        assert data["measures"][f"deg_{p}"] == data["measures"]["deg"] == 2
    elif argv[0] == "comm":
        summary = data["bound_summary"]
        assert summary["per_prime"][str(p)]["deg_p"] == summary["deg"] == 2
    elif argv[1] == "function":
        row = next(c for c in data["checks"] if c["name"] == f"deg{p}_le_deg")
        assert row["left"] == row["right"] == 2
    else:
        assert data["ok"]
        a = _bulk.measure_arrays(*next(_bulk._columns(2)), (p,))
        assert a[f"deg_{p}"].tolist() == a["deg"].tolist()


def test_scan_checks_its_primes_before_measuring(monkeypatch, capsys):
    def no_arrays(*args, **kwargs):
        raise AssertionError("a slice was measured before the primes were checked")

    monkeypatch.setattr(_bulk, "measure_arrays", no_arrays)
    code, out, err = run_cli(capsys, "check", "exhaustive:4", "--primes", "2,4")
    assert (code, out, err) == (2, "", "error: 4 is not prime\n")


@pytest.mark.parametrize("suite", ["exhaustive:x", "exhaustive:"])
def test_bad_scan_arity_names_the_suite(capsys, suite):
    code, out, err = run_cli(capsys, "check", suite)
    assert (code, out) == (2, "")
    assert err == f"error: bad suite {suite!r}: expected exhaustive:N with 0 <= N <= 4\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["measures", "fam:parity:n=3", "--workers", "2"],
    ["check", "exhaustive:3", "--workers", "2"],
    ["search", "--n", "2", "--statistic", "salt_minus_s", "--primes", "2"],
])
def test_option_a_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stdout_is_pure_payload(capsys):
    code, out, err = run_cli(capsys, "measures", "fam:parity:n=3")
    assert code == 0 and err == ""
    json.loads(out)  # parses as-is


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["boolfn", "boolfn.cli"])
def test_import_loads_no_process_pool(module):
    """The scan is serial, so no import pulls in the multiprocessing machinery."""
    out = _fresh(f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert out.strip() == "[]"


# every public name ``boolfn`` bound by eager imports when it loaded all its
# modules, by the module that defines it
_PUBLIC_NAMES = {
    "core": [
        "MAX_ARITY", "AffineMap", "FormatError", "Restriction", "TruthTable", "apply_affine",
        "is_invertible", "restrict", "shift", "tt_parse", "tt_serialize",
    ],
    "spectral": [
        "MOEBIUS_MOD_P", "MOEBIUS_Z", "WALSH", "SpectrumRep", "moebius_coefficients",
        "moebius_coefficients_mod", "spectrum", "walsh_coefficients",
    ],
    "measures": [
        "DEFAULT_LIMITS", "ArityLimitError", "BlockFamily", "Chain", "LatticeBudgetError",
        "MeasureReport", "alternation", "alternation_under_shifts", "block_sensitivity",
        "certificate", "dt_depth", "measure_report", "modp_degree", "real_degree",
        "sensitivity", "shift_invariant_alternation", "sparsity", "validate_block_family",
        "validate_certificate_set", "validate_chain", "validate_decision_tree",
    ],
    "transforms": ["TransformResult", "alt_to_s_linear", "bs_to_s_affine", "sherstov_linear"],
    "families": [
        "and_", "compose", "const", "from_family_spec", "gip", "ip", "maj", "or_", "or_compose",
        "parity", "rubinstein", "rubinstein_row", "tree_function",
    ],
    "commlb": [
        "BitMatrix", "LowerBoundCertificate", "VerificationError", "and_matrix",
        "bound_summary", "det_upper_bound", "submatrix_witness",
    ],
    "checks": [
        "Check", "CheckReport", "ExtremalRecord", "ProvenCheckError", "STATISTICS",
        "exhaustive_scan", "extremal_search", "family_suite", "inequality_suite",
        "revalidate_record",
    ],
}


def test_import_loads_only_the_measure_modules():
    """A first report needs core, spectral and measures; the other modules
    load on first use."""
    out = _fresh("import sys, boolfn; "
                 "boolfn.measure_report(boolfn.tt_parse('anf:4:x1 x2 + x3 x4'), witnesses=True); "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'boolfn'))")
    assert out.strip() == str(["boolfn", "boolfn._bitops", "boolfn.core", "boolfn.measures",
                               "boolfn.spectral"])


def test_every_public_name_is_its_module_binding():
    """Each name reads its module's own object, loaded or not, and is listed
    by ``__all__`` and ``dir``; an unknown name is an AttributeError."""
    names = [name for group in _PUBLIC_NAMES.values() for name in group]
    assert sorted(boolfn.__all__) == sorted(names)
    assert set(names) <= set(dir(boolfn))
    for module, group in _PUBLIC_NAMES.items():
        mod = importlib.import_module(f"boolfn.{module}")
        for name in group:
            assert getattr(boolfn, name) is getattr(mod, name), name
    with pytest.raises(AttributeError, match="nope"):
        boolfn.nope


def test_names_and_submodules_load_on_first_use():
    out = _fresh("import sys, boolfn; "
                 "print(boolfn.maj(3)); "
                 "print('boolfn.families' in sys.modules, 'boolfn.checks' in sys.modules); "
                 "from boolfn import checks; "
                 "print(checks.exhaustive_scan is boolfn.exhaustive_scan, "
                 "boolfn.commlb.and_matrix is boolfn.and_matrix)")
    assert out.splitlines() == ["TruthTable('tt:3:e8')", "True False", "True True"]


def test_a_patched_name_is_read_through_and_not_cached(monkeypatch):
    """The package keeps no copy of a lazy name, so patching the module's
    binding and restoring it shows through, as a span recorder needs."""
    original = boolfn.exhaustive_scan
    monkeypatch.setattr(checks, "exhaustive_scan", lambda n: n)
    assert boolfn.exhaustive_scan(3) == 3
    monkeypatch.undo()
    assert boolfn.exhaustive_scan is original
    assert "exhaustive_scan" not in vars(boolfn)


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "boolfn.cli", "measures", "fam:maj:n=3", "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("tt:3:e8,3,2,2,2,1,")


# one call of each subcommand, each exiting 0
_ONE_CALL_EACH = (
    ["measures", "fam:maj:n=3", "--format", "csv"],
    ["transform", "sherstov", "fam:maj:n=3"],
    ["check", "function", "fam:and:n=2", "--format", "csv"],
    ["comm", "fam:or:n=3", "--seed", "1"],
    ["search", "--n", "3", "--statistic", "salt_minus_s", "--budget", "20", "--top", "2"],
)


def _exit_and_stdout(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the call
        code = e.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_call_in_a_process(capsys):
    """The parser is built once per process.  A call that argparse rejects
    (exit 2) leaves it as it was: each call after it gives the exit code and
    stdout of the same call on a parser of its own."""
    separate = []
    for argv in _ONE_CALL_EACH:
        cli.build_parser.cache_clear()
        separate.append(_exit_and_stdout(capsys, list(argv)))
    assert [code for code, _ in separate] == [0] * len(_ONE_CALL_EACH)
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    rejected = ["check", "exhaustive:3", "--long", "--primes", "2", "--bogus"]
    in_turn = [_exit_and_stdout(capsys, rejected)]
    in_turn += [_exit_and_stdout(capsys, list(argv)) for argv in _ONE_CALL_EACH]
    assert in_turn == [(2, "")] + separate
    assert cli.build_parser() is parser
