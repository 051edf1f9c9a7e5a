import json
import subprocess
import sys

import pytest

from boolfn import _bulk, cli, commlb, measures
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


def test_measures_over_ceiling_skips_but_succeeds(capsys):
    code, out, _ = run_cli(capsys, "measures", "fam:rubinstein:m=4,n=4")
    assert code == 0
    data = json.loads(out)
    skipped = {s["measure"] for s in data["skipped"]}
    assert skipped == {"bs", "C", "salt", "DT"}
    assert data["measures"]["alt"] == 8


def test_measures_override_ceilings_over_lattice_budget(capsys):
    code, out, err = run_cli(capsys, "measures", "fam:and:n=16", "--override-ceilings")
    assert code == 0 and err == ""
    data = json.loads(out)
    # the fold behind C fits the byte budget at n = 16; the DT sweeps do not
    assert [s["measure"] for s in data["skipped"]] == ["DT"]
    assert all("budget" in s["reason"] and s["limit"] == 15 for s in data["skipped"])
    assert data["measures"]["bs"] == data["measures"]["C"] == 16


def test_usage_errors(capsys):
    assert run_cli(capsys, "measures", "garbage")[0] == 2
    assert run_cli(capsys, "measures", "tt:2:99")[0] == 2
    assert run_cli(capsys, "measures", "fam:nope:n=2")[0] == 2
    assert run_cli(capsys, "check", "mystery")[0] == 2
    assert run_cli(capsys, "measures", "fam:parity:n=4", "--primes", "x")[0] == 2


def test_measures_bad_point_exits_2_before_the_report(monkeypatch, capsys):
    def no_report(*args, **kwargs):
        raise AssertionError("the report ran before --at was parsed")

    monkeypatch.setattr(cli, "_measure_report", no_report)
    code, out, err = run_cli(capsys, "measures", "tt:2:8", "--at", "1x")
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("command", ["measures", "comm"])
def test_non_prime_exits_2_before_the_moebius_table(monkeypatch, capsys, command):
    def no_table(*args, **kwargs):
        raise AssertionError("the Moebius table was built before the primes were checked")

    monkeypatch.setattr(measures, "_moebius_rows", no_table)
    monkeypatch.setattr(commlb, "_moebius_rows", no_table)
    code, out, err = run_cli(capsys, command, "fam:or:n=3", "--primes", "2,4")
    assert (code, out, err) == (2, "", "error: 4 is not prime\n")


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


@pytest.mark.parametrize("module", ["boolfn", "boolfn.cli"])
def test_import_loads_no_process_pool(module):
    """The scan is serial, so no import pulls in the multiprocessing machinery."""
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "boolfn.cli", "measures", "fam:maj:n=3", "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("tt:3:e8,3,2,2,2,1,")
