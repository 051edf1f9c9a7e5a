"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use tiny item lists and finish in a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (workloads needs src on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_end_to_end(workload):
    proc, last = run_bench("--workload", workload, "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac" in proc.stdout


def test_smoke_traced_scan_counts_repeat():
    results = []
    for _ in range(2):
        proc, last = run_bench("--workload", "scan", "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads(last)["metrics"])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in results[0].items()} == expected
    verdicts = [r["checks.exhaustive_scan.verdicts"]["value"] for r in results]
    assert verdicts[0] > 0 and verdicts[0] == verdicts[1]
    assert results[0]["checks.exhaustive_scan.calls"]["value"] == 1


def test_corrupted_reference_digest_fails(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())["report"]
    items = workloads.build("report", 3, "smoke", str(tmp_path))
    key = "fam:tree:k=2"
    assert key in {item.key for item in items}

    runner = run.Runner(items, refs, probe=None)
    runner.one_pass()
    assert not runner.failures

    runner = run.Runner(items, {**refs, key: "0" * 64}, probe=None)
    runner.one_pass()
    assert [(f["key"], f["error"]) for f in runner.failures] == [
        (key, "reference digest mismatch")
    ]
    assert len(runner.failures) / runner.attempted > 0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, last = run_bench("--workload", "report", cwd=tmp_path,
                           script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not last.startswith("{")


def test_self_time_of_nested_spans():
    # outer [0, 10] calls inner [1, 3] and inner [4, 5]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = rec.wrap("lib.inner", lambda: None)

    def outer_impl():
        inner()
        inner()

    outer = rec.wrap("lib.outer", outer_impl)
    rec.enabled = True
    outer()
    assert rec.stats["lib.outer"].calls == 1
    assert rec.stats["lib.outer"].self_s == 7.0
    assert rec.stats["lib.inner"].calls == 2
    assert rec.stats["lib.inner"].self_s == 3.0
    assert rec.nested_s == 3.0  # the children of the top-level span
    # spans: (id, name, start, end, parent id); children close first
    (i1, _, s1, e1, p1), (i2, _, s2, e2, p2), (i0, name0, s0, e0, p0) = rec.spans
    assert (name0, s0, e0, p0) == ("lib.outer", 0.0, 10.0, -1)
    assert (s1, e1, s2, e2) == (1.0, 3.0, 4.0, 5.0)
    assert p1 == p2 == i0 and len({i0, i1, i2}) == 3


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder()
    f = rec.wrap("lib.f", lambda x: x + 1)
    assert f(1) == 2
    assert rec.stats["lib.f"].calls == 0 and not rec.spans


def test_install_wraps_every_binding_and_restores():
    def f():
        return 1

    lib = types.ModuleType("lib")
    user = types.ModuleType("user")
    lib.f = user.f = user.alias = f
    rec = spans.Recorder()
    rec.install({"lib": (lib, ("f",))}, [lib, user])
    assert lib.f is user.f is user.alias is not f
    rec.enabled = True
    lib.f(), user.alias()
    assert rec.stats["lib.f"].calls == 2
    rec.restore()
    assert lib.f is user.f is user.alias is f
