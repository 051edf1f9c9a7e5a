"""boolfn benchmark: one workload per process, end-to-end or traced.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload report --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of stdout is one JSON object (correct, attempted, failed, metrics); the
full run record, with the environment, goes to ``.perfbench_out/``.  The exit
code is 0 when every output passed its checks, 1 when one did not, and 2 when
the checkout holds no boolfn sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed per run for setup_s, at the speed probe's reference
# speed; the median is reported.
SETUP_LAUNCHES = {"full": 5, "smoke": 1}
SETUP_CODE = (
    "import time, speed\n"
    "with speed.SpeedProbe() as probe:\n"
    "    t0 = time.perf_counter()\n"
    "    import boolfn\n"
    "    boolfn.measure_report(boolfn.tt_parse('anf:4:x1 x2 + x3 x4'), witnesses=True)\n"
    "    t1 = time.perf_counter()\n"
    "print(probe.scaled(t0, t1))\n"
)
# Nominal seconds of one pass on a 2-core Xeon VM.  A run of S seconds does
# round(S / nominal) whole passes, at least one, so that every run of the same
# length does the same work on any machine.
PASS_SECONDS = {"report": 5.0, "scan": 35.0, "cli": 7.0}
# latency_tail_s leaves this many timed calls beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
}


def tail(values) -> tuple[float, float]:
    """The value with ``TAIL_BEYOND`` samples beyond it, and its percentile.

    That is the highest percentile that still has ``TAIL_BEYOND`` samples
    beyond it; a sample of at most ``TAIL_BEYOND`` values gives its maximum.
    """
    s = sorted(values)
    rank = max(0, len(s) - 1 - TAIL_BEYOND)
    return s[rank], 100 * rank / max(1, len(s) - 1)


def setup_seconds(launches: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment(args) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else None
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "boolfn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
    }


class Runner:
    """Runs whole passes over the items, timing each call and checking it.

    With a recorder, spans are recorded during the timed calls only, never
    during the checks.
    """

    def __init__(self, items, references: dict, probe, recorder=None):
        self.items = items
        self.references = references
        self.probe = probe
        self.recorder = recorder
        self.durations: list[float] = []  # wall time of every timed call, in order
        self.by_item: dict[str, list[tuple]] = {}  # (start, end) of passed items' calls
        self.work: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.unpinned: set[str] = set()

    def _timed(self, item):
        rec = self.recorder
        if rec is not None:
            rec.enabled = True
        try:
            start = time.perf_counter()
            out = item.call()
            end = time.perf_counter()
        finally:
            if rec is not None:
                rec.enabled = False
        self.durations.append(end - start)
        return out, (start, end)

    def one_pass(self) -> None:
        for item in self.items:
            self.attempted += 1
            try:
                out, span = self._timed(item)
                digest = item.check(out)
            except Exception as exc:  # a failed item is counted and the run goes on
                self.failures.append({"key": item.key, "error": repr(exc),
                                      "traceback": traceback.format_exc(limit=5)})
                continue
            expected = self.references.get(item.key)
            if expected is None:
                self.unpinned.add(item.key)
            elif expected != digest:
                self.failures.append({"key": item.key, "error": "reference digest mismatch",
                                      "expected": expected, "got": digest})
                continue
            self.by_item.setdefault(item.key, []).append(span)
            self.work[item.key] = item.work

    def times(self) -> dict[str, list[float]]:
        """Each passed item's call times at the probe's reference speed."""
        return {key: [self.probe.scaled(*span) for span in spans]
                for key, spans in self.by_item.items()}

    def calls(self) -> list[float]:
        """Every passed call's time at the reference speed."""
        return [t for times in self.times().values() for t in times]

    def items_per_s(self) -> float:
        """Throughput of one pass made of each item's median time."""
        typical = sum(statistics.median(t) for t in self.times().values())
        return sum(self.work.values()) / typical


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def end_to_end(runner: Runner, setup_s: float) -> dict:
    calls = runner.calls()
    return {
        "setup_s": setup_s,
        "items_per_s": runner.items_per_s(),
        "latency_p50_s": statistics.median(calls),
        "latency_tail_s": tail(calls)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: Runner, traced: Runner, rec, passes: int) -> dict:
    """Per-pass calls, self time and counters, plus the tracing quality."""
    import spans

    values = {}
    for layer, names in spans.LAYERS.items():
        for fn_name in names:
            name = spans.span_name(layer, fn_name)
            values[f"{name}.calls"] = rec.stats[name].calls / passes
            values[f"{name}.self_s"] = rec.stats[name].self_s / passes
    for span, (counter, _) in spans.COUNTERS.items():
        values[f"{span}.{counter}"] = rec.stats[span].count / passes
    values["trace.overhead_frac"] = plain.items_per_s() / traced.items_per_s() - 1
    values["trace.uncovered_frac"] = 1 - rec.nested_s / sum(traced.durations)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny item lists, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "boolfn" / "__init__.py").is_file():
        print(f"error: no boolfn sources under {SRC}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    references = json.loads((HERE / "references.json").read_text())[args.workload]
    setup_s = None if args.trace else setup_seconds(SETUP_LAUNCHES[size])

    sys.path.insert(0, str(SRC))
    import spans
    import speed
    import workloads

    workloads.warm_up()
    OUT.mkdir(exist_ok=True)
    record = {"environment": environment(args)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, speed.SpeedProbe() as probe:
        items = workloads.build(args.workload, args.seed, size, tmp)
        if args.trace:
            # untraced and traced passes alternate, so that drift of the
            # machine's speed falls on both alike
            rec = spans.Recorder()
            runners = (Runner(items, references, probe), Runner(items, references, probe, rec))
            passes = passes_for(args.workload, args.seconds / 2)
            for _ in range(passes):
                runners[0].one_pass()
                rec.install(spans.boolfn_layers(), spans.boolfn_modules())
                try:
                    runners[1].one_pass()
                finally:
                    rec.restore()
        else:
            runners = (Runner(items, references, probe),)
            passes = passes_for(args.workload, args.seconds)
            for _ in range(passes):
                runners[0].one_pass()

    # metrics need timings of passed items; a run where none passed has none
    values = {}
    if args.trace:
        units = spans.layer_metric_units()
        if all(r.by_item for r in runners):
            values = per_layer(*runners, rec, passes)
        record["spans"] = rec.spans
    else:
        units = END_TO_END_UNITS
        if runners[0].by_item:
            values = end_to_end(runners[0], setup_s)
            record["tail_percentile"] = tail(runners[0].calls())[1]
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record.update(
        result=result,
        passes=passes,
        items_per_pass=len(items),
        durations={("traced" if r.recorder else "untraced"): r.durations for r in runners},
        scaled_times={("traced" if r.recorder else "untraced"): r.times() for r in runners},
        probe={"samples": len(probe.times), "median_s": statistics.median(probe.times)},
        unpinned=sorted(set().union(*(r.unpinned for r in runners))),
        failures=failures,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  record {OUT / name}")
    for k, v in values.items():
        print(f"  {k:<44} {v:.6g} {units[k]}")
    print(f"  {'failed_frac':<44} {len(failures) / attempted:.6g} ratio")
    for f in failures:
        print(f"  FAILED {f['key']}: {f['error']}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
