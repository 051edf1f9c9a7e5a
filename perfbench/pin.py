"""Pin reference digests of every item for a set of seeds.

    python3 perfbench/pin.py --seeds 0-19

writes ``perfbench/references.json``: per workload, the sha256 of each item's
canonical output, keyed by the item's input text.  Items of both sizes (the
full lists and the smoke lists) are pinned.  Run it only on a commit whose
outputs are known to be right: the benchmark counts any later mismatch as a
failed item.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on sys.path)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    args = parser.parse_args(argv)

    pinned: dict = {w: {} for w in workloads.WORKLOADS}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in workloads.WORKLOADS:
            for size in ("smoke", "full"):
                for seed in args.seeds:
                    for item in workloads.build(workload, seed, size, tmp):
                        if item.key not in pinned[workload]:
                            pinned[workload][item.key] = item.check(item.call())
                            print(workload, item.key[:72], flush=True)
    (HERE / "references.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
