"""Inputs, library calls and correctness checks of the three workloads.

An item is one timed call into boolfn plus the checks of its output.  Its
``key`` is the input as text; the reference digest of the output is pinned
under that key in ``references.json``, so a digest found for one seed is
checked again under every seed that produces the same input.

Import this module only after ``src`` is on ``sys.path``: it imports boolfn.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import boolfn
import boolfn.cli
from boolfn import TruthTable

WORKLOADS = ("report", "scan", "cli")

# Reports: seeded random functions (arity: count) and family members.
REPORT_RANDOM = {"full": {8: 1, 9: 1, 10: 1}, "smoke": {5: 1, 6: 1}}
REPORT_FAMILIES = {
    "full": ("fam:tree:k=3", "fam:rubinstein:m=3,n=3", "fam:gip:n=3,k=3", "fam:maj:n=11"),
    "smoke": ("fam:tree:k=2", "fam:maj:n=5"),
}
SCAN_ARITY = {"full": 4, "smoke": 2}

# CLI script.  {tmp} is a scratch directory; {tt5} and {tt7} are seeded random
# functions on 5 and 7 variables.
CLI_SCRIPT = {
    "full": (
        "measures fam:parity:n=4",
        "measures tt:2:8 --format csv",
        "measures fam:or:n=3 --at 000 --format text",
        "measures {tt7}",
        "measures {tt7} --at 1010101 --format text",
        "measures fam:rubinstein:m=4,n=4 --format csv",
        "measures fam:maj:n=17 --format text",
        "measures fam:ip:n=9",
        "transform bs2s fam:or:n=3 --at 000",
        "transform bs2s fam:gip:n=2,k=3 --at 000000 --placement min-in-block --format csv",
        "transform alt2s fam:tree:k=4 --format text",
        "transform sherstov fam:rubinstein:m=3,n=3",
        "transform sherstov fam:rubinstein:m=4,n=3 --format csv",
        "transform sherstov fam:rubinstein:m=3,n=4 --format text",
        "check function fam:rubinstein:m=3,n=3",
        "check function {tt5} --format text",
        "check family --format csv",
        "check exhaustive:3 --format csv",
        "comm fam:ip:n=6 --primes 2",
        "comm fam:gip:n=2,k=2 --format text",
        "comm fam:and:n=3 --export-matrix {tmp}/and3.pbm",
        "comm fam:ip:n=4 --export-matrix {tmp}/ip4.raw --format csv",
        "search --n 3 --statistic salt_minus_s",
        "search --n 4 --statistic salt_over_s --budget 2000 --format csv",
    ),
    "smoke": (
        "measures {tt5} --format csv",
        "transform alt2s fam:tree:k=2 --format text",
        "comm fam:and:n=2 --export-matrix {tmp}/and2.pbm",
        "search --n 2 --statistic salt_minus_s",
    ),
}


class CheckFailed(Exception):
    """An output failed an independent check."""


@dataclass
class Item:
    key: str  # the input as text; references.json pins its digest under this key
    call: Callable[[], object]  # the timed library call
    check: Callable[[object], str]  # checks the output, returns its digest
    work: int = 1  # items completed: 1, or the number of functions a scan verifies


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_digest(payload) -> str:
    return _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def random_source(rng: random.Random, n: int) -> str:
    return boolfn.tt_serialize(TruthTable(n, rng.getrandbits(1 << n)))


# ---------------------------------------------------------------------------
# report


def check_report(f: TruthTable, rep) -> str:
    """Re-check every witness of a measure report; return the report's digest."""
    m, w = rep.measures, rep.witnesses
    bad = []
    if "bs" in w and not (
        boolfn.validate_block_family(f, w["bs"]) and len(w["bs"].blocks) == m["bs"]
    ):
        bad.append("bs")
    if "C" in w:
        point, mask = w["C"]
        if not (boolfn.validate_certificate_set(f, point, mask) and mask.bit_count() == m["C"]):
            bad.append("C")
    if "alt" in w and not boolfn.validate_chain(f, w["alt"], m["alt"]):
        bad.append("alt")
    if "salt" in w and boolfn.alternation(boolfn.shift(f, w["salt"])) != m["salt"]:
        bad.append("salt")
    if "DT" in w and not boolfn.validate_decision_tree(f, w["DT"], m["DT"]):
        bad.append("DT")
    if bad:
        raise CheckFailed(f"witness check failed for {', '.join(bad)}")
    return _canonical_digest(rep.to_json_dict())


def _report_item(source: str) -> Item:
    f = boolfn.from_family_spec(source) if source.startswith("fam:") else boolfn.tt_parse(source)
    return Item(
        source,
        lambda: boolfn.measure_report(f, witnesses=True),
        lambda rep: check_report(f, rep),
    )


def report_items(seed: int, size: str) -> list[Item]:
    rng = random.Random(seed)
    sources = list(REPORT_FAMILIES[size])
    for n, count in REPORT_RANDOM[size].items():
        sources += [random_source(rng, n) for _ in range(count)]
    return [_report_item(s) for s in sources]


# ---------------------------------------------------------------------------
# scan


def check_scan(report) -> str:
    if not report.ok:
        raise CheckFailed("exhaustive scan reports a failed proven check")
    return _canonical_digest(report.to_json_dict())


def scan_items(size: str) -> list[Item]:
    n = SCAN_ARITY[size]
    return [
        Item(f"exhaustive_scan({n})", lambda: boolfn.exhaustive_scan(n), check_scan,
             work=1 << (1 << n))
    ]


# ---------------------------------------------------------------------------
# cli


def _cli_item(template: str, fill: dict, tmp: str) -> Item:
    key = template.format(tmp="{tmp}", **fill)
    argv = key.replace("{tmp}", tmp).split()
    exports = [a for a in argv if a.startswith(tmp)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = boolfn.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(result) -> str:
        rc, out, err = result
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {err.strip()[:200]}")
        files = {}
        for path in exports:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = _sha256(fh.read())
            os.remove(path)
        return _canonical_digest({"rc": rc, "stdout": out.replace(tmp, "{tmp}"), "files": files})

    return Item(key, call, check)


def cli_items(seed: int, size: str, tmp: str) -> list[Item]:
    rng = random.Random(seed)
    fill = {"tt5": random_source(rng, 5), "tt7": random_source(rng, 7)}
    return [_cli_item(t, fill, tmp) for t in CLI_SCRIPT[size]]


def build(workload: str, seed: int, size: str, tmp: str) -> list[Item]:
    """The item list of one pass; the same seed gives the same inputs."""
    if workload == "report":
        return report_items(seed, size)
    if workload == "scan":
        return scan_items(size)
    return cli_items(seed, size, tmp)


def warm_up() -> None:
    """What every user pays once per process: the first 4-variable report."""
    boolfn.measure_report(boolfn.tt_parse("anf:4:x1 x2 + x3 x4"), witnesses=True)
