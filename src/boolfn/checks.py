"""Verification harness: named inequality checks, exhaustive scans, family
suites, and extremal search.

Every check records its computed left and right sides next to the verdict, so
a report reader can re-derive each comparison.  Checks are classified
``proven`` (a failure is an implementation bug and aborts the suite by
raising ``ProvenCheckError``) or ``empirical`` (a failure is a recorded
finding: the statement's constant is not pinned down, so the suite logs the
observed ratio instead of asserting it).  All comparisons run in exact
integer arithmetic; ratios appear only inside recorded findings.

The paper's inequalities and extremal statistics are stated once, as rows of
``_INEQUALITIES`` and ``_STATISTICS`` over a dict ``v`` of measure values.
Two evaluators read them: one on a function's ints (``inequality_suite``,
``STATISTICS[name](f)``), one on the int64 arrays of ``_bulk.measure_arrays``
(``exhaustive_scan``, ``extremal_search`` at n <= 4).  To add an inequality,
append a row: its name (``{p}`` makes it per-prime, reading ``v["deg_p"]``),
both statement strings, ``needs``, ``left`` <= ``right`` and an optional
``hypothesis``, each written so it evaluates on ints and on arrays alike.

A construction's guarantee is a row too.  It reads the construction's
certificate from ``v`` under the construction's name (``bs2s0``, ``bs2s``,
``alt2s``; ``sparsity_g`` is the sparsity of the chain map's g): the suite
puts there the certificate dict of one function, the scan the batch
certificate, one array per field.  Such a row gives its own verdict,
``holds(v)``, in place of ``left`` <= ``right``, and the suite's witness,
``witness(v)``.

A function's ints are the values of ``measure_report``, the one list of its
measures, plus bs(f,0).  One helper, ``_function_record``, builds them with
their skips, the bs families and the constructions built from those:
``inequality_suite`` checks them, and the scan compares them with its arrays
and batched constructions on its sampled functions.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import _bulk
from ._bitops import pack, point_to_str, table_mask, table_size, unpack
from .commlb import _check_submatrix_rows, _submatrix_from_family
from .core import TruthTable, _check_arity, is_invertible, tt_parse, tt_serialize
from .families import and_, gip, maj, or_compose, parity, rubinstein, rubinstein_row, tree_function
from .measures import (
    _Measures,
    _best_chains,
    alternation,
    block_sensitivity,
    modp_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
)
from .spectral import _check_primes, _sparsities, _walsh_rows
from .transforms import (
    _alt2s_rows,
    _bs2s_from_family,
    _bs2s_rows,
    _sherstov_from_family,
    _sherstov_rows,
    alt_to_s_linear,
    sherstov_linear,
)

__all__ = [
    "Check",
    "CheckReport",
    "ExtremalRecord",
    "ProvenCheckError",
    "STATISTICS",
    "inequality_suite",
    "exhaustive_scan",
    "family_suite",
    "extremal_search",
    "revalidate_record",
]


@dataclass
class Check:
    name: str
    statement: str
    kind: str  # "proven" or "empirical"
    left: object
    right: object
    verdict: str  # "holds" | "fails" | "hypothesis-not-met" | "skipped"
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExtremalRecord:
    """A function achieving a tracked statistic, reproducible from the record."""

    function: str
    statistic: str
    value: float
    arity: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    suite: str
    subject: str
    checks: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    extremal: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(c.kind == "proven" and c.verdict == "fails" for c in self.checks)

    def counts(self) -> dict:
        out = {"holds": 0, "fails": 0, "hypothesis-not-met": 0, "skipped": 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "subject": self.subject,
            "ok": self.ok,
            "counts": self.counts(),
            "checks": [c.to_json_dict() for c in self.checks],
            "findings": list(self.findings),
            "extremal": [r.to_json_dict() for r in self.extremal],
        }

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}   subject: {self.subject}"]
        width = max((len(c.name) for c in self.checks), default=4)
        for c in self.checks:
            lines.append(
                f"  [{c.verdict:^18}] {c.name:<{width}}  "
                f"left={c.left!r} right={c.right!r}  ({c.statement})"
            )
        for rec in self.extremal:
            lines.append(
                f"  extremal {rec.statistic} = {rec.value} at {rec.function}"
            )
        for f in self.findings:
            lines.append(f"  finding: {f}")
        counts = self.counts()
        lines.append(
            "  summary: "
            + " ".join(f"{k}={v}" for k, v in counts.items())
            + f"  ok={self.ok}"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["name,kind,verdict,left,right,statement"]
        for c in self.checks:
            stmt = c.statement.replace('"', "'")
            rows.append(f'{c.name},{c.kind},{c.verdict},{c.left},{c.right},"{stmt}"')
        return "\n".join(rows) + "\n"


class ProvenCheckError(RuntimeError):
    """A statement that must hold failed; the witness pinpoints the bug."""

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


def _raise_if_broken(report: CheckReport) -> CheckReport:
    for c in report.checks:
        if c.kind == "proven" and c.verdict == "fails":
            raise ProvenCheckError(
                f"proven check {c.name} failed on {report.subject}: "
                f"left={c.left!r} right={c.right!r} witness={c.witness!r}",
                report,
            )
    return report


# ---------------------------------------------------------------------------
# the statement table: each inequality and extremal statistic, stated once


@dataclass(frozen=True)
class _Inequality:
    """The proven statement left(v) <= right(v), or a construction's own
    verdict holds(v) where that is set, wherever hypothesis(v) holds."""

    name: str
    statement: str  # as inequality_suite words it
    scan_statement: str  # as exhaustive_scan words it
    needs: tuple[str, ...]  # the values read; the suite skips the row if one is skipped
    left: Callable
    right: Callable
    hypothesis: Callable = lambda v: True
    holds: Callable | None = None  # a construction's own verdict; the scan keeps no margin
    witness: Callable = lambda v: None  # the suite's witness

    def verdict(self, v):
        return self.holds(v) if self.holds else self.left(v) <= self.right(v)


@dataclass(frozen=True)
class _Statistic:
    """An extremal statistic: value(v), where defined(v) holds."""

    name: str
    needs: tuple[str, ...]
    value: Callable
    defined: Callable = lambda v: True


def _block_map_row(name: str, key: str, at: str) -> _Inequality:
    """The row of the block map's equality s(g,0) == bs(f,a), a the point of ``v[key]``."""
    return _Inequality(name, "s(g,0) == bs(f,a) under the block transform",
                       f"s(g,0) == bs(f,{at}) under the block transform", (key,),
                       lambda v: v[key]["s_g_at_zero"], lambda v: v[key]["block_sensitivity"],
                       holds=lambda v: v[key]["equality_holds"],
                       witness=lambda v: {"point": point_to_str(v[key]["point"], v["n"])})


_INEQUALITIES = (
    _Inequality("s_le_bs", "s(f) <= bs(f)", "s(f) <= bs(f)", ("s", "bs"),
                lambda v: v["s"], lambda v: v["bs"]),
    _Inequality("bs_le_C", "bs(f) <= C(f)", "bs(f) <= C(f)", ("bs", "C"),
                lambda v: v["bs"], lambda v: v["C"]),
    _Inequality("deg{p}_le_deg", "deg_{p}(f) <= deg(f)", "deg_{p} <= deg", ("deg_p", "deg"),
                lambda v: v["deg_p"], lambda v: v["deg"]),
    _Inequality("deg_le_dt", "deg(f) <= DT(f)", "deg <= DT", ("deg", "DT"),
                lambda v: v["deg"], lambda v: v["DT"]),
    _Inequality("dt_le_bs_cubed", "DT(f) <= bs(f)**3", "DT <= bs**3", ("DT", "bs"),
                lambda v: v["DT"], lambda v: v["bs"] ** 3),
    _Inequality("bs_le_2deg_sq", "bs(f) <= 2*deg(f)**2", "bs <= 2*deg**2", ("bs", "deg"),
                lambda v: v["bs"], lambda v: 2 * v["deg"] ** 2),
    _Inequality("dt_le_bs0_deg{p}_sq", "DT(f) <= bs(f,0)*deg_{p}(f)**2",
                "DT <= bs(f,0)*deg_{p}**2", ("DT", "bs0", "deg_p"),
                lambda v: v["DT"], lambda v: v["bs0"] * v["deg_p"] ** 2),
    _Inequality("deg_lb_from_deg{p}", "deg(f)*2**deg_{p}(f) >= n (f depends on all variables)",
                "deg*2**deg_{p} >= n", ("n", "deg", "deg_p", "depends_on_all"),
                lambda v: v["n"], lambda v: v["deg"] * 2 ** v["deg_p"],
                hypothesis=lambda v: v["depends_on_all"]),
    _block_map_row("bs2s_equality_at_zero", "bs2s0", "0"),
    _block_map_row("bs2s_equality_at_argmax", "bs2s", "argmax"),
    _Inequality("alt_le_2sg_plus_1", "alt(f) <= 2*s(g,0)+1 with invertible chain map",
                "alt <= 2*s(g,0)+1 with invertible chain map", ("alt2s",),
                lambda v: v["alt2s"]["alt"], lambda v: v["alt2s"]["bound"],
                holds=lambda v: v["alt2s"]["holds"] & v["alt2s"]["invertible"],
                witness=lambda v: {"invertible": v["alt2s"]["invertible"],
                                   "s_g_at_zero": v["alt2s"]["s_g_at_zero"]}),
    _Inequality("sparsity_linear_invariance",
                "sparsity(g) == sparsity(f) for invertible linear maps",
                "sparsity invariant under the invertible chain map", ("sparsity", "sparsity_g"),
                lambda v: v["sparsity_g"], lambda v: v["sparsity"],
                holds=lambda v: v["sparsity_g"] == v["sparsity"]),
)

_STATISTICS = {row.name: row for row in (
    _Statistic("salt_minus_s", ("salt", "s"), lambda v: v["salt"] - v["s"]),
    _Statistic("salt_over_s", ("s", "salt"), lambda v: v["salt"] / v["s"],
               lambda v: v["s"] > 0),
    _Statistic("bs_over_salt2_s", ("s", "salt", "bs"),
               lambda v: v["bs"] / (v["salt"] ** 2 * v["s"]), lambda v: v["s"] > 0),
    _Statistic("s_over_sqrt_sparsity", ("s", "sparsity"),
               lambda v: v["s"] / np.sqrt(v["sparsity"])),
    # the certificate of the Sherstov map at the smallest bs maximizer
    _Statistic("bs_over_sherstov_s2", ("sherstov",),
               lambda v: v["sherstov"]["block_sensitivity"] / v["sherstov"]["s_g"] ** 2,
               lambda v: v["sherstov"]["s_g"] > 0),
)}

# the statistics the exhaustive scan reports; its pinned JSON has no salt_over_s
_SCAN_STATISTICS = tuple(row for name, row in _STATISTICS.items() if name != "salt_over_s")


def _rows(v: dict, primes, by_prime: bool):
    """(row, prime, values) in output order, ``deg_p`` bound to the prime's degree.

    The suite runs each per-prime row over all primes; the scan (``by_prime``)
    runs all the per-prime rows prime by prime, at the place of the first one.
    """
    prime_rows = [row for row in _INEQUALITIES if "{p}" in row.name]

    def at(row, p):
        return row, p, {**v, "deg_p": v[f"deg_{p}"]}

    for row in _INEQUALITIES:
        if "{p}" not in row.name:
            yield row, None, v
        elif not by_prime:
            yield from (at(row, p) for p in primes)
        elif row is prime_rows[0]:
            yield from (at(r, p) for p in primes for r in prime_rows)


# each measure a statistic row may need, read off one function's owner
_FUNCTION_MEASURES = {
    "s": lambda owner: owner.sensitivity(False),
    "bs": lambda owner: owner.block_sensitivity(False),
    "salt": lambda owner: owner.shift_invariant_alternation(False),
    "sparsity": lambda owner: owner.sparsity(False),
    "sherstov": lambda owner: sherstov_linear(owner.f).certificate,
}


def _statistic_value(row: _Statistic, v: dict):
    """The row's value on one function's ints, None where undefined."""
    return float(row.value(v)) if row.defined(v) else None


def _statistic_of(row: _Statistic, f: TruthTable):
    """The row's value on f, its measures read off one owner: bs_over_salt2_s
    reads s first, so the bs search's bound reuses s's counts."""
    owner = _Measures(f, {})
    return _statistic_value(row, {k: _FUNCTION_MEASURES[k](owner) for k in row.needs})


# name -> the statistic of one function, None where it is undefined
STATISTICS = {name: partial(_statistic_of, row) for name, row in _STATISTICS.items()}


def _statistic_array(row: _Statistic, v: dict) -> np.ndarray:
    """The row's value for every function of the arrays v, -inf where undefined."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(row.value(v), dtype=float)
    return np.where(row.defined(v) & np.isfinite(vals), vals, -np.inf)


# ---------------------------------------------------------------------------
# per-function inequality suite


def _function_record(f: TruthTable, primes, limits: dict):
    """One function's measure values, the reasons of its skips, its bs
    families and the constructions built from them.

    The values are ``measure_report``'s plus bs(f,0), all read off one owner
    (``_Measures``).  One bs search, kept by the owner, gives bs and the
    family at its maximizer; one packing at the all-zero input gives
    bs(f,0) and the family there.  The constructions, keyed by the names
    the rows of ``_INEQUALITIES`` read, are the block maps at 0
    (``"bs2s0"``) and at the maximizer (``"bs2s"``), the Sherstov map at
    the maximizer (``"sherstov"``) and the chain map (``"alt2s"``); a
    skipped bs skips all but the chain map, for the reason it is skipped.
    """
    owner = _Measures(f, limits)
    measured = owner.report(primes, witnesses=False)
    vals, fams, built = measured.measures, {}, {}
    skips = {s["measure"]: s["reason"] for s in measured.skipped}
    if "bs" in vals:
        _, fams["bs"] = owner.block_sensitivity(True)
        vals["bs0"], fams["bs0"] = owner.block_sensitivity(True, 0)
        built = {"bs2s0": _bs2s_from_family(f, fams["bs0"]),
                 "bs2s": _bs2s_from_family(f, fams["bs"]),
                 "sherstov": _sherstov_from_family(f, fams["bs"])}
    else:
        skips.update(dict.fromkeys(("bs0", "bs2s0", "bs2s", "sherstov"), skips["bs"]))
    built["alt2s"] = alt_to_s_linear(f)
    return vals, skips, fams, built


def inequality_suite(f: TruthTable, primes=(2, 3), limits: dict | None = None) -> CheckReport:
    """Every per-function check, with witnesses; proven failures raise."""
    n = f.n
    report = CheckReport("function", tt_serialize(f))
    vals, skips, _, built = _function_record(f, primes, limits or {})
    vals.update({k: tr.certificate for k, tr in built.items()}, n=n,
                depends_on_all=len(f.relevant_variables()) == n,
                sparsity_g=sparsity(built["alt2s"].g))

    for row, p, v in _rows(vals, primes, by_prime=False):
        missing = [k for k in row.needs if k not in v]
        left = right = witness = None
        if missing:
            verdict, witness = "skipped", {"reason": "; ".join(skips[k] for k in missing)}
        elif not row.hypothesis(v):
            verdict = "hypothesis-not-met"
        else:
            left, right, witness = row.left(v), row.right(v), row.witness(v)
            verdict = "holds" if row.verdict(v) else "fails"
        report.checks.append(Check(row.name.format(p=p), row.statement.format(p=p), "proven",
                                   left, right, verdict, witness))

    # empirical-constant records (never hard assertions)
    if "salt" in vals and "bs" in vals:
        ratio = _statistic_value(_STATISTICS["bs_over_salt2_s"], vals)
        report.checks.append(
            Check("bs_vs_salt2_s_ratio", "record bs/(salt**2 * s); constant unspecified",
                  "empirical", None if ratio is None else vals["bs"],
                  None, "holds", {"ratio": ratio})
        )
    if "sherstov" not in vals:
        report.checks.append(
            Check("sherstov_factor4", "4*s(g)**2 >= bs(f)", "empirical",
                  None, None, "skipped", {"reason": skips["sherstov"]})
        )
    else:
        cert = vals["sherstov"]
        verdict = "holds" if cert["factor4_holds"] else "fails"
        report.checks.append(Check(
            "sherstov_factor4", "4*s(g)**2 >= bs(f) for the split-block map (empirical factor)",
            "empirical", cert["block_sensitivity"], 4 * cert["s_g"] ** 2, verdict,
            {"ratio": cert["ratio_bs_over_s_g_sq"]},
        ))
        if verdict == "fails":
            report.findings.append(
                {"check": "sherstov_factor4", "function": tt_serialize(f),
                 "bs": cert["block_sensitivity"], "s_g": cert["s_g"]}
            )
    return _raise_if_broken(report)


# ---------------------------------------------------------------------------
# exhaustive scans over every function of a small arity


# about this many evenly spaced functions of each arity are recomputed with
# the per-function API
_CROSSCHECK_SAMPLES = 24
# up to this arity, every function's submatrix identity is checked entrywise
_SUBMATRIX_MAX_ARITY = 3
# a report keeps its first sherstov findings, in id order, up to this many
_MAX_FINDINGS = 20


def _scan_slice(t: np.ndarray, lanes: np.ndarray, primes: tuple, tally: dict) -> None:
    """Every check on one slice of ``_bulk._columns``: the (2**n, m) table
    matrix t and its lanes, which are the function ids, added into the
    scan's running ``tally``.

    The tally maps each check's name (``"checks"``) to its statement, its
    counts, its tightest (margin, id) and its smallest failing id, and each
    statistic (``"extremal"``) to its (value, id); it lists the findings in
    id order.  A slice adds its counts, and replaces a tightest margin by a
    smaller one and a value by a larger one, a tie keeping the smaller id.
    So, tallied in id order, the slices give the report of one pass over
    all ids.

    The slice is measured once (``_bulk.measure_arrays``), and every
    transform of the slice is built at once by the batch kernels of
    ``transforms``, whose tables g(x) = f(A(x)) are read off the slice's
    lanes (``transforms._gather``).  The alternation chains are walked on
    the same lanes (``measures._best_chains``, as for one function), and f
    is read along each chain off them, by elementwise shifts with no index
    arithmetic.  The sparsity kernel runs again, in int8, on the chain
    maps' tables g.  The batch certificates join the measure arrays, and
    one loop over the rows of ``_INEQUALITIES`` checks them all; a row
    whose hypothesis holds on the whole slice reads its margins unmasked.
    At n <= 3 the kernel of ``commlb.submatrix_witness`` checks every
    function's submatrix identity on its family at 0.

    On a deterministic subsample, the arrays, the transforms built from the
    families and the submatrix certificates are cross-checked against the
    per-function API (``_function_record``).  That guards the batching
    (dtypes, the function axis) and the flip-pattern gathers.  bs, alt and
    salt share the API's kernels (the bs table runs the API's packer), so
    their independent checks are the check of each alternation chain here
    against its alt value, and the tests of the arrays and the tables
    against brute-force oracles.  The per-function transforms are the batch
    kernels at one function, turned into plain values by the same rule
    (``transforms._Batch.result``), so the transform cross-check compares
    two outputs of one converter; the independent check of every map and
    certificate field is the tests' comparison with the transform oracles.
    """
    n = t.shape[0].bit_length() - 1
    a = _bulk.measure_arrays(t, lanes, primes)
    a["n"] = n
    # int64, so that a row's arithmetic on the ids cannot wrap
    a["ids"] = ids = lanes.astype(np.int64)
    m = ids.size
    checks, extremal = tally["checks"], tally["extremal"]

    # the transform constructions, batched over the function axis
    zeros = np.zeros(m, dtype=np.int64)
    batches = {
        "bs2s0": _bs2s_rows(t, lanes, zeros, a["fam0"], "block-index"),
        "bs2s": _bs2s_rows(t, lanes, a["bs_argmax"], a["fam_argmax"], "block-index"),
        "alt2s": _alt2s_rows(t, lanes, *_best_chains(lanes, n)),
        "sherstov": _sherstov_rows(t, lanes, a["bs_argmax"], a["fam_argmax"]),
    }
    a.update({k: batch.cert for k, batch in batches.items()})
    a["sparsity_g"] = _sparsities(_walsh_rows(batches["alt2s"].g, np.int8))
    # each chain sets one new bit per step from 0, so it ends at 1^n, and
    # it changes value alt(f) times; row j holds step j of every chain, and
    # the values along it are read from the tables packed into lanes
    chain = a["alt2s"]["chain"].T
    along = (lanes >> chain) & 1
    steps = (chain[1:] > chain[:-1]) & (np.bitwise_count(chain[1:] ^ chain[:-1]) == 1)
    chain_ok = ((chain[0] == 0) & steps.all(axis=0)
                & ((along[1:] != along[:-1]).sum(axis=0) == a["alt"]))
    if not chain_ok.all():
        fid = int(ids[np.argmin(chain_ok)])
        raise RuntimeError(f"bulk alt does not match its chain at function {fid}")

    def count(name: str, statement: str, held: int, covered: int = m) -> dict:
        entry = checks.setdefault(name, {"statement": statement, "holds": 0, "fails": 0,
                                         "hypothesis_not_met": 0})
        entry["holds"] += held
        entry["fails"] += covered - held
        entry["hypothesis_not_met"] += m - covered
        return entry

    for row, p, v in _rows(a, primes, by_prime=True):
        applicable = row.hypothesis(v)  # True, or one bool per function
        bad = ~row.verdict(v) & applicable
        covered = int(np.count_nonzero(np.broadcast_to(applicable, (m,))))
        entry = count(row.name.format(p=p), row.scan_statement.format(p=p),
                      covered - int(np.count_nonzero(bad)), covered)
        if bad.any():
            entry.setdefault("first_fail", int(ids[np.argmax(bad)]))
        if covered and not row.holds:
            margin = row.right(v) - row.left(v)
            if covered < m:
                margin = np.where(applicable, margin, np.iinfo(margin.dtype).max)
            pos = int(np.argmin(margin))
            tight = (int(margin[pos]), int(ids[pos]))
            entry["tightest"] = min(entry.get("tightest", tight), tight)

    c = a["sherstov"]
    tally["findings"] += [
        {"check": "sherstov_factor4", "function": tt_serialize(TruthTable(n, int(ids[r]))),
         "bs": int(c["block_sensitivity"][r]), "s_g": int(c["s_g"][r])}
        for r in np.flatnonzero(~c["factor4_holds"])[:_MAX_FINDINGS]]
    if n <= _SUBMATRIX_MAX_ARITY:
        # the certificate of submatrix_witness for every function at once
        sub = _bs2s_rows(t, lanes, zeros, a["fam0"], "min-in-block")
        w = _check_submatrix_rows(t, sub.g, a["fam0"])  # raises VerificationError on any mismatch
        count("submatrix_identity", "f(u&y) == g(u&y) on W x W", m)

    # cross-check the batched rows against the per-function API on the ids
    # that are multiples of the stride
    stride = max(1, (1 << table_size(n)) // _CROSSCHECK_SAMPLES)
    for row in np.flatnonzero(ids % stride == 0).tolist():
        fid = int(ids[row])
        f = TruthTable(n, fid)
        expect, _, fams, built = _function_record(f, primes, {})
        for key, want in expect.items():
            got = int(a[key][row])
            if got != want:
                raise RuntimeError(f"bulk/{key} mismatch at function {fid}: bulk={got} api={want}")
        # the batch takes the bulk maximizer, the API its own: the
        # certificates name the point, so they must agree on it too
        for k, batch in batches.items():
            got, want = batch.result(row, f), built[k]
            if (got.map, got.g, got.certificate) != (want.map, want.g, want.certificate):
                raise RuntimeError(
                    f"batched {want.kind} mismatch at function {fid}: "
                    f"batch={got.to_json_dict()} api={want.to_json_dict()}"
                )
        if bool(a["alt2s"]["invertible"][row]) != is_invertible(built["alt2s"].map):
            raise RuntimeError(f"batched invertibility mismatch at function {fid}")
        if n <= _SUBMATRIX_MAX_ARITY:
            cert, got = _submatrix_from_family(f, fams["bs0"]), sub.result(row, f)
            batched = (got.certificate["block_sensitivity"], got.certificate["blocks"],
                       tuple(np.unique(w[row]).tolist()), got.g)
            if (cert.k, cert.blocks, cert.w_points, cert.g) != batched:
                raise RuntimeError(
                    f"batched submatrix certificate mismatch at function {fid}: "
                    f"batch={batched} api={(cert.k, cert.blocks, cert.w_points, cert.g)}"
                )

    # extremal statistics over this slice
    for stat in _SCAN_STATISTICS:
        vals = _statistic_array(stat, a)
        pos = int(np.argmax(vals))
        if vals[pos] > -np.inf:
            best = (float(vals[pos]), int(ids[pos]))
            extremal[stat.name] = max(extremal.get(stat.name, best), best,
                                      key=lambda r: (r[0], -r[1]))


def exhaustive_scan(n: int, primes=(2, 3)) -> CheckReport:
    """Run every check on every function of arity n (n <= 4).

    One pass walks the function ids in the fixed slices of
    ``_bulk._columns`` (n <= 3 is one slice), in id order, and
    ``_scan_slice`` adds each slice into one running tally.  On each slice,
    measure values come from the array engine, and the transform
    constructions from their batch kernels, which build the map and
    tabulate g for every single function; the rows of ``_INEQUALITIES``
    check every bound and every construction's certificate on them.  At
    n <= ``_SUBMATRIX_MAX_ARITY`` every function's submatrix identity is
    checked in one batched pass of the kernel behind
    ``submatrix_witness``, which raises its ``VerificationError`` for the
    smallest failing id.  About ``_CROSSCHECK_SAMPLES`` evenly spaced
    functions are recomputed with the per-function measure API, the
    per-function transforms and (at those arities) ``submatrix_witness``,
    and compared field by field.  Each runs one unpointed bs search, kept
    by its report, whose family builds both transforms at the maximizer,
    and packs one family at the all-zero input, for bs(f,0) and the
    transform there.  A failing row is reported by its smallest failing
    id.  A slice lists no more findings than the report keeps, and the
    tally's are capped once, after the pass, so the report does not depend
    on the slicing.  The arity and each prime are checked before any slice
    is measured.
    """
    if not 0 <= n <= _bulk.MAX_BULK_ARITY:
        raise ValueError(f"exhaustive scan supports 0 <= n <= {_bulk.MAX_BULK_ARITY}")
    _check_primes(primes)
    tally: dict = {"checks": {}, "extremal": {}, "findings": []}
    for t, lanes in _bulk._columns(n):
        _scan_slice(t, lanes, tuple(primes), tally)

    def name_of(fid: int) -> str:
        return tt_serialize(TruthTable(n, fid))

    functions = 1 << table_size(n)
    report = CheckReport("exhaustive", f"exhaustive:{n}")
    for name, entry in tally["checks"].items():
        verdict = "fails" if entry["fails"] else "holds"
        witness: dict = {
            "functions": functions,
            "holds": entry["holds"],
            "fails": entry["fails"],
            "hypothesis_not_met": entry["hypothesis_not_met"],
        }
        if "tightest" in entry:
            margin, fid = entry["tightest"]
            witness["tightest"] = {
                "function": name_of(fid),
                "margin": margin,
            }
        report.checks.append(
            Check(name, entry["statement"], "proven", entry["holds"], functions,
                  verdict, witness)
        )
    for stat, (value, fid) in sorted(tally["extremal"].items()):
        report.extremal.append(ExtremalRecord(name_of(fid), stat, value, n))
    report.findings.extend(tally["findings"][:_MAX_FINDINGS])
    report.findings.extend({"check": name, "function": name_of(entry["first_fail"])}
                           for name, entry in tally["checks"].items() if "first_fail" in entry)
    return _raise_if_broken(report)


# ---------------------------------------------------------------------------
# family acceptance suite


# random OR-compositions checked for exact alternation additivity
_OR_TUPLES = 20


def _random_zero_ended_tuple(rng: np.random.Generator, max_total: int = 12):
    """Random functions with f(0)=f(1^n)=0, disjointly composable under OR."""
    fs = []
    budget = max_total
    k = int(rng.integers(2, 5))
    for _ in range(k):
        if budget < 2:
            break
        arity = int(rng.integers(2, min(4, budget) + 1))
        budget -= arity
        size = table_size(arity)
        bits = pack(rng.integers(0, 2, size, dtype=np.uint8))
        bits &= ~(1 | (1 << (size - 1)))
        fs.append(TruthTable(arity, bits))
    return fs


def family_suite(include_long: bool = False, seed: int = 1) -> CheckReport:
    """Checks specific to the named families, end to end."""
    report = CheckReport("family", "families")
    add = report.checks.append

    def holds(cond):
        return "holds" if cond else "fails"

    trees = {k: tree_function(k) for k in (2, 3, 4)}
    # depth-k tree functions: alternation survives every shift
    for k, bound in ((2, 1), (3, 2)) + (((4, 4),) if include_long else ()):
        f = trees[k]
        salt = shift_invariant_alternation(f)
        s = sensitivity(f)
        add(Check(f"tree{k}_salt_floor", f"salt(tree_{k}) >= 2**(k-2)", "proven",
                  bound, salt, holds(salt >= bound)))
        add(Check(f"tree{k}_s_ceiling", f"s(tree_{k}) <= k", "proven",
                  s, k, holds(s <= k)))

    # tree functions: alternation against sparsity, exactly
    for k, f in trees.items():
        alt = alternation(f)
        sp = sparsity(f)
        add(Check(f"tree{k}_alt_vs_sparsity", "(alt+1)**2 >= sparsity", "proven",
                  sp, (alt + 1) ** 2, holds((alt + 1) ** 2 >= sp)))

    # chain transform pipeline on the tree functions
    for k, f in trees.items():
        tr = alt_to_s_linear(f)
        g = tr.g
        sg = sensitivity(g)
        sp_f, sp_g = sparsity(f), sparsity(g)
        add(Check(f"tree{k}_pipeline_sparsity", "sparsity(g) == sparsity(f)", "proven",
                  sp_g, sp_f, holds(sp_g == sp_f and tr.certificate["invertible"]),
                  {"invertible": tr.certificate["invertible"]}))
        add(Check(f"tree{k}_pipeline_s_vs_sparsity", "4*(s(g)+1)**2 >= sparsity(g)",
                  "proven", sp_g, 4 * (sg + 1) ** 2, holds(4 * (sg + 1) ** 2 >= sp_g),
                  {"s_g": sg}))

    # grid-of-rows composition
    f44 = rubinstein(4, 4)
    alt44 = alternation(f44)
    bs0 = block_sensitivity(f44, at=0, limit=16)
    s44 = sensitivity(f44)
    add(Check("rubinstein44_alt", "alt == 2n with n = 4 rows", "proven",
              alt44, 8, holds(alt44 == 8)))
    add(Check("rubinstein44_bs0", "bs(f,0) == n**2/2", "proven",
              bs0, 8, holds(bs0 == 8)))
    add(Check("rubinstein44_s", "s(f) <= n", "proven", s44, 4, holds(s44 <= 4)))
    add(Check("rubinstein44_bs_vs_s_alt", "4*bs(f,0) >= s*alt", "proven",
              s44 * alt44, 4 * bs0, holds(4 * bs0 >= s44 * alt44)))
    f33 = rubinstein(3, 3)
    bs33 = block_sensitivity(f33)
    s33 = sensitivity(f33)
    salt33 = shift_invariant_alternation(f33)
    add(Check("rubinstein33_bs_vs_s_salt", "4*bs >= s*salt", "proven",
              s33 * salt33, 4 * bs33, holds(4 * bs33 >= s33 * salt33),
              {"bs": bs33, "s": s33, "salt": salt33}))
    alt6 = alternation(rubinstein_row(6))
    add(Check("row6_alt", "alt(row detector on 6) == 2", "proven",
              alt6, 2, holds(alt6 == 2)))

    # OR composition: exact additivity when every piece vanishes at 0 and 1
    h3 = rubinstein_row(3)
    alt_comp = alternation(or_compose([h3, h3]))
    add(Check("or_compose_rows", "alt(OR of two row detectors) == 2+2", "proven",
              alt_comp, 4, holds(alt_comp == 4)))
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(_OR_TUPLES):
        fs = _random_zero_ended_tuple(rng)
        if not fs:
            continue
        lhs = alternation(or_compose(fs))
        rhs = sum(alternation(g) for g in fs)
        if lhs != rhs:
            bad += 1
    add(Check("or_compose_random", "alt(OR composition) == sum of alt", "proven",
              bad, 0, holds(bad == 0), {"tuples": _OR_TUPLES, "seed": seed}))
    and2 = and_(2)
    alt_viol = alternation(or_compose([and2, and2]))
    add(Check("or_compose_hypothesis_violation",
              "without the endpoint hypothesis only <= is promised", "proven",
              alt_viol, 2 * alternation(and2), holds(alt_viol <= 2), {"alt": alt_viol}))

    # inner XOR-of-ANDs and the simple families
    for nn, kk in ((2, 2), (3, 2), (2, 3)):
        g = gip(nn, kk)
        d2 = modp_degree(g, 2)
        add(Check(f"gip{nn}{kk}_deg2", "deg_2 of XOR of k-ANDs == k", "proven",
                  d2, kk, holds(d2 == kk)))
    for nn in (3, 5):
        alt_maj = alternation(maj(nn))
        add(Check(f"maj{nn}_alt", "alt of a monotone nonconstant function == 1",
                  "proven", alt_maj, 1, holds(alt_maj == 1)))
    p4 = parity(4)
    profile = (sensitivity(p4), modp_degree(p4, 2), sparsity(p4))
    add(Check("parity4_profile", "s == n, deg_2 == 1, sparsity == 1", "proven",
              profile, (4, 1, 1), holds(profile == (4, 1, 1))))
    return _raise_if_broken(report)


# ---------------------------------------------------------------------------
# extremal search


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n!, 2**n) index matrix whose row r sends input x to the input
    that the r-th permutation of the variables moves it to, and the uint64
    weights 2**x that pack a gathered row of 2**n <= 32 bits."""
    idx = np.arange(table_size(n))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    remap = np.zeros((len(perms), table_size(n)), dtype=np.int64)
    for i in range(n):
        remap |= ((idx >> i) & 1) << perms[:, i, None]
    return remap, np.left_shift(1, idx.astype(np.uint64))


def _canonical_key(n: int, bits: int) -> int:
    """Smallest table among complements and (for n <= 5) variable relabelings.

    Every registered statistic is invariant under complementing the output
    and permuting variables, so deduplication by this key never merges
    functions with different statistic values.  The relabeled tables are
    one gather of the table by ``_relabelings`` and one packed dot product.
    """
    full = table_mask(n)
    if n > 5:
        return min(bits, bits ^ full)
    remap, weights = _relabelings(n)
    keys = unpack(bits, n)[remap] @ weights
    return min(int(keys.min()), int((keys ^ full).min()))


def _exhaustive_values(n: int, row: _Statistic) -> np.ndarray:
    """The row's value on every function of arity n <= 4, indexed by id,
    -inf where undefined (``_statistic_array``)."""
    parts = []
    for t, lanes in _bulk._columns(n):
        a = _bulk.measure_arrays(t, lanes, needs=row.needs)
        if "sherstov" in row.needs:
            a["sherstov"] = _sherstov_rows(t, lanes, a["bs_argmax"], a["fam_argmax"]).cert
        parts.append(_statistic_array(row, a))
    return np.concatenate(parts)


def _ranked(vals: np.ndarray):
    """Yield (value, position) for the values of ``vals`` above -inf (NaN
    is skipped), by descending value and ascending position within a tie:
    the order of a stable argsort of -vals, read lazily.

    A search reads about ``top`` of the 65,536 values at n = 4, so it walks
    them level by level instead of sorting: the positions of the current
    maximum, ascending, then those of the next, each level masked to -inf
    in a copy once read.
    """
    left = np.where(vals > -np.inf, vals, -np.inf)
    while True:
        top = left.max(initial=-np.inf)
        if top == -np.inf:
            return
        level = np.flatnonzero(left == top)
        left[level] = -np.inf
        # one position at a time: a level can hold thousands of ties, of
        # which the search reads a few
        for pos in level:
            yield vals.item(pos), int(pos)


def extremal_search(
    n: int,
    statistic: str,
    budget: int = 10000,
    seed: int = 0,
    top: int = 10,
) -> list[ExtremalRecord]:
    """Top functions of arity n by a named statistic.

    Exhaustive over all functions when n <= 4, otherwise a seeded sample of
    ``budget`` random tables.  Results deduplicate by complement and (n <= 5)
    variable relabeling, and are deterministic for fixed inputs.  Raises
    ``ValueError`` for an unknown statistic, a negative n, budget or top, or
    an arity above ``MAX_ARITY``, before it draws a table.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; known: {sorted(STATISTICS)}")
    for name, value in (("n", n), ("budget", budget), ("top", top)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    if n <= _bulk.MAX_BULK_ARITY:
        ranked = _ranked(_exhaustive_values(n, _STATISTICS[statistic]))
    else:
        _check_arity(n)  # before a draw: one draw at n = 25 is 32 MiB
        rng = np.random.default_rng(seed)
        size = table_size(n)
        # lazy: each table is scored as it is drawn, so a skip raises after one
        pool = (pack(rng.integers(0, 2, size, dtype=np.uint8)) for _ in range(budget))
        scored = ((STATISTICS[statistic](TruthTable(n, bits)), bits) for bits in pool)
        ranked = sorted(((v, bits) for v, bits in scored if v is not None),
                        key=lambda t: (-t[0], t[1]))
    candidates: list[tuple[float, int]] = []
    seen: set[int] = set()
    for value, bits in ranked:
        if len(candidates) == top:
            break
        key = _canonical_key(n, bits)
        if key in seen:
            continue
        seen.add(key)
        candidates.append((value, bits))
    return [
        ExtremalRecord(tt_serialize(TruthTable(n, bits)), statistic, value, n)
        for value, bits in candidates
    ]


def revalidate_record(record: ExtremalRecord) -> bool:
    """Recompute the statistic on the stored function; must reproduce the value."""
    f = tt_parse(record.function)
    value = STATISTICS[record.statistic](f)
    return value is not None and float(value) == record.value
