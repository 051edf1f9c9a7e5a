"""Command-line interface.

Subcommands: ``measures``, ``transform``, ``check``, ``comm``, ``search``.
Function sources are ``tt:<n>:<hex>``, ``anf:<n>:<poly>``, ``fam:<name>:<params>``,
or a path to a file holding one of those strings.  Payload goes to stdout,
diagnostics to stderr; exit code 0 on success, 1 when a proven check fails,
2 on usage or parse errors.  Output is byte-identical across runs for
identical invocations (sampled modes take an explicit seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._bulk import MAX_BULK_ARITY
from .checks import (
    ProvenCheckError,
    exhaustive_scan,
    extremal_search,
    family_suite,
    inequality_suite,
)
from .commlb import VerificationError, _bound_summary, _submatrix_from_family, and_matrix
from .core import FormatError, TruthTable, parse_point, tt_parse, tt_serialize
from .families import from_family_spec
from .measures import DEFAULT_LIMITS, ArityLimitError, _Measures
from .transforms import alt_to_s_linear, bs_to_s_affine, sherstov_linear

_MEASURE_CSV_ORDER = ("s", "bs", "C", "alt", "salt", "deg", "sparsity", "DT")


def _load_source(text: str, in_file: bool = False) -> TruthTable:
    """Parse a source; a file path is followed once, and its content must be
    a tt:/anf:/fam: source itself."""
    text = text.strip()
    if text.startswith("fam:"):
        return from_family_spec(text)
    if text.startswith(("tt:", "anf:")):
        return tt_parse(text)
    if in_file:
        raise FormatError(f"file content is not a tt:/anf:/fam: source: {text[:60]!r}")
    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                content = fh.read()
        except OSError as e:
            raise FormatError(f"cannot read source file {text!r}: {e.strerror}")
        return _load_source(content, in_file=True)
    raise FormatError(
        f"not a function source: {text[:60]!r} (expected tt:/anf:/fam: or a file path)"
    )


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise FormatError(f"bad primes list {text!r}")
    if not primes:
        raise FormatError("primes list is empty")
    return primes


def _limits_for(f: TruthTable, override: bool) -> dict:
    """The ceilings ``--override-ceilings`` lifts to f's arity, else none."""
    if not override:
        return {}
    return dict.fromkeys(DEFAULT_LIMITS, f.n)


def _emit(payload) -> None:
    sys.stdout.write(payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n")


def _cmd_measures(args) -> int:
    f = _load_source(args.source)
    primes = _parse_primes(args.primes)
    at = None if args.at is None else parse_point(args.at, f.n)
    owner = _Measures(f, _limits_for(f, args.override_ceilings))
    rep = owner.report(primes, witnesses=True)
    if at is not None:
        # pointwise values for the point-dependent measures, appended as
        # extras, read off the report's owner
        rep.measures["s_at"] = owner.sensitivity(False, at)
        try:
            rep.measures["bs_at"] = owner.block_sensitivity(False, at)
            rep.measures["C_at"] = owner.certificate(False, at)
        except ArityLimitError as e:
            rep.skipped.append({"measure": "pointwise", "reason": str(e)})
    data = rep.to_json_dict()
    if args.format == "json":
        _emit(data)
    elif args.format == "csv":
        names = list(_MEASURE_CSV_ORDER) + [f"deg_{p}" for p in primes]
        if at is not None:
            names += ["s_at", "bs_at", "C_at"]
        header = ["function", "arity"] + names + ["skipped"]
        row = [data["function"], str(data["arity"])]
        row += [str(data["measures"].get(name, "")) for name in names]
        row.append(";".join(s["measure"] for s in data["skipped"]))
        _emit(",".join(header) + "\n" + ",".join(row) + "\n")
    else:
        lines = [f"function: {data['function']}  (arity {data['arity']})"]
        for key, value in data["measures"].items():
            lines.append(f"  {key:<10} {value}")
        for s in data["skipped"]:
            lines.append(f"  skipped: {s['measure']} ({s['reason']})")
        _emit("\n".join(lines) + "\n")
    return 0


def _cmd_transform(args) -> int:
    f = _load_source(args.source)
    limit = _limits_for(f, args.override_ceilings).get("bs")
    if args.which == "bs2s":
        if args.at is None:
            raise FormatError("transform bs2s needs --at POINT")
        at = parse_point(args.at, f.n)
        result = bs_to_s_affine(f, at, placement=args.placement, limit=limit)
    elif args.which == "alt2s":
        result = alt_to_s_linear(f)
    else:
        result = sherstov_linear(f, limit=limit)
    data = result.to_json_dict()
    if args.format == "json":
        _emit(data)
    elif args.format == "csv":
        rows = ["key,value"] + [f'{k},"{v}"' for k, v in data["certificate"].items()]
        _emit("\n".join(rows) + "\n")
    else:
        cert = data["certificate"]
        lines = [f"transform {data['transform']} on {tt_serialize(f)}"]
        cols = " ".join(data["map"]["columns"]) if data["map"]["columns"] else "(none)"
        lines.append(f"  columns: {cols}")
        lines.append(f"  shift:   {data['map']['shift']}")
        lines.append(f"  g:       {data['g']}")
        if data["transform"] == "bs2s":
            lines.append(
                f"  s(g,0) == bs(f,a): {cert['s_g_at_zero']} == {cert['block_sensitivity']}"
                f" -> {cert['equality_holds']}"
            )
        elif data["transform"] == "alt2s":
            lines.append(
                f"  alt <= 2*s(g,0)+1: {cert['alt']} <= {cert['bound']} -> {cert['holds']}"
                f" (invertible: {cert['invertible']})"
            )
        else:
            lines.append(
                f"  bs(f) = {cert['block_sensitivity']}, s(g) = {cert['s_g']},"
                f" 4*s(g)**2 >= bs: {cert['factor4_holds']}"
            )
        _emit("\n".join(lines) + "\n")
    return 0


def _report_out(report, fmt: str) -> None:
    if fmt == "json":
        _emit(report.to_json_dict())
    elif fmt == "csv":
        _emit(report.to_csv())
    else:
        _emit(report.to_text())


def _cmd_check(args) -> int:
    primes = _parse_primes(args.primes)
    suite = args.suite
    try:
        if suite == "function":
            if not args.source:
                raise FormatError("check function needs a SOURCE")
            f = _load_source(args.source)
            report = inequality_suite(
                f, primes=primes, limits=_limits_for(f, args.override_ceilings)
            )
        elif suite.startswith("exhaustive:"):
            try:
                n = int(suite.split(":", 1)[1])
            except ValueError:
                raise FormatError(f"bad suite {suite!r}: expected exhaustive:N with 0 <= N <= "
                                  f"{MAX_BULK_ARITY}")
            report = exhaustive_scan(n, primes=primes)
        elif suite == "family":
            report = family_suite(include_long=args.long, seed=args.seed)
        else:
            raise FormatError(f"unknown suite {suite!r} (function, exhaustive:N, family)")
    except ProvenCheckError as e:
        print(f"proven-statement failure: {e}", file=sys.stderr)
        if e.report is not None:
            _report_out(e.report, args.format)
        return 1
    _report_out(report, args.format)
    return 0 if report.ok else 1


def _cmd_comm(args) -> int:
    f = _load_source(args.source)
    primes = _parse_primes(args.primes)
    # the certificate and the summary read one owner, which packs bs(f,0) once
    owner = _Measures(f, _limits_for(f, args.override_ceilings))
    payload: dict = {}
    try:
        cert = _submatrix_from_family(f, owner.block_sensitivity(True, 0)[1], args.seed)
        payload["certificate"] = cert.to_json_dict()
    except ArityLimitError as e:
        payload["certificate"] = {"skipped": str(e)}
    # the summary's DT is det_upper_bound's, with the same skip
    summary = _bound_summary(owner, primes)
    payload["det_upper_bound"] = summary["comm_upper_2dt"]
    dt_skips = [s["reason"] for s in summary["skipped"] if s["quantity"] == "DT"]
    if dt_skips:
        payload["skipped"] = dt_skips
    payload["bound_summary"] = summary
    if args.export_matrix:
        matrix = and_matrix(f)
        pbm = args.export_matrix.endswith(".pbm")
        try:
            with open(args.export_matrix, "wb") as fh:
                fh.write(matrix.to_pbm().encode("ascii") if pbm else matrix.to_raw())
        except OSError as e:
            raise ValueError(f"cannot write {args.export_matrix}: {e.strerror}") from e
        payload["exported_matrix"] = args.export_matrix
    if args.format == "json":
        _emit(payload)
    elif args.format == "csv":
        rows = ["key,value"]
        cert = payload["certificate"]
        for key in ("k", "verified"):
            if key in cert:
                rows.append(f"{key},{cert[key]}")
        rows.append(f"det_upper_bound,{payload['det_upper_bound']}")
        _emit("\n".join(rows) + "\n")
    else:
        cert = payload["certificate"]
        lines = []
        if "k" in cert:
            lines.append(
                f"block certificate: k={cert['k']} bound=sqrt(k)={cert['bound']['value']:.4f}"
                f" verified={cert['verified']} ({cert['verification']['mode']})"
            )
            lines.append("  W = " + " ".join(cert["w"]))
        else:
            lines.append(f"block certificate skipped: {cert['skipped']}")
        lines.append(f"deterministic upper bound 2*DT = {payload['det_upper_bound']}")
        _emit("\n".join(lines) + "\n")
    return 0


def _cmd_search(args) -> int:
    try:
        records = extremal_search(args.n, args.statistic, budget=args.budget, seed=args.seed,
                                  top=args.top)
    except ArityLimitError as e:  # no limit reaches the statistics, so its advice cannot apply
        raise ValueError(f"search ranks at the default ceilings, which it cannot lift: "
                         f"{e.measure} at arity {e.arity} is over its ceiling of {e.limit}") from e
    if args.format == "json":
        _emit([r.to_json_dict() for r in records])
    elif args.format == "csv":
        rows = ["function,statistic,value,arity"]
        rows += [f"{r.function},{r.statistic},{r.value},{r.arity}" for r in records]
        _emit("\n".join(rows) + "\n")
    else:
        lines = [f"top {len(records)} by {args.statistic} at arity {args.n}:"]
        lines += [f"  {r.value:<10g} {r.function}" for r in records]
        _emit("\n".join(lines) + "\n")
    return 0


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """``--format``, plus the listed shared options the subcommand reads."""
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    options = {
        "--primes": dict(default="2,3", help="comma-separated primes (default 2,3)"),
        "--seed": dict(type=int, default=0),
        "--override-ceilings": dict(
            action="store_true",
            help="lift per-measure arity ceilings to the function's arity",
        ),
    }
    for flag in flags:
        parser.add_argument(flag, **options[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: building it
    takes about 1.6 ms, most of a small in-process ``main`` call, and
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="boolfn",
        description="Exact Boolean-function complexity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="full measure report for one function")
    p.add_argument("source")
    p.add_argument("--at", help="also report pointwise values at this assignment")
    _add_common(p, "--primes", "--override-ceilings")
    p.set_defaults(fn=_cmd_measures)

    p = sub.add_parser("transform", help="run one of the constructive transforms")
    p.add_argument("which", choices=("bs2s", "alt2s", "sherstov"))
    p.add_argument("source")
    p.add_argument("--at", help="base point for bs2s (bitstring)")
    p.add_argument(
        "--placement",
        choices=("block-index", "min-in-block"),
        default="block-index",
        help="column placement for bs2s",
    )
    _add_common(p, "--override-ceilings")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("check", help="verification suites")
    p.add_argument("suite", help="function | exhaustive:N | family")
    p.add_argument("source", nargs="?")
    p.add_argument("--long", action="store_true", help="include the long family checks")
    _add_common(p, "--primes", "--seed", "--override-ceilings")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("comm", help="communication-bound certificates for f(x AND y)")
    p.add_argument("source")
    p.add_argument("--export-matrix", help="write the AND-matrix (.pbm text, else raw)")
    _add_common(p, "--primes", "--seed", "--override-ceilings")
    p.set_defaults(fn=_cmd_comm)

    p = sub.add_parser("search", help="extremal search by a named statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--statistic", required=True)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--top", type=int, default=10)
    _add_common(p, "--seed")
    p.set_defaults(fn=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, ArityLimitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure (implementation bug): {e}", file=sys.stderr)
        return 1
    except ProvenCheckError as e:
        print(f"proven-statement failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
