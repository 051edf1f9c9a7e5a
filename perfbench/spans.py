"""Span recorder that times calls into boolfn's public functions from outside.

Each listed function is replaced, under every name a ``boolfn`` module binds
it to, by a wrapper that records a span (name, start, end, parent).  The
library itself is not edited; ``Recorder.restore`` puts the originals back.

The exhaustive scan makes about 10**6 wrapped calls, so spans are aggregated
per name in memory (calls, self time, counters) and only the
first ``KEEP_SPANS`` spans are kept whole.  Self time is a span's duration minus
the time covered by its direct children; spans nest because the workloads
run on one thread.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (a boolfn module) -> public functions whose calls are timed
LAYERS = {
    "measures": (
        "sensitivity",
        "block_sensitivity",
        "certificate",
        "alternation",
        "shift_invariant_alternation",
        "dt_depth",
        "measure_report",
    ),
    "spectral": ("moebius_coefficients", "moebius_coefficients_mod", "spectrum"),
    "transforms": ("bs_to_s_affine", "alt_to_s_linear", "sherstov_linear"),
    "core": ("apply_affine", "is_invertible", "tt_parse", "tt_serialize"),
    "_bulk": ("measure_arrays",),
    "checks": ("exhaustive_scan", "inequality_suite", "family_suite", "extremal_search"),
    "commlb": ("submatrix_witness", "and_matrix", "bound_summary"),
    "families": ("from_family_spec",),
    "cli": ("main",),
}


def span_name(layer: str, fn_name: str) -> str:
    # metric names start with a letter, so boolfn._bulk reports as "bulk"
    return f"{layer.lstrip('_')}.{fn_name}"


def _scan_verdicts(report) -> int:
    return sum(
        c.witness["holds"] + c.witness["fails"] + c.witness["hypothesis_not_met"]
        for c in report.checks
    )


# span name -> (counter name, count taken from the call's return value)
COUNTERS = {
    "checks.exhaustive_scan": ("verdicts", _scan_verdicts),
    "commlb.submatrix_witness": ("pairs_checked", lambda cert: cert.pairs_checked),
}


class SpanStats:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


KEEP_SPANS = 10_000  # whole spans kept per run; all are aggregated


class Recorder:
    """Aggregates spans of wrapped calls while ``enabled`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1)
        self.nested_s = 0.0  # time covered by children of top-level spans
        self._stack: list[list] = []  # per open span: [child time, span id]
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            span_id = rec._next_id
            rec._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(stack) == 1:
                    rec.nested_s += dur
                if len(rec.spans) < KEEP_SPANS:
                    rec.spans.append((span_id, name, start, end, parent))
            if counter is not None:
                stats.count += counter(out)
            return out

        return wrapper

    def install(self, layers: dict, modules) -> None:
        """Wrap ``layers`` ({name: (module, function names)}) in ``modules``.

        Every attribute of every module in ``modules`` that is bound to a
        listed function is replaced by that function's single wrapper.
        """
        modules = list(modules)
        for layer, (module, names) in layers.items():
            for fn_name in names:
                original = getattr(module, fn_name)
                span = span_name(layer, fn_name)
                counter = COUNTERS.get(span, (None, None))[1]
                wrapper = self.wrap(span, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def boolfn_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "boolfn" or name.startswith("boolfn.")]


def boolfn_layers() -> dict:
    return {layer: (sys.modules[f"boolfn.{layer}"], names) for layer, names in LAYERS.items()}


def layer_metric_units() -> dict:
    """Per-layer metric name -> unit, in a fixed order."""
    units = {}
    for layer, names in LAYERS.items():
        for fn_name in names:
            units[f"{span_name(layer, fn_name)}.calls"] = "count"
            units[f"{span_name(layer, fn_name)}.self_s"] = "s"
    for span, (counter, _) in COUNTERS.items():
        units[f"{span}.{counter}"] = "count"
    units["trace.overhead_frac"] = "ratio"
    units["trace.uncovered_frac"] = "ratio"
    return units
