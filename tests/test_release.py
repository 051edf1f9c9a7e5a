"""Memory comes back when its last reader is done: no call leaves a reference
cycle that keeps a measures owner (``measures._Measures``), its tables or
the frames that built them alive until the collector runs.

Each call runs with the collector off.  Every owner it builds must be dead
once it returns, freed by reference counting alone, and a collection after
it must find none of the library's objects unreachable.  The skip paths are
the ones to watch: a skip's exception holds its traceback, and so the frames
of every call it passed through, with their owner and its tables."""

import gc
import types
import weakref

import numpy as np
import pytest

from boolfn import (
    ArityLimitError,
    TruthTable,
    alternation,
    block_sensitivity,
    bound_summary,
    certificate,
    dt_depth,
    measure_report,
    modp_degree,
    real_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
)
from boolfn import cli
from boolfn.families import and_, maj, tree_function
from boolfn.measures import _Measures

from oracles import random_table

# what a cycle of ours would hold; the standard library's own cycles (the
# cached argparse build, json's indent encoder) hold none of these
_HELD = (types.FrameType, types.TracebackType, np.ndarray, _Measures, ArityLimitError)


def _ours(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("boolfn")
    return isinstance(obj, _HELD)


def _leftovers(monkeypatch, call):
    """(owners built, owners alive after ``call()``, the unreachable objects
    of ours that a collection then finds), with the collector off."""
    owners = []
    init = _Measures.__init__

    def recorded(self, *args):
        init(self, *args)
        owners.append(weakref.ref(self))

    monkeypatch.setattr(_Measures, "__init__", recorded)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        alive = sum(ref() is not None for ref in owners)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        held = sorted(type(o).__qualname__ if not isinstance(o, types.FunctionType)
                      else o.__qualname__ for o in gc.garbage if _ours(o))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return len(owners), alive, held


def _skipping(fn, *args, **kwargs):
    """A call of fn that swallows its skip, as the report's catchers do."""
    def call():
        try:
            fn(*args, **kwargs)
        except ArityLimitError:
            pass
    return call


_F6 = TruthTable(6, random_table(np.random.default_rng(6), 6))

PUBLIC = {
    "s": lambda: sensitivity(_F6, witness=True),
    "s_at": lambda: sensitivity(_F6, at=5, witness=True),
    "bs": lambda: block_sensitivity(_F6, witness=True),
    "bs_at": lambda: block_sensitivity(_F6, at=5, witness=True),
    "C": lambda: certificate(_F6, witness=True),
    "alt": lambda: alternation(_F6, witness=True),
    "salt": lambda: shift_invariant_alternation(_F6, witness=True),
    "deg": lambda: real_degree(_F6, witness=True),
    "deg_3": lambda: modp_degree(_F6, 3, witness=True),
    "sparsity": lambda: sparsity(_F6, witness=True),
    "DT": lambda: dt_depth(_F6, witness=True),
    "report": lambda: measure_report(_F6),
    "report_tree3": lambda: measure_report(tree_function(3), witnesses=False),
    "bound_summary": lambda: bound_summary(_F6),
    # over a ceiling: bs, C and DT at 15 variables, salt at 16
    "bs_skip": _skipping(block_sensitivity, maj(15)),
    "bs_at_skip": _skipping(block_sensitivity, maj(15), at=0, witness=True),
    "C_skip": _skipping(certificate, maj(15), witness=True),
    "DT_skip": _skipping(dt_depth, maj(15)),
    "salt_skip": _skipping(shift_invariant_alternation, and_(16)),
    # over the subcube table's byte budget, which no limit lifts
    "C_budget_skip": _skipping(certificate, and_(17), limit=17),
    "report_skips": lambda: measure_report(maj(15)),
    "report_skips_at_16": lambda: measure_report(and_(16), witnesses=False),
    "bound_summary_skips": lambda: bound_summary(maj(15)),
}


@pytest.mark.parametrize("name", list(PUBLIC))
def test_public_measures_leave_no_reference_cycle(monkeypatch, name):
    built, alive, held = _leftovers(monkeypatch, PUBLIC[name])
    assert built >= 1
    assert alive == 0
    assert held == []


CLI = [
    # every lattice measure skipped at 18 variables
    "measures fam:ip:n=9",
    "measures fam:maj:n=7 --at 0101010 --format csv",
    "check function fam:maj:n=15",
    "check function fam:tree:k=2 --format text",
    "comm fam:maj:n=15",
    "comm fam:ip:n=3 --primes 2",
    "transform sherstov fam:rubinstein:m=2,n=3",
    # exit 2: the Sherstov map reads bs, and search cannot lift a ceiling
    "transform sherstov fam:maj:n=15",
    "search --n 15 --statistic bs_over_salt2_s",
]


@pytest.mark.parametrize("argv", CLI)
def test_cli_leaves_no_reference_cycle(monkeypatch, capsys, argv):
    built, alive, held = _leftovers(monkeypatch, lambda: cli.main(argv.split()))
    capsys.readouterr()
    assert built >= 1
    assert alive == 0
    assert held == []
