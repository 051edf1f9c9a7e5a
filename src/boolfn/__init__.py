"""boolfn: exact complexity analysis of Boolean functions.

Provides
  1. Packed truth tables and affine maps over GF(2) (``core``)
  2. Exact complexity measures with witnesses: sensitivity, block
     sensitivity, certificates, alternation and its shift-invariant
     variant, real and mod-p degrees, Fourier sparsity, decision-tree
     depth (``measures``, ``spectral``)
  3. Constructive transforms trading block sensitivity and alternation
     for sensitivity (``transforms``)
  4. Generators for the named function families (``families``)
  5. Communication-bound certificates for F(x, y) = f(x AND y) (``commlb``)
  6. Verification suites, exhaustive scans, and extremal search (``checks``)

Everything runs in exact integer arithmetic; sampled modes take explicit
seeds; all outputs are deterministic.  ``import boolfn`` loads the measures
(items 1 and 2); the other modules load when one of their names is first
used, as ``boolfn.maj`` or ``from boolfn import checks``.  The ``boolfn``
command exposes the same capabilities on the command line, and the demos/
directory of the repository walks through each capability as a narrative
script.
"""

from importlib import import_module

from .core import (
    MAX_ARITY,
    AffineMap,
    FormatError,
    Restriction,
    TruthTable,
    apply_affine,
    is_invertible,
    restrict,
    shift,
    tt_parse,
    tt_serialize,
)
from .spectral import (
    MOEBIUS_MOD_P,
    MOEBIUS_Z,
    WALSH,
    SpectrumRep,
    moebius_coefficients,
    moebius_coefficients_mod,
    spectrum,
    walsh_coefficients,
)
from .measures import (
    DEFAULT_LIMITS,
    ArityLimitError,
    BlockFamily,
    Chain,
    LatticeBudgetError,
    MeasureReport,
    alternation,
    alternation_under_shifts,
    block_sensitivity,
    certificate,
    dt_depth,
    measure_report,
    modp_degree,
    real_degree,
    sensitivity,
    shift_invariant_alternation,
    sparsity,
    validate_block_family,
    validate_certificate_set,
    validate_chain,
    validate_decision_tree,
)

# The names below load with their submodule, on first use (PEP 562): the
# measures need none of these modules, and a fresh interpreter without a
# bytecode cache would otherwise compile them all on import.  ``__getattr__``
# returns the submodule's current binding and stores nothing here, so a name
# always reads the same object as ``boolfn.<module>.<name>``, even one patched
# in and out of the submodule after the first use.
_LAZY = {
    name: module
    for module, names in (
        ("transforms", ("TransformResult", "alt_to_s_linear", "bs_to_s_affine", "sherstov_linear")),
        ("families", (
            "and_", "compose", "const", "from_family_spec", "gip", "ip", "maj", "or_",
            "or_compose", "parity", "rubinstein", "rubinstein_row", "tree_function",
        )),
        ("commlb", (
            "BitMatrix", "LowerBoundCertificate", "VerificationError", "and_matrix",
            "bound_summary", "det_upper_bound", "submatrix_witness",
        )),
        ("checks", (
            "Check", "CheckReport", "ExtremalRecord", "ProvenCheckError", "STATISTICS",
            "exhaustive_scan", "extremal_search", "family_suite", "inequality_suite",
            "revalidate_record",
        )),
    )
    for name in names
}
_LAZY_MODULES = frozenset(_LAZY.values())

# the public names: those imported above, then the ones loaded on first use
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    - {"import_module", "core", "spectral", "measures"}
    | _LAZY.keys()
)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _LAZY.keys() | _LAZY_MODULES)


__version__ = "0.1.0"
