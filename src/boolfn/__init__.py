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
seeds; all outputs are deterministic.  The ``boolfn`` command exposes the
same capabilities on the command line, and the demos/ directory of the
repository walks through each capability as a narrative script.
"""

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
from .transforms import TransformResult, alt_to_s_linear, bs_to_s_affine, sherstov_linear
from .families import (
    and_,
    const,
    from_family_spec,
    gip,
    ip,
    maj,
    or_,
    or_compose,
    parity,
    rubinstein,
    rubinstein_row,
    tree_function,
)
from .commlb import (
    BitMatrix,
    LowerBoundCertificate,
    VerificationError,
    and_matrix,
    bound_summary,
    det_upper_bound,
    submatrix_witness,
)
from .checks import (
    Check,
    CheckReport,
    ExtremalRecord,
    ProvenCheckError,
    STATISTICS,
    exhaustive_scan,
    extremal_search,
    family_suite,
    inequality_suite,
    revalidate_record,
)

__version__ = "0.1.0"
