"""superforms: exact real structures on matrix Lie superalgebras and their
supergroup functors.

Everything is computed over Gaussian-rational coefficients tensored with
finite Grassmann algebras — no floating point anywhere — so every check is an
exact identity, not an approximation.

Layers
------
``scalars``    Gaussian rationals (exact complex numbers).
``algebra``    finite Grassmann coefficient algebras with a chosen
               conjugation (standard or graded), and their morphisms.
``literals``   a plain-text format for algebra elements and matrices.
``linalg``     exact linear algebra: ``mat_mul`` and the one sparse reduction.
``matrices``   supermatrices over a coefficient algebra: supertranspose,
               parity swap, supertrace, Berezinian, inversion.
``liealg``     the matrix families gl / sl / osp as functors of points, with
               canonical homogeneous bases and both bracket descriptions.
``catalog``    the named antilinear structure descriptors on sl(m|n) and
               osp(m|2n), with parameters and group lift forms.
``exprs``      structure expressions as step sequences, compiled to maps.
``sampling``   deterministic, string-seeded sampling of elements and points.
``realforms``  sampled and exact verification: structure axioms, underlying
               vector-level conjugations, fixed-point bases, the
               representability dichotomy, compactness scans.
``groups``     SL / OSp group points, lifted structures, the group-commutator
               bracket identity, and fixed-span agreement with the algebra
               level.
``report``     deterministic text / JSON reports.
``cli``        the ``superforms`` command.
"""

from .scalars import GaussianRational, HALF, I, MINUS_I, MINUS_ONE, ONE, ZERO, integer
from .algebra import (
    AlgebraSignature, AlgebraMorphism, MorphismError, NotInvertible, SuperNumber,
    EVEN, GRADED, ODD, STANDARD,
    adjoin_dual, epsilon, include_pairs, kill_pair_projection, one,
    scalar, theta, theta_bar, theta_selfreal,
)
from .literals import LiteralError, format_matrix, format_number, parse_matrix, parse_number
from .matrices import (
    EvennessError, NotInvertibleMatrix, SuperMatrix,
    berezinian, commutator, identity_matrix, osp_form_grid, parity_swap,
    scale_offdiagonal, signature_grid, supertrace, supertranspose,
    symplectic_grid, zero_matrix,
)
from .liealg import (
    GL, OSP, SL, BasisVector, MatrixKind, MembershipError, TensorElement,
    basis_of, bracket, contains, decompose_in_basis, dimension,
    even_rules_bracket, matrix_of, membership_defect, tensor_of,
    vector_bracket,
)
from .catalog import (
    Descriptor, InapplicableDescriptor, OSP_NAMES, SL_NAMES,
    applicable_names, build, corrupted_sigma1, descriptor_summary, names_for,
)
from .exprs import apply_expr, expr_display
from .realforms import (
    ExtractionMismatch, VectorConjugation, compact_scan, compactness_data,
    extract_vector_conjugation, fixed_point_data, rebuild_matches,
    representability_check, verify_structure,
)
from .groups import (
    SamplingFailed, group_commutator_identity, group_contains,
    group_membership_defect, lie_fixed_span_check, sample_group,
    verify_group_structure,
)
from .report import TOOL_VERSION, CheckOutcome, build_report, render, to_json, to_text

__version__ = TOOL_VERSION

__all__ = [
    "GaussianRational", "HALF", "I", "MINUS_I", "MINUS_ONE", "ONE", "ZERO", "integer",
    "AlgebraSignature", "AlgebraMorphism", "MorphismError", "NotInvertible",
    "SuperNumber", "EVEN", "GRADED", "ODD", "STANDARD",
    "adjoin_dual", "epsilon", "include_pairs", "kill_pair_projection", "one",
    "scalar", "theta", "theta_bar", "theta_selfreal",
    "LiteralError", "format_matrix", "format_number", "parse_matrix", "parse_number",
    "EvennessError", "NotInvertibleMatrix", "SuperMatrix",
    "berezinian", "commutator", "identity_matrix", "osp_form_grid",
    "parity_swap", "scale_offdiagonal", "signature_grid", "supertrace",
    "supertranspose", "symplectic_grid", "zero_matrix",
    "GL", "OSP", "SL", "BasisVector", "MatrixKind", "MembershipError",
    "TensorElement", "basis_of", "bracket", "contains", "decompose_in_basis",
    "dimension", "even_rules_bracket", "matrix_of", "membership_defect",
    "tensor_of", "vector_bracket",
    "Descriptor", "InapplicableDescriptor", "OSP_NAMES", "SL_NAMES",
    "applicable_names", "build", "corrupted_sigma1", "descriptor_summary",
    "names_for",
    "apply_expr", "expr_display",
    "ExtractionMismatch", "VectorConjugation", "compact_scan",
    "compactness_data", "extract_vector_conjugation", "fixed_point_data",
    "rebuild_matches", "representability_check", "verify_structure",
    "SamplingFailed", "group_commutator_identity", "group_contains",
    "group_membership_defect", "lie_fixed_span_check", "sample_group",
    "verify_group_structure",
    "CheckOutcome", "build_report", "render", "to_json", "to_text",
]
