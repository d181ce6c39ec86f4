"""Exact spectral invariants and diameter-extremal structure for small graphs.

The package computes adjacency rank, nullity and integer eigenvalue
multiplicities in exact arithmetic, implements twin reduction and
diameter-path anatomy, checks a family of vertex-deletion identities as
data-producing verifiers, and generates/recognizes the even-diameter
graphs whose nullity attains n - d - 1, with an isomorph-free census to
verify the characterization exhaustively at small orders.
"""

from .graphs import (
    DEFAULT_PATH_LIMIT,
    MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    Graph6Error,
    ReductionResult,
    classify_outside,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    diameter_paths,
    is_diameter_path,
    is_reduced,
    parse_graph6,
    path_graph,
    pendant_pairs,
    reduce,
    star_graph,
    to_graph6,
    twin_classes,
)
from .linalg import (
    IntMatrix,
    IntPolynomial,
    adjacency_matrix,
    char_poly,
    cycle_nullity,
    distinct_eigenvalue_count,
    integer_eigenvalue_multiplicity,
    nullity,
    path_nullity,
    rank_exact,
    rank_mod_p,
    shifted_adjacency,
    zero_root_multiplicity,
)
from .lemmas import (
    ALL_SUITES,
    Violation,
    ViolationReport,
    check_interlacing,
    check_pendant_deletion,
    check_rank_bound_diam,
    check_rank_lower_bound,
    check_reduction_equivalence,
    check_twin_deletion,
    check_twin_extension,
    run_suite,
)
from .families import (
    FamilyParamError,
    FamilyParams,
    FamilyRejection,
    RecognitionResult,
    Verdict,
    enumerate_family,
    generate_family,
    is_extremal,
    recognize,
)
from .enumeration import (
    CANONICAL_TIER_LIMIT,
    MAX_CENSUS_ORDER,
    CanonicalSizeError,
    ParsedRecord,
    SweepReport,
    SweepTotals,
    canonical_form,
    canonical_graph,
    connected_graphs,
    ingest_graph6_stream,
    verify_theorem,
)

__version__ = "0.1.0"
