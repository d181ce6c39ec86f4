"""Exact spectral invariants and diameter-extremal structure for small graphs.

The package computes adjacency rank, nullity and integer eigenvalue
multiplicities in exact arithmetic, implements twin reduction and
diameter-path anatomy, checks a family of vertex-deletion identities as
data-producing verifiers, and generates/recognizes the even-diameter
graphs whose nullity attains n - d - 1, with an isomorph-free census to
verify the characterization exhaustively at small orders.

The names below are exported lazily (PEP 562): ``import nulldiam`` loads
no submodule, and the first access to a name, as ``nulldiam.recognize``
or ``from nulldiam import recognize``, imports the submodule that
defines it and keeps the name here.  So a caller, the command line
included, loads only the modules it uses.  Submodules import as usual
(``from nulldiam import cli``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "DEFAULT_PATH_LIMIT",
        "MAX_VERTICES",
        "DisconnectedGraphError",
        "Graph",
        "Graph6Error",
        "ReductionResult",
        "classify_outside",
        "diameter",
        "diameter_paths",
        "is_diameter_path",
        "is_reduced",
        "parse_graph6",
        "path_graph",
        "pendant_pairs",
        "reduce",
        "to_graph6",
        "twin_classes",
    ),
    "linalg": (
        "IntMatrix",
        "adjacency_matrix",
        "char_poly",
        "distinct_eigenvalue_count",
        "nullity",
        "rank_exact",
    ),
    "lemmas": (
        "ALL_SUITES",
        "Violation",
        "ViolationReport",
        "check_interlacing",
        "check_pendant_deletion",
        "check_rank_bound_diam",
        "check_rank_lower_bound",
        "check_reduction_equivalence",
        "check_twin_deletion",
        "check_twin_extension",
        "run_suite",
    ),
    "families": (
        "FamilyParamError",
        "FamilyParams",
        "FamilyRejection",
        "RecognitionResult",
        "Verdict",
        "enumerate_family",
        "generate_family",
        "is_extremal",
        "recognize",
    ),
    "stream": ("ParsedRecord", "ingest_graph6_stream"),
    "enumeration": (
        "CANONICAL_TIER_LIMIT",
        "MAX_CENSUS_ORDER",
        "CanonicalSizeError",
        "SweepReport",
        "SweepTotals",
        "canonical_form",
        "canonical_graph",
        "connected_graphs",
        "verify_theorem",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
