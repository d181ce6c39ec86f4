"""The package's names load lazily: ``import nulldiam`` imports no
submodule, and each exported name comes from the submodule that defines
it on first access."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nulldiam

from test_cli import subprocess_env

#: The names ``nulldiam`` exports, by the submodule that defines them.
EXPORTS = {
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


def test_every_export_is_its_submodules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"nulldiam.{module}")
        for name in names:
            assert getattr(nulldiam, name) is getattr(home, name), f"{module}.{name}"
    assert sorted(nulldiam.__all__) == sorted(name for names in EXPORTS.values() for name in names)


def test_submodules_still_import_from_the_package():
    from nulldiam import cli, enumeration, schemas

    for module, name in ((cli, "cli"), (enumeration, "enumeration"), (schemas, "schemas")):
        assert isinstance(module, types.ModuleType) and module.__name__ == f"nulldiam.{name}"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nulldiam.no_such_name
    assert not hasattr(nulldiam, "ordered_map")  # the stream's, not exported
    with pytest.raises(ImportError):
        from nulldiam import no_such_name  # noqa: F401


def test_dir_lists_the_exports():
    assert set(nulldiam.__all__) <= set(dir(nulldiam))


def test_importing_the_package_loads_no_submodule():
    script = "import sys, nulldiam\nprint(*(m for m in sys.modules if m.startswith('nulldiam')))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["nulldiam"]


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10, so syntax that needs
    # a later version (``except*``, say) must not appear in it
    for path in sorted(Path(nulldiam.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
