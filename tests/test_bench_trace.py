"""The benchmark's per-layer trace (``bench/tracing.py``, run by
``bench/run.py --trace 1``) and its output checks (``bench/checks.py``)
reach into the program by name.  These tests fail when one of those names
goes away, instead of leaving the traced run to break on its own."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nulldiam import cli, families, graphs, lemmas
from nulldiam.enumeration import SweepReport
from nulldiam.graphs import _rows_without

from helpers import distinct_nonzero_rows, gf2_rank, rank_mod_p
from test_cli import subprocess_env

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    # tracing imports only the standard library at module level
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_name_exists_in_its_module(tracing):
    for mod_name, names in tracing.TRACED.items():
        mod = importlib.import_module(f"nulldiam.{mod_name}")
        for name in names:
            target = mod.Graph.__post_init__ if name == "Graph" else getattr(mod, name, None)
            assert callable(target), f"nulldiam.{mod_name}.{name}"


def test_census_replay_resolves(tracing):
    # the replay calls connected_graphs, canonical_form, Graph.with_vertex
    # and parse_graph6
    metrics = tracing.census(4)
    assert metrics["enumeration.census.classes"] == 6


def test_names_the_output_checks_import_exist():
    for name in ("generate_family", "FamilyParams", "FamilyRejection"):
        assert hasattr(families, name), name
    assert "inconclusive" in SweepReport(1, 1, ()).to_dict()


def test_spans_wrap_a_replayed_command_and_are_removed(tracing, tmp_path):
    path = tmp_path / "input.g6"
    path.write_text("ECDg\n")  # P_5 and a twin of one end
    tracer = tracing.Tracer()
    original = graphs.diameter
    with tracing.installed(tracer):
        assert cli.diameter is not original
        assert cli.main(["check", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    assert cli.diameter is original and graphs.diameter is original
    assert tracer.stats["graphs.diameter"].calls >= 1
    # its rank is 4, and so are its GF(2) and GF(3) ranks, below its 5
    # distinct rows, so its rank is eliminated (C_5's GF(3) rank is 5)
    assert tracer.stats["linalg.rank_exact"].calls >= 1


def test_traced_suites_eliminate_only_what_the_bounds_leave_open(tracing, tmp_path, monkeypatch):
    # the table takes a rank from its GF(2), GF(3) and
    # distinct-nonzero-row bounds where they meet, so the trace's ``linalg.rank_exact`` spans,
    # which the benchmark reports as ``linalg.rank_exact.calls``, count at
    # most the distinct matrices (graph, mu, G - drop) asked for whose
    # bounds the oracle finds apart, fewer than all the distinct matrices
    # asked for
    requested = set()
    lookup = lemmas._GraphFacts.rank

    def recording_lookup(facts, mu, *drop):
        requested.add((facts.graph.rows, mu, _rows_without(facts.graph.rows, drop)))
        return lookup(facts, mu, *drop)

    monkeypatch.setattr(lemmas._GraphFacts, "rank", recording_lookup)
    lemmas._facts.cache_clear()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["verify", "--n", "6", "--out", str(tmp_path / "out")]) == 0
    open_ = 0
    for _graph, mu, rows in requested:
        entries = [[(r >> j & 1) - (mu if i == j else 0) for j in range(len(rows))] for i, r in enumerate(rows)]
        open_ += max(gf2_rank(entries), rank_mod_p(entries, 3)) != distinct_nonzero_rows(entries)
    assert 0 < tracer.stats["linalg.rank_exact"].calls <= open_ < len(requested)


def test_recognizing_a_family_member_reads_one_path(tracing, tmp_path):
    # ``families.recognize.paths_tried`` counts the ``classify_outside``
    # calls made inside ``recognize``; one family member reads one path
    [member] = families.enumerate_family(4, 6)
    path = tmp_path / "input.g6"
    path.write_text(graphs.to_graph6(member) + "\n")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["check", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    assert tracer.stats["families.recognize"].calls == 1
    assert tracer.stats["families.recognize"].counts["paths_tried"] == 1
    assert tracer.stats["graphs.classify_outside"].calls == 1


def test_each_traced_diameter_path_call_counts_one_path(tracing, tmp_path):
    # ``graphs.diameter_paths.paths`` sums ``len`` of each result, and the
    # per-graph table asks for one path a call
    tracer = tracing.Tracer()
    argv = ["verify", "--n", "6", "--suites", "rank-bound", "--out", str(tmp_path / "out")]
    with tracing.installed(tracer):
        assert cli.main(argv) == 0
    stat = tracer.stats["graphs.diameter_paths"]
    assert stat.counts["paths"] == stat.calls >= 1


#: A ``verify`` round's replay as ``bench/run.py --trace 1`` makes it, in a
#: process that has imported no nulldiam module first, or (``preload``)
#: after importing every one.
REPLAY = """
import json, sys, types
from pathlib import Path

bench, work, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
sys.path.insert(0, bench)
if mode == "preload":
    import nulldiam.enumeration
import tracing


class Workload:
    commands = [["verify", "--n-range", "1..5", "--jobs", "1"]]

    @staticmethod
    def census():
        return tracing.census(5)


child = types.SimpleNamespace(returncode=0, stdout=b"", seconds=1.0)
print(json.dumps(tracing.replay(Workload, [child], [0.0], work, work / "trace.json")))
"""


def test_a_fresh_replay_counts_what_a_preloaded_one_does(tmp_path):
    # ``installed`` wraps the traced functions in the nulldiam modules
    # loaded when it starts, and the replay has imported only what
    # ``nulldiam.cli`` imports; the in-process tests above import every
    # module first, so only a fresh interpreter shows a module that loads
    # too late to be wrapped
    counts = {}
    for mode in ("fresh", "preload"):
        work = tmp_path / mode
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", REPLAY, str(BENCH), str(work), mode],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout)
        counts[mode] = {k: v for k, v in metrics.items() if not k.endswith(("_s", "_us")) and "trace." not in k}
    assert counts["fresh"] == counts["preload"]
    assert counts["fresh"]["families.recognize.calls"] > 0
    assert counts["fresh"]["lemmas.interlacing.instances"] > 0
