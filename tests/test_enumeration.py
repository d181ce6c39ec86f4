import collections
import io
import itertools
import logging
import os
import pickle
import random
import re
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldiam import (
    ALL_SUITES,
    CanonicalSizeError,
    Graph,
    adjacency_matrix,
    canonical_form,
    canonical_graph,
    connected_graphs,
    diameter,
    ingest_graph6_stream,
    is_reduced,
    nullity,
    parse_graph6,
    path_graph,
    to_graph6,
    verify_theorem,
)
from nulldiam import enumeration, stream
from nulldiam.enumeration import (
    _augment_parent,
    _canonical_gens,
    _canonical_rows,
    _key_table,
    _mask_orbit_reps,
    _min_columns,
    _refinement_cells,
    _rows_from_columns,
    _split_components,
    _star_candidates,
    _survivors,
)
from nulldiam.families import Verdict
from nulldiam.graphs import _swap_class_ids

from helpers import (
    augment_by_deletion_check,
    automorphism_count,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gf2_rank,
    is_cut_vertex,
    labeled_connected_count,
    min_perm_graph6,
    random_graph,
    reduce_by_rescan,
    refinement_cells_by_rounds,
    refinement_cells_by_sorted_lists,
    relabel,
    star_graph,
)

CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)


def untimed(report: enumeration.SweepReport) -> dict:
    """The report as a dict without its timings, which vary between runs."""
    out = report.to_dict()
    del out["timings"]
    return out


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        rng = random.Random(11)
        for trial in range(40):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_separates_non_isomorphic(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(star_graph(4))

    def test_classes_match_min_perm_oracle(self, census7):
        # same equivalence classes as the brute-force minimum over all
        # labelings, checked on every pair of small census representatives
        for n in range(1, 6):
            forms = [canonical_form(g) for g in census7[n]]
            oracle = [min_perm_graph6(g) for g in census7[n]]
            assert len(set(forms)) == len(forms)
            assert len(set(oracle)) == len(oracle)

    def test_canonical_graph_is_isomorphic_relabelling(self):
        rng = random.Random(3)
        for trial in range(20):
            g = random_graph(rng, rng.randint(1, 8))
            cg = canonical_graph(g)
            assert canonical_form(cg) == canonical_form(g)
            assert sorted(r.bit_count() for r in cg.rows) == sorted(r.bit_count() for r in g.rows)

    def test_tier_limit(self):
        big = path_graph(11)
        with pytest.raises(CanonicalSizeError):
            canonical_form(big)
        assert canonical_form(big, limit=11)

    def test_highly_symmetric_graphs_are_fast(self):
        # swap-class pruning collapses the factorial search on cliques
        assert canonical_form(complete_graph(10))
        assert canonical_form(complete_bipartite(5, 5))

    def test_refinement_cells_are_invariant(self):
        g = star_graph(5)
        cells = _refinement_cells(g.rows)
        assert [sorted(c) for c in cells] == [[1, 2, 3, 4], [0]]

    def test_refinement_matches_the_round_by_round_oracle(self, monkeypatch):
        # every graph that the sweep's census up to n = 8 refines (3,732),
        # then random graphs up to n = 10: the same cells in the same order
        refined = []

        def recording(rows):
            refined.append(tuple(rows))
            return _refinement_cells(rows)

        monkeypatch.setattr(enumeration, "_refinement_cells", recording)
        with stream.ordered_map(1) as pmap:
            for level in enumeration._census_levels(8, pmap, canonical=False):
                for _ in level:
                    pass
        assert len(refined) > 3_000
        rng = random.Random(9)
        refined += [random_graph(rng, rng.randint(1, 10), rng.random()).rows for _ in range(2_000)]
        for rows in refined:
            assert _refinement_cells(rows) == refinement_cells_by_rounds(rows), rows

    def test_swap_classes(self):
        assert _swap_class_ids(star_graph(4).rows) == [0, 1, 1, 1]
        assert _swap_class_ids(path_graph(3).rows) == [0, 1, 0]


class TestCensus:
    def test_counts_match_published_values(self, census7):
        for n, expected in enumerate(CONNECTED_CLASS_COUNTS, start=1):
            assert len(census7[n]) == expected

    def test_no_duplicate_canonical_forms(self, census7):
        for n in range(1, 8):
            forms = [canonical_form(g) for g in census7[n]]
            assert len(set(forms)) == len(forms)

    def test_all_connected_with_exact_order(self, census7):
        for n in range(1, 8):
            for g in census7[n]:
                assert g.n == n
                assert g.is_connected()

    def test_deterministic_order(self):
        assert [g.rows for g in connected_graphs(5)] == [g.rows for g in connected_graphs(5)]

    def test_matches_direct_labelled_dedup(self):
        # independent oracle: enumerate every labelled connected graph and
        # deduplicate by brute-force minimum graph6 over all labelings
        for n in range(1, 6):
            classes = set()
            for edges in itertools.product(
                (0, 1), repeat=n * (n - 1) // 2
            ):
                pairs = list(itertools.combinations(range(n), 2))
                g = Graph.from_edges(n, [p for p, on in zip(pairs, edges) if on])
                if g.is_connected():
                    classes.add(min_perm_graph6(g))
            assert len(classes) == CONNECTED_CLASS_COUNTS[n - 1]

    def test_orbit_stabilizer_consistency(self, census7):
        # sum of n!/|Aut| over class representatives = labelled count
        import math

        for n in range(2, 7):
            total = sum(
                math.factorial(n) // automorphism_count(g.rows) for g in census7[n]
            )
            assert total == labeled_connected_count(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            list(connected_graphs(10))

    def test_parallel_census_matches_serial(self, two_cpus):
        serial = [to_graph6(g) for g in connected_graphs(7)]
        assert not two_cpus
        parallel = [to_graph6(g) for g in connected_graphs(7, jobs=2)]
        assert len(two_cpus) == 1
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, cpus, started", [(10**9, 3, 3), (2, 8, 2), (4, None, None), (5, 1, None)]
    )
    def test_pool_never_outnumbers_the_cpus(self, monkeypatch, jobs, cpus, started):
        # the stub only records the pool size it is asked for; no process starts
        import multiprocessing

        sizes = []
        windows = []

        class StubPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize):
                windows.append(items)
                return map(func, items)

        monkeypatch.setattr(multiprocessing, "get_context", lambda: SimpleNamespace(Pool=StubPool))
        monkeypatch.setattr(stream.os, "cpu_count", lambda: cpus)
        with stream.ordered_map(jobs) as pmap:
            assert list(pmap(abs, iter([-2, 1, -3]), 2)) == [2, 1, 3]
        assert sizes == ([] if started is None else [started])
        # a pool takes the iterator one window at a time; one worker needs no pool
        assert windows == ([] if started is None else [[-2, 1], [-3]])

    def test_pool_map_accepts_a_generator_that_uses_it(self):
        # the inner map's windows run while the outer one takes its items;
        # a fresh interpreter with a timeout, so a deadlock fails the test
        # instead of hanging the suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        script = (
            "import operator, sys\n"
            "from nulldiam import stream\n"
            "stream.os.cpu_count = lambda: 2\n"
            "with stream.ordered_map(2) as pmap:\n"
            "    inner = pmap(operator.neg, range(100), 7)\n"
            "    print(list(pmap(abs, inner, 5)), 'multiprocessing' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"{list(range(100))} True"

    def test_census_graphs_are_canonically_labelled(self):
        for n in range(1, 9):
            for g in connected_graphs(n):
                assert _canonical_rows(g.rows) == g.rows

    def test_search_automorphisms_give_the_full_groups_orbits(self, census_rows8, carried_parents7):
        # the premise of the mask orbits and of the unsearched last level:
        # on every parent the census extends up to n = 8, the generators it
        # carries from the child search have the attachment-set orbits of
        # the full group
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for n in range(2, 8):
            assert [rows for rows, _ in carried_parents7[n]] == census_rows8[n]
            for rows, gens in carried_parents7[n]:
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from((u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1)
                group = [tuple(m[v] for v in range(n)) for m in GraphMatcher(h, h).isomorphisms_iter()]
                masks = range(1, 1 << n)
                assert _mask_orbit_reps(masks, gens) == _mask_orbit_reps(masks, group)

    def test_orbit_rule_matches_the_deletion_check(self, carried_parents7):
        # each parent up to n = 7 gives the classes that the deletion check
        # by canonical form accepts, each exactly once
        for n in range(2, 8):
            for parent in carried_parents7[n]:
                kept = [rows for rows, _ in _augment_parent(parent)[0]]
                assert len(set(kept)) == len(kept)
                assert set(kept) == set(augment_by_deletion_check(parent[0])), parent[0]

    def test_twin_and_cell_rules_agree_with_the_search(self, carried_parents7):
        # every child of every parent up to n = 7 whose new vertex k has the
        # top key: where the twin or cell rule settles the orbit test, the
        # full search's orbit test gives the same verdict
        settled = collections.Counter()
        for n in range(1, 8):
            for rows, gens in carried_parents7[n]:
                for mask in _mask_orbit_reps(range(1, 1 << n), gens):
                    child = (*(r | (mask >> v & 1) << n for v, r in enumerate(rows)), mask)
                    deg = [r.bit_count() for r in child]
                    keys = {
                        v: (deg[v], sorted(deg[u] for u in range(n + 1) if child[v] >> u & 1))
                        for v in range(n + 1)
                        if not is_cut_vertex(child, v)
                    }
                    top = max(keys.values())
                    if keys[n] != top:
                        continue
                    ties = [n] + [v for v in range(n) if keys.get(v) == top]
                    stars, cells, swap = _star_candidates(child, ties)
                    if len(ties) == 1 or n in stars and len(stars) > 1:
                        continue  # the lone tie, or left to the search
                    assert cells in (None, _refinement_cells(child))
                    assert swap == _swap_class_ids(child)
                    _, lab, autos = _min_columns(child)
                    star = max(ties, key=lab.index)
                    orbit, frontier = {n}, {n}
                    while frontier:
                        frontier = {p[v] for p in autos for v in frontier} - orbit
                        orbit |= frontier
                    assert (n in stars) == (star in orbit), (rows, mask)
                    rule = "twins" if cells is None else "cells keep" if n in stars else "cells reject"
                    settled[rule] += 1
        assert set(settled) == {"twins", "cells keep", "cells reject"}

    def test_key_codes_and_cut_status_come_from_the_parent(self, carried_parents7):
        # every orbit-representative child of every parent up to n = 7: the
        # key test's per-parent data gives the child's cut vertices and
        # orders its vertices as (degree, sorted neighbour degrees) does
        def dense(keys):
            ranks = sorted(set(keys))
            return [ranks.index(key) for key in keys]

        for n in range(1, 8):
            for rows, gens in carried_parents7[n]:
                table = _key_table(rows)
                comps = _split_components(rows)
                for mask in _mask_orbit_reps(range(1, 1 << n), gens):
                    child = (*(r | (mask >> v & 1) << n for v, r in enumerate(rows)), mask)
                    deg = [r.bit_count() for r in child]
                    cut = [not all(mask & c for c in comps[v]) for v in range(n)] + [False]
                    assert cut == [is_cut_vertex(child, v) for v in range(n + 1)], (rows, mask)
                    codes = [
                        (table[r & ~mask] << 4) + table[r & mask] + ((mask >> v & 1) << 4 * (n + 1 - deg[n]))
                        for v, r in enumerate(rows)
                    ] + [table[mask]]
                    keys = [
                        (deg[v], tuple(sorted(deg[u] for u in range(n + 1) if child[v] >> u & 1)))
                        for v in range(n + 1)
                    ]
                    assert dense([(deg[v], -codes[v]) for v in range(n + 1)]) == dense(keys), (rows, mask)

    def test_survivors_match_the_size_test_on_every_parent(self, census_rows8):
        # the masks that _augment_parent hands to the orbit pruning, on every
        # parent up to n = 8, equal the size test on all 2^k - 1 masks
        for level in census_rows8.values():
            for rows in level:
                k = len(rows)
                comps = _split_components(rows)
                noncut = [v for v in range(k) if len(comps[v]) < 2]
                floor = max(rows[v].bit_count() for v in noncut)
                floor_mask = sum(1 << v for v in noncut if rows[v].bit_count() == floor)
                expected = [m for m in range(1, 1 << k) if not 1 < m.bit_count() < floor + bool(m & floor_mask)]
                assert list(_survivors(k, floor, floor_mask)) == expected, rows

    def test_level_eight_counters(self, carried_parents7):
        # (masks, rejected by key, rejected by cells, searches, accepted
        # without search, orbit tests, accepted) over the n = 8 level, as
        # the sweep builds it (README) and as connected_graphs does
        for canonical, counts in (
            (False, (24_134, 12_147, 846, 1_105, 10_036, 142, 11_117)),
            (True, (24_134, 12_147, 846, 11_141, 0, 142, 11_117)),
        ):
            totals = [0] * 7
            for parent in carried_parents7[7]:
                totals = [a + b for a, b in zip(totals, _augment_parent(parent, True, canonical)[1])]
            assert tuple(totals) == counts

    def test_unsearched_last_level_matches_the_full_search(self, carried_parents7):
        # each order as the sweep's last level: the same classes in the same
        # order as with a search for every child
        for n in range(2, 9):
            with stream.ordered_map(1) as pmap:
                *_, raw = enumeration._census_levels(n, pmap, canonical=False)
                raw = list(raw)
            canon = [_canonical_rows(rows) for rows in raw]
            assert len(set(canon)) == len(raw) == (*CONNECTED_CLASS_COUNTS, 11117)[n - 1]
            if n >= 5:
                assert sum(c != r for c, r in zip(canon, raw)) > 0  # some children skipped the search
            assert canon == [
                child for parent in carried_parents7[n - 1] for child in _augment_parent(parent, last=True)[0]
            ]

    def test_matches_networkx_atlas(self, census7):
        # independent oracle: the atlas lists every graph on up to 7 vertices
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set[bytes]] = {}
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() and nx.is_connected(h):
                g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
                atlas.setdefault(g.n, set()).add(canonical_form(g))
        assert len(atlas[7]) == 853
        for n in range(1, 8):
            assert {canonical_form(g) for g in census7[n]} == atlas[n]

    def test_level_counters_are_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="nulldiam.enumeration"):
            assert sum(1 for _ in connected_graphs(5)) == 21
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("census n=")]
        assert len(lines) == 4
        assert lines[-1].startswith("census n=5: 6 parents,") and lines[-1].endswith(" 21 accepted")

    def test_only_the_sweeps_last_level_skips_searches(self, caplog):
        with caplog.at_level(logging.INFO, logger="nulldiam.enumeration"):
            assert sum(1 for _ in connected_graphs(5)) == 21
            verify_theorem(5, 5)
        pattern = re.compile(
            r"census n=\d+: \d+ parents, (\d+) masks after orbit pruning, (\d+) rejected by key, "
            r"(\d+) rejected by cells, (\d+) canonical searches, (\d+) accepted without search, "
            r"\d+ orbit tests, 21 accepted"
        )
        counts = [
            [int(x) for x in pattern.fullmatch(r.getMessage()).groups()]
            for r in caplog.records
            if r.getMessage().startswith("census n=5")
        ]
        # every mask is rejected by key or by cells, searched once, or kept unsearched
        for masks, by_key, by_cells, searched, unsearched in counts:
            assert masks == by_key + by_cells + searched + unsearched
        # connected_graphs promises canonical labelling, so it searches every
        # kept child; the sweep keeps 17 of the 21 as built
        assert [c[4] for c in counts] == [0, 17]


class TestIngest:
    def test_parses_in_order(self):
        records = list(ingest_graph6_stream(io.StringIO("A_\n@\n")))
        assert [(r.line_no, r.graph.n) for r in records] == [(1, 2), (2, 1)]

    def test_error_records_continue_the_stream(self):
        records = list(ingest_graph6_stream(io.StringIO("A_\nA\x05\nC~\n")))
        assert records[0].graph is not None
        assert records[1].error is not None and records[1].line_no == 2
        assert records[2].graph == parse_graph6("C~")

    def test_blank_lines_are_skipped(self):
        records = list(ingest_graph6_stream(io.StringIO("\nA_\n\n")))
        assert len(records) == 1 and records[0].line_no == 2

    def test_empty_stream(self):
        assert list(ingest_graph6_stream(io.StringIO(""))) == []

    def test_only_ascii_whitespace_is_stripped(self):
        [record] = ingest_graph6_stream([string.whitespace + "A_" + string.whitespace])
        assert record.text == "A_" and record.error is None
        [record] = ingest_graph6_stream(["\xa0A_\x1c"])
        assert record.text == "\xa0A_\x1c" and record.error.startswith("charset:")

    def test_records_compare_equal_after_a_pickle_round_trip(self):
        # ordered_map sends the records to its pool workers pickled
        records = list(ingest_graph6_stream(io.StringIO("A_\nA\x05\nC~\n")))
        assert [r.error is None for r in records] == [True, False, True]
        assert pickle.loads(pickle.dumps(records)) == records

    def test_file_header_is_removed_from_line_one_only(self):
        headed = list(ingest_graph6_stream(io.StringIO(">>graph6<<A_\n>>graph6<<A_\n")))
        assert headed[0] == next(ingest_graph6_stream(io.StringIO("A_\n")))
        assert headed[1].line_no == 2 and headed[1].error.startswith("charset:")
        # a header with nothing after it is a blank line
        alone = list(ingest_graph6_stream(io.StringIO(">>graph6<<\nA_\n")))
        assert [(r.line_no, r.text) for r in alone] == [(2, "A_")]


class TestVerifyTheorem:
    def test_empty_range(self):
        report = verify_theorem(3, 2)
        assert report.per_n == {}
        assert report.mismatches == []

    def test_single_level_six(self):
        report = verify_theorem(6, 6)
        totals = report.per_n[6]
        assert totals.connected == 112
        assert totals.even_extremal == 1
        assert totals.recognized == 1
        assert report.mismatches == []
        [rec] = report.recognized
        expected = canonical_form(path_graph(5).with_vertex(0b00111)).decode()
        assert rec["graph6"] == expected

    def test_progress_is_logged_after_each_batch(self, caplog, census7):
        with caplog.at_level(logging.INFO, logger="nulldiam.enumeration"):
            verify_theorem(1, 5)
        pattern = re.compile(
            r"sweep n=(\d+): (\d+) graphs evaluated, \d+ graphs/s, (\d+) exact ranks"
        )
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep n=")]
        progress = [pattern.fullmatch(line).groups() for line in lines]
        assert [p[:2] for p in progress] == [
            (str(n), str(c)) for n, c in zip(range(1, 6), CONNECTED_CLASS_COUNTS)
        ]
        # an exact rank is taken where the GF(2) rank leaves rank = d + 1 open
        assert [int(p[2]) for p in progress] == [
            sum(gf2_rank(adjacency_matrix(g).entries) <= diameter(g) + 1 for g in census7[n])
            for n in range(1, 6)
        ]

    def test_single_job_sweep_streams_the_last_level(self, monkeypatch):
        # with one job nothing is batched: the first n = 6 graph is
        # evaluated before the last n = 5 parent is expanded
        calls = []
        augment, evaluate = enumeration._augment_parent, enumeration._evaluate_graph

        def logged_augment(parent, **kwargs):
            calls.append(("expand", len(parent[0])))
            return augment(parent, **kwargs)

        def logged_evaluate(rows, suites):
            calls.append(("evaluate", len(rows)))
            return evaluate(rows, suites)

        monkeypatch.setattr(enumeration, "_augment_parent", logged_augment)
        monkeypatch.setattr(enumeration, "_evaluate_graph", logged_evaluate)
        assert verify_theorem(1, 6).per_n[6].connected == 112
        last_expand = max(i for i, call in enumerate(calls) if call == ("expand", 5))
        assert calls.count(("expand", 5)) == 21
        assert calls.index(("evaluate", 6)) < last_expand

    @pytest.mark.parametrize("verdict, field", [(Verdict.MISMATCH, "mismatches")])
    def test_witness_lists_carry_graph6(self, monkeypatch, verdict, field):
        # a recognizer that accepts nothing makes every candidate a witness
        result = type("Result", (), {"verdict": verdict})()
        monkeypatch.setattr(enumeration, "recognize", lambda g, d=None: result)
        expected = canonical_form(path_graph(5).with_vertex(0b00111)).decode()
        assert getattr(verify_theorem(6, 6), field) == [expected]
        unreduced = verify_theorem(7, 7).unreduced_failures
        assert unreduced
        for text in unreduced:
            g = parse_graph6(text)
            assert g.n == 7 and not is_reduced(g)

    def test_unreduced_failures_follow_the_reduced_verdict(self, monkeypatch, census7):
        # with a recognizer that rejects every even-diameter extremal graph,
        # the witnesses are exactly the unreduced even-diameter extremal
        # graphs whose reduction is even-diameter extremal
        real = enumeration.recognize

        def rejecting(g):
            result = real(g)
            if result.verdict is Verdict.EVEN_EXTREMAL:
                return result._replace(verdict=Verdict.MISMATCH)
            return result

        def even_extremal(g):
            d = diameter(g)
            return d >= 2 and d % 2 == 0 and nullity(g) == g.n - d - 1

        expected = sorted(
            to_graph6(g)
            for g in census7[7]
            if not is_reduced(g) and even_extremal(g) and even_extremal(reduce_by_rescan(g)[0])
        )
        monkeypatch.setattr(enumeration, "recognize", rejecting)
        assert expected
        assert sorted(verify_theorem(7, 7).unreduced_failures) == expected

    def test_extremal_flag_matches_nullity_on_census8(self, census8):
        for level in census8.values():
            for g in level:
                rec = enumeration._evaluate_graph(g.rows, ())
                assert rec["extremal"] == (nullity(g) == g.n - diameter(g) - 1), to_graph6(g)

    def test_records_do_not_depend_on_the_labelling(self, census7):
        # the last census level is partly as built, so a folded report must
        # come out the same from any labelling of its graphs, with the
        # suites and without them, where the certificate skips the table
        for suites in (ALL_SUITES, ()):
            rng = random.Random(5)
            folded = []
            for relabelled in (False, True):
                report = enumeration.SweepReport(6, 7, suites)
                for g in census7[6] + census7[7]:
                    if relabelled:
                        perm = list(range(g.n))
                        rng.shuffle(perm)
                        g = relabel(g, perm)
                    enumeration._fold_record(report, enumeration._evaluate_graph(g.rows, suites))
                folded.append(untimed(report))
            assert folded[0]["recognized"]
            if suites:
                assert folded[0]["lemma_summaries"]["reduction-equivalence"]["violations"]
            assert folded[0] == folded[1]

    def test_certificate_falls_through_to_the_exact_rank(self):
        # K_3: d = 1 and rank_GF2 = 2 = d + 1 rule nothing out, and only the
        # rational rank 3 shows that it is not extremal
        rec = enumeration._evaluate_graph(complete_graph(3).rows, ())
        assert rec["exact_rank"] and not rec["extremal"]

    def test_lemma_suite_aggregation(self):
        report = verify_theorem(1, 5, suites=("reduction-equivalence",))
        summary = report.lemma_summaries["reduction-equivalence"]
        assert summary["graphs"] == 31
        assert summary["violations"]
        assert all(
            v["witness"]["d_reduced"] < v["witness"]["d"] for v in summary["violations"]
        )
        assert summary["diameter_changed"]

    def test_sharded_run_folds_to_identical_report(self, two_cpus):
        for suites in ((), ("pendant-deletion",), ALL_SUITES):
            serial = verify_theorem(1, 6, suites=suites, jobs=1)
            opened = len(two_cpus)
            sharded = verify_theorem(1, 6, suites=suites, jobs=2)
            assert len(two_cpus) == opened + 1
            assert untimed(serial) == untimed(sharded)

    def test_a_suite_named_twice_runs_and_is_listed_once(self, monkeypatch):
        calls = []
        real = enumeration.lemmas.run_suite
        monkeypatch.setattr(
            enumeration.lemmas, "run_suite", lambda *args: calls.append(args[0]) or real(*args)
        )
        reports = []
        once = ("interlacing", "pendant-deletion")
        for suites in (once, once + ("interlacing",)):
            calls.clear()
            report = untimed(verify_theorem(1, 5, suites=suites))
            reports.append((report, sorted(calls)))
        assert reports[0][0]["suites"] == ["interlacing", "pendant-deletion"]
        assert reports[1] == reports[0]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suites"):
            verify_theorem(1, 3, suites=("bogus",))

    def test_census_cap(self):
        with pytest.raises(ValueError, match="census"):
            verify_theorem(1, 10)


@settings(max_examples=60)
@given(st.data())
def test_min_columns_labelling_and_automorphisms(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1]).rows
    cols, lab, autos = _min_columns(rows)
    # the labelling lists the vertex at each canonical position
    assert sorted(lab) == list(range(n))
    assert relabel(Graph(rows), lab).rows == _canonical_rows(rows)
    for perm in autos:
        assert sorted(perm) == list(range(n))
        assert all(
            (rows[u] >> v & 1) == (rows[perm[u]] >> perm[v] & 1) for u in range(n) for v in range(n)
        )


@settings(max_examples=200)
@given(st.data())
def test_refinement_cells_match_sorted_list_keys(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1]).rows
    assert _refinement_cells(rows) == refinement_cells_by_sorted_lists(rows)


@settings(max_examples=30)
@given(st.data())
def test_canonical_form_property(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(relabel(g, list(perm)))


@settings(max_examples=60)
@given(st.data())
def test_carried_generators_are_automorphisms_of_the_canonical_rows(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1]).rows
    cols, lab, autos = _min_columns(rows)
    canon = _rows_from_columns(cols)
    for gen in _canonical_gens(lab, autos):
        assert isinstance(gen, bytes) and sorted(gen) == list(range(n))
        assert all(
            (canon[u] >> v & 1) == (canon[gen[u]] >> gen[v] & 1) for u in range(n) for v in range(n)
        )
