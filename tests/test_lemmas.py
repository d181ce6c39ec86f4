import json
import pickle
import random
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldiam import (
    DisconnectedGraphError,
    Graph,
    canonical_graph,
    check_interlacing,
    check_pendant_deletion,
    check_rank_bound_diam,
    check_rank_lower_bound,
    check_reduction_equivalence,
    check_twin_deletion,
    check_twin_extension,
    diameter,
    diameter_paths,
    nullity,
    path_graph,
    pendant_pairs,
    rank_exact,
    recognize,
    run_suite,
    to_graph6,
    twin_classes,
    verify_theorem,
)
from nulldiam import enumeration, lemmas
from nulldiam.lemmas import ALL_SUITES, MAX_OUTSIDE_SWEEP
from nulldiam.linalg import rank_gf2, rank_gf3

from helpers import (
    complete_graph,
    cycle_graph,
    distinct_nonzero_rows,
    fraction_rank,
    gf2_rank,
    rank_mod_p,
    relabel,
    star_graph,
)


def p5_with_triple_anchor() -> Graph:
    return path_graph(5).with_vertex(0b00111)


class TestInterlacing:
    def test_path5(self):
        report = check_interlacing(path_graph(5))
        assert report.ok
        assert report.checked == 25  # five vertices at each of five mu

    def test_cycle4(self):
        assert check_interlacing(cycle_graph(4)).ok

    def test_exhaustive_small(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                assert check_interlacing(g).ok


class TestTwinDeletion:
    def test_cycle4(self):
        report = check_twin_deletion(cycle_graph(4))
        assert report.ok
        assert report.checked == 4  # two twin pairs, two deletions each

    def test_star(self):
        assert check_twin_deletion(star_graph(4)).ok

    def test_reduced_graph_is_vacuous(self):
        report = check_twin_deletion(path_graph(4))
        assert report.ok
        assert report.checked == 0

    def test_exhaustive_small(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                assert check_twin_deletion(g).ok


class TestPendantDeletion:
    def test_path5(self):
        report = check_pendant_deletion(path_graph(5))
        assert report.ok
        assert report.checked == 2

    def test_pendant_off_a_path_counts_both_components(self):
        g = path_graph(5).with_vertex(0b00010)  # extra pendant at the second path vertex
        assert nullity(g) == 2
        assert nullity(g.without(5, 1)) == 2  # K_1 + P_3
        assert check_pendant_deletion(g).ok

    def test_k2_leaves_empty_graph(self):
        report = check_pendant_deletion(complete_graph(2))
        assert report.ok
        assert report.checked == 2

    def test_support_only_form_is_tracked_not_asserted(self):
        report = check_pendant_deletion(path_graph(5))
        notes = report.notes["instances"]
        assert all(not inst["support_only_form_holds"] for inst in notes)
        assert all(inst["eta_without_support"] == inst["eta"] + 1 for inst in notes)

    def test_exhaustive_small(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                assert check_pendant_deletion(g).ok


class TestRankBound:
    def test_extremal_instance_sweeps_both_subsets(self):
        report = check_rank_bound_diam(p5_with_triple_anchor())
        assert report.ok
        assert report.skipped is None
        assert report.checked == 2

    def test_non_extremal_is_skipped(self):
        report = check_rank_bound_diam(path_graph(5))
        assert report.skipped is not None
        assert report.checked == 0

    def test_exhaustive_small(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                assert check_rank_bound_diam(g).ok


class TestTwinExtension:
    def test_extremal_instance(self):
        report = check_twin_extension(p5_with_triple_anchor())
        assert report.ok
        assert report.skipped is None

    def test_non_extremal_is_skipped(self):
        assert check_twin_extension(cycle_graph(5)).skipped is not None

    def test_exhaustive_small(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                assert check_twin_extension(g).ok


class TestReductionEquivalence:
    def test_cycle4_is_a_counterexample(self):
        report = check_reduction_equivalence(cycle_graph(4))
        assert not report.ok
        [violation] = report.violations
        assert violation.severity == "violation"
        assert violation.witness["d"] == 2
        assert violation.witness["d_reduced"] == 1
        assert report.notes["diameter"]["changed"]

    def test_reduced_graph_is_consistent(self):
        assert check_reduction_equivalence(path_graph(5)).ok

    def test_duplicated_pendant_keeps_diameter_and_consistency(self):
        g = path_graph(5).with_vertex(0b00010)
        report = check_reduction_equivalence(g)
        assert report.ok
        assert not report.notes["diameter"]["changed"]

    def test_single_vertex_is_skipped(self):
        assert check_reduction_equivalence(complete_graph(1)).skipped is not None

    def test_every_violation_at_small_order_drops_diameter(self, census7):
        seen_violation = False
        for n in range(2, 7):
            for g in census7[n]:
                report = check_reduction_equivalence(g)
                for violation in report.violations:
                    seen_violation = True
                    assert violation.witness["d_reduced"] < violation.witness["d"]
                    assert violation.severity == "violation"
        assert seen_violation


class TestRankLowerBound:
    def test_even_path_attains_the_bound(self):
        for m in (4, 6):
            report = check_rank_lower_bound(path_graph(m))
            assert report.ok
            assert report.notes["odd_extremal"]

    def test_even_diameter_is_skipped(self):
        assert check_rank_lower_bound(cycle_graph(4)).skipped == "diameter is even"

    def test_exhaustive_small(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                assert check_rank_lower_bound(g).ok


class TestReports:
    def test_reports_are_deterministic(self):
        a = check_reduction_equivalence(cycle_graph(4)).to_dict()
        b = check_reduction_equivalence(cycle_graph(4)).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_violation_serialization_shape(self):
        report = check_reduction_equivalence(cycle_graph(4))
        payload = report.to_dict()
        assert set(payload) == {
            "lemma",
            "graph6",
            "checked",
            "violations",
            "skipped",
            "truncated",
            "notes",
        }
        [violation] = payload["violations"]
        assert set(violation) == {"lemma", "graph6", "witness", "expected", "observed", "severity"}

    def test_reports_compare_equal_after_a_pickle_round_trip(self):
        # the sweep's pool workers send their reports back pickled
        # (one of them carries a violation)
        for name in ALL_SUITES:
            report = run_suite(name, cycle_graph(4))
            assert report.graph6 == "Cl"  # the encoding, once read, is kept but is not compared
            assert pickle.loads(pickle.dumps(report)) == report == run_suite(name, cycle_graph(4))
        assert check_reduction_equivalence(cycle_graph(4)).violations
        assert check_reduction_equivalence(cycle_graph(4)) != check_reduction_equivalence(cycle_graph(5))

    def test_run_suite_dispatch(self):
        assert run_suite("interlacing", path_graph(3)).lemma == "interlacing"
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense", path_graph(3))

    def test_empty_graph_is_skipped_at_the_connectivity_gate(self):
        for name in ("rank-bound", "twin-extension", "rank-lower-bound"):
            assert run_suite(name, Graph(())).skipped == "graph is disconnected"

    def test_all_suites_cover_every_checker(self):
        for name in ALL_SUITES:
            report = run_suite(name, path_graph(4))
            assert report.lemma == name


# ---------------------------------------------------------------------------
# Deletion-rank oracles: the suites rank principal submatrices of one matrix
# per graph; these references rebuild every deleted or induced graph with
# ``Graph.without``/``Graph.induced`` and rank it over the rationals.
# ---------------------------------------------------------------------------


def shifted_entries(g: Graph, mu: int = 0) -> list[list[int]]:
    """A(g) - mu*I read off the bit rows, as plain lists."""
    return [[(g.rows[i] >> j & 1) - (mu if i == j else 0) for j in range(g.n)] for i in range(g.n)]


def oracle_rank(g: Graph, ranks: list) -> int:
    """rank(A(g)) over the rationals, logged to ``ranks`` as (order, rank)."""
    ranks.append((g.n, fraction_rank(shifted_entries(g))))
    return ranks[-1][1]


def oracle_report(lemma, g, checked=0, violations=(), skipped=None, notes=None) -> dict:
    g6 = to_graph6(g)
    return {
        "lemma": lemma,
        "graph6": g6,
        "checked": checked,
        "violations": [
            {"lemma": lemma, "graph6": g6, "witness": w, "expected": e, "observed": o,
             "severity": "violation"}
            for w, e, o in violations
        ],
        "skipped": skipped,
        "truncated": False,
        "notes": notes or {},
    }


def oracle_twin_deletion(g: Graph, ranks: list) -> dict:
    eta = g.n - oracle_rank(g, ranks)
    checked, violations = 0, []
    for cls in twin_classes(g):
        for u, v in combinations(cls, 2):
            for victim in (u, v):
                eta_del = g.n - 1 - oracle_rank(g.without(victim), ranks)
                checked += 1
                if eta != eta_del + 1:
                    violations.append((
                        {"twins": [u, v], "deleted": victim},
                        "eta(G) = eta(G - twin) + 1",
                        f"eta(G)={eta}, eta(G-{victim})={eta_del}",
                    ))
    return oracle_report("twin-deletion", g, checked, violations)


def oracle_pendant_deletion(g: Graph, ranks: list) -> dict:
    eta = g.n - oracle_rank(g, ranks)
    violations, instances = [], []
    for u, w in pendant_pairs(g):
        eta_pair = g.n - 2 - oracle_rank(g.without(u, w), ranks)
        eta_support = g.n - 1 - oracle_rank(g.without(w), ranks)
        if eta != eta_pair:
            violations.append((
                {"pendant": u, "support": w},
                "eta(G) = eta(G - pendant - support)",
                f"eta(G)={eta}, eta(G-u-w)={eta_pair}",
            ))
        instances.append({
            "pendant": u,
            "support": w,
            "eta": eta,
            "eta_without_pair": eta_pair,
            "eta_without_support": eta_support,
            "support_only_form_holds": eta == eta_support,
        })
    return oracle_report(
        "pendant-deletion", g, len(instances), violations, notes={"instances": instances}
    )


def oracle_gate(g: Graph, ranks: list) -> tuple[str | None, int]:
    """Why the rank-bound and twin-extension sweeps skip ``g`` (or None),
    and rank(A(g)) when they do not."""
    if not g.is_connected():
        return "graph is disconnected", 0
    d, rank_g = diameter(g), oracle_rank(g, ranks)
    if rank_g != d + 1:
        return f"eta={g.n - rank_g} != n-d-1={g.n - d - 1}", rank_g
    return None, rank_g


def oracle_subgraphs(g: Graph, ranks: list):
    """(path, chosen, rank of the subgraph induced on path + chosen) for
    every subset ``chosen`` of the vertices off one diameter path."""
    path = list(diameter_paths(g, limit=1)[0])
    outside = [v for v in range(g.n) if v not in path]
    assert len(outside) <= MAX_OUTSIDE_SWEEP
    for mask in range(1 << len(outside)):
        chosen = [v for i, v in enumerate(outside) if mask >> i & 1]
        yield path, chosen, oracle_rank(g.induced(path + chosen), ranks)


def oracle_rank_bound(g: Graph, ranks: list) -> dict:
    skipped, rank_g = oracle_gate(g, ranks)
    if skipped:
        return oracle_report("rank-bound", g, skipped=skipped)
    checked, violations = 0, []
    for path, chosen, rank_h in oracle_subgraphs(g, ranks):
        checked += 1
        if rank_h < rank_g - 1:
            violations.append((
                {"path": path, "extra_vertices": chosen},
                "rank(A(H)) >= rank(A(G)) - 1",
                f"rank(H)={rank_h}, rank(G)={rank_g}",
            ))
    return oracle_report("rank-bound", g, checked, violations)


def oracle_twin_extension(g: Graph, ranks: list) -> dict:
    skipped, rank_g = oracle_gate(g, ranks)
    if skipped:
        return oracle_report("twin-extension", g, skipped=skipped)
    checked, violations = 0, []
    for path, chosen, rank_h in oracle_subgraphs(g, ranks):
        if rank_h < rank_g - 1:
            continue
        in_h = sorted(path + chosen)
        out_h = [v for v in range(g.n) if v not in in_h]
        pairs = [(v, h) for v in out_h for h in in_h] + list(combinations(out_h, 2))
        for a, b in pairs:
            n_a, n_b = g.neighbor_list(a), g.neighbor_list(b)
            if g.has_edge(a, b) or set(n_a) & set(in_h) != set(n_b) & set(in_h):
                continue
            checked += 1
            if n_a != n_b:
                violations.append((
                    {"pair": [a, b], "subgraph": in_h},
                    "equal neighbourhoods in H imply equal neighbourhoods in G",
                    f"N({a})={n_a}, N({b})={n_b}",
                ))
    return oracle_report("twin-extension", g, checked, violations)


@pytest.fixture
def suite_ranks(monkeypatch) -> list:
    """(order, rank) of every matrix the lemma suites ask their graph's
    table for, in request order, whether or not the table had it already.
    The extremality test's own read of rank A(G) is left out: a gated suite
    reads A(G) again where it uses it, and the oracles rank G once."""
    ranks = []
    lookup = lemmas._GraphFacts.rank
    extremal = lemmas._GraphFacts.extremal.func
    paused = []

    def recording_rank(facts, mu, *drop):
        r = lookup(facts, mu, *drop)
        if not paused:
            ranks.append((facts.graph.n - len(drop), r))
        return r

    def unrecorded_extremal(facts):
        paused.append(facts)
        try:
            return extremal(facts)
        finally:
            paused.pop()

    monkeypatch.setattr(lemmas._GraphFacts, "rank", recording_rank)
    monkeypatch.setattr(lemmas._GraphFacts, "extremal", property(unrecorded_extremal))
    return ranks


class TestDeletionRankOracles:
    def test_interlacing_deletion_multiplicities(self, census7, suite_ranks):
        mus = (-2, -1, 0, 1, 2)
        for n in range(1, 7):
            for g in census7[n]:
                suite_ranks.clear()
                check_interlacing(g)
                expected = []
                for mu in mus:
                    expected.append(shifted_entries(g, mu))
                    expected += [shifted_entries(g.without(v), mu) for v in range(g.n)]
                assert [order - rank for order, rank in suite_ranks] == [
                    len(e) - fraction_rank(e) for e in expected
                ], to_graph6(g)

    @pytest.mark.parametrize(
        "check, oracle",
        [
            (check_twin_deletion, oracle_twin_deletion),
            (check_pendant_deletion, oracle_pendant_deletion),
            (check_rank_bound_diam, oracle_rank_bound),
            (check_twin_extension, oracle_twin_extension),
        ],
        ids=["twin-deletion", "pendant-deletion", "rank-bound", "twin-extension"],
    )
    def test_reports_match_rebuilt_subgraph_oracle(self, census7, suite_ranks, check, oracle):
        # the reports alone cannot tell a wrong submatrix when no instance
        # fails, so every rank taken is compared too
        for n in range(1, 8):
            for g in census7[n]:
                suite_ranks.clear()
                oracle_ranks = []
                assert check(g).to_dict() == oracle(g, oracle_ranks), to_graph6(g)
                assert suite_ranks == oracle_ranks, to_graph6(g)


def count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` in every nulldiam module that holds it with a wrapper
    that records the arguments of each call, and return the record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nulldiam":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestSharedTable:
    """The sweep and the suites of one graph share one table of matrices,
    ranks and its diameter; it must never leak from one graph to the next,
    and it must rank each distinct matrix once."""

    @staticmethod
    def all_reports(g: Graph) -> list[dict]:
        return [run_suite(name, g).to_dict() for name in ALL_SUITES]

    def test_interleaved_graphs_match_fresh_calls(self, census7):
        graphs = [g for n in range(1, 8) for g in census7[n]]
        fresh = {}
        for g in graphs:
            lemmas._facts.cache_clear()
            fresh[g] = self.all_reports(g)
        for a, b in zip(graphs[::2], graphs[1::2]):
            for g in (a, b, a):
                assert self.all_reports(g) == fresh[g], to_graph6(g)

    def test_sweep_records_match_fresh_calls(self, census7):
        # the sweep reads d and rank A(G) from the table before the suites,
        # and an extremal graph is canonicalized in between, so relabelled
        # copies of the extremal graphs give it a table for each labelling
        rng = random.Random(3)
        inputs = [g for n in range(1, 8) for g in census7[n]]
        inputs += [
            relabel(g, rng.sample(range(g.n), g.n))
            for g in inputs
            if g.n > 1 and enumeration._evaluate_graph(g.rows, ())["extremal"]
        ]
        fresh = {}
        for g in inputs:
            lemmas._facts.cache_clear()
            fresh[g] = enumeration._evaluate_graph(g.rows, ALL_SUITES)
        assert any(fresh[g]["extremal"] and canonical_graph(g) != g for g in inputs)
        for a, b in zip(inputs[::2], inputs[1::2]):
            for g in (a, b, a):
                assert enumeration._evaluate_graph(g.rows, ALL_SUITES) == fresh[g], to_graph6(g)

    def test_sweep_computes_each_diameter_once(self, monkeypatch):
        # the diameter of a graph that is not extremal is computed once for
        # the graph and once for its twin reduction (a single vertex has no
        # reduction).  When its suites run again on its canonical copy,
        # the copy's table takes its own diameter and the copy's reduction
        # one more; which graphs that is depends on the labelling the
        # census built them in.  Neither the suites nor the recognizer take
        # a nullity outside the table
        diameters = count_calls(monkeypatch, diameter)
        nullities = count_calls(monkeypatch, nullity)
        suite_runs = count_calls(monkeypatch, lemmas.run_suite)
        evaluate = enumeration._evaluate_graph
        per_graph = []

        def counting_evaluate(rows, suites):
            before, runs = len(diameters), len(suite_runs)
            rec = evaluate(rows, suites)
            reruns = (len(suite_runs) - runs) // len(ALL_SUITES) - 1
            per_graph.append((rec, len(diameters) - before, reruns))
            return rec

        monkeypatch.setattr(enumeration, "_evaluate_graph", counting_evaluate)
        verify_theorem(1, 6, suites=ALL_SUITES)
        with_suites = len(nullities)
        plain = [(rec["n"], calls, reruns) for rec, calls, reruns in per_graph if not rec["extremal"]]
        assert len(plain) == 120
        assert plain == [(n, 1 if n == 1 else 2 + 2 * reruns, reruns) for n, _, reruns in plain]
        assert sum(reruns for _, _, reruns in plain) == 1
        verify_theorem(1, 6)
        assert with_suites == len(nullities) == 0

    def test_sweep_without_suites_reads_d_only_where_it_is_open(self, monkeypatch):
        # with no suites a graph whose table decides extremality without its
        # diameter (the eccentricity certificate) gets no diameter, the
        # others get one.  A reduced even extremal graph whose canonical
        # copy has other rows gets one more, in the copy's table, which
        # recognize reads.  A non-reduced even extremal graph gets two more:
        # reduce takes its reduced graph's diameter, and recognize takes it
        # again in the reduced graph's own table
        diameters = count_calls(monkeypatch, diameter)
        evaluate = enumeration._evaluate_graph
        calls, expected = [], []

        def counting_evaluate(rows, suites):
            before = len(diameters)
            rec = evaluate(rows, suites)
            calls.append(len(diameters) - before)
            g = Graph(rows)
            facts = lemmas._GraphFacts(g)
            assert facts.extremal == rec["extremal"]
            even = rec["extremal"] and not rec["odd_extremal"]
            relabelled = even and rec["reduced"] and canonical_graph(g) != g
            expected.append(("diameter" in vars(facts)) + relabelled + 2 * (even and not rec["reduced"]))
            return rec

        monkeypatch.setattr(enumeration, "_evaluate_graph", counting_evaluate)
        verify_theorem(1, 8)
        assert calls == expected
        assert 0 < sum(calls) < len(calls) // 2 and set(calls) == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "args, counts",
        [
            # one GF(2) rank per table whose extremality or rank A(G) is
            # read: the 12,113 classes, the 36 twin reductions that
            # recognize reads, and the one canonical copy with other rows
            # than its class that recognize reads.  The exact rank A(G)
            # reuses it as its lower bound, so with no suites no GF(2) rank
            # is added, and 72 of the 566 open tables take rank A(G) from
            # the bounds (K_1 among them: its one row is zero).  A GF(3)
            # rank is read for each of the other 494, and settles 212 of
            # them.  The suites add one GF(2) rank per distinct matrix mod 2
            # of a table, one GF(3) rank per distinct matrix mod 3 where the
            # GF(2) rank falls short of the distinct nonzero rows, and
            # eliminate only where the GF(3) rank falls short too.  The
            # counts depend on the labelling the census builds the last
            # level in: the eccentricity certificate's BFS starts at the
            # first vertex of largest degree, and the suites run again on
            # the canonical copy of a graph with a violation or a changed
            # diameter.  Each deletion is keyed by its own rows
            ((1, 8), {"rank_gf2": 12_150, "rank_gf3": 494, "diameter": 1_462, "rank_exact": 282}),
            (
                (1, 7, ALL_SUITES),
                {"rank_gf2": 14_181, "rank_gf3": 14_932, "diameter": 2_050, "rank_exact": 8_224},
            ),
        ],
        ids=["no-suites-n8", "all-suites-n7"],
    )
    def test_sweep_calls_each_rank_and_diameter_once(self, monkeypatch, args, counts):
        fns = (rank_gf2, rank_gf3, diameter, rank_exact)
        calls = {fn.__name__: count_calls(monkeypatch, fn) for fn in fns}
        verify_theorem(*args)
        assert {name: len(made) for name, made in calls.items()} == counts

    def test_extremality_matches_the_oracles(self, census7):
        # eta = n - d - 1 by fraction-exact rank and networkx's diameter, on
        # every class and on a relabelling of each extremal one; the GF(2)
        # certificate decides some graphs and the exact rank the others
        def extremal(g: Graph) -> bool:
            d = nx.diameter(nx.from_dict_of_lists({v: g.neighbor_list(v) for v in range(g.n)}))
            return g.n - fraction_rank(shifted_entries(g)) == g.n - d - 1

        rng = random.Random(5)
        graphs = [g for n in range(1, 8) for g in census7[n]]
        graphs += [relabel(g, rng.sample(range(g.n), g.n)) for g in graphs if extremal(g)]
        branches = set()
        for g in graphs:
            lemmas._facts.cache_clear()
            facts = lemmas._facts(g)
            assert facts.extremal == extremal(g), to_graph6(g)
            branches.add((facts.rank_open, facts.extremal))
        assert branches == {(False, False), (True, False), (True, True)}

    def test_recognizer_reads_the_table(self, census7, monkeypatch):
        # once the sweep has read d and rank A(G), recognize takes them, and
        # its diameter path, from the table
        ranks = count_calls(monkeypatch, rank_exact)
        diameters = count_calls(monkeypatch, diameter)
        for n in range(1, 8):
            for g in census7[n]:
                facts = lemmas._facts(g)
                d, rank = facts.diameter, facts.rank(0)
                ranks.clear()
                diameters.clear()
                result = recognize(g)
                assert (ranks, diameters) == ([], []), to_graph6(g)
                assert (result.d, result.nullity) == (d, g.n - rank)

    def test_each_open_matrix_is_eliminated_once(self, census7, monkeypatch):
        # a request is (mu, entries).  The oracle settles it when the larger
        # of the GF(2) and GF(3) ranks of its entries equals their number
        # of distinct nonzero rows; the table must eliminate each distinct
        # request the oracle leaves open once and no settled one.  The empty
        # matrix, the one matrix that two values of mu share, is settled at
        # rank 0.  A deletion is requested under its own label
        requested, eliminated = [], []
        lookup = lemmas._GraphFacts.rank

        def recording_lookup(facts, mu, *drop):
            entries = shifted_entries(facts.graph.without(*drop), mu)
            requested.append((mu, tuple(map(tuple, entries))))
            return lookup(facts, mu, *drop)

        def counting_rank(m):
            eliminated.append(m.entries)
            return rank_exact(m)

        monkeypatch.setattr(lemmas._GraphFacts, "rank", recording_lookup)
        monkeypatch.setattr(lemmas, "rank_exact", counting_rank)
        shared = settled = opened = 0
        for n in range(1, 8):
            for g in census7[n]:
                lemmas._facts.cache_clear()
                requested.clear()
                eliminated.clear()
                self.all_reports(g)
                distinct = set(requested)
                open_ = {
                    entries
                    for _mu, entries in distinct
                    if max(gf2_rank(entries), rank_mod_p(entries, 3)) != distinct_nonzero_rows(entries)
                }
                assert len(eliminated) == len(open_), to_graph6(g)
                assert set(eliminated) == open_, to_graph6(g)
                shared += len(requested) - len(distinct)
                settled += len(distinct) - len(open_)
                opened += len(open_)
        assert shared > 0 and settled > 0 and opened > 0


@st.composite
def graphs_with_twins(draw, max_n=64):
    """A random graph on 0..max_n vertices, then vertices added as open
    twins (same neighbourhood, not adjacent) or closed twins (adjacent,
    same closed neighbourhood) of earlier ones, all relabelled at random.
    A later twin can break an earlier pair; many survive."""
    n = draw(st.integers(0, max_n))
    base = draw(st.integers(0, n))
    pairs = [(i, j) for j in range(base) for i in range(j)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(base, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
    for v in range(base, n):
        u = draw(st.integers(0, v - 1)) if v else None
        if u is None or draw(st.booleans()):
            g = g.with_vertex(0 if u is None else g.rows[u])
        else:
            g = g.with_vertex(g.rows[u] | 1 << u)
    return relabel(g, draw(st.permutations(range(n))))


class TestRankBounds:
    """``_GraphFacts.rank`` takes a rank from its GF(2) lower bound, or
    failing that from its GF(3) one, where that meets the number of
    distinct nonzero rows, and eliminates the rest."""

    @pytest.mark.parametrize(
        "g, mu, rank",
        [
            (complete_graph(2), 1, 1),  # A - I mod 2 is A + I, not A
            (path_graph(3), 2, 3),  # rows of A - 2I are distinct; the open rows are not
            (path_graph(3), 0, 2),
            (complete_graph(3), 0, 3),  # GF(2) rank 2 < 3 distinct rows = GF(3) rank
            (complete_graph(3), -1, 1),  # three equal closed rows
            (cycle_graph(4), 0, 2),
            (Graph((2, 1, 0)), 0, 2),  # an isolated vertex's zero row adds no rank
            (Graph(()), 0, 0),
        ],
        ids=["K2-mu1", "P3-mu2", "P3-mu0", "K3-mu0", "K3-mu-1", "C4-mu0", "K2+K1-mu0", "empty"],
    )
    def test_small_ranks(self, g, mu, rank):
        assert lemmas._GraphFacts(g).rank(mu) == rank == fraction_rank(shifted_entries(g, mu))

    def test_the_rank_mod_3_settles_what_the_rank_mod_2_leaves_open(self, monkeypatch):
        # A(K_3) has rank 2 mod 2, below its 3 distinct rows, and rank 3 mod
        # 3, so the table takes rank 3 with no elimination.  At mu = 2,
        # A - 2I = J - 3I has rank 2 mod 2 and 1 mod 3, both short of its
        # 3 rows, and the table eliminates once
        eliminated = count_calls(monkeypatch, rank_exact)
        facts = lemmas._GraphFacts(complete_graph(3))
        assert facts.rank(0) == 3 and eliminated == []
        assert facts.rank(2) == 2 and len(eliminated) == 1
        # mu = -2 is 1 mod 3, like mu = 1.  On P_5 the GF(2) ranks of
        # A - I and A + 2I (4 and 4) both fall short of 5, and one GF(3)
        # rank serves both
        mod3 = count_calls(monkeypatch, rank_gf3)
        facts = lemmas._GraphFacts(path_graph(5))
        assert facts._rank_mod2(tuple(row | 1 << i for i, row in enumerate(facts.graph.rows))) == 4
        assert facts._rank_mod2(facts.graph.rows) == 4
        facts.rank(1)
        assert len(mod3) == 1
        facts.rank(-2)
        assert len(mod3) == 1

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_twins(), st.data())
    def test_every_rank_matches_the_rational_oracle(self, g, data):
        # one table answers every mu on the deletion of a random set of
        # vertices (none at all when n <= 24 and every vertex is kept) and
        # on the deletion of every vertex (the empty matrix).  At most 24
        # vertices are kept, so that the rational oracle stays fast on any
        # n; the oracles' own GF(2) and GF(3) ranks and distinct rows
        # bracket it
        order = data.draw(st.permutations(range(g.n)))
        kept = data.draw(st.integers(0, min(g.n, 24)))
        drops = [tuple(order[kept:]), tuple(range(g.n))]
        facts = lemmas._GraphFacts(g)
        for drop in drops:
            for mu in (-2, -1, 0, 1, 2):
                entries = shifted_entries(g.without(*drop), mu)
                rank = fraction_rank(entries)
                assert max(gf2_rank(entries), rank_mod_p(entries, 3)) <= rank <= distinct_nonzero_rows(entries)
                assert facts.rank(mu, *drop) == rank, (to_graph6(g), mu, drop)


class TestEccentricityCertificate:
    """``lemmas._GraphFacts.extremal`` proves a connected graph is not
    extremal from one breadth-first search and a GF(2) rank before it
    reads the diameter."""

    def test_never_rules_out_an_extremal_graph(self, census_rows8):
        # extremal means fraction_rank = d + 1 with networkx's diameter; an
        # oracle GF(2) rank of d + 2 or more already excludes that, since the
        # rank mod 2 is at most the rational rank, and fraction_rank decides
        # the rest
        ruled_out = 0
        for level in census_rows8.values():
            for rows in level:
                g = Graph(rows)
                facts = lemmas._GraphFacts(g)
                if facts.extremal or "diameter" in vars(facts):
                    continue
                ruled_out += 1
                d = nx.diameter(nx.from_dict_of_lists({v: g.neighbor_list(v) for v in range(g.n)}))
                entries = shifted_entries(g)
                assert gf2_rank(entries) >= d + 2 or fraction_rank(entries) != d + 1, to_graph6(g)
        # a vertex of largest degree: 6,770 from vertex 0, 11,584 from d
        # itself.  Which vertex is first of largest degree depends on the
        # labelling, and the sweep's last level is partly as built
        assert ruled_out == 10_724

    def test_a_disconnected_graph_is_never_ruled_out(self):
        # two triangles: GF(2) rank 4 = 2 ecc(0) + 2, but no diameter
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for g in (two_triangles, Graph(())):
            with pytest.raises(DisconnectedGraphError):
                lemmas._GraphFacts(g).extremal
            for name in ALL_SUITES:
                assert run_suite(name, g).lemma == name

    def test_a_single_vertex_reads_its_diameter(self):
        facts = lemmas._GraphFacts(Graph.from_edges(1, []))
        assert not facts.extremal
        assert facts.diameter == 0 and "diameter" in vars(facts)

    def test_records_agree_with_and_without_suites(self, census7):
        # the no-suite path skips the table for graphs the certificate rules
        # out; everything in its record but the suites' reports must match
        for n in range(1, 8):
            for g in census7[n]:
                rec = enumeration._evaluate_graph(g.rows, ())
                with_suites = enumeration._evaluate_graph(g.rows, ALL_SUITES)
                del with_suites["lemma_reports"]
                assert rec == with_suites, to_graph6(g)
