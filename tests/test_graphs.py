import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nulldiam.graphs
from nulldiam import (
    MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    Graph6Error,
    classify_outside,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    diameter_paths,
    enumerate_family,
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
from nulldiam.enumeration import _is_cut_vertex, canonical_form
from nulldiam.graphs import _distances, _reach

from helpers import is_diameter_path_by_pairs, random_graph, reduce_by_rescan, relabel


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return Graph.from_edges(n, edges)


@st.composite
def graphs_up_to_the_cap(draw):
    """Any graph on 0..MAX_VERTICES vertices, its upper triangle one drawn
    integer."""
    n = draw(st.integers(min_value=0, max_value=MAX_VERTICES))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])


def nx_graph(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def nx_distances(nx, graph, sources) -> dict:
    """Each vertex of ``graph`` reachable from the vertex list ``sources``,
    mapped to the least of networkx's shortest path lengths from them."""
    out: dict = {}
    for s in sources:
        for v, length in nx.shortest_path_length(graph, source=s).items():
            out[v] = min(out.get(v, length), length)
    return out


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph((1,))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph((2, 0))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="outside"):
            Graph((4, 0))

    def test_rejects_more_than_64_vertices(self):
        with pytest.raises(ValueError, match="64"):
            Graph(tuple([0] * 65))

    def test_is_hashable_value(self):
        assert path_graph(3) == path_graph(3)
        assert len({path_graph(3), path_graph(3), cycle_graph(3)}) == 2

    def test_with_vertex_and_induced(self):
        g = path_graph(3).with_vertex(0b101)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert g.induced([0, 1, 2]) == path_graph(3)
        assert g.without(3) == path_graph(3)

    def test_connectivity(self):
        assert path_graph(5).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
        assert not Graph(()).is_connected()


class TestGraph6:
    def test_hand_encoded_examples(self):
        assert to_graph6(complete_graph(2)) == "A_"
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(complete_graph(1)) == "@"
        assert to_graph6(path_graph(4)) == "Ch"
        assert parse_graph6("A_") == complete_graph(2)
        assert parse_graph6("C~") == complete_graph(4)
        assert parse_graph6("@") == complete_graph(1)

    def test_empty_record_is_length_error(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("")
        assert err.value.reason == "length"

    def test_charset_error(self):
        for text in ("A\x1f", "\xff", "\xe9", "A\xe9", "A_\udcff", "A_\u20ac"):
            with pytest.raises(Graph6Error) as err:
                parse_graph6(text)
            assert err.value.reason == "charset"

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("A_?")
        assert err.value.reason == "trailing"

    def test_truncated_body(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("C")
        assert err.value.reason == "length"

    def test_nonzero_padding(self):
        # K_2 needs one edge bit; the low five bits of the byte are padding
        with pytest.raises(Graph6Error) as err:
            parse_graph6("A" + chr(63 + 0b100001))
        assert err.value.reason == "padding"

    def test_too_large(self):
        text = "~" + chr(63) + chr(64) + chr(64)  # n = 65
        with pytest.raises(Graph6Error) as err:
            parse_graph6(text)
        assert err.value.reason == "too-large"
        with pytest.raises(Graph6Error) as err:
            parse_graph6("~~????")
        assert err.value.reason == "too-large"

    def test_truncated_long_size_prefix(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("~?")
        assert err.value.reason == "length"

    @pytest.mark.parametrize("n", [63, 64])
    def test_long_form_round_trip(self, n):
        g = random_graph(random.Random(n), n)
        encoded = to_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g

    @given(graphs(max_n=12))
    def test_round_trip_identity(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_codec_matches_networkx(self, census7):
        nx = pytest.importorskip("networkx")
        cases = [g for n in range(1, 8) for g in census7[n]]
        cases += [random_graph(random.Random(100 + n), n) for n in (16, 32, 62, 63, 64)]
        for g in cases:
            text = to_graph6(g)
            assert text.startswith("~") == (g.n >= 63)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert nx.to_graph6_bytes(h, header=False) == text.encode() + b"\n"
            back = nx.from_graph6_bytes(text.encode())
            assert parse_graph6(text) == Graph.from_edges(back.number_of_nodes(), list(back.edges()))

    @given(graphs_up_to_the_cap())
    @settings(deadline=None)
    def test_encoding_matches_networkx_up_to_the_cap(self, g):
        nx = pytest.importorskip("networkx")
        assert nx.to_graph6_bytes(nx_graph(nx, g), header=False) == to_graph6(g).encode() + b"\n"

    @given(graphs_up_to_the_cap())
    @settings(deadline=None)
    def test_decoding_matches_networkx_up_to_the_cap(self, g):
        nx = pytest.importorskip("networkx")
        text = to_graph6(g)
        back = nx.from_graph6_bytes(text.encode())
        assert Graph.from_edges(back.number_of_nodes(), list(back.edges())) == g
        assert parse_graph6(text) == g


class TestMetrics:
    def test_bfs_along_path(self):
        assert _distances(path_graph(5).rows, 1 << 0) == [0, 1, 2, 3, 4]

    def test_bfs_complete(self):
        assert _distances(complete_graph(4).rows, 1 << 2) == [1, 1, 0, 1]

    def test_bfs_reports_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert _distances(g.rows, 1 << 0) == [0, 1, math.inf]

    @pytest.mark.parametrize(
        "g,expected",
        [(path_graph(5), 4), (cycle_graph(4), 2), (star_graph(5), 2), (complete_graph(1), 0)],
    )
    def test_diameter(self, g, expected):
        assert diameter(g) == expected

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @settings(max_examples=60)
    @given(graphs(max_n=24))
    def test_diameter_is_largest_bfs_distance(self, g):
        # independent of diameter's own layer walk: _distances per vertex
        ecc = max(max(_distances(g.rows, 1 << v)) for v in range(g.n))
        if ecc == math.inf:
            with pytest.raises(DisconnectedGraphError):
                diameter(g)
        else:
            assert diameter(g) == ecc

    @pytest.mark.parametrize(
        "g,vs,expected",
        [
            (path_graph(5), (0, 1, 2, 3, 4), True),
            (path_graph(5), (4, 3, 2, 1, 0), True),
            (complete_graph(1), (0,), True),
            (cycle_graph(5), (0, 1, 2), True),
            (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]), (0, 1, 2, 3), False),
            (path_graph(5), (0, 2, 1, 3, 4), False),
            (path_graph(5), (0, 1, 2, 1, 0), False),
            (path_graph(5), (0, 1, 2, 3, 5), False),
            (path_graph(5), (0, 1, 2, 3), False),
            (path_graph(5), (), False),
        ],
    )
    def test_diameter_path_check_cases(self, g, vs, expected):
        # an induced path, a chord, a non-edge, a repeat, a vertex out of
        # range, a length below the diameter, and no vertex at all
        assert is_diameter_path(g, vs) == is_diameter_path_by_pairs(g, vs) == expected

    def test_a_path_whose_ends_are_closer_is_no_diameter_path(self):
        # an induced path of length d = 3 whose ends 1 and 5 also meet
        # through 4: it is no shortest path, and vertex 4 would see the
        # positions 0 and 3, which span four
        g = Graph((32, 20, 10, 36, 34, 25))
        path = (1, 2, 3, 5)
        assert diameter(g) == 3
        assert not is_diameter_path(g, path)
        assert not is_diameter_path(g, path, 3)
        assert not is_diameter_path_by_pairs(g, path)
        with pytest.raises(ValueError, match="diameter path"):
            classify_outside(g, path)

    def test_diameter_path_check_matches_networkx_exhaustively(self, census7):
        # every sequence of d + 1 distinct vertices of every connected
        # graph with n <= 6
        nx = pytest.importorskip("networkx")
        checked = 0
        for n in range(1, 7):
            for g in census7[n]:
                h = nx_graph(nx, g)
                d = nx.diameter(h)
                for vs in permutations(range(n), d + 1):
                    walk = all(h.has_edge(u, v) for u, v in zip(vs, vs[1:]))
                    ends = nx.shortest_path_length(h, vs[0], vs[-1])
                    want = walk and ends == len(vs) - 1 == d
                    assert is_diameter_path(g, vs) == want, (g.rows, vs)
                    assert is_diameter_path_by_pairs(g, vs) == want, (g.rows, vs)
                    checked += want
        assert checked > 0

    @settings(max_examples=200)
    @given(graphs(max_n=10), st.data())
    def test_diameter_path_check_matches_the_pair_oracle(self, g, data):
        kind = data.draw(st.sampled_from(["walk", "any", "arc"]))
        if kind == "walk":
            # a walk that never revisits a vertex: an induced path, or a
            # path with chords
            vs = [data.draw(st.integers(0, g.n - 1))]
            while data.draw(st.booleans()):
                ahead = [u for u in g.neighbor_list(vs[-1]) if u not in vs]
                if not ahead:
                    break
                vs.append(data.draw(st.sampled_from(ahead)))
        elif kind == "any":
            # non-edges, repeated and out-of-range vertices
            vs = data.draw(st.lists(st.integers(-1, g.n), max_size=6))
        else:
            # an arc of C_m with more than m/2 edges: an induced path whose
            # ends are closer than its length, which a walk almost never
            # gives
            m = data.draw(st.integers(3, 12))
            g = cycle_graph(m)
            start = data.draw(st.integers(0, m - 1))
            vs = [(start + i) % m for i in range(data.draw(st.integers(m // 2 + 2, m)))]
        path = tuple(vs)
        d = len(vs) - 1 + (0 if kind == "arc" else data.draw(st.integers(-1, 1)))
        assert is_diameter_path(g, path, d) == is_diameter_path_by_pairs(g, path, d)

    def test_diameter_paths_on_a_path(self):
        assert diameter_paths(path_graph(5)) == [(0, 1, 2, 3, 4)]

    def test_diameter_paths_k2(self):
        assert diameter_paths(complete_graph(2)) == [(0, 1)]

    def test_diameter_paths_cycle6(self):
        # brute force: every antipodal pair has the two arcs of length 3
        paths = diameter_paths(cycle_graph(6))
        expected = set()
        for u in range(6):
            for v in range(u + 1, 6):
                if (v - u) % 6 == 3:
                    cw = tuple((u + k) % 6 for k in range(4))
                    ccw = tuple((u - k) % 6 for k in range(4))
                    expected.add(cw)
                    expected.add(ccw)
        assert set(paths) == expected
        assert len(paths) == 6

    def test_diameter_paths_respects_limit(self):
        assert len(diameter_paths(cycle_graph(6), limit=4)) == 4
        with pytest.raises(ValueError):
            diameter_paths(cycle_graph(6), limit=0)

    def test_paths_are_induced_and_diameter_length(self, census7):
        for n in range(2, 7):
            for g in census7[n]:
                for p in diameter_paths(g, limit=64):
                    assert is_diameter_path(g, p)

    def test_first_path_with_known_diameter(self, census7):
        # members and their twin blow-ups have many diameter paths
        cases = [g for n in range(1, 8) for g in census7[n]]
        for d in (4, 6, 10, 14):
            for g in enumerate_family(d, d + 4):
                cases += [g] + [g.with_vertex(row) for row in g.rows]
        for g in cases:
            assert diameter_paths(g, 1, diameter(g)) == diameter_paths(g)[:1]

    def test_first_path_runs_only_the_searches_it_reads(self, monkeypatch):
        # on a path graph the first eccentric pair is (0, n - 1): two BFS
        # runs, and no diameter when the caller passes it
        searched = []

        def counted(rows, sources):
            searched.append(sources.bit_length() - 1)
            return _distances(rows, sources)

        monkeypatch.setattr(nulldiam.graphs, "_distances", counted)
        monkeypatch.setattr(nulldiam.graphs, "diameter", None)
        assert diameter_paths(path_graph(9), 1, 8) == [tuple(range(9))]
        assert searched == [0, 8]


class TestSearchHelpers:
    """``_reach`` and ``_distances`` against networkx, on graphs with up to
    24 vertices, disconnected ones included."""

    @settings(max_examples=80)
    @given(graphs(max_n=24), st.data())
    def test_distances_match_networkx(self, g, data):
        nx = pytest.importorskip("networkx")
        sources = data.draw(st.integers(0, (1 << g.n) - 1))
        want = nx_distances(nx, nx_graph(nx, g), [v for v in range(g.n) if sources >> v & 1])
        assert _distances(g.rows, sources) == [want.get(v, math.inf) for v in range(g.n)]

    @settings(max_examples=80)
    @given(graphs(max_n=24), st.data())
    def test_reach_matches_networkx(self, g, data):
        # through ``within`` only: the search runs in the subgraph induced
        # on the sources and ``within``
        nx = pytest.importorskip("networkx")
        full = (1 << g.n) - 1
        sources = data.draw(st.integers(0, full))
        within = data.draw(st.one_of(st.just(-1), st.integers(0, full)))
        kept = [v for v in range(g.n) if (sources | within) >> v & 1]
        dist = nx_distances(
            nx, nx_graph(nx, g).subgraph(kept), [v for v in range(g.n) if sources >> v & 1]
        )
        seen, steps = _reach(g.rows, sources, within)
        assert seen == sum(1 << v for v in dist)
        assert steps == max(dist.values(), default=-1)

    @settings(max_examples=80)
    @given(graphs(max_n=24))
    def test_is_connected_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        assert g.is_connected() == nx.is_connected(nx_graph(nx, g))

    @settings(max_examples=60)
    @given(graphs(max_n=24), st.data())
    def test_cut_vertices_match_networkx(self, g, data):
        nx = pytest.importorskip("networkx")
        # a random spanning tree makes the graph connected
        tree = [(v, data.draw(st.integers(0, v - 1))) for v in range(1, g.n)]
        g = Graph.from_edges(g.n, g.edges() + tree)
        cut = set(nx.articulation_points(nx_graph(nx, g)))
        assert [_is_cut_vertex(g.rows, v) for v in range(g.n)] == [v in cut for v in range(g.n)]


class TestTwinsAndReduction:
    def test_cycle4_twin_classes(self):
        assert twin_classes(cycle_graph(4)) == [[0, 2], [1, 3]]

    def test_path4_is_reduced(self):
        assert twin_classes(path_graph(4)) == [[0], [1], [2], [3]]
        assert is_reduced(path_graph(4))

    def test_star_leaves_are_twins(self):
        assert twin_classes(star_graph(4)) == [[0], [1, 2, 3]]

    def test_reduce_cycle4(self):
        res = reduce(cycle_graph(4))
        assert res.graph == complete_graph(2)
        assert res.removed == 2
        assert (res.original_diameter, res.reduced_diameter) == (2, 1)

    def test_reduce_star(self):
        res = reduce(star_graph(4))
        assert res.graph == complete_graph(2)
        assert res.removed == 2

    def test_reduce_path_is_noop(self):
        res = reduce(path_graph(5))
        assert res.graph == path_graph(5)
        assert res.removed == 0

    def test_reduce_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            reduce(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(DisconnectedGraphError, match="reduction is defined"):
            reduce(Graph(()))

    def test_one_pass_matches_rescanning(self, census8):
        # every connected class with n <= 8, and relabelled copies of some,
        # since which twin survives depends on the labels
        rng = random.Random(5)
        graphs = [g for level in census8.values() for g in level]
        graphs += [relabel(g, rng.sample(range(g.n), g.n)) for g in graphs[::5]]
        for g in graphs:
            res = reduce(g)
            assert (res.graph, res.removed) == reduce_by_rescan(g), to_graph6(g)
            assert is_reduced(g) == (res.removed == 0)

    def test_reduction_records_the_deleted_vertices(self, census7):
        # the lemma table ranks the reduced graph as a principal submatrix
        # of A(G), which holds only when the survivors keep their order;
        # a diameter the caller passes in changes nothing
        deleted = 0
        for level in census7.values():
            for g in level:
                res = reduce(g)
                assert reduce(g, diameter(g)) == res, to_graph6(g)
                assert g.without(*res.deleted) == res.graph, to_graph6(g)
                assert res.removed == len(res.deleted) == g.n - res.graph.n
                deleted += res.removed
        assert deleted > 0

    def test_reduce_is_idempotent(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                again = reduce(reduce(g).graph)
                assert again.removed == 0

    def test_reduction_order_does_not_matter_up_to_isomorphism(self, census7):
        rng = random.Random(7)
        for n in range(2, 7):
            for g in census7[n]:
                expected = canonical_form(reduce(g).graph)
                for _ in range(3):
                    cur = g
                    while True:
                        twins = [v for cls in twin_classes(cur) if len(cls) > 1 for v in cls]
                        if not twins:
                            break
                        cur = cur.without(rng.choice(twins))
                    assert canonical_form(cur) == expected

    def test_pendants(self):
        assert pendant_pairs(path_graph(4)) == [(0, 1), (3, 2)]
        assert pendant_pairs(cycle_graph(5)) == []
        assert pendant_pairs(star_graph(4)) == [(1, 0), (2, 0), (3, 0)]


class TestOutsideClassification:
    def test_triple_anchor(self):
        g = path_graph(5).with_vertex(0b00111)
        assert classify_outside(g, (0, 1, 2, 3, 4)) == {5: (0, 1, 2)}
        assert classify_outside(g, (4, 3, 2, 1, 0)) == {5: (2, 3, 4)}

    def test_single_anchor_pendant(self):
        g = path_graph(5).with_vertex(0b00010)
        assert classify_outside(g, (0, 1, 2, 3, 4)) == {5: (1,)}

    def test_vertex_with_no_path_neighbour_has_no_positions(self):
        g = path_graph(5).with_vertex(0b00100).with_vertex(0b100000)
        assert classify_outside(g, (0, 1, 2, 3, 4)) == {5: (2,), 6: ()}

    def test_rejects_non_diameter_path(self):
        with pytest.raises(ValueError, match="diameter path"):
            classify_outside(path_graph(5), (0, 1, 2))

    def test_known_diameter_gives_the_same_classification(self, census7):
        for n in range(2, 8):
            for g in census7[n][::7]:
                d = diameter(g)
                for p in diameter_paths(g, limit=8):
                    assert classify_outside(g, p, d) == classify_outside(g, p)
        with pytest.raises(ValueError, match="diameter path"):
            classify_outside(path_graph(5), (0, 1, 2), 4)
        with pytest.raises(ValueError, match="diameter path"):
            classify_outside(path_graph(5), (0, 2, 1), 2)

    def test_anchor_window_is_at_most_three_consecutive(self, census7):
        # a wider anchor spread would shortcut the path
        for n in range(2, 8):
            for g in census7[n]:
                for p in diameter_paths(g, limit=32):
                    for anchors in classify_outside(g, p).values():
                        assert len(anchors) <= 3
                        assert not anchors or anchors[-1] - anchors[0] <= 2


class TestConstructors:
    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5
        assert g.edge_count() == 6
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 2)

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle_graph(2)


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_reduce_connected_random(g):
    if not g.is_connected():
        return
    res = reduce(g)
    assert is_reduced(res.graph)
    assert res.removed == g.n - res.graph.n
    assert res.graph.is_connected()
