from itertools import combinations

import pytest

from nulldiam import (
    DisconnectedGraphError,
    FamilyParamError,
    FamilyParams,
    FamilyRejection,
    Graph,
    MAX_VERTICES,
    Verdict,
    diameter,
    enumerate_family,
    generate_family,
    is_diameter_path,
    is_extremal,
    is_reduced,
    nullity,
    path_graph,
    recognize,
    to_graph6,
)
from nulldiam import families
from nulldiam.enumeration import canonical_form
from nulldiam.families import _build_candidate

from helpers import complete_graph, cycle_graph, family_by_mask_walk, recognize_on_every_path


def build(d, b, singles=()):
    result = generate_family(FamilyParams(d, b, frozenset(singles)))
    assert isinstance(result, Graph), result
    return result


@pytest.fixture
def built(monkeypatch):
    """The parameters of every candidate ``_build_candidate`` builds."""
    seen = []
    real = families._build_candidate
    monkeypatch.setattr(families, "_build_candidate", lambda p: seen.append(p) or real(p))
    return seen


class TestParams:
    def test_rejects_odd_diameter(self):
        with pytest.raises(FamilyParamError, match="even"):
            FamilyParams(5, 0, frozenset()).validate()

    def test_rejects_triple_index_out_of_range(self):
        with pytest.raises(FamilyParamError, match="triple"):
            FamilyParams(4, 2, frozenset()).validate()

    def test_rejects_single_index_out_of_range(self):
        with pytest.raises(FamilyParamError, match="single"):
            FamilyParams(4, 0, frozenset({3})).validate()

    def test_generate_raises_on_bad_params(self):
        with pytest.raises(FamilyParamError):
            generate_family(FamilyParams(3, 0, frozenset()))

    def test_order(self):
        assert FamilyParams(6, 1, frozenset({2})).order == 9


class TestGenerator:
    def test_smallest_even_extremal_instance(self):
        g = build(4, 0)
        assert g.n == 6
        assert diameter(g) == 4
        assert nullity(g) == 1 == g.n - 4 - 1
        assert is_reduced(g)
        # z is adjacent to the first three path vertices
        assert g.neighbor_list(5) == [0, 1, 2]

    def test_g3_instance(self):
        g = build(6, 1, {2})
        assert g.n == 9
        assert nullity(g) == 2 == g.n - 6 - 1
        # the single-anchor vertex is adjacent to its path spot and to z
        assert g.neighbor_list(8) == [3, 7]

    def test_first_anchor_slot_always_collides(self):
        rejection = generate_family(FamilyParams(4, 0, frozenset({1})))
        assert isinstance(rejection, FamilyRejection)
        assert rejection.check == "reduced"

    def test_last_anchor_slot_always_collides(self):
        rejection = generate_family(FamilyParams(4, 1, frozenset({2})))
        assert isinstance(rejection, FamilyRejection)
        assert rejection.check == "reduced"

    def test_diameter_two_always_collides(self):
        for b in (0,):
            for singles in ((), (1,)):
                assert isinstance(
                    generate_family(FamilyParams(2, b, frozenset(singles))), FamilyRejection
                )


class TestEnumerate:
    def test_diameter_two_is_empty(self):
        assert list(enumerate_family(2, 10)) == []

    def test_diameter_four_has_one_class(self):
        members = list(enumerate_family(4, 7))
        assert len(members) == 1
        assert members[0].n == 6

    def test_mirrored_parameters_are_deduplicated(self):
        forms = {canonical_form(g) for g in (build(4, 0), build(4, 1))}
        assert len(forms) == 1

    def test_diameter_six_within_nine_vertices(self):
        members = list(enumerate_family(6, 9))
        assert len(members) == 4
        g3 = build(6, 1, {2})
        assert canonical_form(g3, limit=g3.n) in {canonical_form(m, limit=m.n) for m in members}

    def test_rejects_odd_diameter(self):
        with pytest.raises(FamilyParamError):
            enumerate_family(5, 9)

    @pytest.mark.parametrize("d", range(2, 15, 2))
    def test_matches_the_mask_walk(self, d):
        # the mask walk at 2d + 2 tries every mask; at a smaller n_max it
        # keeps exactly its members with at most n_max vertices, in the same
        # order, because isomorphic members have the same order
        walked = family_by_mask_walk(d, 2 * d + 2)
        for n_max in range(d + 2, 2 * d + 3):
            expected = [to_graph6(g) for g in walked if g.n <= n_max]
            assert [to_graph6(g) for g in enumerate_family(d, n_max)] == expected, n_max

    def test_matches_the_mask_walk_at_diameter_sixteen(self):
        expected = [to_graph6(g) for g in family_by_mask_walk(16, 21)]
        assert [to_graph6(g) for g in enumerate_family(16, 21)] == expected

    @pytest.mark.parametrize("d, n_max", [(4, 5), (6, 7), (4, -5)])
    def test_below_the_smallest_member_is_empty(self, d, n_max):
        assert list(enumerate_family(d, n_max)) == []

    @pytest.mark.parametrize(
        "d, n_max", [(18, 22), (20, 24), (24, 27), (30, 33), (40, 43), (62, 64)]
    )
    def test_every_candidate_passes_the_validating_constructor(self, monkeypatch, built, d, n_max):
        # the walk builds members with no checks; beyond the mask-walk grid,
        # each parameter choice it builds must still pass generate_family
        members = list(enumerate_family(d, n_max))
        monkeypatch.undo()
        assert len(built) == len(members) > 0
        for params, g in zip(built, members):
            checked = generate_family(params)
            assert isinstance(checked, Graph), checked
            assert checked.rows == g.rows, params

    def test_the_walk_is_lazy(self, built):
        next(iter(enumerate_family(60, 64)))
        assert len(built) == 1

    def test_the_walk_validates_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the walk validated a candidate")

        for name in ("generate_family", "_facts", "is_diameter_path"):
            monkeypatch.setattr(families, name, forbidden)
        assert len(list(enumerate_family(30, 35))) == 2842

    def test_order_is_capped_at_the_vertex_limit(self):
        members = list(enumerate_family(62, 70))
        assert len(members) == 16
        assert {g.n for g in members} == {MAX_VERTICES}
        assert list(enumerate_family(64, 70)) == []


class TestRecognize:
    def test_path5_not_extremal(self):
        res = recognize(path_graph(5))
        assert res.verdict is Verdict.NOT_EXTREMAL
        assert res.witness == {"expected_nullity": 0}

    def test_path4_odd_extremal(self):
        res = recognize(path_graph(4))
        assert res.verdict is Verdict.ODD_EXTREMAL
        assert (res.d, res.nullity) == (3, 0)

    def test_cycle5_not_extremal(self):
        assert recognize(cycle_graph(5)).verdict is Verdict.NOT_EXTREMAL

    def test_smallest_family_instance(self):
        res = recognize(build(4, 0))
        assert res.verdict is Verdict.EVEN_EXTREMAL
        assert res.variant == "G2"
        assert res.params == FamilyParams(4, 0, frozenset())

    def test_g3_instance(self):
        res = recognize(build(6, 1, {2}))
        assert res.verdict is Verdict.EVEN_EXTREMAL
        assert res.variant == "G3"
        assert res.params.single_indices == frozenset({2})
        assert res.params.triple_index + 1 in res.params.single_indices

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            recognize(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(DisconnectedGraphError, match="recognition is defined"):
            recognize(Graph(()))

    def test_duplicated_triple_anchor_is_a_mismatch(self):
        # a twin of z keeps eta = n - d - 1 but breaks the reduced-shape
        # claims: the verdict documents that the structure theorem is only
        # meaningful for twin-reduced graphs
        g = build(4, 0).with_vertex(0b000111)
        assert nullity(g) == 2 == g.n - 4 - 1
        assert not is_reduced(g)
        res = recognize(g)
        assert res.verdict is Verdict.MISMATCH
        assert res.witness["reduced"] is False
        assert len(res.witness["failures"]) == 1

    def test_a_toggled_off_path_edge_is_not_claimed(self):
        # z and the single-anchor vertices keep their path neighbours when an
        # edge between two of them is flipped, so only the off-path edge rules
        # (singles pairwise apart, a single next to z iff a = b + 1) see it
        toggled = 0
        for d in range(4, 11, 2):
            path = tuple(range(d + 1))
            for g in enumerate_family(d, d + 5):
                for x, y in combinations(range(d + 1, g.n), 2):
                    rows = list(g.rows)
                    rows[x] ^= 1 << y
                    rows[y] ^= 1 << x
                    h = Graph(tuple(rows))
                    if not is_diameter_path(h, path):
                        continue
                    toggled += 1
                    assert isinstance(families._claims_on_path(h, path, d), str), to_graph6(h)
                    assert recognize(h).verdict is not Verdict.EVEN_EXTREMAL, to_graph6(h)
        assert toggled == 42

    def test_a_vertex_off_the_path_with_no_path_neighbour_is_not_claimed(self):
        # a pendant at z when b = 0 is two steps from v_1 and d - 1 from
        # v_(d+1), so the built path stays a diameter path; the pendant is
        # in no row the rebuilt candidate has, so only the shape check sees it
        cases = 0
        for d in range(4, 11, 2):
            path = tuple(range(d + 1))
            z = d + 1
            for g in enumerate_family(d, d + 4):
                if not g.has_edge(z, 0):
                    continue
                h = g.with_vertex(1 << z)
                assert is_diameter_path(h, path, d)
                cases += 1
                want = f"vertex {g.n} has no neighbour on the path"
                assert families._claims_on_path(h, path, d) == want
                assert recognize(h).verdict is not Verdict.EVEN_EXTREMAL, to_graph6(h)
        assert cases == 14

    def test_multiple_diameter_paths_agree(self, monkeypatch, census7):
        # the family shape fits on every diameter path or on none, so one
        # path gives the verdict and parameters of the walk over all paths
        census = [g for level in census7.values() for g in level]
        graphs = [g for g in census if diameter(g) % 2 == 0 and is_extremal(g)]
        for d in range(2, 11, 2):
            for b in range(d // 2):
                for mask in range(1 << d // 2):
                    singles = frozenset(a + 1 for a in range(d // 2) if mask >> a & 1)
                    graphs.append(_build_candidate(FamilyParams(d, b, singles)))
        for d in (2, 4, 6):
            for g in enumerate_family(d, d + 5):
                once = [g.with_vertex(row) for row in g.rows]
                graphs += once
                graphs += [h.with_vertex(h.rows[v]) for h in once for v in range(g.n)]
        calls = []
        real = families._claims_on_path
        monkeypatch.setattr(
            families, "_claims_on_path", lambda *args: calls.append(args) or real(*args)
        )
        for g in graphs:
            calls.clear()
            res = recognize(g)
            assert len(calls) == 1, to_graph6(g)
            verdict, params, agree = recognize_on_every_path(g)
            assert agree, to_graph6(g)
            assert (res.verdict, res.params) == (verdict, params), to_graph6(g)

    def test_result_serialization(self):
        payload = recognize(build(4, 0)).to_dict()
        assert payload["verdict"] == "EvenExtremal"
        assert payload["params"] == {"b": 0, "A": []}
        assert payload["variant"] == "G2"


class TestIsExtremal:
    def test_examples(self):
        assert is_extremal(build(4, 0))
        assert not is_extremal(cycle_graph(4))
        assert not is_extremal(complete_graph(1))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            is_extremal(Graph.from_edges(2, []))


class TestRoundTrip:
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_generator_recognizer_round_trip(self, d):
        for g in enumerate_family(d, d + 5):
            assert is_extremal(g)
            assert is_reduced(g)
            res = recognize(g)
            assert res.verdict is Verdict.EVEN_EXTREMAL
            regenerated = generate_family(res.params)
            assert isinstance(regenerated, Graph)
            assert canonical_form(regenerated, limit=regenerated.n) == canonical_form(g, limit=g.n)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_nullity_counts_single_anchors(self, d):
        # the nullity of a family member is always |A| + 1, matching n - d - 1
        for g in enumerate_family(d, d + 5):
            res = recognize(g)
            assert res.nullity == len(res.params.single_indices) + 1
            assert res.nullity == g.n - d - 1
