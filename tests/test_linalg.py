import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nulldiam import (
    IntMatrix,
    IntPolynomial,
    adjacency_matrix,
    char_poly,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cycle_nullity,
    diameter,
    distinct_eigenvalue_count,
    enumerate_family,
    Graph,
    integer_eigenvalue_multiplicity,
    nullity,
    path_graph,
    path_nullity,
    rank_exact,
    rank_mod_p,
    shifted_adjacency,
    star_graph,
    zero_root_multiplicity,
)

from nulldiam.linalg import rank_gf2

from helpers import char_poly_leibniz, fraction_rank, gf2_rank, random_graph, root_multiplicity


@st.composite
def symmetric_matrices(draw, max_n=6, lo=-3, hi=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    vals = st.integers(min_value=lo, max_value=hi)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(vals)
    return IntMatrix.from_rows(entries)


@st.composite
def square_rows(draw, max_n, entry):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def hypercube(k: int) -> Graph:
    n = 1 << k
    return Graph.from_edges(n, [(v, v | 1 << b) for v in range(n) for b in range(k) if not v >> b & 1])


def twin_blow_up(g: Graph, copies: int) -> Graph:
    """``g`` with ``copies`` extra twins of each of its first two vertices."""
    for v in (0, 1)[: g.n]:
        for _ in range(copies):
            g = g.with_vertex(g.rows[v])
    return g


class TestIntMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="square"):
            IntMatrix.from_rows([[0, 1], [1]])

    def test_constructor_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            IntMatrix(((0, 1, 0), (1, 0, 1)))
        with pytest.raises(ValueError, match="square"):
            IntMatrix(((0, 1),))

    def test_adjacency_examples(self):
        assert adjacency_matrix(complete_graph(2)).entries == ((0, 1), (1, 0))
        assert adjacency_matrix(complete_graph(1)).entries == ((0,),)
        assert adjacency_matrix(path_graph(3)).entries == ((0, 1, 0), (1, 0, 1), (0, 1, 0))

    def test_shifted_adjacency(self):
        assert shifted_adjacency(complete_graph(2), -1).entries == ((1, 1), (1, 1))

    def test_principal_examples(self):
        m = shifted_adjacency(path_graph(3), 2)
        assert m.principal([]).entries == ()
        assert m.principal([1]).entries == ((-2,),)
        assert m.principal([2, 0]).entries == ((-2, 0), (0, -2))
        assert m.principal([0, 1, 2]) == m

    @settings(max_examples=200)
    @given(st.data())
    def test_principal_is_the_induced_subgraph_matrix(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12))
        pairs = list(itertools.combinations(range(n), 2))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        mu = data.draw(st.integers(min_value=-3, max_value=3))
        keep = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        sub = shifted_adjacency(g, mu).principal(keep)
        assert sub.entries == shifted_adjacency(g.induced(keep), mu).entries


class TestRank:
    def test_examples(self):
        assert rank_exact(adjacency_matrix(path_graph(4))) == 4
        assert rank_exact(adjacency_matrix(complete_bipartite(2, 3))) == 2
        assert rank_exact(IntMatrix.from_rows([[0] * 5] * 5)) == 0

    def test_matches_fraction_elimination_on_census(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                m = adjacency_matrix(g)
                assert rank_exact(m) == fraction_rank(m.entries)

    @settings(max_examples=150)
    @given(symmetric_matrices())
    def test_matches_fraction_elimination_random(self, m):
        assert rank_exact(m) == fraction_rank(m.entries)

    @settings(max_examples=300)
    @given(square_rows(max_n=10, entry=st.sampled_from([0, 0, 0, 1, 1, 1, 2, -3, 10**12])))
    @example([[2, 1, 0], [0, 1, 1], [1, 0, 1]])  # row 1 has 0 under pivot 2 after pivot 1
    def test_matches_fraction_elimination_on_general_matrices(self, rows):
        # rank_exact skips a row with a 0 in the pivot column when the pivot
        # repeats, and must still rescale it when it does not: draw mostly
        # 0 and 1, non-symmetric, with pivots other than 1 among them
        assert rank_exact(IntMatrix.from_rows(rows)) == fraction_rank(rows)

    def test_mod_p_examples(self):
        assert rank_mod_p(adjacency_matrix(path_graph(4)), 65521) == 4
        assert rank_mod_p(adjacency_matrix(cycle_graph(4)), 65521) == 2
        assert rank_mod_p(IntMatrix.from_rows([[0] * 3] * 3), 7) == 0

    def test_mod_p_rejects_composites_and_two(self):
        m = adjacency_matrix(path_graph(3))
        with pytest.raises(ValueError, match="prime"):
            rank_mod_p(m, 65520)
        with pytest.raises(ValueError, match="prime"):
            rank_mod_p(m, 2)

    def test_mod_p_never_exceeds_exact(self):
        m = IntMatrix.from_rows([[7, 0], [0, 7]])
        assert rank_mod_p(m, 7) == 0 < rank_exact(m)

    def test_mod_p_matches_exact_on_census(self, census7):
        for g in census7[5]:
            m = adjacency_matrix(g)
            assert rank_mod_p(m, 65521) == rank_exact(m) == fraction_rank(m.entries)

    def test_gf2_examples(self):
        assert rank_gf2(()) == 0
        assert rank_gf2(path_graph(4).rows) == 4
        assert rank_gf2(cycle_graph(4).rows) == 2
        # odd cycles: full rank over the rationals, one less mod 2
        assert rank_gf2(complete_graph(3).rows) == 2 < rank_exact(adjacency_matrix(complete_graph(3)))
        assert rank_gf2(cycle_graph(5).rows) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0),
    )
    def test_gf2_matches_oracle_and_never_exceeds_exact(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        m = adjacency_matrix(g)
        assert rank_gf2(g.rows) == gf2_rank(m.entries) <= rank_exact(m)


class TestNullity:
    @pytest.mark.parametrize(
        "g,expected",
        [(path_graph(5), 1), (cycle_graph(4), 2), (star_graph(5), 3)],
    )
    def test_examples(self, g, expected):
        assert nullity(g) == expected

    def test_multiplicity_examples(self):
        assert integer_eigenvalue_multiplicity(complete_graph(4), -1) == 3
        assert integer_eigenvalue_multiplicity(cycle_graph(6), 1) == 2

    def test_multiplicity_at_zero_is_nullity(self, census7):
        for g in census7[6][:40]:
            assert integer_eigenvalue_multiplicity(g, 0) == nullity(g)


class TestCharPoly:
    def test_examples(self):
        assert char_poly(adjacency_matrix(path_graph(3))).coefficients == (0, -2, 0, 1)
        assert char_poly(adjacency_matrix(complete_graph(1))).coefficients == (0, 1)
        assert char_poly(adjacency_matrix(complete_graph(2))).coefficients == (-1, 0, 1)

    def test_monic_invariant(self):
        with pytest.raises(ValueError, match="monic"):
            IntPolynomial((1, 2))

    def test_against_leibniz_on_census(self, census7):
        for n in range(1, 6):
            for g in census7[n]:
                m = adjacency_matrix(g)
                assert list(char_poly(m).coefficients) == char_poly_leibniz(m.entries)

    @settings(max_examples=80)
    @given(symmetric_matrices(max_n=5))
    def test_against_leibniz_random(self, m):
        assert list(char_poly(m).coefficients) == char_poly_leibniz(m.entries)

    def test_zero_root_multiplicity_matches_nullity(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                p = char_poly(adjacency_matrix(g))
                assert zero_root_multiplicity(p) == nullity(g)
                assert zero_root_multiplicity(p) == root_multiplicity(list(p.coefficients), 0)

    def test_integer_multiplicities_match_char_poly_roots(self, census7):
        for g in census7[5]:
            coeffs = list(char_poly(adjacency_matrix(g)).coefficients)
            for mu in range(-3, 4):
                assert integer_eigenvalue_multiplicity(g, mu) == root_multiplicity(coeffs, mu)


class TestDistinctEigenvalues:
    @pytest.mark.parametrize(
        "g,expected",
        [(complete_graph(1), 1), (complete_graph(4), 2), (path_graph(3), 3)],
    )
    def test_examples(self, g, expected):
        assert distinct_eigenvalue_count(g) == expected

    def test_at_least_diameter_plus_one(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                assert distinct_eigenvalue_count(g) >= diameter(g) + 1

    def test_empty_and_single_vertex(self):
        assert char_poly(adjacency_matrix(Graph(()))).coefficients == (1,)
        assert distinct_eigenvalue_count(Graph(())) == 0
        assert distinct_eigenvalue_count(Graph((0,))) == 1

    def test_repeated_eigenvalues(self):
        # C_m: 2cos(2 pi k / m) takes floor(m/2) + 1 values; K_{a,b}: 0, +-sqrt(ab)
        for m in range(3, 20):
            assert distinct_eigenvalue_count(cycle_graph(m)) == m // 2 + 1
        assert distinct_eigenvalue_count(complete_bipartite(3, 5)) == 3
        assert distinct_eigenvalue_count(hypercube(6)) == 7


class TestClosedForms:
    def test_path_examples(self):
        assert path_nullity(5) == 1
        assert path_nullity(2) == 0

    def test_cycle_examples(self):
        assert cycle_nullity(4) == 2
        assert cycle_nullity(6) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            path_nullity(0)
        with pytest.raises(ValueError):
            cycle_nullity(2)

    def test_closed_forms_match_rank_small(self):
        for m in range(1, 13):
            assert path_nullity(m) == nullity(path_graph(m))
        for m in range(3, 13):
            assert cycle_nullity(m) == nullity(cycle_graph(m))


def test_interlacing_small_corpus(census7):
    # deleting one vertex never moves an integer eigenvalue multiplicity by 2
    for n in range(2, 6):
        for g in census7[n]:
            for mu in (-2, -1, 0, 1, 2):
                m_full = integer_eigenvalue_multiplicity(g, mu)
                for v in range(g.n):
                    assert abs(m_full - integer_eigenvalue_multiplicity(g.without(v), mu)) <= 1


@pytest.fixture(scope="module")
def spectral_cases() -> dict[str, Graph]:
    """Graphs up to 64 vertices by label.  All but the plain family members
    have a repeated eigenvalue, so gcd(p, p') is nontrivial: cycles,
    complete bipartite graphs, the cube Q_6, and twin blow-ups of
    even-diameter family members."""
    cases = {f"C{m}": cycle_graph(m) for m in (3, 8, 17, 32, 64)}
    cases |= {f"K{a},{b}": complete_bipartite(a, b) for a, b in ((1, 7), (5, 5), (16, 48))}
    cases["Q6"] = hypercube(6)
    for d in (10, 20, 30):
        members = list(enumerate_family(d, d + 3))
        for i in (0, len(members) - 1):
            g = members[i]
            cases[f"family d={d} #{i}"] = g
            cases[f"blow-up d={d} #{i}"] = twin_blow_up(g, 1)
        cases[f"big blow-up d={d}"] = twin_blow_up(g, (64 - g.n) // 2)
    assert max(g.n for g in cases.values()) == 64
    return cases


@pytest.fixture(scope="module")
def sympy_char_poly():
    """det(xI - m) as ascending int coefficients, by sympy's DomainMatrix."""
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    def char_poly_of(rows) -> tuple[int, ...]:
        n = len(rows)
        return tuple(int(c) for c in reversed(DomainMatrix(rows, (n, n), ZZ).charpoly()))

    return char_poly_of


@pytest.fixture(scope="module")
def sympy_square_free_degree():
    """Degree of the square-free part of an ascending coefficient list."""
    pytest.importorskip("sympy")
    from sympy import Poly, symbols

    x = symbols("x")
    return lambda coeffs: Poly(list(reversed(coeffs)), x).sqf_part().degree()


class TestSympyOracle:
    def test_char_poly_matches_domain_matrix(self, spectral_cases, sympy_char_poly):
        for label, g in spectral_cases.items():
            m = adjacency_matrix(g)
            assert char_poly(m).coefficients == sympy_char_poly([list(r) for r in m.entries]), label

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_char_poly_on_general_integer_matrices(self, sympy_char_poly, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        row = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        assert char_poly(IntMatrix.from_rows(rows)).coefficients == sympy_char_poly(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_char_poly_on_ones_and_other_entries(self, sympy_char_poly, data):
        # char_poly sums the 1 entries of a row apart from the others, so
        # draw mostly 0 and 1, with a few other entries on and off the diagonal
        n = data.draw(st.integers(min_value=0, max_value=12))
        entry = st.sampled_from([0, 0, 0, 1, 1, 1, -1, 2, 10**12])
        row = st.lists(entry, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        assert char_poly(IntMatrix.from_rows(rows)).coefficients == sympy_char_poly(rows)

    def test_distinct_eigenvalues_match_square_free_part(
        self, spectral_cases, sympy_square_free_degree
    ):
        for label, g in spectral_cases.items():
            e = distinct_eigenvalue_count(g)
            coeffs = char_poly(adjacency_matrix(g)).coefficients
            assert e == sympy_square_free_degree(coeffs), label
            assert label.startswith("family") or e < g.n, label
