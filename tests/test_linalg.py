import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nulldiam import (
    IntMatrix,
    adjacency_matrix,
    char_poly,
    diameter,
    distinct_eigenvalue_count,
    enumerate_family,
    Graph,
    nullity,
    path_graph,
    rank_exact,
)

from nulldiam.graphs import _rows_without
from nulldiam.linalg import _Q, _coprime_mod_q, rank_gf2, rank_gf3, shifted_matrix

from helpers import (
    char_poly_leibniz,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    fraction_rank,
    gf2_rank,
    random_graph,
    rank_mod_p,
    root_multiplicity,
    star_graph,
)


def matrix(rows) -> IntMatrix:
    return IntMatrix(tuple(map(tuple, rows)))


def mirrored(rows) -> list[list[int]]:
    """The symmetric matrix with the upper triangle of ``rows``."""
    return [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]


def multiplicity(g: Graph, mu: int) -> int:
    """Multiplicity of the integer eigenvalue ``mu``: n - rank(A - mu*I)."""
    return g.n - rank_exact(shifted_matrix(g.rows, mu))


@st.composite
def symmetric_matrices(draw, max_n=6, lo=-3, hi=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    vals = st.integers(min_value=lo, max_value=hi)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(vals)
    return matrix(entries)


@st.composite
def square_rows(draw, max_n, entry):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def bit_sliced(rows) -> list[tuple[int, int]]:
    """``rank_gf3``'s rows for integer ``rows``: the bits of the entries
    that are 1 mod 3, and of those that are -1 mod 3."""
    return [
        (sum(1 << j for j, x in enumerate(row) if x % 3 == 1), sum(1 << j for j, x in enumerate(row) if x % 3 == 2))
        for row in rows
    ]


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
            matrix([[0, 1], [1]])

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
        assert shifted_matrix(complete_graph(2).rows, -1).entries == ((1, 1), (1, 1))

    def test_shifted_matrix_examples(self):
        assert shifted_matrix((), 2).entries == ()
        assert shifted_matrix((0,), 2).entries == ((-2,),)
        assert shifted_matrix((0b10, 0b01), 1).entries == ((-1, 1), (1, -1))
        assert shifted_matrix(path_graph(3).rows, 2).entries == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))

    @settings(max_examples=200)
    @given(st.data())
    def test_rows_without_give_the_induced_subgraph_matrix(self, data):
        # the lemma table builds A(G - drop) - mu*I from the rows that
        # ``_rows_without`` leaves, which are those of the subgraph induced
        # on the kept vertices in ascending order
        n = data.draw(st.integers(min_value=0, max_value=12))
        pairs = list(itertools.combinations(range(n), 2))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        mu = data.draw(st.integers(min_value=-3, max_value=3))
        drop = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        keep = [v for v in range(n) if v not in drop]
        sub = shifted_matrix(_rows_without(g.rows, drop), mu)
        assert sub.entries == shifted_matrix(g.induced(keep).rows, mu).entries


class TestRank:
    def test_examples(self):
        assert rank_exact(adjacency_matrix(path_graph(4))) == 4
        assert rank_exact(adjacency_matrix(complete_bipartite(2, 3))) == 2
        assert rank_exact(matrix([[0] * 5] * 5)) == 0

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
        assert rank_exact(matrix(rows)) == fraction_rank(rows)

    def test_mod_p_examples(self):
        assert rank_mod_p(adjacency_matrix(path_graph(4)).entries, 65521) == 4
        assert rank_mod_p(adjacency_matrix(cycle_graph(4)).entries, 65521) == 2
        assert rank_mod_p([[0] * 3] * 3, 7) == 0

    def test_mod_p_rejects_composites_and_two(self):
        m = adjacency_matrix(path_graph(3)).entries
        with pytest.raises(ValueError, match="prime"):
            rank_mod_p(m, 65520)
        with pytest.raises(ValueError, match="prime"):
            rank_mod_p(m, 2)

    def test_mod_p_never_exceeds_exact(self):
        m = matrix([[7, 0], [0, 7]])
        assert rank_mod_p(m.entries, 7) == 0 < rank_exact(m)

    def test_mod_p_matches_exact_on_census(self, census7):
        for g in census7[5]:
            m = adjacency_matrix(g)
            assert rank_mod_p(m.entries, 65521) == rank_exact(m) == fraction_rank(m.entries)

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

    def test_gf3_examples(self):
        assert rank_gf3(()) == 0
        assert rank_gf3([(0, 0)] * 3) == 0
        assert rank_gf3(bit_sliced([[1, -1], [-1, 1]])) == 1
        assert rank_gf3(bit_sliced([[2, 1], [1, 2]])) == 1  # 2 is -1 mod 3
        # K_3 is full rank mod 3 (det 2) but not mod 2; A(K_3) - 2I = J - 3I
        # has rational rank 2 and is J mod 3
        k3 = complete_graph(3)
        assert rank_gf2(k3.rows) == 2 < rank_gf3(bit_sliced(adjacency_matrix(k3).entries)) == 3
        assert rank_gf3(bit_sliced(shifted_matrix(k3.rows, 2).entries)) == 1
        assert rank_exact(shifted_matrix(k3.rows, 2)) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0),
    )
    def test_gf3_matches_oracle_and_never_exceeds_exact(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        for mu in (-2, -1, 0, 1, 2):
            m = shifted_matrix(g.rows, mu)
            assert rank_gf3(bit_sliced(m.entries)) == rank_mod_p(m.entries, 3) <= rank_exact(m)

    @settings(max_examples=200)
    @given(square_rows(max_n=8, entry=st.integers(min_value=-4, max_value=4)))
    def test_gf3_matches_oracle_on_general_matrices(self, rows):
        # any residues in any places, not only an adjacency matrix's
        assert rank_gf3(bit_sliced(rows)) == rank_mod_p(rows, 3) <= fraction_rank(rows)

    def test_gf3_never_exceeds_fraction_rank_on_census(self, census7):
        # rank mod 3 <= rational rank at every mu the suites ask for; the
        # two primes each exceed the other somewhere
        above_gf2 = below_gf2 = 0
        for n in range(1, 7):
            for g in census7[n]:
                for mu in (-2, -1, 0, 1, 2):
                    entries = shifted_matrix(g.rows, mu).entries
                    gf3 = rank_gf3(bit_sliced(entries))
                    assert gf3 == rank_mod_p(entries, 3) <= fraction_rank(entries)
                    above_gf2 += gf3 > gf2_rank(entries)
                    below_gf2 += gf3 < gf2_rank(entries)
        assert above_gf2 > 0 and below_gf2 > 0


class TestNullity:
    @pytest.mark.parametrize(
        "g,expected",
        [(path_graph(5), 1), (cycle_graph(4), 2), (star_graph(5), 3)],
    )
    def test_examples(self, g, expected):
        assert nullity(g) == expected

    def test_multiplicity_examples(self):
        assert multiplicity(complete_graph(4), -1) == 3
        assert multiplicity(cycle_graph(6), 1) == 2

    def test_multiplicity_at_zero_is_nullity(self, census7):
        for g in census7[6][:40]:
            assert multiplicity(g, 0) == nullity(g)


class TestCharPoly:
    def test_examples(self):
        assert char_poly(adjacency_matrix(path_graph(3))) == (0, -2, 0, 1)
        assert char_poly(adjacency_matrix(complete_graph(1))) == (0, 1)
        assert char_poly(adjacency_matrix(complete_graph(2))) == (-1, 0, 1)

    def test_against_leibniz_on_census(self, census7):
        for n in range(1, 6):
            for g in census7[n]:
                m = adjacency_matrix(g)
                assert list(char_poly(m)) == char_poly_leibniz(m.entries)

    @settings(max_examples=80)
    @given(symmetric_matrices(max_n=5))
    def test_against_leibniz_random(self, m):
        assert list(char_poly(m)) == char_poly_leibniz(m.entries)

    @pytest.mark.parametrize(
        "rows", [[[0, 1], [0, 0]], [[1, 2, 3], [2, 0, 1], [3, 0, 1]], [[0, 1], [-1, 0]]]
    )
    def test_rejects_a_matrix_that_is_not_symmetric(self, rows):
        with pytest.raises(ValueError, match="symmetric"):
            char_poly(matrix(rows))

    def test_zero_root_multiplicity_matches_nullity(self, census7):
        for n in range(1, 7):
            for g in census7[n]:
                assert root_multiplicity(char_poly(adjacency_matrix(g)), 0) == nullity(g)

    def test_integer_multiplicities_match_char_poly_roots(self, census7):
        for g in census7[5]:
            coeffs = char_poly(adjacency_matrix(g))
            for mu in range(-3, 4):
                assert multiplicity(g, mu) == root_multiplicity(coeffs, mu)


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
        assert char_poly(adjacency_matrix(Graph(()))) == (1,)
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
        assert nullity(path_graph(5)) == 1
        assert nullity(path_graph(2)) == 0

    def test_cycle_examples(self):
        assert nullity(cycle_graph(4)) == 2
        assert nullity(cycle_graph(6)) == 0

    def test_closed_forms_match_rank_small(self):
        # P_m has nullity m mod 2, and C_m has nullity 2 when 4 | m, else 0
        for m in range(1, 13):
            assert nullity(path_graph(m)) == m % 2
        for m in range(3, 13):
            assert nullity(cycle_graph(m)) == (2 if m % 4 == 0 else 0)


def test_interlacing_small_corpus(census7):
    # deleting one vertex never moves an integer eigenvalue multiplicity by 2
    for n in range(2, 6):
        for g in census7[n]:
            for mu in (-2, -1, 0, 1, 2):
                m_full = multiplicity(g, mu)
                for v in range(g.n):
                    assert abs(m_full - multiplicity(g.without(v), mu)) <= 1


@pytest.fixture(scope="module")
def spectral_cases() -> dict[str, Graph]:
    """Graphs up to 64 vertices by label.  All but the plain family members
    and the seeded random graphs G(n, 1/2) have a repeated eigenvalue, so
    gcd(p, p') is nontrivial: cycles, complete bipartite graphs, the cube
    Q_6, and twin blow-ups of even-diameter family members."""
    cases = {f"C{m}": cycle_graph(m) for m in (3, 8, 17, 32, 64)}
    cases |= {f"K{a},{b}": complete_bipartite(a, b) for a, b in ((1, 7), (5, 5), (16, 48))}
    cases["Q6"] = hypercube(6)
    cases |= {f"G({n}, 1/2)": random_graph(random.Random(n), n) for n in (32, 48, 64)}
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
            assert char_poly(m) == sympy_char_poly([list(r) for r in m.entries]), label

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_char_poly_on_general_integer_matrices(self, sympy_char_poly, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        row = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        rows = mirrored(data.draw(st.lists(row, min_size=n, max_size=n)))
        assert char_poly(matrix(rows)) == sympy_char_poly(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_char_poly_on_ones_and_other_entries(self, sympy_char_poly, data):
        # char_poly sums the 1 entries of a row apart from the others, so
        # draw mostly 0 and 1, with a few other entries on and off the diagonal
        n = data.draw(st.integers(min_value=0, max_value=12))
        entry = st.sampled_from([0, 0, 0, 1, 1, 1, -1, 2, 10**12])
        row = st.lists(entry, min_size=n, max_size=n)
        rows = mirrored(data.draw(st.lists(row, min_size=n, max_size=n)))
        assert char_poly(matrix(rows)) == sympy_char_poly(rows)

    def test_distinct_eigenvalues_match_square_free_part(
        self, spectral_cases, sympy_square_free_degree
    ):
        for label, g in spectral_cases.items():
            e = distinct_eigenvalue_count(g)
            coeffs = char_poly(adjacency_matrix(g))
            assert e == sympy_square_free_degree(coeffs), label
            assert label.startswith(("family", "G(")) or e < g.n, label

    def test_square_free_certificate_modulus_is_prime(self):
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(_Q)

    def test_square_free_certificate_never_fires_on_a_repeated_root(
        self, spectral_cases, census7, sympy_square_free_degree
    ):
        graphs = [*spectral_cases.values(), *(g for n in range(1, 8) for g in census7[n])]
        fired = 0
        for g in graphs:
            p = list(char_poly(adjacency_matrix(g)))
            certified = _coprime_mod_q(p, [i * c for i, c in enumerate(p)][1:])
            if sympy_square_free_degree(p) < g.n:
                assert not certified, g.rows
            fired += certified
        assert 0 < fired < len(graphs)
