"""Independent reference computations for the benchmark's output checks.

Nothing here imports nulldiam.  Ranks are taken modulo large primes,
the number of distinct eigenvalues is the degree of the minimal
polynomial found from a Krylov sequence modulo a large prime, diameters
come from networkx, and family members are built from the paper's
description of the even-diameter extremal graphs.  A benchmark that
compared the program against its own earlier output would accept any
fault that was already there; these checks do not.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

#: Two large primes; the rank over the rationals is the largest rank
#: seen modulo either (a rank can only drop modulo p).
PRIMES = (2**61 - 1, 2**31 - 1)

#: Connected graphs on n = 1..9 vertices up to isomorphism (OEIS A001349).
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117, 261080)


def adjacency_lists(g: nx.Graph) -> list[list[int]]:
    n = g.number_of_nodes()
    return [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]


def _rank_mod(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        top = [x * inv % p for x in a[rank]]
        a[rank] = top
        for r in range(rank + 1, len(a)):
            f = a[r][col]
            if f:
                a[r] = [(x - f * t) % p for x, t in zip(a[r], top)]
        rank += 1
    return rank


def rank(rows: list[list[int]]) -> int:
    """Rank over the rationals, as the largest rank modulo ``PRIMES``."""
    return max(_rank_mod(rows, p) for p in PRIMES)


def minimal_polynomial_degree(adj: list[list[int]]) -> int:
    """Degree of the minimal polynomial of a symmetric integer matrix.

    For a symmetric matrix this is its number of distinct eigenvalues.
    The Krylov sequence v, Av, ..., A^n v of a random vector spans a space
    whose dimension is that degree unless v is unlucky; two fixed random
    vectors modulo a 61-bit prime make that chance negligible.
    """
    n = len(adj)
    p = PRIMES[0]
    rng = random.Random(n)
    best = 0
    for _ in range(2):
        v = [rng.randrange(1, p) for _ in range(n)]
        seq = [v]
        for _ in range(n):
            v = [sum(a * x for a, x in zip(row, v)) % p for row in adj]
            seq.append(v)
        best = max(best, _rank_mod(seq, p))
    return best


def is_reduced(g: nx.Graph) -> bool:
    """No two vertices have the same open neighbourhood."""
    seen = set()
    for v in g.nodes:
        key = frozenset(g[v])
        if key in seen:
            return False
        seen.add(key)
    return True


def family_graph(d: int, b: int, singles: frozenset[int]) -> nx.Graph:
    """The even-diameter extremal candidate with parameters (d, b, A).

    Path v_1 ~ ... ~ v_(d+1) on vertices 0..d; z = d+1 is adjacent to
    v_(2b+1), v_(2b+2), v_(2b+3); for each a in A a vertex adjacent to
    v_(2a), and also to z exactly when a = b + 1.
    """
    g = nx.path_graph(d + 1)
    z = d + 1
    g.add_edges_from((z, 2 * b + k) for k in range(3))
    for k, a in enumerate(sorted(singles)):
        x = d + 2 + k
        g.add_edge(x, 2 * a - 1)
        if a == b + 1:
            g.add_edge(x, z)
    return g


def is_extremal(g: nx.Graph) -> bool:
    n = g.number_of_nodes()
    return n - rank(adjacency_lists(g)) == n - nx.diameter(g) - 1


def in_family(g: nx.Graph, d: int) -> bool:
    """Whether g is isomorphic to some (d, b, A) candidate of its order."""
    extra = g.number_of_nodes() - d - 2
    if extra < 0:
        return False
    for b in range(d // 2):
        for singles in combinations(range(1, d // 2 + 1), extra):
            cand = family_graph(d, b, frozenset(singles))
            if nx.faster_could_be_isomorphic(g, cand) and nx.is_isomorphic(g, cand):
                return True
    return False


def expected_verdict(g: nx.Graph) -> tuple[str, int, int]:
    """(verdict, d, nullity) that the recognizer must return for g.

    The nullity gate and the diameter parity decide the first two
    verdicts.  An even-diameter extremal graph fits the family shape on
    some diameter path exactly when it is isomorphic to a (d, b, A)
    candidate, because the shape fixes every edge relative to the path.
    """
    n = g.number_of_nodes()
    d = nx.diameter(g)
    eta = n - rank(adjacency_lists(g))
    if eta != n - d - 1:
        return "NotExtremal", d, eta
    if d % 2:
        return "OddExtremal", d, eta
    return ("EvenExtremal" if in_family(g, d) else "Mismatch"), d, eta
