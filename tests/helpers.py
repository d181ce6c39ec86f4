"""Independent oracles for the tests.

Everything here is computed from first principles (plain Gaussian
elimination over Fractions and over GF(2), Leibniz determinants,
permutation search) so the package's production code paths are checked
against genuinely different implementations, not against themselves.
The exceptions keep a replaced algorithm as the reference for its
replacement: ``reduce_by_rescan`` (twin deletion one vertex at a time),
``family_by_mask_walk`` (every mask, deduplicated by canonical form),
``recognize_on_every_path`` (the family shape tried on every diameter
path), ``augment_by_deletion_check`` (census children accepted by the
class of ``child - v*``) and ``is_diameter_path_by_pairs`` (the induced
path test on every vertex pair, with the ends' distance from a BFS of its
own).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

from nulldiam import (
    FamilyParams,
    Graph,
    Verdict,
    diameter,
    diameter_paths,
    generate_family,
    to_graph6,
    twin_classes,
)
from nulldiam.enumeration import (
    _canonical_rows,
    _is_cut_vertex,
    _min_columns,
    _rows_from_columns,
    canonical_form,
)
from nulldiam.families import _claims_on_path
from nulldiam.graphs import _rows_without


def fraction_rank(entries) -> int:
    """Row reduction over exact rationals."""
    a = [[Fraction(x) for x in row] for row in entries]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def gf2_rank(entries) -> int:
    """Row reduction over GF(2) on lists of 0/1 entries (no bitmasks)."""
    a = [[x % 2 for x in row] for row in entries]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rows):
            if r != rank and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def char_poly_leibniz(entries) -> list[int]:
    """det(xI - A) as ascending coefficients, by the Leibniz sum (n <= 6)."""
    n = len(entries)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        prod = [_perm_sign(perm)]
        for i in range(n):
            j = perm[i]
            factor = [-entries[i][j], 1] if i == j else [-entries[i][j]]
            prod = _poly_mul(prod, factor)
        for k, c in enumerate(prod):
            total[k] += c
    return total


def root_multiplicity(coeffs: list[int], root: int) -> int:
    """Multiplicity of an integer root, by repeated synthetic division."""
    coeffs = list(coeffs)
    count = 0
    while len(coeffs) > 1 and sum(c * root**k for k, c in enumerate(coeffs)) == 0:
        quotient = [0] * (len(coeffs) - 1)
        carry = 0
        for k in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[k] + carry * root
            quotient[k - 1] = carry
        coeffs = quotient
        count += 1
    return count


def relabel(g: Graph, placement) -> Graph:
    """Graph with vertex ``placement[i]`` moved to position ``i``."""
    n = g.n
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and g.has_edge(placement[i], placement[j]):
                rows[i] |= 1 << j
    return Graph(tuple(rows))


def min_perm_graph6(g: Graph) -> str:
    """Reference canonical form: minimum graph6 over all labelings (tiny n)."""
    return min(to_graph6(relabel(g, p)) for p in permutations(range(g.n)))


def automorphism_count(rows) -> int:
    """Size of the automorphism group by degree-pruned backtracking."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    image = [-1] * n
    used = [False] * n
    count = 0

    def assign(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((rows[v] >> u & 1) == (rows[w] >> image[u] & 1) for u in range(v)):
                used[w] = True
                image[v] = w
                assign(v + 1)
                used[w] = False
        image[v] = -1

    assign(0)
    return count


def labeled_connected_count(n: int) -> int:
    """Connected labeled graphs on n vertices by direct enumeration (n <= 6)."""
    if n == 1:
        return 1
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    count = 0
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                m ^= low
                nxt |= rows[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        count += seen == full
    return count


def labeled_connected_count_vectorized(n: int) -> int:
    """Same census, bit-parallel with numpy (handles n = 7 in seconds)."""
    import numpy as np

    pairs = list(combinations(range(n), 2))
    codes = np.arange(1 << len(pairs), dtype=np.uint32)
    rows = [np.zeros(1 << len(pairs), dtype=np.uint32) for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        bit = (codes >> np.uint32(k)) & np.uint32(1)
        rows[i] |= bit << np.uint32(j)
        rows[j] |= bit << np.uint32(i)
    del codes
    reach = np.ones(1 << len(pairs), dtype=np.uint32)
    for _ in range(n):
        nxt = reach.copy()
        for v in range(n):
            has = (reach >> np.uint32(v)) & np.uint32(1)
            nxt |= rows[v] * has
        reach = nxt
    return int((reach == np.uint32((1 << n) - 1)).sum())


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def reduce_by_rescan(g: Graph) -> tuple[Graph, int]:
    """Twin reduction by rescanning: delete the lowest-indexed vertex that
    has a twin until none has; returns the graph and the deletion count."""
    removed = 0
    while True:
        victims = [cls[0] for cls in twin_classes(g) if len(cls) >= 2]
        if not victims:
            return g, removed
        g = g.without(min(victims))
        removed += 1


def is_diameter_path_by_pairs(g: Graph, vs: tuple[int, ...], d: int | None = None) -> bool:
    """``is_diameter_path`` with one ``has_edge`` per vertex pair: the pair
    ``(i, j)`` of the path is adjacent exactly when ``j == i + 1``, and a
    breadth-first search over ``neighbor_list`` puts the ends
    ``len(vs) - 1`` apart."""
    if len(set(vs)) != len(vs) or not vs:
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if g.has_edge(vs[i], vs[j]) != (j == i + 1):
                return False
    dist = {vs[0]: 0}
    queue = [vs[0]]
    for u in queue:
        for w in g.neighbor_list(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if dist.get(vs[-1]) != len(vs) - 1:
        return False
    return (diameter(g) if d is None else d) == len(vs) - 1


def family_by_mask_walk(d: int, n_max: int) -> list[Graph]:
    """Family members by trying every single-anchor mask for every triple
    index and keeping the first of each canonical form (exponential in d)."""
    out: list[Graph] = []
    seen: set[bytes] = set()
    spots = list(range(1, d // 2 + 1))
    for b in range(d // 2):
        for mask in range(1 << len(spots)):
            if mask.bit_count() > n_max - d - 2:
                continue
            singles = frozenset(spots[i] for i in range(len(spots)) if mask >> i & 1)
            built = generate_family(FamilyParams(d, b, singles))
            if not isinstance(built, Graph):
                continue
            key = canonical_form(built, limit=built.n)
            if key not in seen:
                seen.add(key)
                out.append(built)
    return out


def recognize_on_every_path(g: Graph) -> tuple[Verdict, FamilyParams | None, bool]:
    """The recognizer's step for an even-diameter extremal graph as it was
    before it read one diameter path: try the family shape on every
    diameter path, uncapped, and take the first that fits, or ``Mismatch``
    when none does.  The flag says whether every path gave the same fit
    outcome."""
    d = diameter(g)
    outcomes = [_claims_on_path(g, p, d) for p in diameter_paths(g, limit=sys.maxsize)]
    fits = [o for o in outcomes if isinstance(o, FamilyParams)]
    agree = len(fits) in (0, len(outcomes))
    if fits:
        return Verdict.EVEN_EXTREMAL, fits[0], agree
    return Verdict.MISMATCH, None, agree


def augment_by_deletion_check(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The canonical children of a canonically labelled connected graph
    that have it as their canonical parent, by the census's rule before
    parents carried their automorphisms: a fresh search of the parent for
    its group, one mask per orbit of all ``2^k`` subsets, the degree key
    of every non-cut vertex, and a deletion check by canonical form, with
    a per-parent dict that keeps each class once."""
    k = len(rows)
    size = 1 << k
    images = []
    for perm in _min_columns(rows)[2]:
        img = [0] * size
        for m in range(1, size):
            low = m & -m
            img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(size)
    verdicts: dict[tuple[int, ...], bool] = {}
    kept = []
    for mask in range(1, size):
        if seen[mask]:
            continue
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for img in images:
                if not seen[img[x]]:
                    seen[img[x]] = 1
                    stack.append(img[x])
        child = tuple(r | (mask >> v & 1) << k for v, r in enumerate(rows)) + (mask,)
        deg = [r.bit_count() for r in child]
        keys = {
            v: (deg[v], sorted(deg[u] for u in range(k + 1) if child[v] >> u & 1))
            for v in range(k + 1)
            if not _is_cut_vertex(child, v)
        }
        top = max(keys.values())
        if keys[k] != top:
            continue
        cols, lab, _ = _min_columns(child)
        canon = _rows_from_columns(cols)
        if canon not in verdicts:
            star = max((v for v, key in keys.items() if key == top), key=lab.index)
            verdicts[canon] = star == k or _canonical_rows(_rows_without(child, (star,))) == rows
            if verdicts[canon]:
                kept.append(canon)
    return kept
