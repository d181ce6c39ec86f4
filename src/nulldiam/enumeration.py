"""Isomorph-free generation of small connected graphs and the sweep driver.

Canonical forms are computed by an exhaustive relabelling search pruned by
colour refinement: vertices are first split into an isomorphism-invariant
ordered partition (iterated degree refinement), and the canonical form is
the lexicographically smallest graph6 encoding over all labelings that
respect that partition.  Refinement-respecting minimization is a valid
canonical form (equal bytes iff isomorphic) because the partition and its
cell order are themselves isomorphism invariants.  Two further exact
prunings keep symmetric inputs tractable: branch-and-bound against the
best encoding found so far, and skipping a candidate vertex when swapping
it with an already-tried candidate is an automorphism.

The census generator grows graphs one vertex at a time by McKay's
canonical construction path (McKay 1998, J. Algorithms 26:306-324): a
canonically labelled parent gets a new vertex joined to one subset per
orbit of its automorphism group, and a child is kept only if the new
vertex lies in the automorphism orbit of its canonical deletion vertex
(see ``_augment_parent``).  Each class then comes from exactly one mask
orbit of its canonical parent, so parents expand independently with no
duplicate set.  A child's canonical search is the only one: it gives the
labelling, the orbit test, and the generators the child carries to
extend it.  A cheap degree key rejects most children before any search,
and the orbit test of most others needs none either, by three rules on
the non-cut vertices that tie with the top key:

1. the new vertex ``k`` is the only tie, so it is the deletion vertex;
2. every tie is a swap-twin of ``k``, so swapping it with ``k`` is an
   automorphism and the deletion vertex, whichever tie it is, shares the
   orbit of ``k``;
3. the deletion vertex lies in the highest refinement cell that holds a
   tie, because orbits lie inside cells and the canonical labelling
   places each cell before the next: ``k`` outside that cell is not in
   its orbit, and ``k`` with only swap-twins there (or none) is.

Only a child these rules leave open is searched for its orbit test.  In
the sweep, on the last level, which nothing extends, a child the rules
keep is kept as built with no search at all, and the sweep canonicalizes
a graph before it reports anything that depends on the labelling.
``connected_graphs`` promises canonical labelling, so it searches every
child it keeps.
"""

from __future__ import annotations

import logging
import time
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from . import lemmas
from .families import Verdict, recognize
from .graphs import Graph, _reach, _swap_class_ids, is_reduced, reduce, to_graph6
from .stream import ordered_map

log = logging.getLogger(__name__)

#: Above this many vertices the brute-force canonical search refuses to run
#: unless explicitly overridden.
CANONICAL_TIER_LIMIT = 10

#: The built-in census is exhaustive; beyond this order, corpora should be
#: generated externally and ingested as graph6 lines.
MAX_CENSUS_ORDER = 9


class CanonicalSizeError(ValueError):
    """Graph too large for the brute-force canonical-form tier."""


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _refinement_cells(rows: Sequence[int]) -> list[list[int]]:
    """Ordered partition from iterated neighbour-colour refinement.

    Colours start as degrees and are re-keyed each round by the sorted
    multiset of neighbour colours, with new colour ids assigned in sorted
    ``(colour, multiset)`` order, so the final cell order depends only on
    the isomorphism class.  Each cell lists its vertices in ascending order.

    The partition is kept as its ordered cells, the colour of a vertex
    being the index of its cell.  The multiset is read as the integer
    ``code`` that sums ``popcount(row & cell_mask[c]) << s*(n-1-c)`` over
    the cells ``c``, with ``2^s`` above every degree: one base-``2^s``
    digit per colour, the count of neighbours of that colour, the least
    colour in the highest digit.  Vertices of one colour have one degree,
    so their sorted colour lists have one length, and the first place two
    such lists differ holds a colour ``c`` that the lesser list has more
    of, with equal counts below ``c``: the lesser list has the greater
    code.  So the key ``(colour, -code)`` orders a colour's vertices as the
    sorted lists do, and a round replaces each cell by its vertices grouped
    by code, in descending code order.  The rounds stop when no cell splits.

    This is the same partition in the same order as re-keying every vertex
    each round with colours that are degrees in the first round and ids
    after.  The colour is the primary key, so every cell stays in place
    relative to the others, and a singleton's code never matters: only the
    cells with two or more vertices are keyed.  The first round's degrees
    are relabelled by their cell index, which is monotone, so the codes'
    digits keep their order and the codes compare as before.
    """
    n = len(rows)
    shift = n.bit_length()
    by_degree: dict[int, list[int]] = {}
    for v, r in enumerate(rows):
        by_degree.setdefault(r.bit_count(), []).append(v)
    cells = [by_degree[deg] for deg in sorted(by_degree)]
    while True:
        digits = []
        for c, cell in enumerate(cells):
            mask = 0
            for v in cell:
                mask |= 1 << v
            digits.append((mask, shift * (n - 1 - c)))
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            by_code: dict[int, list[int]] = {}
            for v in cell:
                r = rows[v]
                code = 0
                for mask, place in digits:
                    code += (r & mask).bit_count() << place
                by_code.setdefault(code, []).append(v)
            refined += [by_code[code] for code in sorted(by_code, reverse=True)]
        if len(refined) == len(cells):
            return cells
        cells = refined


def _min_columns(
    rows: Sequence[int], cells: list[list[int]] | None = None, swap: list[int] | None = None
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Smallest upper-triangle column encoding over refinement-respecting
    labelings, the labelling that gives it, and automorphisms met on the way.

    Entry j-1 of the encoding holds the adjacency bits of position j to
    positions 0..j-1, earliest position in the highest bit (graph6 order).
    The labelling lists the vertex at each position, cell by cell in the
    order of ``_refinement_cells``.  The automorphisms, as image lists,
    generate a subgroup of the automorphism group: the swap transpositions
    the search prunes, and for every leaf that ties the best encoding, the
    map from the best labelling to that leaf's.
    ``cells`` and ``swap`` are the graph's ``_refinement_cells`` and
    ``_swap_class_ids`` when the caller already holds them.
    """
    n = len(rows)
    if cells is None:
        cells = _refinement_cells(rows)
    pos_cells: list[list[int]] = []
    for cell in cells:
        pos_cells.extend([cell] * len(cell))
    if swap is None:
        swap = _swap_class_ids(rows)
    autos = []
    for u, cls in enumerate(swap):
        if cls != u:
            perm = list(range(n))
            perm[u], perm[cls] = cls, u
            autos.append(tuple(perm))

    best: list[int] | None = None
    best_lab: list[int] = []
    cols: list[int] = []
    placed: list[int] = []
    used = 0
    version = 0

    def dfs(j: int, tight: bool) -> None:
        nonlocal best, best_lab, used, version
        if j == n:
            if best is None or not tight:
                best = cols.copy()
                best_lab = placed.copy()
                version += 1
            else:
                perm = [0] * n
                for a, b in zip(best_lab, placed):
                    perm[a] = b
                autos.append(tuple(perm))
            return
        cands = []
        seen_classes = set()
        for u in pos_cells[j]:
            if used >> u & 1:
                continue
            cls = swap[u]
            if cls in seen_classes:
                continue
            seen_classes.add(cls)
            c = 0
            ru = rows[u]
            for w in placed:
                c = c << 1 | (ru >> w & 1)
            cands.append((c, u))
        cands.sort()
        my_tight = tight
        for c, u in cands:
            if best is not None and my_tight and j > 0 and c > best[j - 1]:
                break
            child_tight = (
                best is not None and my_tight and (j == 0 or c == best[j - 1])
            )
            before = version
            placed.append(u)
            used |= 1 << u
            if j > 0:
                cols.append(c)
            dfs(j + 1, child_tight)
            if j > 0:
                cols.pop()
            used &= ~(1 << u)
            placed.pop()
            if version != before:
                my_tight = True

    dfs(0, True)
    assert best is not None
    return best, best_lab, autos


def _rows_from_columns(cols: Sequence[int]) -> tuple[int, ...]:
    n = len(cols) + 1
    out = [0] * n
    for j in range(1, n):
        c = cols[j - 1]
        for i in range(j):
            if c >> (j - 1 - i) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return tuple(out)


def _canonical_rows(rows: Sequence[int], limit: int = CANONICAL_TIER_LIMIT) -> tuple[int, ...]:
    n = len(rows)
    if n > limit:
        raise CanonicalSizeError(
            f"{n} vertices exceeds the canonical search limit of {limit}"
        )
    if n <= 1:
        return tuple(rows)
    return _rows_from_columns(_min_columns(rows)[0])


def canonical_graph(g: Graph, limit: int = CANONICAL_TIER_LIMIT) -> Graph:
    """The canonically relabelled copy of ``g``."""
    return Graph(_canonical_rows(g.rows, limit))


def canonical_form(g: Graph, limit: int = CANONICAL_TIER_LIMIT) -> bytes:
    """Canonical graph6 bytes: equal for two graphs iff they are isomorphic."""
    return to_graph6(canonical_graph(g, limit)).encode("ascii")


# ---------------------------------------------------------------------------
# Isomorph-free census of connected graphs
# ---------------------------------------------------------------------------


def _mask_orbit_reps(masks: Sequence[int], gens: Sequence[Sequence[int]]) -> list[int]:
    """The least member of each orbit of ``masks`` under the group that
    the permutations ``gens`` generate.  ``masks`` are vertex subsets as
    bitmasks, in ascending order, and the group maps them onto themselves.
    Each generator maps masks through a table of the images of all
    subsets, built a vertex at a time: the subsets that hold vertex ``v``
    map to those without it, each joined with the image of ``v``."""
    if not gens:
        return list(masks)
    images = []
    for perm in gens:
        img = [0]
        for p in perm:
            bit = 1 << p
            img += [y | bit for y in img]
        images.append(img)
    seen = bytearray(len(images[0]))
    reps = []
    for m in masks:
        if seen[m]:
            continue
        reps.append(m)
        seen[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return reps


def _canonical_gens(lab: Sequence[int], autos: Sequence[Sequence[int]]) -> tuple[bytes, ...]:
    """The automorphisms ``autos`` of a graph, conjugated into the
    canonical labelling ``lab`` gives it: with ``pos`` the inverse of
    ``lab``, each becomes ``i -> pos[p[lab[i]]]``, as bytes."""
    pos = {v: i for i, v in enumerate(lab)}
    return tuple(dict.fromkeys(bytes(pos[p[v]] for v in lab) for p in autos))


def _key_table(rows: Sequence[int]) -> list[int]:
    """The census key's per-parent table: entry ``x`` sums ``16^(k-deg u)``
    over the vertices ``u`` of the subset ``x`` of the parent's ``k``
    vertices, each degree taken in the parent.  Built a vertex at a time:
    the subsets that hold ``u`` add its term to those without it."""
    k = len(rows)
    table = [0]
    for r in rows:
        term = 1 << 4 * (k - r.bit_count())
        table += [t + term for t in table]
    return table


def _split_components(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """For each vertex ``v``, the vertex sets of the components of the
    graph minus ``v``, as bitmasks: ``v`` is a cut vertex iff there are
    two or more."""
    full = (1 << len(rows)) - 1
    out = []
    for v in range(len(rows)):
        rest = full & ~(1 << v)
        comps = []
        while rest:
            comp = _reach(rows, rest & -rest, rest)[0]
            comps.append(comp)
            rest &= ~comp
        out.append(tuple(comps))
    return out


@cache
def _mask_groups(k: int, floor: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nonempty subsets of ``k`` vertices as bitmasks, in ascending
    order, in two groups: those of size 1 or above ``floor``, and those of
    size ``floor`` when that is 2 or more."""
    free: list[int] = []
    edge: list[int] = []
    for m in range(1, 1 << k):
        size = m.bit_count()
        if size == 1 or size > floor:
            free.append(m)
        elif size == floor:
            edge.append(m)
    return tuple(free), tuple(edge)


def _survivors(k: int, floor: int, floor_mask: int) -> Sequence[int]:
    """The masks of a ``k``-vertex parent that pass the degree test, in
    ascending order: those of size 1, above ``floor``, or of size ``floor``
    and disjoint from ``floor_mask`` (see ``_augment_parent``)."""
    free, edge = _mask_groups(k, floor)
    if not edge:
        return free
    survivors = [*free, *(m for m in edge if not m & floor_mask)]
    survivors.sort()  # two ascending runs, merged
    return survivors


def _star_candidates(
    child: Sequence[int], ties: list[int]
) -> tuple[list[int], list[list[int]] | None, list[int] | None]:
    """The ties that the canonical deletion vertex ``v*`` of ``child`` may
    be, up to the orbit of the new vertex ``k`` (the last), with the
    child's refinement cells and swap labels where they were computed.

    ``ties`` are the child's non-cut vertices with the top key, ``k``
    among them.  ``v*`` is among the ties in the highest refinement cell
    that holds one, since ``_min_columns`` places each cell before the
    next and ``v*`` is the tie placed last.  When every tie there is a
    swap-twin of ``k`` (``k`` alone, for one), each transposition ``(k v)``
    is an automorphism, so ``v*`` is in the orbit of ``k`` and the answer
    is ``[k]``.  The cells are computed only when some tie is not a
    swap-twin of ``k``.
    """
    k = len(child) - 1
    if len(ties) == 1:
        return ties, None, None
    swap = _swap_class_ids(child)
    twins = swap[k]
    if all(swap[v] == twins for v in ties):
        return [k], None, swap
    cells = _refinement_cells(child)
    for cell in reversed(cells):
        top = [v for v in cell if v in ties]
        if top:
            break
    return [k] if all(swap[v] == twins for v in top) else top, cells, swap


def _augment_parent(
    parent: tuple[tuple[int, ...], tuple[bytes, ...]], last: bool = False, canonical: bool = True
) -> tuple[list, tuple[int, ...]]:
    """The children of a canonically labelled connected graph that have it
    as their canonical parent, with the counts ``(masks, rejected by key,
    rejected by cells, canonical searches, accepted without search, orbit
    tests, accepted)``; the first is the sum of the next four.

    ``parent`` is the graph's rows and generators of its automorphism
    group.  The new vertex ``k`` is joined to the least subset of each
    orbit of that group, among the subsets that pass a degree test.  A
    child's canonical deletion vertex ``v*`` is, among its non-cut
    vertices with the largest key (degree, then sorted neighbour degrees),
    the one last in canonical labelling.  The child is kept iff ``k`` lies
    in the orbit of ``v*``; a child in which a non-cut vertex outranks
    ``k`` fails with no search.  A kept child's canonical parent, the class
    of ``child - v*``, is then the parent's class.

    The key test reads per-parent data and builds a child only once it
    has passed.  Below, ``deg`` is the degree in the parent and ``N`` the
    neighbourhood there; in the child, ``v < k`` has degree ``deg v + [v in
    mask]`` and ``k`` has ``|mask|``.

    * Key order.  Give a child vertex the code that sums ``16^(k+1-c)``
      over its neighbours' child degrees ``c``.  A child degree is at most
      ``k <= 8``, so the code has one base-16 digit per degree, the count
      of neighbours of that degree, and among vertices of one degree the
      keys order as the codes reversed, by the argument of
      ``_refinement_cells``.
      With ``T = _key_table(parent)``, whose terms are ``16^(k-deg u)``, a
      neighbour outside the mask keeps its degree and adds 16 times its
      term, one in the mask gains one and adds its term, and ``k`` adds
      ``16^(k+1-|mask|)``.  So the code of ``v`` is ``16 T[N(v) - mask] +
      T[N(v) & mask]``, plus ``16^(k+1-|mask|)`` if ``v`` is in the mask,
      and that of ``k`` is ``T[mask]``.
    * Cut vertices.  ``child - k`` is the parent, which is connected, so
      ``k`` is never a cut vertex.  For ``v < k``, ``child - v`` is ``parent
      - v`` with ``k`` joined to the mask's vertices there: the components
      of ``parent - v`` that meet the mask merge through ``k``, and the rest
      stay apart.  So ``v`` is a cut vertex of the child iff the mask
      misses a component of ``parent - v`` (``_split_components``).  When
      ``v`` is not a cut vertex of the parent, ``parent - v`` has one
      component, every vertex but ``v``, so ``v`` stays non-cut unless the
      mask is ``{v}``; a cut vertex of the parent becomes non-cut iff the
      mask meets every component of ``parent - v``.  (When ``k`` is 1,
      ``parent - v`` has no component and ``v`` stays non-cut.)

    Among the ties (the non-cut vertices with the top key, ``k`` among
    them), three tests settle most children before any search, cheapest
    first (``_star_candidates``):

    1. ``k`` is the only tie: ``k`` is ``v*``, so the child is kept.
    2. Every tie is a swap-twin of ``k`` (``_swap_class_ids``): each
       transposition ``(k v)`` is an automorphism, so whichever tie is
       ``v*``, ``k`` is in its orbit, and the child is kept.
    3. The refinement cells (``_refinement_cells``) are an isomorphism
       invariant in an invariant order, so an automorphism maps each cell
       onto itself and every orbit lies inside one cell.  The canonical
       labelling places each cell before the next, so ``v*`` lies in the
       highest cell that holds a tie.  If ``k`` is not in that cell, it is
       not in the orbit of ``v*`` and the child is rejected.  If every tie
       there is a swap-twin of ``k`` (``k`` alone, for one), ``k`` is in
       the orbit of ``v*`` as in test 2, and the child is kept.

    Otherwise the child's canonical search (reusing the cells and swap
    labels already computed) gives the labelling, and ``k`` is tested
    against the orbit of ``v*`` under the automorphisms it returns.

    Each class arises from exactly one mask orbit of its canonical parent.
    At least one: deleting ``v*`` from a graph of the class leaves the
    parent's class, so the graph is a child whose ``k`` plays the part of
    ``v*``, from a mask that a parent automorphism maps to its orbit's
    least member; no non-cut vertex outranks ``v*``, so neither test
    rejects it.  At most one: let ``f`` map one kept child onto another.
    The orbit of ``v*`` is an isomorphism invariant, so ``f(k)`` is in the
    orbit of the second child's ``k``, and after an automorphism of that
    child, ``f`` fixes ``k``.  Restricted to the parent, it is then an
    automorphism that maps the first mask to the second, so both lie in
    one orbit.  So the children are isomorph-free with no per-parent set.

    The automorphisms ``_min_columns`` returns generate the full group.
    Every labelling with the smallest encoding is the image of the best
    one under an automorphism, so it is enough that the search reaches
    each such leaf up to returned automorphisms.  Branch-and-bound cuts
    only subtrees whose encodings all exceed the best found so far, so it
    cuts none of these leaves.  A subtree the swap pruning skips is the
    image of a tried sibling's under a swap transposition that fixes every
    placed vertex, and every swap transposition is a product of returned
    ones.  So every best leaf is the image of a visited best leaf under
    returned automorphisms, and the map from the best labelling to a
    visited one is returned.  The orbit test reads them as they are; a
    child that will be extended carries them, conjugated into its
    canonical labelling (``_canonical_gens``), so no parent is searched
    again.  The tests compare the carried groups with networkx's on every
    parent up to 7 vertices, and the gated n = 9 class count covers the
    8-vertex ones.

    With ``last``, for the level that nothing extends, the children carry
    no generators.  Unless ``canonical``, a child that the three tests
    keep is then kept as built, with no search and in no canonical
    labelling.  Every other kept child is searched once, for its canonical
    labelling and generators.  The children come out in mask order.
    """
    rows, gens = parent
    k = len(rows)
    deg = [r.bit_count() for r in rows]
    comps = _split_components(rows)
    # A non-cut vertex of the parent stays non-cut in a child whose new
    # vertex has another neighbour.  It outranks k there if its degree in
    # the parent exceeds the mask's size, or equals it and it is in the
    # mask, so only the largest such degree, floor, matters.  The group
    # keeps a mask's size and whether it meets floor_mask, so the test
    # runs before the orbits.
    noncut_degree = {v: deg[v] for v in range(k) if len(comps[v]) < 2}
    floor = max(noncut_degree.values())
    floor_mask = sum(1 << v for v, d in noncut_degree.items() if d == floor)
    masks = _mask_orbit_reps(_survivors(k, floor, floor_mask), gens)
    table = _key_table(rows)
    # rivals[s]: the vertices whose degree in a child reaches a mask size s
    rivals = [[v for v in range(k) if deg[v] >= s - 1] for s in range(k + 1)]
    kept = []
    rejected = by_cells = searches = unsearched = tests = 0
    for mask in masks:
        dk = mask.bit_count()
        top = table[mask]
        shift = 4 * (k + 1 - dk)
        ties = [k]
        for v in rivals[dk]:
            inside = mask >> v & 1
            dv = deg[v] + inside
            if dv == dk:
                row = rows[v]
                code = (table[row & ~mask] << 4) + table[row & mask] + (inside << shift)
                if code > top:
                    continue
            elif dv < dk:
                continue
            if all(mask & c for c in comps[v]):  # v is not a cut vertex of the child
                if dv == dk and code == top:
                    ties.append(v)
                    continue
                rejected += 1
                break
        else:
            # one tuple, no intermediate: the last level keeps it, and a freed
            # intermediate per child raised the sweep's peak RSS by 0.1 MB
            child = (*(r | (mask >> v & 1) << k for v, r in enumerate(rows)), mask)
            stars, cells, swap = _star_candidates(child, ties)
            if k not in stars:
                by_cells += 1
                continue
            if last and not canonical and stars == [k]:
                unsearched += 1
                kept.append(child)
                continue
            cols, lab, autos = _min_columns(child, cells, swap)
            searches += 1
            star = max(stars, key=lab.index)
            if star != k:
                tests += 1
                orbit = [k]
                for v in orbit:  # grows as it is read
                    orbit.extend({p[v] for p in autos}.difference(orbit))
                if star not in orbit:
                    continue
            canon = _rows_from_columns(cols)
            kept.append(canon if last else (canon, _canonical_gens(lab, autos)))
    return kept, (len(masks), rejected, by_cells, searches, unsearched, tests, len(kept))


def _children(parents: list, pmap: Callable, last: bool, canonical: bool) -> Iterator:
    """The next census level: the accepted children of each parent, in
    parent order, with their generators unless ``last``.  Parents expand
    independently, at most 256 at a time in a pool, so memory stays flat
    while the children are only streamed.  With ``last`` and not
    ``canonical``, some children are not canonically labelled (see
    ``_augment_parent``)."""
    totals = [0] * 7
    for kept, counts in pmap(partial(_augment_parent, last=last, canonical=canonical), parents, 256):
        totals = [a + b for a, b in zip(totals, counts)]
        yield from kept
    log.info(
        "census n=%d: %d parents, %d masks after orbit pruning, %d rejected by key, "
        "%d rejected by cells, %d canonical searches, %d accepted without search, "
        "%d orbit tests, %d accepted",
        len(parents[0][0]) + 1, len(parents), *totals,
    )


def _census_levels(n_max: int, pmap: Callable, canonical: bool) -> Iterator[Iterable[tuple]]:
    """The census levels ``1..n_max`` in order, as adjacency rows.  Every
    level but the last is a list in canonical labelling whose graphs carry
    their automorphisms, since it grows the next.  The last is only
    streamed; unless ``canonical``, its children that the twin and cell
    rules keep skip the canonical search, so their labelling is as built."""
    level: Iterable = [((0,), ())]
    for k in range(1, n_max + 1):
        if k > 1:
            level = _children(level, pmap, k == n_max, canonical)
        if 1 < k == n_max:
            yield level  # plain rows: the last level carries no generators
        else:
            level = list(level)
            yield (rows for rows, _ in level)


def connected_graphs(n: int, jobs: int = 1) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on
    exactly ``n`` vertices, in canonical labelling, streamed in
    deterministic order."""
    if not 1 <= n <= MAX_CENSUS_ORDER:
        raise ValueError(f"census supports 1..{MAX_CENSUS_ORDER} vertices, got {n}")
    with ordered_map(jobs) as pmap:
        for level in _census_levels(n, pmap, canonical=True):
            pass  # walk to level n, which is streamed
        yield from map(Graph, level)


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


class SweepTotals:
    """How many graphs of one order the sweep counted in each class."""

    def __init__(self) -> None:
        self.connected = 0
        self.reduced = 0
        self.extremal = 0
        self.odd_extremal = 0
        self.even_extremal = 0
        self.recognized = 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def to_dict(self) -> dict:
        return dict(vars(self))


class SweepReport:
    """Aggregated outcome of an exhaustive verification run.

    ``mismatches`` lists reduced even-diameter extremal graphs the
    recognizer rejected (a counterexample to the characterization if ever
    nonempty); ``unreduced_failures`` lists non-reduced extremal graphs
    whose twin reduction was not recognized.  ``to_dict`` also writes an
    ``inconclusive`` key that is a constant empty list: the recognizer
    always decides, and the key stays for readers of the report.  Lemma
    summaries aggregate the per-graph checker reports for the selected
    suites.  Timing fields are informational and excluded from
    reproducibility comparisons.  Two reports are equal when every field,
    timings included, is.
    """

    def __init__(self, n_min: int, n_max: int, suites: tuple[str, ...]) -> None:
        self.n_min = n_min
        self.n_max = n_max
        self.suites = suites
        self.per_n: dict[int, SweepTotals] = {}
        self.mismatches: list[str] = []
        self.recognized: list[dict] = []
        self.unreduced_failures: list[str] = []
        self.lemma_summaries: dict[str, dict] = {}
        self.timings: dict[str, float] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def to_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "suites": list(self.suites),
            "per_n": {str(n): t.to_dict() for n, t in sorted(self.per_n.items())},
            "mismatches": self.mismatches,
            "inconclusive": [],
            "recognized": self.recognized,
            "unreduced_failures": self.unreduced_failures,
            "lemma_summaries": self.lemma_summaries,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
        }


def _evaluate_graph(rows: tuple[int, ...], suites: tuple[str, ...]) -> dict:
    """Per-graph worker: invariants, recognition where applicable, and the
    selected lemma suites.  Takes plain tuples so it can cross a process
    boundary.

    Extremality (eta = n - d - 1) is read from the graph's table,
    ``lemmas._GraphFacts.extremal``, with or without suites, and
    ``exact_rank`` marks the graphs that needed an exact rank there.
    ``d`` is read only for extremal graphs.  The suites run before the
    recognizer reads the twin reduction, whose table would evict G's.

    The sweep's last census level is not all canonically labelled (see
    ``_augment_parent``), and the recognition parameters, witness graph6
    and lemma witnesses depend on the labelling.  So an extremal graph is
    canonicalized before anything else reads it, and the suites run again
    on the canonical copy of any other graph whose reports carry a
    violation or a changed diameter.  Everything else in the record is an
    isomorphism invariant, including every suite's instance count: the two
    suites that read a diameter path check only extremal graphs.  The
    canonical copy and the twin reduction each build a table of their own.
    """
    g = Graph(rows)
    reduced = is_reduced(g)
    facts = lemmas._facts(g)
    d = facts.diameter if facts.extremal else 0
    if facts.extremal:
        g = canonical_graph(g)
    even = d >= 2 and d % 2 == 0
    rec = {
        "n": g.n,
        "graph6": None,
        "reduced": reduced,
        "extremal": facts.extremal,
        "odd_extremal": d % 2 == 1,
        "even_candidate": reduced and even,
        "verdict": None,
        "recognition": None,
        "unreduced_failure": False,
        "exact_rank": facts.rank_open,
    }
    if suites:
        reports = {name: lemmas.run_suite(name, g) for name in suites}
        # an extremal g is canonical already
        changed = (lr.violations or lr.notes.get("diameter", {}).get("changed") for lr in reports.values())
        if not facts.extremal and any(changed):
            canon = canonical_graph(g)
            if canon != g:
                reports = {name: lemmas.run_suite(name, canon) for name in suites}
        rec["lemma_reports"] = reports
    if reduced and even:
        result = recognize(g)
        rec["verdict"] = result.verdict.value
        if result.verdict is Verdict.EVEN_EXTREMAL:
            rec["recognition"] = result.to_dict()
    elif even:
        rec["unreduced_failure"] = recognize(reduce(g, d).graph).verdict is Verdict.MISMATCH
    if rec["verdict"] == Verdict.MISMATCH.value or rec["unreduced_failure"]:
        rec["graph6"] = to_graph6(g)  # read only by the witness lists
    return rec


def _fold_record(report: SweepReport, rec: dict) -> None:
    totals = report.per_n.setdefault(rec["n"], SweepTotals())
    totals.connected += 1
    totals.reduced += rec["reduced"]
    totals.extremal += rec["extremal"]
    totals.odd_extremal += rec["odd_extremal"]
    totals.even_extremal += rec["even_candidate"]
    if rec["verdict"] == Verdict.EVEN_EXTREMAL.value:
        totals.recognized += 1
        report.recognized.append(rec["recognition"])
    elif rec["verdict"] == Verdict.MISMATCH.value:
        report.mismatches.append(rec["graph6"])
    if rec["unreduced_failure"]:
        report.unreduced_failures.append(rec["graph6"])
    for name, lr in rec.get("lemma_reports", {}).items():
        summary = report.lemma_summaries.setdefault(
            name,
            {"graphs": 0, "instances": 0, "violations": [], "skipped": 0, "truncated": 0},
        )
        summary["graphs"] += 1
        summary["instances"] += lr.checked
        summary["violations"].extend(v.to_dict() for v in lr.violations)
        summary["skipped"] += lr.skipped is not None
        summary["truncated"] += lr.truncated
        if name == lemmas.SUITE_REDUCTION_EQUIVALENCE and lr.notes.get("diameter", {}).get("changed"):
            summary.setdefault("diameter_changed", []).append(
                {"graph6": lr.graph6, **lr.notes["diameter"]}
            )
        if name == lemmas.SUITE_PENDANT_DELETION:
            for inst in lr.notes.get("instances", ()):
                key = "support_only_holds" if inst["support_only_form_holds"] else "support_only_fails"
                summary[key] = summary.get(key, 0) + 1


def _log_progress(k: int, done: int, exact: int, level_start: float) -> None:
    rate = done / (time.perf_counter() - level_start)
    log.info("sweep n=%d: %d graphs evaluated, %.0f graphs/s, %d exact ranks", k, done, rate, exact)


def verify_theorem(
    n_min: int,
    n_max: int,
    suites: Sequence[str] = (),
    jobs: int = 1,
) -> SweepReport:
    """Exhaustive sweep over all connected graphs with n_min <= n <= n_max.

    For every graph: invariants and reducedness; for reduced graphs with
    even diameter >= 2 and nullity n - d - 1, the recognizer must accept
    (failures are collected as mismatch witnesses).  Selected lemma suites
    run on every graph; a suite named twice runs and is listed once, where
    it is first named.  Results are deterministic and independent of
    ``jobs``; sharded runs fold to the same report.
    """
    suites = tuple(dict.fromkeys(suites))
    unknown = set(suites) - set(lemmas.ALL_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if n_max > MAX_CENSUS_ORDER:
        raise ValueError(f"census supports n <= {MAX_CENSUS_ORDER}")
    report = SweepReport(n_min, n_max, suites)
    if n_min > n_max:
        return report
    started = time.perf_counter()

    with ordered_map(jobs) as pmap:
        level_start = started
        for k, level in enumerate(_census_levels(n_max, pmap, canonical=False), start=1):
            if k >= n_min:
                done = exact = 0
                for rec in pmap(partial(_evaluate_graph, suites=suites), level, 20_000):
                    _fold_record(report, rec)
                    exact += rec["exact_rank"]
                    done += 1
                    if done % 20_000 == 0:
                        _log_progress(k, done, exact, level_start)
                if done % 20_000:
                    _log_progress(k, done, exact, level_start)
                report.timings[f"n={k}"] = time.perf_counter() - level_start
                log.info("sweep level n=%d done in %.2fs", k, report.timings[f"n={k}"])
            level_start = time.perf_counter()
    report.timings["total"] = time.perf_counter() - started
    return report
