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
import os
import string
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import lemmas
from .families import Verdict, recognize
from .graphs import Graph, Graph6Error, _reach, is_reduced, parse_graph6, to_graph6

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
    key order, so the final cell order depends only on the isomorphism
    class.
    """
    n = len(rows)
    colors = [r.bit_count() for r in rows]
    ncolors = len(set(colors))
    while True:
        keys = []
        for v in range(n):
            m = rows[v]
            nb = []
            while m:
                low = m & -m
                m ^= low
                nb.append(colors[low.bit_length() - 1])
            nb.sort()
            keys.append((colors[v], tuple(nb)))
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [order[k] for k in keys]
        if len(order) == ncolors:
            break
        ncolors = len(order)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def _swap_class_ids(rows: Sequence[int]) -> list[int]:
    """Label vertices so that u, v share a label exactly when the
    transposition (u v) is an automorphism (equal neighbourhoods apart
    from each other).  Such a pair has equal open neighbourhoods if it is
    non-adjacent and equal closed ones if adjacent; no vertex has a twin
    of each kind, so a class is labelled by its least vertex."""
    open_label: dict[int, int] = {}
    closed_label: dict[int, int] = {}
    ids = []
    for u, r in enumerate(rows):
        label = open_label.get(r, closed_label.get(r | 1 << u, u))
        open_label.setdefault(r, label)
        closed_label.setdefault(r | 1 << u, label)
        ids.append(label)
    return ids


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
    bitmasks, in ascending order, and the group maps them onto themselves."""
    seen: set[int] = set()
    reps = []
    for m in masks:
        if m in seen:
            continue
        reps.append(m)
        seen.add(m)
        stack = [m]
        while stack:
            x = stack.pop()
            for perm in gens:
                y, rest = 0, x
                while rest:
                    low = rest & -rest
                    rest ^= low
                    y |= 1 << perm[low.bit_length() - 1]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


def _canonical_gens(lab: Sequence[int], autos: Sequence[Sequence[int]]) -> tuple[bytes, ...]:
    """The automorphisms ``autos`` of a graph, conjugated into the
    canonical labelling ``lab`` gives it: with ``pos`` the inverse of
    ``lab``, each becomes ``i -> pos[p[lab[i]]]``, as bytes."""
    pos = {v: i for i, v in enumerate(lab)}
    return tuple(dict.fromkeys(bytes(pos[p[v]] for v in lab) for p in autos))


def _neighbour_degrees(rows: Sequence[int], v: int, deg: Sequence[int]) -> list[int]:
    """Second part of the census's vertex key: the sorted degrees of the
    neighbours of ``v`` (the first part is its degree)."""
    out = []
    m = rows[v]
    while m:
        low = m & -m
        m ^= low
        out.append(deg[low.bit_length() - 1])
    out.sort()
    return out


def _is_cut_vertex(rows: Sequence[int], v: int) -> bool:
    rest = (1 << len(rows)) - 1 & ~(1 << v)
    return _reach(rows, rest & -rest, rest)[0] != rest


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
    # A non-cut vertex of the parent stays non-cut in a child whose new
    # vertex has another neighbour.  It outranks k there if its degree in
    # the parent exceeds the mask's size, or equals it and it is in the
    # mask, so only the largest such degree, floor, matters.  The group
    # keeps a mask's size and whether it meets floor_mask, so the test
    # runs before the orbits.
    noncut_degree = {v: r.bit_count() for v, r in enumerate(rows) if not _is_cut_vertex(rows, v)}
    floor = max(noncut_degree.values())
    floor_mask = sum(1 << v for v, d in noncut_degree.items() if d == floor)
    survivors = [m for m in range(1, 1 << k) if not 1 < m.bit_count() < floor + bool(m & floor_mask)]
    masks = _mask_orbit_reps(survivors, gens)
    kept = []
    rejected = by_cells = searches = unsearched = tests = 0
    for mask in masks:
        # one tuple, no intermediate: the last level keeps it, and a freed
        # intermediate per child raised the sweep's peak RSS by 0.1 MB
        child = (*(r | (mask >> v & 1) << k for v, r in enumerate(rows)), mask)
        deg = [r.bit_count() for r in child]
        dk = deg[k]
        top = _neighbour_degrees(child, k, deg)
        ties = [k]
        for v in range(k):
            if deg[v] < dk:
                continue
            if deg[v] == dk:
                key = _neighbour_degrees(child, v, deg)
                if key < top:
                    continue
                if key == top:
                    if not _is_cut_vertex(child, v):
                        ties.append(v)
                    continue
            if not _is_cut_vertex(child, v):
                rejected += 1
                break
        else:
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


@contextmanager
def ordered_map(jobs: int) -> Iterator[Callable]:
    """A map ``pmap(func, items, window)`` over ``jobs`` worker processes,
    but never more workers than ``os.cpu_count()``.  ``items`` may be any
    iterable, and results come in input order.

    With one worker this is a lazy builtin ``map``, run in this process,
    and ``window`` is ignored.  Otherwise this thread takes up to
    ``window`` items at a time and a process pool maps them, yielding
    results as they are ready; the next window is taken only after the
    last result of this one.  So the pool reads only lists, and a
    generator that itself uses the map runs only between windows.
    """
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        yield lambda func, items, window: map(func, items)
        return
    import multiprocessing  # only a pool needs it; a --jobs 1 run skips the import

    with multiprocessing.get_context().Pool(workers) as pool:

        def pool_map(func: Callable, items: Iterable, window: int) -> Iterator:
            items = iter(items)
            while batch := list(islice(items, window)):
                yield from pool.imap(func, batch, chunksize=max(1, len(batch) // (16 * workers)))

        yield pool_map


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
# graph6 stream ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedRecord:
    """One input line: either a graph or a parse error, never both."""

    line_no: int
    text: str
    graph: Graph | None
    error: str | None


def ingest_graph6_stream(source: IO[str] | Iterable[str]) -> Iterator[ParsedRecord]:
    """Parse line-delimited graph6, collecting per-line errors.

    Blank lines are skipped and only ASCII whitespace is stripped; a
    malformed line yields an error record and the stream continues, so one
    bad byte cannot poison a corpus run.  The format's optional file
    header ``>>graph6<<`` is removed from the start of line 1, with no
    line break needed after it; elsewhere it is a ``charset`` error.
    """
    for line_no, raw in enumerate(source, start=1):
        if line_no == 1:
            raw = raw.removeprefix(">>graph6<<")
        text = raw.strip(string.whitespace)
        if not text:
            continue
        try:
            yield ParsedRecord(line_no, text, parse_graph6(text), None)
        except Graph6Error as exc:
            yield ParsedRecord(line_no, text, None, f"{exc.reason}: {exc}")


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepTotals:
    connected: int = 0
    reduced: int = 0
    extremal: int = 0
    odd_extremal: int = 0
    even_extremal: int = 0
    recognized: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepReport:
    """Aggregated outcome of an exhaustive verification run.

    ``mismatches`` lists reduced even-diameter extremal graphs the
    recognizer rejected (a counterexample to the characterization if ever
    nonempty); ``unreduced_failures`` lists non-reduced extremal graphs
    whose twin reduction was not recognized; ``inconclusive`` is always
    empty, since the recognizer always decides, and is kept for readers of
    the key.  Lemma summaries aggregate the per-graph checker reports for
    the selected suites.  Timing fields are informational and excluded
    from reproducibility comparisons.
    """

    n_min: int
    n_max: int
    suites: tuple[str, ...]
    per_n: dict[int, SweepTotals] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    inconclusive: list[str] = field(default_factory=list)
    recognized: list[dict] = field(default_factory=list)
    unreduced_failures: list[str] = field(default_factory=list)
    lemma_summaries: dict[str, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "suites": list(self.suites),
            "per_n": {str(n): t.to_dict() for n, t in sorted(self.per_n.items())},
            "mismatches": self.mismatches,
            "inconclusive": self.inconclusive,
            "recognized": self.recognized,
            "unreduced_failures": self.unreduced_failures,
            "lemma_summaries": self.lemma_summaries,
        }
        if include_timings:
            out["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out


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
    on the canonical copy of a graph whose reports carry a violation or a
    changed diameter.  Everything else in the record is an isomorphism
    invariant, including every suite's instance count: the two suites that
    read a diameter path check only extremal graphs.  The copy's table
    starts with the invariants the graph's already holds
    (``lemmas._relabelled``).
    """
    g = Graph(rows)
    reduced = is_reduced(g)
    facts = lemmas._facts(g)
    d = facts.diameter if facts.extremal else 0
    if facts.extremal:
        g = lemmas._relabelled(g, canonical_graph(g))
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
        if any(lr.violations or lr.notes.get("diameter", {}).get("changed") for lr in reports.values()):
            canon = canonical_graph(g)
            if canon != g:
                lemmas._relabelled(g, canon)
                reports = {name: lemmas.run_suite(name, canon) for name in suites}
        rec["lemma_reports"] = reports
    if reduced and even:
        result = recognize(g)
        rec["verdict"] = result.verdict.value
        if result.verdict is Verdict.EVEN_EXTREMAL:
            rec["recognition"] = result.to_dict()
    elif even:
        rec["unreduced_failure"] = recognize(lemmas._twin_reduced(g, d)).verdict is Verdict.MISMATCH
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
