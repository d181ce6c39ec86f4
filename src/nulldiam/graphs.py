"""Immutable bitset graphs: graph6 codec, metrics, twins, and path anatomy.

A graph is stored as one adjacency bitmask per vertex (one machine word,
capped at 64 vertices), so graphs are cheap hashable values and every
derived operation is a pure function.  Metric helpers (diameter, shortest
path enumeration, reduction) reject disconnected input explicitly, while
purely structural helpers (twins, pendants) accept anything, including the
empty graph that vertex-deletion identities produce.

A diameter path is a plain tuple of vertices, ``P_(d+1)`` in order, and
the vertices off it are read by the path positions of their neighbours
(:func:`classify_outside`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

MAX_VERTICES = 64

#: Default cap on shortest-path enumeration.
DEFAULT_PATH_LIMIT = 10_000


class Graph6Error(ValueError):
    """Malformed graph6 input.

    ``reason`` names the defect: ``"length"`` (truncated or malformed size
    prefix), ``"charset"`` (a character outside ``chr(63)..chr(126)``),
    ``"trailing"`` (extra bytes after the edge bits), ``"padding"``
    (nonzero padding bits), or ``"too-large"`` (more than 64 vertices).
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class DisconnectedGraphError(ValueError):
    """A metric operation required a connected graph."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _rows_without(rows: Sequence[int], drop: Sequence[int]) -> tuple[int, ...]:
    """The bit rows left after deleting the vertices ``drop``, relabelled in
    order as ``Graph.without`` relabels them: each deleted vertex's bit is
    cut out of every row."""
    kept = [r for v, r in enumerate(rows) if v not in drop]
    for v in sorted(drop, reverse=True):
        low = (1 << v) - 1
        kept = [r & low | r >> 1 & ~low for r in kept]
    return tuple(kept)


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``rows[v]`` is the open neighbourhood of ``v`` as a bitmask.  The
    constructor enforces symmetry and an empty diagonal, so instances are
    always simple graphs.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n > MAX_VERTICES:
            raise ValueError(f"at most {MAX_VERTICES} vertices supported, got {n}")
        full = (1 << n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} has neighbour bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.rows):
            for u in _bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(tuple(rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def neighbor_list(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def with_vertex(self, attach_mask: int) -> "Graph":
        """New graph with an extra vertex ``n`` adjacent to ``attach_mask``."""
        n = self.n
        if attach_mask & ~((1 << n) - 1):
            raise ValueError("attachment mask has bits outside the vertex set")
        rows = [r | ((attach_mask >> v & 1) << n) for v, r in enumerate(self.rows)]
        rows.append(attach_mask)
        return Graph(tuple(rows))

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabelled to ``0..len(keep)-1`` in
        the given order."""
        index = {v: i for i, v in enumerate(keep)}
        if len(index) != len(keep):
            raise ValueError("duplicate vertices in induced subgraph")
        rows = [0] * len(keep)
        for i, v in enumerate(keep):
            for u in _bits(self.rows[v]):
                j = index.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(tuple(rows))

    def without(self, *drop: int) -> "Graph":
        """Delete the given vertices (order of the rest preserved)."""
        gone = set(drop)
        return self.induced([v for v in range(self.n) if v not in gone])

    def is_connected(self) -> bool:
        """Whether the graph has one component.  The empty graph has none,
        so it is not connected (and has no diameter)."""
        return self.n > 0 and _reach(self.rows, 1)[0] == (1 << self.n) - 1


# ---------------------------------------------------------------------------
# Standard constructions (used throughout the tests and the family builder)
# ---------------------------------------------------------------------------


def path_graph(m: int) -> Graph:
    """Path on ``m`` vertices, labelled along the path."""
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m: int) -> Graph:
    return Graph.from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def star_graph(m: int) -> Graph:
    """Star on ``m`` vertices with centre 0."""
    return Graph.from_edges(m, [(0, i) for i in range(1, m)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------
#
# Bit-exact per the de-facto format: size is byte n+63 for n <= 62, else
# 126 followed by three bytes of n in big-endian 6-bit groups; edge bits are
# the upper triangle read column by column (x_{0,1}, x_{0,2}, x_{1,2}, ...),
# packed into 6-bit groups offset by 63 and zero-padded.


#: 63 plus each 6-bit value with its bits in reverse order.
_BACKWARDS_6 = [63 + int(f"{x:06b}"[::-1], 2) for x in range(64)]


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [63 + n]
    else:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    # column j, x_{0,j} .. x_{j-1,j}, is the low j bits of rows[j]; laid
    # end to end from the low end of ``bits``, graph6's k-th edge bit is
    # bit k, so each group of six is read backwards
    bits = 0
    for j in range(1, n):
        bits |= (g.rows[j] & ~(-1 << j)) << (j * (j - 1) // 2)
    groups = (n * (n - 1) // 2 + 5) // 6
    body = [_BACKWARDS_6[bits >> 6 * k & 63] for k in range(groups)]
    return bytes(head + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    data = [ord(ch) for ch in text]
    if not data:
        raise Graph6Error("empty graph6 record", reason="length")
    for byte in data:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range 63..126", reason="charset")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte size prefix implies n >= 258048", reason="too-large")
        if len(data) < 4:
            raise Graph6Error("truncated multi-byte size prefix", reason="length")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise Graph6Error(f"multi-byte size prefix used for n={n}", reason="length")
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"{n} vertices exceeds the {MAX_VERTICES}-vertex cap", reason="too-large")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(f"expected {nbytes} edge bytes, got {len(body)}", reason="length")
    if len(body) > nbytes:
        raise Graph6Error(f"{len(body) - nbytes} trailing bytes after edge bits", reason="trailing")
    # the mirror of to_graph6: graph6's k-th edge bit becomes bit k of
    # ``bits``, so column j, x_{0,j} .. x_{j-1,j}, is j bits from j(j-1)/2
    bits = 0
    for k, byte in enumerate(body):
        bits |= (_BACKWARDS_6[byte - 63] - 63) << 6 * k
    if bits >> nbits:
        raise Graph6Error("nonzero padding bits", reason="padding")
    rows = [0] * n
    for j in range(1, n):
        column = bits >> (j * (j - 1) // 2) & ~(-1 << j)
        rows[j] = column
        for i in _bits(column):
            rows[i] |= 1 << j
    return Graph(tuple(rows))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _reach(rows: Sequence[int], sources: int, within: int = -1) -> tuple[int, int]:
    """Breadth-first search on bit rows from the vertex set ``sources``,
    stepping only onto vertices of ``within`` (all by default), one bitmask
    per layer.  Returns the set of vertices reached (``sources`` included)
    and the number of steps to the farthest of them, -1 when ``sources`` is
    empty."""
    seen = frontier = sources
    steps = -1
    while frontier:
        steps += 1
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= rows[low.bit_length() - 1]
        frontier = reach & within & ~seen
        seen |= frontier
    return seen, steps


def _distances(rows: Sequence[int], sources: int) -> list[int | float]:
    """Edge count from the vertex set ``sources`` to each vertex of the bit
    rows; ``math.inf`` where a vertex is unreachable."""
    dist: list[int | float] = [math.inf] * len(rows)
    seen = frontier = sources
    d = 0
    while frontier:
        reach = 0
        for u in _bits(frontier):
            dist[u] = d
            reach |= rows[u]
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return dist


def diameter(g: Graph) -> int:
    if g.n == 0:
        raise DisconnectedGraphError("diameter of the empty graph is undefined")
    everyone = (1 << g.n) - 1
    best = 0
    for v in range(g.n):
        seen, ecc = _reach(g.rows, 1 << v)
        if seen != everyone:
            raise DisconnectedGraphError("graph is disconnected")
        best = max(best, ecc)
    return best


def is_diameter_path(g: Graph, path: Sequence[int], d: int | None = None) -> bool:
    """Whether the vertex sequence ``path`` is a shortest path of ``g`` as
    long as its diameter: each vertex adjacent to the next, and the ends at
    distance ``len(path) - 1``, which is the diameter.  A walk of that many
    edges between vertices that far apart is a shortest path, so its
    vertices are distinct and it has no chord.

    ``d`` is the diameter of ``g`` when the caller already holds it;
    otherwise it is computed.
    """
    if not path or any(not 0 <= v < g.n for v in path):
        return False
    if any(not g.rows[u] >> v & 1 for u, v in zip(path, path[1:])):
        return False
    ends = _distances(g.rows, 1 << path[0])[path[-1]]
    return ends == len(path) - 1 == (diameter(g) if d is None else d)


def diameter_paths(
    g: Graph, limit: int = DEFAULT_PATH_LIMIT, d: int | None = None
) -> list[tuple[int, ...]]:
    """All shortest paths of diameter length as vertex tuples, one
    orientation each.

    Paths are enumerated between eccentric pairs ``u < v`` (oriented from
    ``u``) by walking the BFS DAG toward ``v``; order is deterministic.
    At most ``limit`` paths are returned, so a result shorter than
    ``limit`` is guaranteed to be complete, so ``limit`` must be at least 1.
    ``d`` is the diameter of ``g`` when the caller already holds it;
    otherwise it is computed.  A BFS runs from a vertex only when the walk
    first reaches it as ``u`` or as ``v``, so a small ``limit`` stops early.
    """
    if limit < 1:
        raise ValueError(f"path limit must be >= 1, got {limit}")
    if d is None:
        d = diameter(g)
    if d == 0:
        return [(0,)]
    dist: list[list[int | float] | None] = [None] * g.n
    out: list[tuple[int, ...]] = []

    def distances(v: int) -> list[int | float]:
        if dist[v] is None:
            dist[v] = _distances(g.rows, 1 << v)
        return dist[v]

    def extend(prefix: list[int], to_target: list[int | float]) -> bool:
        cur = prefix[-1]
        want = to_target[cur] - 1
        if want < 0:  # cur is the target
            out.append(tuple(prefix))
            return len(out) < limit
        for w in _bits(g.rows[cur]):
            if to_target[w] == want:
                if not extend(prefix + [w], to_target):
                    return False
        return True

    for u in range(g.n):
        from_u = distances(u)
        for v in range(u + 1, g.n):
            if from_u[v] == d and not extend([u], distances(v)):
                return out
    return out


# ---------------------------------------------------------------------------
# Twins, reduction, pendants
# ---------------------------------------------------------------------------


def twin_classes(g: Graph) -> list[list[int]]:
    """Partition of the vertices by equal open neighbourhood.

    Vertices in one class of size >= 2 are twins; they are necessarily
    non-adjacent (a common neighbourhood containing either endpoint would
    be a self-loop).
    """
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.rows[v], []).append(v)
    return sorted(groups.values())


def is_reduced(g: Graph) -> bool:
    return len(set(g.rows)) == g.n


@dataclass(frozen=True, slots=True)
class ReductionResult:
    """The twin-reduced graph, the vertices of ``g`` deleted to reach it
    (ascending), and both diameters.

    The reduced graph is ``g.without(*deleted)``: the survivors keep their
    order, so A(reduced) is the principal submatrix of A(g) without
    ``deleted``, and the lemma table ranks it as one.  ``removed`` is the
    number of deleted vertices.
    """

    graph: Graph
    deleted: tuple[int, ...]
    original_diameter: int
    reduced_diameter: int

    @property
    def removed(self) -> int:
        """How many vertices reduction deleted."""
        return len(self.deleted)


def reduce(g: Graph, d: int | None = None) -> ReductionResult:
    """Delete twins until none remain, keeping the last vertex of each twin
    class (in order).

    One pass suffices: deleting a vertex ``w`` that has a twin ``w'``
    never makes two other vertices twins, because if ``w`` is adjacent to
    exactly one of them, so is ``w'``.  Twin deletion keeps the graph
    connected, so both diameters are well defined; they are reported side
    by side because reduction can shrink the diameter (C_4 reduces to K_2,
    dropping it from 2 to 1), and no equality between them is ever
    assumed.  ``d`` is the diameter of ``g`` when the caller already
    holds it; otherwise it is computed.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("reduction is defined for connected graphs")
    last = {row: v for v, row in enumerate(g.rows)}
    deleted = tuple(v for v, row in enumerate(g.rows) if last[row] != v)
    cur = g.without(*deleted)
    return ReductionResult(cur, deleted, diameter(g) if d is None else d, diameter(cur))


def pendant_pairs(g: Graph) -> list[tuple[int, int]]:
    """All (pendant vertex, unique neighbour) pairs, ascending."""
    return [(v, g.rows[v].bit_length() - 1) for v in range(g.n) if g.rows[v].bit_count() == 1]


# ---------------------------------------------------------------------------
# Classification of vertices outside a diameter path
# ---------------------------------------------------------------------------


def classify_outside(
    g: Graph, path: Sequence[int], d: int | None = None
) -> dict[int, tuple[int, ...]]:
    """Each vertex off ``path`` mapped to the sorted path positions (0-based
    indices into ``path``) of its neighbours, ``()`` when it has none.

    ``path`` must be a diameter path of ``g`` (``ValueError`` otherwise);
    ``d`` is passed on to :func:`is_diameter_path`.  The positions of one
    vertex then span at most three consecutive, otherwise the path would
    admit a shortcut.
    """
    if not is_diameter_path(g, path, d):
        raise ValueError("not a diameter path of this graph")
    position = {v: i for i, v in enumerate(path)}
    return {
        x: tuple(sorted(position[u] for u in _bits(g.rows[x]) if u in position))
        for x in range(g.n)
        if x not in position
    }
