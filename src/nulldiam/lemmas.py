"""Executable checkers for the spectral deletion and reduction identities.

Each checker sweeps one structural identity over a single graph and
returns a :class:`ViolationReport` instead of asserting, so discrepancies
become data a corpus sweep can aggregate.  Checkers are deterministic
(vertices, pairs and subsets are visited in ascending order) and pure.

Two of them are expected to surface findings rather than stay empty:

* ``pendant-deletion`` checks the classical identity eta(G) = eta(G-u-w)
  for a pendant u with support w, and additionally records whether the
  weaker reading eta(G) = eta(G-w), which leaves the pendant isolated and
  is off by exactly one, happens to hold on each instance.
* ``reduction-equivalence`` tests whether "eta = n - d - 1" survives twin
  reduction in both directions.  It does not: C_4 reduces to K_2 and the
  diameter drops from 2 to 1, breaking the equivalence.  Violations where
  the diameter is preserved would contradict the identity in a stronger
  way and are flagged at high severity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .graphs import (
    Graph,
    _reach,
    _rows_without,
    diameter,
    diameter_paths,
    pendant_pairs,
    reduce,
    to_graph6,
    twin_classes,
)
from .linalg import IntMatrix, rank_exact, rank_gf2, shifted_adjacency

SUITE_INTERLACING = "interlacing"
SUITE_TWIN_DELETION = "twin-deletion"
SUITE_PENDANT_DELETION = "pendant-deletion"
SUITE_RANK_BOUND = "rank-bound"
SUITE_TWIN_EXTENSION = "twin-extension"
SUITE_REDUCTION_EQUIVALENCE = "reduction-equivalence"
SUITE_RANK_LOWER_BOUND = "rank-lower-bound"

#: Subset sweeps over vertices outside a diameter path are exponential;
#: beyond this many outside vertices the checker reports "truncated".
MAX_OUTSIDE_SWEEP = 12

DEFAULT_MU_VALUES: tuple[int, ...] = (-2, -1, 0, 1, 2)


class _once:
    """``functools.cached_property`` without its first-read lock (CPython
    3.11): a first read stores the value as a plain attribute."""

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Violation:
    lemma: str
    graph6: str
    witness: dict
    expected: str
    observed: str
    severity: str = "violation"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ViolationReport:
    """Outcome of one checker on one graph.

    ``ok`` is true exactly when no checked instance violated the property.
    ``skipped`` carries the reason when the checker's hypothesis gate was
    not met (skipping is not a violation); ``truncated`` marks a capped
    subset sweep.  ``notes`` holds checker-specific side data such as the
    pendant checker's weak-form bookkeeping.
    """

    lemma: str
    graph: Graph
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    skipped: str | None = None
    truncated: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @_once
    def graph6(self) -> str:
        """The graph's graph6 encoding, made when first read: a sweep reads
        it only for violations and notes, so most reports never encode."""
        return to_graph6(self.graph)

    def violate(self, witness: dict, expected: str, observed: str, severity: str = "violation") -> None:
        """Record a violation of this report's lemma on its graph."""
        self.violations.append(Violation(self.lemma, self.graph6, witness, expected, observed, severity))

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "graph6": self.graph6,
            "checked": self.checked,
            "violations": [v.to_dict() for v in self.violations],
            "skipped": self.skipped,
            "truncated": self.truncated,
            "notes": self.notes,
        }


class _GraphFacts:
    """What the sweep, the checkers and the recognizer share about one
    graph, each part made when first read: the shifted matrices A - mu*I,
    one diameter, one diameter path, the rank of every matrix asked for,
    and whether the graph is extremal.  The sweep
    (``enumeration._evaluate_graph``) reads :attr:`extremal` for every
    graph before the suites run, ``recognize`` reads the diameter,
    rank A(G) and the path, and ``reduction-equivalence`` passes the
    diameter to ``reduce`` and ranks the reduced graph as A(G) without
    the deleted twins, so each of these facts is computed once per
    labelled graph.

    A rank is keyed by mu and the rows of G - drop, the graph left after
    deleting ``drop``.  Those fix the entries of the shifted matrix's
    principal submatrix, so a matrix that several checkers or deletions
    ask for (A(G) itself, the deletion of either of two adjacent-label
    twins, a twin's or a pendant's deletion that interlacing already
    ranked at mu = 0) is eliminated once.  A key holds one integer per
    kept vertex rather than the matrix, and a submatrix is built only for
    a rank that neither the table nor its bounds know (see :meth:`rank`).
    ``nullity`` and the ``invariants`` command call ``rank_exact``
    directly, so they stay an independent channel.
    """

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._shifted: dict[int, IntMatrix] = {}
        self._rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._ranks: dict[tuple[int, tuple[int, ...]], int] = {}
        self._gf2: dict[tuple[int, ...], int] = {}

    def rank(self, mu: int, *drop: int) -> int:
        """rank(A - mu*I) without the rows and columns ``drop``, which is
        rank(A(G - drop) - mu*I).

        A rank not yet in the table is first bounded from the bit rows of
        G - drop, with no matrix built, and taken from the bounds when
        they meet; only the rest is eliminated.

        * Below, by the rank over GF(2).  A - mu*I is A mod 2 with the
          diagonal bit set when mu is odd.  A k x k minor that is odd is
          not zero, so k rows independent mod 2 are independent over the
          rationals: rank_GF2 <= rank_Q.
        * Above, by the number of distinct rows, since a row equal to
          another adds no rank.  Rows i and j of A - mu*I can be equal
          only if they agree in column i, where row i holds -mu and row j
          holds 0 or 1, so only for mu = 0 or mu = -1.  At mu = 0 the rows
          are the open neighbourhoods N(v), and at mu = -1 the closed
          ones N[v] (A + I); for every other mu all n rows are distinct,
          and the bound is n.
        """
        rows = self._rows.get(drop)
        if rows is None:
            rows = self._rows[drop] = _rows_without(self.graph.rows, drop)
        key = (mu, rows)
        r = self._ranks.get(key)
        if r is None:
            mod2 = tuple(row | 1 << i for i, row in enumerate(rows)) if mu & 1 else rows
            low = self._rank_mod2(mod2)
            high = len(set(mod2)) if mu in (0, -1) else len(rows)
            if low == high:
                r = low
            else:
                m = self._shifted.get(mu)
                if m is None:
                    m = self._shifted[mu] = shifted_adjacency(self.graph, mu)
                if drop:
                    m = m.principal([v for v in range(self.graph.n) if v not in drop])
                r = rank_exact(m)
            self._ranks[key] = r
        return r

    def _rank_mod2(self, rows: tuple[int, ...]) -> int:
        """``rank_gf2(rows)``, once per table for each matrix mod 2, which
        :attr:`rank_open` and the bounds at every mu share."""
        r = self._gf2.get(rows)
        if r is None:
            r = self._gf2[rows] = rank_gf2(rows)
        return r

    @_once
    def diameter(self) -> int:
        return diameter(self.graph)

    @_once
    def path(self) -> tuple[int, ...]:
        return diameter_paths(self.graph, 1, self.diameter)[0]

    @_once
    def rank_open(self) -> bool:
        """Whether the GF(2) certificates leave extremality open, so that
        :attr:`extremal` needs the exact rank A(G) from :meth:`rank`.  The
        diameter is read only when the eccentricity certificate cannot rule
        the graph out; the empty graph has no vertex to search from, and it
        raises there."""
        rows = self.graph.rows
        gf2 = self._rank_mod2(rows)
        seen, ecc = _reach(rows, 1 << rows.index(max(rows, key=int.bit_count))) if rows else (0, 0)
        return (seen != (1 << len(rows)) - 1 or gf2 < 2 * ecc + 2) and gf2 <= self.diameter + 1

    @_once
    def extremal(self) -> bool:
        """Whether eta = n - d - 1, that is rank A(G) = d + 1; the graph must
        be connected.  This is the one place that decides it, cheapest
        test first.

        The rank mod 2 of a 0/1 matrix never exceeds its rational rank,
        because an odd minor is a nonzero minor, and the GF(2) rank of an
        adjacency matrix is even (the matrix is alternating mod 2).  The
        eccentricity certificate needs no diameter: if the BFS from a
        vertex v of largest degree reaches every vertex, the graph is
        connected and d <= 2 ecc(v), as d(x, y) <= d(x, v) + d(v, y), so an
        extremal graph has rank_GF2 <= rank_Q = d + 1 <= 2 ecc(v) + 1, and
        ``rank_gf2(rows) >= 2 ecc(v) + 2`` proves the graph is not extremal.
        On the sweep's census up to n = 8 this rules out 10,724 of 12,113
        graphs (6,770 from vertex 0, 11,584 from d itself); the count
        depends on the labelling, which picks the vertex of largest degree
        that the BFS starts from, and the sweep keeps part of its last
        level in the labelling it was built in.  A BFS that misses a
        vertex proves nothing, and the diameter then raises
        ``DisconnectedGraphError``.  Otherwise ``rank_gf2(rows) >= d + 2``
        proves the graph is not extremal with the exact diameter.  Both
        bounds are one-sided (K_3 has rank 2 mod 2 and 3 over the
        rationals), so only the graphs they cannot rule out
        (:attr:`rank_open`) read the exact rank A(G) from :meth:`rank`.
        """
        return self.rank_open and self.rank(0) == self.diameter + 1


@lru_cache(maxsize=1)
def _facts(g: Graph) -> _GraphFacts:
    """The shared table of ``g``.  A sweep evaluates one graph and runs
    every suite on it before the next, so one entry is enough, and
    ``run_suite`` keeps its signature; the table never leaves this
    process."""
    return _GraphFacts(g)


def _twin_reduced(g: Graph, d: int) -> Graph:
    """The twin reduction of ``g``, with ``reduce``'s diameter in its table."""
    red = reduce(g, d)
    _facts(red.graph).diameter = red.reduced_diameter
    return red.graph


def _relabelled(g: Graph, h: Graph) -> Graph:
    """``h``, a relabelling of ``g``, with the isomorphism invariants that
    g's table holds in its own: the diameter, ``extremal`` and rank A(G).
    The path, the deletion ranks and ``rank_open`` (whose BFS starts at
    the first vertex of largest degree) depend on the labelling, so h's
    table computes them afresh."""
    known = _facts(g)
    facts = _facts(h)
    if facts is not known:
        for name in ("diameter", "extremal"):
            if name in vars(known):
                setattr(facts, name, getattr(known, name))
        rank = known._ranks.get((0, g.rows))
        if rank is not None:
            facts._ranks[0, h.rows] = rank
    return h


def check_interlacing(g: Graph, mu_values: Sequence[int] = DEFAULT_MU_VALUES) -> ViolationReport:
    """Deleting one vertex moves any eigenvalue multiplicity by at most 1.

    Each multiplicity is n - rank(A - mu*I), and A(G-v) - mu*I is the
    principal submatrix of A(G) - mu*I without row and column v, so every
    deletion is ranked on its own submatrix of the shifted matrix.
    """
    report = ViolationReport(SUITE_INTERLACING, g)
    facts = _facts(g)
    for mu in sorted(set(mu_values)):
        m_full = g.n - facts.rank(mu)
        for v in range(g.n):
            m_del = g.n - 1 - facts.rank(mu, v)
            report.checked += 1
            if abs(m_full - m_del) > 1:
                report.violate(
                    {"vertex": v, "mu": mu},
                    "|m_G(mu) - m_(G-v)(mu)| <= 1",
                    f"m_G={m_full}, m_(G-v)={m_del}",
                )
    return report


def check_twin_deletion(g: Graph) -> ViolationReport:
    """Deleting either vertex of a twin pair lowers the nullity by exactly 1."""
    report = ViolationReport(SUITE_TWIN_DELETION, g)
    facts = _facts(g)
    eta = g.n - facts.rank(0)
    for cls in twin_classes(g):
        for i, u in enumerate(cls):
            for v in cls[i + 1 :]:
                for victim in (u, v):
                    eta_del = g.n - 1 - facts.rank(0, victim)
                    report.checked += 1
                    if eta != eta_del + 1:
                        report.violate(
                            {"twins": [u, v], "deleted": victim},
                            "eta(G) = eta(G - twin) + 1",
                            f"eta(G)={eta}, eta(G-{victim})={eta_del}",
                        )
    return report


def check_pendant_deletion(g: Graph) -> ViolationReport:
    """Removing a pendant together with its support preserves the nullity.

    The weaker per-instance reading eta(G) = eta(G - support), which keeps
    the pendant as an isolated vertex, is recorded in ``notes`` but never
    counted as the property under test.
    """
    report = ViolationReport(SUITE_PENDANT_DELETION, g)
    instances = []
    facts = _facts(g)
    eta = g.n - facts.rank(0)
    for u, w in pendant_pairs(g):
        eta_pair = g.n - 2 - facts.rank(0, u, w)
        eta_support = g.n - 1 - facts.rank(0, w)
        report.checked += 1
        if eta != eta_pair:
            report.violate(
                {"pendant": u, "support": w},
                "eta(G) = eta(G - pendant - support)",
                f"eta(G)={eta}, eta(G-u-w)={eta_pair}",
            )
        instances.append(
            {
                "pendant": u,
                "support": w,
                "eta": eta,
                "eta_without_pair": eta_pair,
                "eta_without_support": eta_support,
                "support_only_form_holds": eta == eta_support,
            }
        )
    report.notes["instances"] = instances
    return report


def _extremal_gate(g: Graph, report: ViolationReport) -> _GraphFacts | None:
    """Hypothesis gate shared by the rank-bound and twin-extension sweeps:
    the graph must be connected with eta = n - d - 1.  Returns the graph's
    table when the gate passes, otherwise marks the report skipped."""
    if not g.is_connected():
        report.skipped = "graph is disconnected"
        return None
    facts = _facts(g)
    if not facts.extremal:
        report.skipped = f"eta={g.n - facts.rank(0)} != n-d-1={g.n - facts.diameter - 1}"
        return None
    return facts


def _outside_subsets(n: int, path: tuple[int, ...], report: ViolationReport):
    """Yield (subset, the outside vertices not in it) for every subset of
    the vertices outside the path, in ascending order, or mark the report
    truncated.  The subgraph H induced on the path and the subset is G
    without the second list."""
    on_path = set(path)
    outside = [v for v in range(n) if v not in on_path]
    if len(outside) > MAX_OUTSIDE_SWEEP:
        report.truncated = True
        return
    for mask in range(1 << len(outside)):
        chosen = [outside[i] for i in range(len(outside)) if mask >> i & 1]
        yield chosen, [outside[i] for i in range(len(outside)) if not mask >> i & 1]


def check_rank_bound_diam(g: Graph) -> ViolationReport:
    """On graphs with eta = n - d - 1, every induced supergraph H of a
    diameter path satisfies rank(A(H)) >= rank(A(G)) - 1."""
    report = ViolationReport(SUITE_RANK_BOUND, g)
    facts = _extremal_gate(g, report)
    if facts is None:
        return report
    rank_g = facts.rank(0)
    path = facts.path
    for chosen, dropped in _outside_subsets(g.n, path, report):
        rank_h = facts.rank(0, *dropped)
        report.checked += 1
        if rank_h < rank_g - 1:
            report.violate(
                {"path": list(path), "extra_vertices": chosen},
                "rank(A(H)) >= rank(A(G)) - 1",
                f"rank(H)={rank_h}, rank(G)={rank_g}",
            )
    return report


def check_twin_extension(g: Graph) -> ViolationReport:
    """On graphs with eta = n - d - 1: whenever a non-adjacent vertex pair
    has equal neighbourhoods inside an induced supergraph H of a diameter
    path with rank(A(H)) >= rank(A(G)) - 1 (one vertex outside H, or both),
    the pair has equal neighbourhoods in the whole graph."""
    report = ViolationReport(SUITE_TWIN_EXTENSION, g)
    facts = _extremal_gate(g, report)
    if facts is None:
        return report
    rank_g = facts.rank(0)
    for _chosen, out_h in _outside_subsets(g.n, facts.path, report):
        if facts.rank(0, *out_h) < rank_g - 1:
            continue
        h_mask = (1 << g.n) - 1
        for v in out_h:
            h_mask ^= 1 << v
        in_h = [v for v in range(g.n) if h_mask >> v & 1]
        pairs = [(v, h) for v in out_h for h in in_h] + [
            (u, v) for i, u in enumerate(out_h) for v in out_h[i + 1 :]
        ]
        for x, y in pairs:
            if g.has_edge(x, y):
                continue
            if g.rows[x] & h_mask != g.rows[y] & h_mask:
                continue
            report.checked += 1
            if g.rows[x] != g.rows[y]:
                report.violate(
                    {"pair": [x, y], "subgraph": in_h},
                    "equal neighbourhoods in H imply equal neighbourhoods in G",
                    f"N({x})={g.neighbor_list(x)}, N({y})={g.neighbor_list(y)}",
                )
    return report


def check_reduction_equivalence(g: Graph) -> ViolationReport:
    """Does 'eta = n - d - 1' hold for G exactly when it holds for the
    twin-reduced graph?  Reported, never asserted: the equivalence fails
    whenever reduction shrinks the diameter (C_4 is the smallest case), and
    ``notes['diameter']`` records both diameters for every input."""
    report = ViolationReport(SUITE_REDUCTION_EQUIVALENCE, g)
    if g.n < 2:
        report.skipped = "needs at least two vertices"
        return report
    if not g.is_connected():
        report.skipped = "graph is disconnected"
        return report
    facts = _facts(g)
    red = reduce(g, facts.diameter)
    eta = g.n - facts.rank(0)
    eta_r = red.graph.n - facts.rank(0, *red.deleted)
    rhs = eta_r == red.graph.n - red.reduced_diameter - 1
    report.checked = 1
    report.notes["diameter"] = {
        "original": red.original_diameter,
        "reduced": red.reduced_diameter,
        "changed": red.original_diameter != red.reduced_diameter,
    }
    if facts.extremal != rhs:
        severity = "violation" if red.reduced_diameter < red.original_diameter else "high"
        report.violate(
            {
                "eta": eta,
                "n": g.n,
                "d": red.original_diameter,
                "reduced_graph6": to_graph6(red.graph),
                "eta_reduced": eta_r,
                "n_reduced": red.graph.n,
                "d_reduced": red.reduced_diameter,
            },
            "eta = n - d - 1 holds for G iff it holds for the reduced graph",
            f"G: {eta} vs {g.n - red.original_diameter - 1}; "
            f"reduced: {eta_r} vs {red.graph.n - red.reduced_diameter - 1}",
            severity=severity,
        )
    return report


def check_rank_lower_bound(g: Graph) -> ViolationReport:
    """Odd diameter forces rank(A(G)) >= d + 1; equality cases are flagged
    as odd-extremal in ``notes`` (they are not violations)."""
    report = ViolationReport(SUITE_RANK_LOWER_BOUND, g)
    if not g.is_connected():
        report.skipped = "graph is disconnected"
        return report
    facts = _facts(g)
    d = facts.diameter
    if d % 2 == 0:
        report.skipped = "diameter is even"
        return report
    rank = facts.rank(0)
    report.checked = 1
    report.notes["odd_extremal"] = facts.extremal
    if rank < d + 1:
        report.violate(
            {"d": d},
            "rank(A(G)) >= d + 1",
            f"rank={rank}, d={d}",
        )
    return report


_CHECKERS: dict[str, Callable[[Graph], ViolationReport]] = {
    SUITE_INTERLACING: check_interlacing,
    SUITE_TWIN_DELETION: check_twin_deletion,
    SUITE_PENDANT_DELETION: check_pendant_deletion,
    SUITE_RANK_BOUND: check_rank_bound_diam,
    SUITE_TWIN_EXTENSION: check_twin_extension,
    SUITE_REDUCTION_EQUIVALENCE: check_reduction_equivalence,
    SUITE_RANK_LOWER_BOUND: check_rank_lower_bound,
}

#: The suite names in report order.
ALL_SUITES: tuple[str, ...] = tuple(_CHECKERS)


def run_suite(name: str, g: Graph) -> ViolationReport:
    try:
        checker = _CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}") from None
    return checker(g)
