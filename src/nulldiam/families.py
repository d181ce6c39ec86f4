"""Even-diameter extremal families: constructive generator and recognizer.

A connected graph is *extremal* here when its nullity equals n - d - 1,
i.e. its adjacency rank is exactly d + 1.  For odd diameter that rank is
forced anyway, so equality is a rank condition and nothing more.  For even
diameter the extremal graphs (restricted to twin-reduced graphs) carry a
rigid shape around any diameter path ``v_1 ~ ... ~ v_(d+1)``:

* every vertex off the path has a neighbour on it;
* off-path vertices have one or three path neighbours, never two;
* exactly one vertex ``z`` has three, at consecutive positions
  ``v_(2b+1), v_(2b+2), v_(2b+3)`` for some ``b``;
* single-anchor vertices sit at distinct even positions ``v_(2a)``, are
  pairwise non-adjacent, and are adjacent to ``z`` exactly when a = b + 1;
* there are no other edges off the path.

The two variants are named ``G2`` (no single-anchor vertex adjacent to
``z``) and ``G3`` (the a = b + 1 vertex is present, hence adjacent to
``z``).  This shape is the paper's even-diameter theorem: a twin-reduced
extremal graph *is* a candidate ``F(d, b, A)``.  Its edge rules are
written once, in :func:`_build_candidate`.  :func:`recognize` runs that
constructor backwards: it reads ``(b, A)`` off a diameter path and
compares the graph with the candidate it builds, so every parameter set
it returns rebuilds its input.  The exhaustive sweep in
:mod:`nulldiam.enumeration` checks the theorem itself on every graph of
the census.

:func:`generate_family` is the validating constructor: it builds one
candidate from parameters and then checks connectivity, reducedness,
diameter and nullity outright, so parameter corner cases that collapse
into twins (for example a = 1, whose pendant would duplicate the
neighbourhood of ``v_1``) are rejected rather than silently mis-built.
:func:`enumerate_family` validates nothing: it walks only parameters
whose candidates are members by construction, and the tests check each
of them against :func:`generate_family`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import (
    MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    classify_outside,
    is_diameter_path,
    is_reduced,
    to_graph6,
)
from .lemmas import _facts


class FamilyParamError(ValueError):
    """Parameters violate the family invariants (distinct from a
    validation rejection of a structurally well-formed candidate)."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one even-diameter extremal candidate.

    ``triple_index`` is the b of the three-anchor vertex (anchors at path
    positions 2b+1..2b+3, counting positions from 1); ``single_indices``
    is the set of a values of single-anchor vertices (anchored at position
    2a).  Both use the 1-based position convention of the path
    ``v_1 ~ ... ~ v_(d+1)``.
    """

    diameter: int
    triple_index: int
    single_indices: frozenset[int]

    def validate(self) -> None:
        d = self.diameter
        if d < 2 or d % 2:
            raise FamilyParamError(f"diameter must be even and >= 2, got {d}")
        if not 0 <= self.triple_index <= (d - 2) // 2:
            raise FamilyParamError(
                f"triple anchor index {self.triple_index} outside 0..{(d - 2) // 2}"
            )
        bad = [a for a in self.single_indices if not 1 <= a <= d // 2]
        if bad:
            raise FamilyParamError(f"single anchor indices {sorted(bad)} outside 1..{d // 2}")

    @property
    def order(self) -> int:
        return self.diameter + 2 + len(self.single_indices)

    def to_dict(self) -> dict:
        return {"b": self.triple_index, "A": sorted(self.single_indices)}


@dataclass(frozen=True)
class FamilyRejection:
    """A structurally valid parameter choice that failed post-validation."""

    params: FamilyParams
    check: str
    detail: str


def _build_candidate(params: FamilyParams) -> Graph:
    """The candidate ``F(d, b, A)``: vertices ``0..d`` are the path in
    order, ``d + 1`` is ``z``, and the singles follow in order of ``a``."""
    d = params.diameter
    b = params.triple_index
    singles = sorted(params.single_indices)
    n = params.order
    z = d + 1
    edges = [(i, i + 1) for i in range(d)]
    edges += [(z, 2 * b), (z, 2 * b + 1), (z, 2 * b + 2)]
    for k, a in enumerate(singles):
        x = d + 2 + k
        edges.append((x, 2 * a - 1))
        if a == b + 1:
            edges.append((x, z))
    return Graph.from_edges(n, edges)


def generate_family(params: FamilyParams) -> Graph | FamilyRejection:
    """Build and validate one family candidate.

    Returns the graph when it is connected, twin-reduced, has diameter
    exactly ``params.diameter`` with the built path ``0..d`` still a
    diameter path, and has nullity n - d - 1; otherwise returns a
    :class:`FamilyRejection` naming the first failed check.  Invalid
    parameters raise :class:`FamilyParamError` instead.
    """
    params.validate()
    g = _build_candidate(params)
    if not g.is_connected():
        return FamilyRejection(params, "connected", "candidate is disconnected")
    if not is_reduced(g):
        return FamilyRejection(params, "reduced", "candidate contains a twin pair")
    facts = _facts(g)
    d = facts.diameter
    if d != params.diameter:
        return FamilyRejection(params, "diameter", f"diameter {d} != {params.diameter}")
    if not is_diameter_path(g, range(d + 1), d):
        return FamilyRejection(params, "diameter-path", "built path is no longer a diameter path")
    if not facts.extremal:
        eta = g.n - facts.rank(0)
        return FamilyRejection(params, "nullity", f"eta {eta} != n-d-1 = {g.n - d - 1}")
    return g


def enumerate_family(d: int, n_max: int) -> Iterator[Graph]:
    """The family members with diameter ``d`` and at most ``n_max``
    vertices (capped at ``MAX_VERTICES``), one per isomorphism class, in
    order of ``(b, mask)``; ``mask`` has bit ``a - 1`` set for each
    single-anchor index ``a``.

    ``d`` is checked at the call; the members are then built lazily by
    :func:`_build_candidate`, and none is validated, because every
    candidate the walk builds is a member.  By construction it is
    connected, and with ``d >= 4`` and all ``a`` in ``2..d/2 - 1`` it has
    no twins (``a = 1`` or ``d/2`` makes a twin of a path end, and at
    ``d = 2`` both path ends see only ``v_2`` and ``z``, so no member
    exists).  No off-path vertex shortens the path, since ``z`` spans
    three consecutive positions and a single-anchor vertex has one
    anchor, and every off-path vertex lies within ``d - 1`` of every
    vertex; so the diameter is ``d`` and the built path is an induced
    diameter path.  The nullity ``n - d - 1`` is the paper's theorem, not
    the construction's: the tests check every candidate of the walk
    against :func:`generate_family`, which validates.

    Two member parameter choices give isomorphic members exactly when they
    are equal or mirrored, ``(b, A)`` and ``(d/2 - 1 - b, {d/2 + 1 - a})``.
    With no twins, the only pair at distance ``d`` is
    ``{v_1, v_(d+1)}``.  The diameter paths are then ``P`` and ``P`` with
    ``z`` in place of ``v_(2b+2)``, in either direction, and both paths
    read back the same ``(b, A)``; an isomorphism maps diameter paths to
    diameter paths, so it keeps the parameters or mirrors them.  Each
    class is therefore kept at the smaller of its two parameter choices.
    The walk takes ``a`` from ``2..d/2 - 1`` only, a range the mirror maps
    to itself.
    """
    if d < 2 or d % 2:
        raise FamilyParamError(f"diameter must be even and >= 2, got {d}")
    half = d // 2
    max_singles = min(n_max, MAX_VERTICES) - d - 2
    slots = sorted(
        (sum(1 << i for i in combo), sum(1 << (half - 1 - i) for i in combo), combo)
        for size in range(max_singles + 1)
        for combo in combinations(range(1, half - 1), size)
    )
    return (
        _build_candidate(FamilyParams(d, b, frozenset(i + 1 for i in combo)))
        for b in range(half if d > 2 else 0)
        for mask, mirror, combo in slots
        if (b, mask) <= (half - 1 - b, mirror)
    )


class Verdict(enum.Enum):
    NOT_EXTREMAL = "NotExtremal"
    ODD_EXTREMAL = "OddExtremal"
    EVEN_EXTREMAL = "EvenExtremal"
    MISMATCH = "Mismatch"


@dataclass(frozen=True)
class RecognitionResult:
    """Structural verdict for one connected graph.

    ``EVEN_EXTREMAL`` carries parameters that regenerate a graph
    isomorphic to the input.  ``MISMATCH`` means the graph has even
    diameter and nullity n - d - 1 yet no diameter path satisfies the
    family shape; on a twin-reduced input that contradicts the
    characterization this package exists to verify, so it is the highest
    severity outcome.
    """

    verdict: Verdict
    graph6: str
    n: int
    d: int
    nullity: int
    params: FamilyParams | None = None
    variant: str | None = None
    path: tuple[int, ...] | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "verdict": self.verdict.value,
            "n": self.n,
            "d": self.d,
            "nullity": self.nullity,
            "params": None if self.params is None else self.params.to_dict(),
            "variant": self.variant,
            "witness": self.witness,
        }


def is_extremal(g: Graph) -> bool:
    """Whether nullity equals n - d - 1 (requires a connected graph)."""
    if not g.is_connected():
        raise DisconnectedGraphError("extremality is defined for connected graphs")
    return _facts(g).extremal


def _claims_on_path(g: Graph, path: tuple[int, ...], d: int) -> FamilyParams | str:
    """Read family parameters off one diameter path of ``g``, whose
    diameter ``d`` the caller has already computed, and rebuild them.

    Each off-path vertex must have one path neighbour at ``v_(2a)`` (a
    single, index ``a``) or three at ``v_(2b+1)..v_(2b+3)`` (the triple
    ``z``, index ``b``), so a vertex with no path neighbour fails at once;
    exactly one must be ``z``, and no two singles may share ``a``.  The
    graph then fits iff it *is* the candidate ``F(d, b, A)`` of
    :func:`_build_candidate`, with the path, ``z`` and the singles in
    order of ``a`` as its vertices, so the family's edge rules are stated
    only there.  Returns the parameters on a fit, or a
    string naming the first failed condition.
    """
    triples: list[tuple[int, int]] = []
    singles: dict[int, int] = {}
    for x, anchors in classify_outside(g, path, d).items():
        if not anchors:
            return f"vertex {x} has no neighbour on the path"
        p = anchors[0]
        if anchors == (p,) and p % 2:
            singles[x] = (p + 1) // 2
        elif anchors == (p, p + 1, p + 2) and p % 2 == 0:
            triples.append((x, p // 2))
        else:
            where = [i + 1 for i in anchors]
            return f"vertex {x} meets the path at {where}, not at one even or three from an odd position"
    if len(triples) != 1:
        return f"{len(triples)} triple-anchor vertices (need exactly one)"
    if len(set(singles.values())) != len(singles):
        return "two single-anchor vertices share a position"
    [(z, b)] = triples
    params = FamilyParams(d, b, frozenset(singles.values()))
    order = [*path, z, *sorted(singles, key=singles.get)]
    built = _build_candidate(params).rows
    for x, row, want in zip(order, g.induced(order).rows, built):
        if row != want:
            diff = [order[j] for j in range(len(order)) if (row ^ want) >> j & 1]
            family = f"F({d}, {b}, {sorted(params.single_indices)})"
            return f"vertex {x} differs from {family} in its edges to {diff}"
    return params


def recognize(g: Graph) -> RecognitionResult:
    """Classify a connected graph against the extremal structure.

    The diameter, rank A(G), the extremality gate (nullity = n - d - 1)
    and the diameter path all come from the graph's table
    (``lemmas._facts``), so a caller that has read them there already,
    as the sweep has when the lemma suites ran on the graph first, pays
    for none of them again.  Odd diameter needs nothing further.  For even
    diameter :func:`_claims_on_path` reads ``(b, A)`` off one diameter
    path, the first that ``diameter_paths`` finds, and compares ``g`` with
    the candidate those parameters build; a fit yields the verdict with
    that path's parameters, and a failure is a ``MISMATCH`` whose witness
    names the path and the failed condition.

    One path decides, because the fit does not depend on the path.  If
    some diameter path fits, ``g`` is the candidate ``F(d, b, A)`` built
    from its parameters, with any ``A``, including ``a = 1`` or
    ``a = d/2``.  Every diameter path of ``F`` is the base path ``P``, or
    an image of ``P`` under reversal and the automorphisms of ``F``: the
    swap of ``z`` with ``v_(2b+2)``, and, when ``a = 1`` or ``a = d/2``,
    the swap of that single-anchor vertex with its twin at the path end.
    The fit test does not change under an automorphism, and a reversal
    only mirrors the parameters to ``(d/2 - 1 - b, {d/2 + 1 - a})``.  So
    if one diameter path fits, every diameter path fits, and if the first
    does not, none does.  This extends the argument in
    :func:`enumerate_family`.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("recognition is defined for connected graphs")
    g6 = to_graph6(g)
    facts = _facts(g)
    d = facts.diameter
    eta = g.n - facts.rank(0)
    if not facts.extremal:
        witness = {"expected_nullity": g.n - d - 1}
        return RecognitionResult(Verdict.NOT_EXTREMAL, g6, g.n, d, eta, witness=witness)
    if d % 2:
        return RecognitionResult(Verdict.ODD_EXTREMAL, g6, g.n, d, eta)
    path = facts.path
    outcome = _claims_on_path(g, path, d)
    if isinstance(outcome, str):
        failures = [{"path": list(path), "failed": outcome}]
        witness = {"reduced": is_reduced(g), "failures": failures}
        return RecognitionResult(Verdict.MISMATCH, g6, g.n, d, eta, witness=witness)
    variant = "G3" if outcome.triple_index + 1 in outcome.single_indices else "G2"
    return RecognitionResult(
        Verdict.EVEN_EXTREMAL, g6, g.n, d, eta, params=outcome, variant=variant, path=path
    )
