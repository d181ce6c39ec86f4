"""Seeded graph6 corpus for the ``corpus`` workload.

Every graph is built here, apart from the program under test, and
written as graph6 by networkx.  The corpus has four parts:

* ``random``: one connected G(n, m) graph with half of all possible
  edges at each n in RANDOM_ORDERS (loads the spectral layer);
* ``member``: one even-diameter extremal family member per diameter in
  FAMILY_DIAMETERS (repeated eigenvalues, accepted by the recognizer);
* ``blowup``: each member with a twin added to TWINS interior path
  vertices (non-reduced and extremal, with hundreds of diameter paths);
* ``small``: SMALL_COUNT random connected graphs on SMALL_ORDER vertices
  (per-record overhead).

The sizes do not depend on the seed, so every seed asks for about the
same amount of work.  The members' (b, A) and the blow-ups' twin spots are
drawn from ``random.Random(d)``, not from the seed, and the seed renumbers
their vertices: the blow-ups are most of ``check``'s time, and with seeded
parameters their number of diameter paths, and so ``check``'s time, moved
by a fifth from seed to seed.  ``python3 bench/corpus.py --check``
regenerates the committed reference corpus and confirms its bytes;
``python3 bench/corpus.py --seed N --out PATH`` writes the corpus of seed N.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

RANDOM_ORDERS = (16, 20, 24, 28, 32, 36, 40, 48)
FAMILY_DIAMETERS = (10, 14, 18, 22, 26, 30)
TWINS = 7
SMALL_ORDER = 8
SMALL_COUNT = 400

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "corpus" / f"seed-{REFERENCE_SEED}.g6"


@dataclass(frozen=True)
class Entry:
    kind: str
    graph: nx.Graph
    #: (d, b, A) for family members and their blow-ups.
    params: tuple[int, int, frozenset[int]] | None = None

    @property
    def graph6(self) -> str:
        return nx.to_graph6_bytes(self.graph, header=False).decode("ascii").strip()


def _random_connected(rng: random.Random, n: int, m: int) -> nx.Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(rng.sample(pairs, m))
        if nx.is_connected(g):
            return g


def _member(rng: random.Random, d: int) -> Entry:
    """A reduced family member of diameter d with d // 4 single anchors.

    a = 1 and a = d/2 would give twins of the path ends, so A is drawn
    from 2..d/2 - 1; the oracles confirm the result is a member.
    """
    b = rng.randrange(d // 2)
    singles = frozenset(rng.sample(range(2, d // 2), d // 4))
    g = oracles.family_graph(d, b, singles)
    if not (oracles.is_reduced(g) and nx.diameter(g) == d and oracles.is_extremal(g)):
        raise AssertionError(f"family candidate d={d} b={b} A={sorted(singles)} is not a member")
    return Entry("member", g, (d, b, singles))


def _blowup(rng: random.Random, member: Entry) -> Entry:
    """Add a twin to TWINS pairwise non-adjacent interior path vertices."""
    d = member.params[0]
    g = member.graph.copy()
    spots = rng.sample(range(1, d, 2), min(TWINS, d // 2))
    for v in sorted(spots):
        t = g.number_of_nodes()
        g.add_edges_from((t, u) for u in list(g[v]))
    return Entry("blowup", g, member.params)


def _renumbered(rng: random.Random, entry: Entry) -> Entry:
    """The entry with its vertices renumbered by a seeded permutation."""
    nodes = list(entry.graph)
    perm = dict(zip(nodes, rng.sample(range(len(nodes)), len(nodes))))
    g = nx.Graph()
    g.add_nodes_from(range(len(nodes)))
    g.add_edges_from((perm[u], perm[v]) for u, v in entry.graph.edges)
    return Entry(entry.kind, g, entry.params)


def build(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    out = [Entry("random", _random_connected(rng, n, n * (n - 1) // 4)) for n in RANDOM_ORDERS]
    members, blowups = [], []
    for d in FAMILY_DIAMETERS:
        fixed = random.Random(d)
        members.append(_member(fixed, d))
        blowups.append(_blowup(fixed, members[-1]))
    out += [_renumbered(rng, e) for e in members + blowups]
    pairs = SMALL_ORDER * (SMALL_ORDER - 1) // 2
    for _ in range(SMALL_COUNT):
        m = rng.randrange(SMALL_ORDER - 1, pairs + 1)
        out.append(Entry("small", _random_connected(rng, SMALL_ORDER, m)))
    return out


def text(entries: list[Entry]) -> str:
    return "".join(e.graph6 + "\n" for e in entries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--out", type=Path, default=None, help="write the corpus here")
    parser.add_argument(
        "--check", action="store_true", help="regenerate the reference corpus and compare bytes"
    )
    args = parser.parse_args(argv)
    if args.check:
        fresh = text(build(REFERENCE_SEED)).encode("ascii")
        if fresh != REFERENCE_PATH.read_bytes():
            print(f"{REFERENCE_PATH} differs from the regenerated corpus", file=sys.stderr)
            return 1
        print(f"{REFERENCE_PATH.name}: {len(fresh)} bytes match")
        return 0
    body = text(build(args.seed))
    if args.out is None:
        sys.stdout.write(body)
    else:
        args.out.write_text(body, encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
