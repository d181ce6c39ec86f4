"""Independent checks of the program's outputs, run after the timed part.

Kept apart from run.py so that the benchmark process imports networkx
and holds the oracles' data only after its child processes have run:
a child's peak RSS, read from its rusage, starts from the size of the
process that launched it.
"""

from __future__ import annotations

import json

import networkx as nx

import corpus
import oracles
from tracing import SUITES


def check_verify(report: dict, n_max: int, suites: bool) -> list[str]:
    """Problems with a sweep report, judged from OEIS A001349 and from
    properties the method must have."""
    errors = []
    for n in range(1, n_max + 1):
        totals = report["per_n"].get(str(n))
        if totals is None or totals["connected"] != oracles.A001349[n - 1]:
            errors.append(f"n={n}: expected {oracles.A001349[n - 1]} connected classes, got {totals}")
        elif totals["recognized"] != totals["even_extremal"]:
            errors.append(f"n={n}: recognized {totals['recognized']} != even_extremal {totals['even_extremal']}")
    for key in ("mismatches", "inconclusive", "unreduced_failures"):
        if report[key]:
            errors.append(f"{key}: {report[key][:5]}")
    summaries = report["lemma_summaries"]
    if not suites:
        if summaries:
            errors.append(f"suites ran although none were asked for: {sorted(summaries)}")
        return errors
    if sorted(summaries) != sorted(SUITES):
        return errors + [f"suites {sorted(summaries)} != {sorted(SUITES)}"]
    want = 5 * sum(n * oracles.A001349[n - 1] for n in range(1, n_max + 1))
    if summaries["interlacing"]["instances"] != want:
        errors.append(f"interlacing: {summaries['interlacing']['instances']} instances, expected {want}")
    for name, summary in summaries.items():
        if name != "reduction-equivalence":
            if summary["violations"]:
                errors.append(f"{name}: {len(summary['violations'])} violations")
            continue
        for v in summary["violations"]:
            w = v["witness"]
            if not w["d_reduced"] < w["d"]:
                errors.append(f"reduction-equivalence violation without a diameter drop: {v['graph6']}")
    return errors


class CorpusExpectations:
    """Independent answers for every corpus entry, computed once per run."""

    def __init__(self, entries: list[corpus.Entry]) -> None:
        self.entries = entries
        self.invariants = []
        self.verdicts = []
        for e in entries:
            adj = oracles.adjacency_lists(e.graph)
            n = len(adj)
            rank = oracles.rank(adj)
            d = nx.diameter(e.graph)
            self.invariants.append(
                {
                    "graph6": e.graph6,
                    "n": n,
                    "connected": True,
                    "d": d,
                    "rank": rank,
                    "nullity": n - rank,
                    "e": oracles.minimal_polynomial_degree(adj),
                    "reduced": oracles.is_reduced(e.graph),
                }
            )
            if e.kind == "member":
                self.verdicts.append(("EvenExtremal", d, n - rank))
            elif e.kind == "blowup":
                self.verdicts.append(("Mismatch", d, n - rank))
            else:
                self.verdicts.append(oracles.expected_verdict(e.graph))

    def _records(self, run, what: str) -> tuple[list[dict], list[str]]:
        lines = run.stdout.decode("utf-8", errors="replace").splitlines()
        if len(lines) != len(self.entries):
            return [], [f"{what}: {len(lines)} output lines for {len(self.entries)} graphs"]
        try:
            return [json.loads(line) for line in lines], []
        except ValueError as exc:
            return [], [f"{what}: output is not JSON lines: {exc}"]

    def check_invariants(self, run) -> list[str]:
        if run.returncode != 0:
            return [f"invariants exited {run.returncode}: {run.stderr[-500:]}"]
        records, errors = self._records(run, "invariants")
        for rec, want in zip(records, self.invariants):
            if rec != want:
                errors.append(f"invariants of {want['graph6']}: got {rec}, expected {want}")
        return errors

    def check_check(self, run) -> list[str]:
        want_exit = 3 if any(v[0] == "Mismatch" for v in self.verdicts) else 0
        if run.returncode != want_exit:
            return [f"check exited {run.returncode}, expected {want_exit}: {run.stderr[-500:]}"]
        records, errors = self._records(run, "check")
        for rec, entry, (verdict, d, eta) in zip(records, self.entries, self.verdicts):
            got = (rec["verdict"], rec["d"], rec["nullity"])
            if got != (verdict, d, eta):
                errors.append(f"check of {entry.graph6} ({entry.kind}): got {got}, expected {(verdict, d, eta)}")
            elif verdict == "EvenExtremal":
                errors += _check_params(entry, rec)
            elif verdict == "Mismatch" and rec["witness"]["reduced"] != oracles.is_reduced(entry.graph):
                errors.append(f"check of {entry.graph6}: witness.reduced is {rec['witness']['reduced']}")
        return errors


def _check_params(entry: corpus.Entry, rec: dict) -> list[str]:
    """Recovered parameters must rebuild the input, by the benchmark's own
    construction and, for reduced family members, by ``generate_family``."""
    from nulldiam.families import FamilyParams, FamilyRejection, generate_family

    b, singles = rec["params"]["b"], frozenset(rec["params"]["A"])
    errors = []
    if (rec["variant"] == "G3") != (b + 1 in singles):
        errors.append(f"check of {entry.graph6}: variant {rec['variant']} with b={b}, A={sorted(singles)}")
    if not nx.is_isomorphic(oracles.family_graph(rec["d"], b, singles), entry.graph):
        errors.append(f"check of {entry.graph6}: params b={b}, A={sorted(singles)} do not rebuild it")
    if entry.kind == "member":
        built = generate_family(FamilyParams(rec["d"], b, singles))
        if isinstance(built, FamilyRejection):
            errors.append(f"generate_family rejected recovered params of {entry.graph6}: {built}")
        else:
            g = nx.Graph()
            g.add_nodes_from(range(built.n))
            g.add_edges_from(built.edges())
            if not nx.is_isomorphic(g, entry.graph):
                errors.append(f"generate_family({b}, {sorted(singles)}) is not isomorphic to {entry.graph6}")
    return errors


def check_corpus_run(seed: int, corpus_path, invariants_run, check_run) -> list[str]:
    """Problems with one round of ``invariants`` and ``check`` over the
    corpus of ``seed``, written at ``corpus_path``."""
    entries = corpus.build(seed)
    if corpus.text(entries) != corpus_path.read_text(encoding="ascii"):
        return ["the corpus file differs from the corpus of its seed"]
    expected = CorpusExpectations(entries)
    return expected.check_invariants(invariants_run) + expected.check_check(check_run)


def check_verify_run(run, n_max: int, suites: bool) -> list[str]:
    """Problems with one ``verify`` run of orders 1..n_max."""
    if run.returncode != 0:
        return [f"verify exited {run.returncode}: {run.stderr[-500:]}"]
    try:
        report = json.loads(run.stdout)
    except ValueError as exc:
        return [f"verify printed no JSON report: {exc}"]
    return check_verify(report, n_max, suites)
