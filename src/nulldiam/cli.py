"""Command-line front end.

Subcommands consume line-delimited graph6 (``--input PATH`` or ``-`` for
stdin) and emit one record per line; JSON is the stable contract, text is
for reading.  Exit codes: 0 ok, 1 internal error, 2 input or usage error,
3 mathematical mismatch (a recognizer counterexample).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import nullcontext
from multiprocessing import get_context
from typing import Iterator

from .enumeration import ParsedRecord, ingest_graph6_stream, verify_theorem
from .families import Verdict, enumerate_family, recognize
from .graphs import DisconnectedGraphError, Graph, diameter, is_reduced, reduce, to_graph6
from .lemmas import ALL_SUITES
from .linalg import adjacency_matrix, distinct_eigenvalue_count, rank_exact

log = logging.getLogger("nulldiam")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_records(path: str) -> Iterator[ParsedRecord]:
    if path == "-":
        yield from ingest_graph6_stream(sys.stdin)
    else:
        with open(path, "r", encoding="ascii") as fh:
            yield from ingest_graph6_stream(fh)


def _open_out(path: str | None):
    """Context manager for the output sink; never closes stdout."""
    if not path:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _invariant_record(rows: tuple[int, ...]) -> dict:
    g = Graph(rows)
    # the empty graph has no diameter, so it is reported as disconnected
    connected = g.n > 0 and g.is_connected()
    rank = rank_exact(adjacency_matrix(g))
    return {
        "graph6": to_graph6(g),
        "n": g.n,
        "connected": connected,
        "d": diameter(g) if connected else None,
        "rank": rank,
        "nullity": g.n - rank,
        "e": distinct_eigenvalue_count(g),
        "reduced": is_reduced(g),
    }


def _map_rows(func, rows_list: list, jobs: int) -> list:
    if jobs <= 1 or len(rows_list) < 2:
        return [func(rows) for rows in rows_list]
    with get_context().Pool(jobs) as pool:
        return pool.map(func, rows_list, chunksize=64)


def _format_invariants(rec: dict) -> str:
    d = "-" if rec["d"] is None else rec["d"]
    return (
        f"{rec['graph6']}\tn={rec['n']} d={d} rank={rec['rank']} "
        f"nullity={rec['nullity']} e={rec['e']} "
        f"reduced={'yes' if rec['reduced'] else 'no'}"
    )


def cmd_invariants(args: argparse.Namespace) -> int:
    had_errors = False
    graphs: list[tuple[int, ...]] = []
    slots: list[tuple[bool, object]] = []
    for record in _read_records(args.input):
        if record.error is not None:
            had_errors = True
            slots.append((False, {"line": record.line_no, "error": record.error}))
        else:
            slots.append((True, len(graphs)))
            graphs.append(record.graph.rows)
    results = _map_rows(_invariant_record, graphs, args.jobs)
    with _open_out(args.out) as out:
        for is_graph, payload in slots:
            if not is_graph:
                print(_dump(payload), file=out)
            else:
                rec = results[payload]
                print(_format_invariants(rec) if args.format == "text" else _dump(rec), file=out)
    return EXIT_INPUT if had_errors else EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    had_errors = False
    lines: list[str] = []
    for record in _read_records(args.input):
        if record.error is not None:
            had_errors = True
            lines.append(_dump({"line": record.line_no, "error": record.error}))
            continue
        try:
            res = reduce(record.graph)
        except DisconnectedGraphError as exc:
            had_errors = True
            lines.append(_dump({"line": record.line_no, "error": str(exc)}))
            continue
        if args.format == "text":
            lines.append(f"{to_graph6(res.graph)}\t{res.removed}")
        else:
            lines.append(
                _dump(
                    {
                        "graph6": record.text,
                        "reduced_graph6": to_graph6(res.graph),
                        "removed": res.removed,
                        "d": res.original_diameter,
                        "d_reduced": res.reduced_diameter,
                    }
                )
            )
    with _open_out(args.out) as out:
        for line in lines:
            print(line, file=out)
    return EXIT_INPUT if had_errors else EXIT_OK


def _check_record(args_tuple: tuple[tuple[int, ...], int]) -> dict:
    rows, path_limit = args_tuple
    return recognize(Graph(rows), path_limit=path_limit).to_dict()


def cmd_check(args: argparse.Namespace) -> int:
    had_errors = False
    graphs: list[tuple[tuple[int, ...], int]] = []
    slots: list[tuple[bool, object]] = []
    for record in _read_records(args.input):
        if record.error is not None:
            had_errors = True
            slots.append((False, {"line": record.line_no, "error": record.error}))
            continue
        if record.graph.n == 0 or not record.graph.is_connected():
            had_errors = True
            reason = "graph is empty" if record.graph.n == 0 else "graph is disconnected"
            slots.append((False, {"line": record.line_no, "error": reason}))
            continue
        slots.append((True, len(graphs)))
        graphs.append((record.graph.rows, args.path_limit))
    results = _map_rows(_check_record, graphs, args.jobs)
    saw_mismatch = False
    with _open_out(args.out) as out:
        for is_graph, payload in slots:
            if not is_graph:
                print(_dump(payload), file=out)
                continue
            rec = results[payload]
            saw_mismatch = saw_mismatch or rec["verdict"] == Verdict.MISMATCH.value
            if args.format == "text":
                extra = f" variant={rec['variant']} params={rec['params']}" if rec["variant"] else ""
                print(f"{rec['graph6']}\t{rec['verdict']}{extra}", file=out)
            else:
                print(_dump(rec), file=out)
    if saw_mismatch:
        return EXIT_MISMATCH
    return EXIT_INPUT if had_errors else EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else args.d + 5
    with _open_out(args.out) as out:
        for g in enumerate_family(args.d, n_max):
            print(to_graph6(g), file=out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None:
        n_min = n_max = args.n
    else:
        n_min, n_max = args.n_range
    suites = ALL_SUITES if args.suites is None else tuple(args.suites)
    report = verify_theorem(
        n_min, n_max, suites=suites, jobs=args.jobs, path_limit=args.path_limit
    )
    with _open_out(args.out) as out:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2), file=out)
    for n in sorted(report.per_n):
        t = report.per_n[n]
        print(
            f"n={n}: connected={t.connected} reduced={t.reduced} extremal={t.extremal} "
            f"even-extremal={t.even_extremal} recognized={t.recognized}",
            file=sys.stderr,
        )
    for name, summary in sorted(report.lemma_summaries.items()):
        print(
            f"suite {name}: {summary['instances']} instances, "
            f"{len(summary['violations'])} violations",
            file=sys.stderr,
        )
    print(
        f"mismatches={len(report.mismatches)} inconclusive={len(report.inconclusive)} "
        f"unreduced-failures={len(report.unreduced_failures)}",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None


def _parse_suites(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = set(names) - set(ALL_SUITES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown suites {sorted(unknown)}; known: {', '.join(ALL_SUITES)}"
        )
    return names


def _even(text: str) -> int:
    value = int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError("diameter must be even and >= 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nulldiam",
        description="Exact nullity/rank invariants and diameter-extremal graph analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, default_format: str = "json") -> None:
        p.add_argument("--input", default="-", help="graph6 lines file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default=default_format)
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("invariants", help="n, d, rank, nullity, distinct eigenvalues, reducedness")
    add_io(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reduce", help="twin-reduce each graph (graph6 TAB removed-count)")
    add_io(p, default_format="text")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="recognize extremal structure per graph")
    add_io(p)
    p.add_argument("--path-limit", type=int, default=10_000)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate the even-diameter extremal family")
    p.add_argument("--d", type=_even, required=True, help="even diameter >= 2")
    p.add_argument("--n-max", type=int, default=None, help="max vertices (default d+5)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="exhaustive sweep over all connected graphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None)
    group.add_argument("--n-range", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--suites", type=_parse_suites, default=None, help="comma-separated suite list")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--path-limit", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("NULLITY_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except Exception:  # pragma: no cover - defensive catch-all for exit code 1
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
