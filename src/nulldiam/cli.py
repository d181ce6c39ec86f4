"""Command-line front end.

Subcommands consume line-delimited graph6 (``--input PATH`` or ``-`` for
stdin) and emit one record per line; JSON is the stable contract, text is
for reading.  Exit codes: 0 ok, 1 internal error, 2 input or usage error
(output that cannot be written included), 3 mathematical mismatch (a
recognizer counterexample).  A broken pipe ends a command quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from functools import partial

from .enumeration import (
    MAX_CENSUS_ORDER,
    ParsedRecord,
    ingest_graph6_stream,
    ordered_map,
    verify_theorem,
)
from .families import Verdict, enumerate_family, recognize
from .graphs import MAX_VERTICES, DisconnectedGraphError, diameter, is_reduced, reduce, to_graph6
from .lemmas import ALL_SUITES
from .linalg import adjacency_matrix, distinct_eigenvalue_count, rank_exact

log = logging.getLogger("nulldiam")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3

JOBS_HELP = "worker processes, at least 1; at most the CPU count are started"


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


class _CannotUse(Exception):
    """An ``--input`` or ``--out`` path that cannot be opened, or output
    that cannot be written: an input error, reported in one stderr line."""


def _cannot(args: argparse.Namespace, verb: str, path: str, exc: OSError) -> _CannotUse:
    return _CannotUse(f"nulldiam {args.command}: cannot {verb} {path}: {exc.strerror or exc}")


def _open(args: argparse.Namespace, path: str, mode: str):
    """Open ``--input`` (mode ``"rb"``) or ``--out`` (mode ``"w"``)."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise _cannot(args, "read" if "r" in mode else "write", path, exc) from None


def _discard(stream) -> None:
    """Point ``stream``'s descriptor, if it has one, at the null device, so
    the unwritten rest of its buffer goes nowhere when it is flushed again
    at close or at exit, instead of failing a second time there."""
    with suppress(OSError, ValueError), open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


@contextmanager
def _output(args: argparse.Namespace):
    """Yield a function that writes one line to ``--out`` or stdout and
    flushes it.  Commands open it before any work, so an unwritable
    ``--out`` costs nothing.  A line that cannot be written is an input
    error like an ``--out`` that cannot be opened; a broken pipe is
    passed on, and ``main`` ends quietly on it."""
    with _open(args, args.out, "w") if args.out else nullcontext(sys.stdout) as out:

        def emit(line: str) -> None:
            try:
                print(line, file=out, flush=True)
            except OSError as exc:
                _discard(out)
                if isinstance(exc, BrokenPipeError):
                    raise
                raise _cannot(args, "write", args.out or "standard output", exc) from None

        yield emit


def _error(record: ParsedRecord, reason: str) -> tuple[str, int]:
    return _dump({"line": record.line_no, "error": reason}), EXIT_INPUT


def _answer_invariants(args: argparse.Namespace, record: ParsedRecord) -> tuple[str, int]:
    g = record.graph
    connected = g.is_connected()
    rank = rank_exact(adjacency_matrix(g))
    rec = {
        "graph6": to_graph6(g),
        "n": g.n,
        "connected": connected,
        "d": diameter(g) if connected else None,
        "rank": rank,
        "nullity": g.n - rank,
        "e": distinct_eigenvalue_count(g),
        "reduced": is_reduced(g),
    }
    if args.format == "json":
        return _dump(rec), EXIT_OK
    d = "-" if rec["d"] is None else rec["d"]
    return (
        f"{rec['graph6']}\tn={rec['n']} d={d} rank={rec['rank']} "
        f"nullity={rec['nullity']} e={rec['e']} "
        f"reduced={'yes' if rec['reduced'] else 'no'}"
    ), EXIT_OK


def _answer_reduce(args: argparse.Namespace, record: ParsedRecord) -> tuple[str, int]:
    try:
        res = reduce(record.graph)
    except DisconnectedGraphError as exc:
        return _error(record, str(exc))
    if args.format == "text":
        return f"{to_graph6(res.graph)}\t{res.removed}", EXIT_OK
    rec = {
        "graph6": record.text,
        "reduced_graph6": to_graph6(res.graph),
        "removed": res.removed,
        "d": res.original_diameter,
        "d_reduced": res.reduced_diameter,
    }
    return _dump(rec), EXIT_OK


def _answer_check(args: argparse.Namespace, record: ParsedRecord) -> tuple[str, int]:
    g = record.graph
    if g.n == 0 or not g.is_connected():
        return _error(record, "graph is empty" if g.n == 0 else "graph is disconnected")
    rec = recognize(g).to_dict()
    code = EXIT_MISMATCH if rec["verdict"] == Verdict.MISMATCH.value else EXIT_OK
    if args.format == "json":
        return _dump(rec), code
    extra = f" variant={rec['variant']} params={rec['params']}" if rec["variant"] else ""
    return f"{rec['graph6']}\t{rec['verdict']}{extra}", code


def _answer(args: argparse.Namespace, record: ParsedRecord) -> tuple[str, int]:
    if record.error is not None:
        return _error(record, record.error)
    return args.answer(args, record)


def _out_is_input(args: argparse.Namespace) -> bool:
    """Whether the input (the ``--input`` file, or a file that standard
    input was opened on) is the regular file that ``--out`` names, which
    opening ``--out`` would empty."""
    try:
        read = os.fstat(sys.stdin.fileno()) if args.input == "-" else os.stat(args.input)
        return stat.S_ISREG(read.st_mode) and os.path.samestat(read, os.stat(args.out))
    except (AttributeError, OSError, ValueError):  # no such file, or stdin has no descriptor
        return False


def cmd_records(args: argparse.Namespace) -> int:
    """Answer every input record with one output line, in input order.

    Each line is printed as soon as it is known.  With ``--jobs`` 1 each
    record is answered as it is read; above 1 the pool takes 1024 records
    at a time (see ``ordered_map``).  The exit code is the largest of the
    per-record codes: 0, then 2 for an input error, then 3 for a mismatch.
    An ``--input`` or ``--out`` that cannot be opened, or output that
    cannot be written, is an input error: one line on stderr and exit 2.
    So is an ``--out`` that names the input file, given as ``--input`` or
    on standard input, which opening it for writing would empty before a
    line is read.
    """
    if args.out and _out_is_input(args):
        raise _CannotUse(
            f"nulldiam {args.command}: --out {args.out} is the --input file, which writing would empty"
        )
    source = nullcontext(sys.stdin.buffer) if args.input == "-" else _open(args, args.input, "rb")
    code = EXIT_OK
    with source as fh, _output(args) as emit, ordered_map(args.jobs) as pmap:
        # one character per byte: a byte outside graph6's range is a
        # ``charset`` error for its line, never a decoding failure
        records = ingest_graph6_stream(line.decode("latin-1") for line in fh)
        for line, line_code in pmap(partial(_answer, args), records, 1024):
            emit(line)
            code = max(code, line_code)
    return code


def cmd_gen(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else args.d + 5
    with _output(args) as emit:
        for g in enumerate_family(args.d, n_max):
            emit(to_graph6(g))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None:
        n_min = n_max = args.n
    else:
        n_min, n_max = args.n_range
    suites = ALL_SUITES if args.suites is None else tuple(args.suites)
    with _output(args) as emit:
        report = verify_theorem(n_min, n_max, suites=suites, jobs=args.jobs)
        emit(json.dumps(report.to_dict(), sort_keys=True, indent=2))
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
        f"mismatches={len(report.mismatches)} unreduced-failures={len(report.unreduced_failures)}",
        file=sys.stderr,
    )
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _integer(text: str, phrase: str) -> int:
    """``text`` as an int, or a usage error that says it is not ``phrase``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {phrase}, got {text!r}") from None


def _census_order(text: str) -> int:
    value = _integer(text, f"a number of vertices in 1..{MAX_CENSUS_ORDER}")
    if not 1 <= value <= MAX_CENSUS_ORDER:
        raise argparse.ArgumentTypeError(
            f"census orders run from 1 up to {MAX_CENSUS_ORDER} "
            f"(1..{MAX_CENSUS_ORDER}), got {value}"
        )
    return value


def _parse_range(text: str) -> tuple[int, int]:
    bounds = text.split("..")
    if len(bounds) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    low, high = _census_order(bounds[0]), _census_order(bounds[1])
    if low > high:
        raise argparse.ArgumentTypeError(f"expected A..B with A <= B, got {text!r}")
    return low, high


def _parse_suites(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = set(names) - set(ALL_SUITES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown suites {sorted(unknown)}; known: {', '.join(ALL_SUITES)}"
        )
    return names


def _positive(text: str, unit: str, units: str) -> int:
    """``text`` as an int of at least 1, or a usage error that counts ``units``."""
    value = _integer(text, f"a number of {units}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1 {unit}, got {value}")
    return value


_jobs = partial(_positive, unit="worker process", units="worker processes")
_vertex_cap = partial(_positive, unit="vertex", units="vertices")


def _even(text: str) -> int:
    value = _integer(text, "an even diameter >= 2")
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError("diameter must be even and >= 2")
    if value > MAX_VERTICES - 2:
        raise argparse.ArgumentTypeError(
            f"a member has at least d + 2 vertices and at most {MAX_VERTICES} are "
            f"supported, so d <= {MAX_VERTICES - 2}, got {value}"
        )
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
        p.add_argument("--jobs", type=_jobs, default=1, help=JOBS_HELP)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("invariants", help="n, d, rank, nullity, distinct eigenvalues, reducedness")
    add_io(p)
    p.set_defaults(func=cmd_records, answer=_answer_invariants)

    p = sub.add_parser("reduce", help="twin-reduce each graph (graph6 TAB removed-count)")
    add_io(p, default_format="text")
    p.set_defaults(func=cmd_records, answer=_answer_reduce)

    p = sub.add_parser("check", help="recognize extremal structure per graph")
    add_io(p)
    p.set_defaults(func=cmd_records, answer=_answer_check)

    p = sub.add_parser("gen", help="generate the even-diameter extremal family")
    p.add_argument("--d", type=_even, required=True, help="even diameter >= 2")
    p.add_argument(
        "--n-max", type=_vertex_cap, default=None, help=f"max vertices (default d+5, at most {MAX_VERTICES})"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="exhaustive sweep over all connected graphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_census_order, default=None)
    group.add_argument("--n-range", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--suites", type=_parse_suites, default=None, help="comma-separated suite list")
    p.add_argument("--jobs", type=_jobs, default=1, help=JOBS_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    level = os.environ.get("NULLITY_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        parser.error(f"environment variable NULLITY_LOG: unknown log level {level!r}")
    logging.basicConfig(level=level.upper())
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except _CannotUse as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - defensive catch-all for exit code 1
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
