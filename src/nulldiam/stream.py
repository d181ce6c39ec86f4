"""Streaming shared by the commands and the sweep: graph6 line ingestion
and the ordered process-pool map.

This module imports only :mod:`nulldiam.graphs` and the standard library,
so a command that reads records loads neither the census nor the
recognizer to do it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .graphs import Graph, Graph6Error, parse_graph6


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


class ParsedRecord(NamedTuple):
    """One input line: either a graph or a parse error, never both."""

    line_no: int
    text: str
    graph: Graph | None
    error: str | None


#: ``string.whitespace``, written out so that reading records does not
#: import :mod:`string`.
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


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
        text = raw.strip(_ASCII_WHITESPACE)
        if not text:
            continue
        try:
            yield ParsedRecord(line_no, text, parse_graph6(text), None)
        except Graph6Error as exc:
            yield ParsedRecord(line_no, text, None, f"{exc.reason}: {exc}")
