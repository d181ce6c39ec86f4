"""Per-layer trace of one workload round.

The traced run (``run.py --trace 1``) first runs one round of the
workload's commands as child processes, untraced, for reference.  It then
replays the same commands in this process through ``nulldiam.cli.main``,
with a span around every call of each layer's public functions.  The spans are installed from this file (nothing in the
program is edited), kept in memory aggregated by name, and written to
``bench/work`` when the run ends.  Verify workloads also replay the
census (``census``): ``connected_graphs`` up to the workload's order, and
``canonical_form`` on every one-vertex extension of every level below it.

A command's self time is its time on a trivial input (interpreter start,
import, argument parsing) plus the time of its in-process replay that no
layer span covers.  ``verify_theorem`` has a span of its own, so the
census work it does outside the layer functions is not counted as
command-line time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Upper ends of the graph-order buckets for per-call spectral medians.
ORDER_BUCKETS = (8, 16, 24, 32, 40, 48)

#: Functions that get a span, by module.  ``Graph`` stands for the
#: constructor's validation, ``Graph.__post_init__``.
TRACED = {
    "graphs": (
        "Graph",
        "to_graph6",
        "parse_graph6",
        "diameter",
        "diameter_paths",
        "classify_outside",
        "reduce",
    ),
    "linalg": ("rank_exact", "char_poly", "distinct_eigenvalue_count"),
    "families": ("recognize",),
    "lemmas": ("run_suite",),
    "enumeration": ("verify_theorem",),
}

SUITES = (
    "interlacing",
    "twin-deletion",
    "pendant-deletion",
    "rank-bound",
    "twin-extension",
    "reduction-equivalence",
    "rank-lower-bound",
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))


def _bucket(n: int) -> int:
    return next((b for b in ORDER_BUCKETS if n <= b), ORDER_BUCKETS[-1])


class Tracer:
    """Spans aggregated per name.

    ``total_s`` counts only the outermost of nested calls of one name;
    ``self_s`` is a span's time minus the time of the spans it caused.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child span time, child span counts]
        self.stats: dict[str, Stat] = defaultdict(Stat)

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        frame = [name, 0.0, Counter()]
        outer = any(f[0] == name for f in self.stack)
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - start
            self.stack.pop()
            stat = self.stats[name]
            stat.calls += 1
            stat.self_s += dt - frame[1]
            if not outer:
                stat.total_s += dt
            if self.stack:
                self.stack[-1][1] += dt
                self.stack[-1][2][name] += 1
        self._observe(stat, name, args, result, frame, dt)
        return result

    @staticmethod
    def _observe(stat: Stat, name: str, args, result, frame, dt: float) -> None:
        """Counts taken where the work happens, from a call's inputs and result."""
        if name == "graphs.diameter_paths":
            stat.counts["paths"] += len(result)
        elif name == "families.recognize":
            tried = frame[2]["graphs.classify_outside"]
            stat.counts["paths_tried"] += tried
            stat.counts["paths_max"] = max(stat.counts["paths_max"], tried)
            stat.counts["inconclusive"] += result.verdict.value == "Inconclusive"
        elif name.startswith("lemmas."):
            stat.counts["instances"] += result.checked
            stat.counts["truncated"] += result.truncated
        elif name == "linalg.char_poly":
            stat.samples[_bucket(args[0].order)].append(dt)
        elif name == "linalg.distinct_eigenvalue_count":
            stat.samples[_bucket(args[0].n)].append(dt)

    def wrap(self, name: str, fn):
        if name == "lemmas.run_suite":
            return lambda suite, g: self.call(f"lemmas.{suite}", fn, (suite, g), {})
        return lambda *args, **kwargs: self.call(name, fn, args, kwargs)

    def dump(self) -> dict:
        return {
            "spans": {
                k: {"calls": v.calls, "total_s": v.total_s, "self_s": v.self_s, **v.counts}
                for k, v in sorted(self.stats.items())
            },
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put a span around each traced function in every nulldiam module that
    holds a reference to it, and restore the originals afterwards."""
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "nulldiam"]
    undo = []
    for mod_name, names in TRACED.items():
        mod = importlib.import_module(f"nulldiam.{mod_name}")
        for fn_name in names:
            if fn_name == "Graph":
                orig = mod.Graph.__post_init__
                mod.Graph.__post_init__ = tracer.wrap("graphs.Graph", orig)
                undo.append((mod.Graph, "__post_init__", orig))
                continue
            orig = getattr(mod, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapped)
                        undo.append((holder, attr, orig))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _run_main(cli, argv: list[str], want_exit: int) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != want_exit:
        raise RuntimeError(f"in-process {argv[0]} exited {code}, child exited {want_exit}")


CENSUS_METRICS = (
    "enumeration.connected_graphs.total_s",
    "enumeration.canonical_form.calls",
    "enumeration.canonical_form.total_s",
    "enumeration.census.children",
    "enumeration.census.classes",
    "enumeration.census.accept_ratio",
)


def census(n_max: int) -> dict:
    """Replay the census: its enumeration, then the canonical form of every
    one-vertex extension (each nonempty attachment set) of every level."""
    enum = importlib.import_module("nulldiam.enumeration")
    graphs = importlib.import_module("nulldiam.graphs")
    start = time.perf_counter()
    produced = sum(1 for _ in enum.connected_graphs(n_max))
    census_s = time.perf_counter() - start
    level = [graphs.Graph((0,))]
    calls, canon_s, children, classes = 0, 0.0, 0, 1
    for _ in range(2, n_max + 1):
        keys = set()
        children = 0
        for parent in level:
            for mask in range(1, 1 << parent.n):
                child = parent.with_vertex(mask)
                start = time.perf_counter()
                keys.add(enum.canonical_form(child))
                canon_s += time.perf_counter() - start
                children += 1
        calls += children
        classes = len(keys)
        level = [graphs.parse_graph6(k.decode("ascii")) for k in sorted(keys)]
    if produced != classes:
        raise RuntimeError(f"connected_graphs({n_max}) gave {produced} graphs, the replay {classes} classes")
    values = (census_s, calls, canon_s, children, classes, classes / children)
    return dict(zip(CENSUS_METRICS, values))


def replay(workload, child_runs: list, startup: list[float], work: Path, out: Path) -> dict:
    """Per-layer metrics for one round of ``workload``'s commands, with
    its census replay.

    ``child_runs`` are the untraced child-process runs of the round and
    ``startup`` the time of each command on a trivial input.
    """
    commands = workload.commands
    cli = importlib.import_module("nulldiam.cli")
    tracer = Tracer()
    with installed(tracer):
        for i, (args, child) in enumerate(zip(commands, child_runs)):
            argv = [*args, "--out", str(work / f"replay-{i}.out")]
            tracer.call(f"cli.{args[0]}", _run_main, (cli, argv, child.returncode), {})
    metrics = workload.census()
    stats = tracer.stats
    metrics["enumeration.verify_theorem.self_s"] = stats["enumeration.verify_theorem"].self_s
    for mod_name, names in TRACED.items():
        for fn_name in names:
            key = f"{mod_name}.{fn_name}"
            if key in ("lemmas.run_suite", "enumeration.verify_theorem"):
                continue
            metrics[f"{key}.calls"] = stats[key].calls
            metrics[f"{key}.total_s"] = stats[key].total_s
    metrics["graphs.diameter_paths.paths"] = stats["graphs.diameter_paths"].counts["paths"]
    for key in ("linalg.char_poly", "linalg.distinct_eigenvalue_count"):
        for b in ORDER_BUCKETS:
            samples = stats[key].samples.get(b)
            metrics[f"{key}.n{b}.median_us"] = statistics.median(samples) * 1e6 if samples else 0.0
    for count in ("paths_tried", "paths_max", "inconclusive"):
        metrics[f"families.recognize.{count}"] = stats["families.recognize"].counts[count]
    for suite in SUITES:
        s = stats[f"lemmas.{suite}"]
        metrics[f"lemmas.{suite}.total_s"] = s.total_s
        metrics[f"lemmas.{suite}.instances"] = s.counts["instances"]
        metrics[f"lemmas.{suite}.truncated"] = s.counts["truncated"]
    for name in ("invariants", "check", "verify"):
        metrics[f"cli.{name}.self_s"] = 0.0
    for args, base in zip(commands, startup):
        metrics[f"cli.{args[0]}.self_s"] = base + stats[f"cli.{args[0]}"].self_s
    metrics["cli.verify.report_bytes"] = sum(
        len(c.stdout) for args, c in zip(commands, child_runs) if args[0] == "verify"
    )
    untraced = sum(c.seconds for c in child_runs)
    roots = [stats[f"cli.{args[0]}"] for args in commands]
    in_layers = sum(
        v.self_s for k, v in stats.items() if not k.startswith("cli.") and k != "enumeration.verify_theorem"
    )
    traced = sum(r.total_s for r in roots)
    # The share of the traced replay inside layer spans, applied to the
    # untraced time past start-up.
    metrics["trace.coverage"] = in_layers / traced * (untraced - sum(startup)) / untraced
    metrics["trace.overhead"] = traced / (untraced - sum(startup))
    out.write_text(json.dumps({"metrics": metrics, **tracer.dump()}, indent=1, sort_keys=True))
    return metrics
