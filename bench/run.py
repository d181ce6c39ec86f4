"""End-to-end benchmark of the nulldiam command line.

Usage (from the repository root):

    python3 bench/run.py --workload sweep|suites|corpus --seed N --seconds S --trace 0|1

The program runs as its users run it: ``python -m nulldiam.cli`` against
``src/`` with ``--jobs 1``, one single-threaded child at a time.  With
``--trace 0`` the benchmark times whole rounds of the workload's commands
for about S seconds, scales every time by the host's speed as sampled
beside them (reference.py), then checks the first round's output against independent
oracles (checks.py) and that every later round repeated it exactly, and
prints the end-to-end metrics.  With ``--trace 1`` it runs one untimed
round and then replays the same inputs in process with spans around each
layer (see tracing.py), and prints the per-layer metrics.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

#: Timed runs of the trivial command before each round.  Set-up time is
#: their median over the whole run, so that it samples the machine over
#: the same span as the rounds do: the host's speed changes within a run.
SETUP_REPS = 10
#: Fewest host-speed samples (reference.py) a scaled interval is judged
#: by; a shorter interval borrows the samples nearest its middle.
MIN_SAMPLES = 8
#: CPU seconds after which a child is killed, so that a stalled command
#: cannot hold the run past its time limit.
CHILD_CPU_LIMIT = 150

#: The empty graph; ``invariants`` and ``check`` must answer it or reject
#: it as input, never exit 1 with a traceback.
PROBE_LINE = "?"
#: Input of the corpus set-up commands (K_2).
TRIVIAL_LINE = "A_"


class BenchError(RuntimeError):
    """A run cannot give metrics (a set-up command failed, or the metric
    names differ from BENCHMARK.json)."""


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    start: float  # time.monotonic() at launch
    seconds: float
    first_line_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str

    @property
    def end(self) -> float:
        return self.start + self.seconds


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT, CHILD_CPU_LIMIT))


def run_cli(args: list[str], work: Path) -> Run:
    """Run ``nulldiam <args>`` and time it from launch to exit.

    Standard output is read as it arrives, so the time to its first line
    is what a user piping the output would wait.  Peak RSS comes from the
    child's own rusage, which starts from the size of this process at the
    launch; so nothing large is imported here until the children have run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        launched = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nulldiam.cli", *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            preexec_fn=_limit_cpu,
        )
        try:
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Run(
        launched,
        seconds,
        first_s,
        usage.ru_maxrss / 1024,
        proc.returncode,
        first + rest,
        err_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """One ``verify`` sweep of orders 1..n_max, with or without the lemma
    suites.  It has no generated input and no probes."""

    probes: list[list[str]] = []

    def __init__(self, name: str, n_max: int, suites: bool) -> None:
        flags = [] if suites else ["--suites", ""]
        self.name, self.n_max, self.suites = name, n_max, suites
        self.commands = [["verify", "--n-range", f"1..{n_max}", *flags, "--jobs", "1"]]
        self.setup = [["verify", "--n", "1", *flags, "--jobs", "1"]]

    def operations(self) -> int:
        """Operations in one round: one per census graph."""
        import oracles

        return sum(oracles.A001349[: self.n_max])

    def output_key(self, runs: list[Run]) -> list:
        """What must repeat exactly from round to round: the report apart
        from its timings block."""
        out = []
        for r in runs:
            try:
                report = json.loads(r.stdout)
            except ValueError:
                out.append(r.stdout)
                continue
            report.pop("timings", None)
            out.append(report)
        return out

    def check(self, runs: list[Run]) -> list[str]:
        import checks

        return checks.check_verify_run(runs[0], self.n_max, self.suites)

    def census(self) -> dict:
        import tracing

        return tracing.census(self.n_max)


class CorpusWorkload:
    """``check`` and then ``invariants`` over the seed's graph6 corpus,
    plus the n = 0 probes: one-line invocations counted as operations but
    not timed.  ``check`` runs first so that the round's first output line
    times it alone; ``invariants`` is most of the round's time.

    The corpus is written from a separate process, so that this one stays
    small while it launches the timed commands.
    """

    name = "corpus"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.path = work / "corpus.g6"
        subprocess.run(
            [sys.executable, str(BENCH / "corpus.py"), "--seed", str(seed), "--out", str(self.path)],
            check=True,
        )
        trivial, probe = work / "trivial.g6", work / "probe.g6"
        trivial.write_text(TRIVIAL_LINE + "\n", encoding="ascii")
        probe.write_text(PROBE_LINE + "\n", encoding="ascii")
        self.commands = self._pair(self.path)
        self.setup = self._pair(trivial)
        self.probes = self._pair(probe)

    @staticmethod
    def _pair(input_path: Path) -> list[list[str]]:
        return [[cmd, "--input", str(input_path), "--jobs", "1"] for cmd in ("check", "invariants")]

    def operations(self) -> int:
        """Operations in one round, probes apart: one per corpus record per
        command."""
        return len(self.commands) * len(self.path.read_text(encoding="ascii").splitlines())

    def output_key(self, runs: list[Run]) -> list:
        """What must repeat exactly from round to round: every output byte."""
        return [r.stdout for r in runs]

    def check(self, runs: list[Run]) -> list[str]:
        import checks

        check_run, invariants_run = runs
        return checks.check_corpus_run(self.seed, self.path, invariants_run, check_run)

    def census(self) -> dict:
        import tracing

        return dict.fromkeys(tracing.CENSUS_METRICS, 0)


Workload = VerifyWorkload | CorpusWorkload


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "sweep":
        return VerifyWorkload("sweep", 8, suites=False)
    if name == "suites":
        return VerifyWorkload("suites", 7, suites=True)
    return CorpusWorkload(seed, work)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    runs: list[Run]
    probe_failures: int

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)


def probe_failed(run: Run) -> bool:
    return run.returncode not in (0, 2) or "Traceback" in run.stderr


def run_round(w: Workload, work: Path) -> Round:
    runs = [run_cli(args, work) for args in w.commands]
    failures = sum(probe_failed(run_cli(args, work)) for args in w.probes)
    return Round(runs, failures)


def setup_times(w: Workload, work: Path, reps: int) -> list[list[Run]]:
    """The workload's commands on a trivial input, ``reps`` times."""
    out = []
    for _ in range(reps):
        runs = [run_cli(args, work) for args in w.setup]
        bad = [r for r in runs if r.returncode != 0]
        if bad:
            raise BenchError(f"set-up command exited {bad[0].returncode}: {bad[0].stderr[-500:]}")
        out.append(runs)
    return out


def report_errors(errors: list[str]) -> None:
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)


def host_factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """NOMINAL_S over the mean burst time of the host-speed samples taken
    between ``start`` and ``end``, or of the MIN_SAMPLES nearest its middle
    if fewer fall inside."""
    import reference

    inside = [cpu for t, cpu in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [cpu for _, cpu in nearest]
    return reference.NOMINAL_S / statistics.fmean(inside)


def measure(w: Workload, seconds: int, work: Path) -> dict:
    """Time whole rounds for about ``seconds`` seconds.

    This process and its children run on one core, beside reference.py,
    which samples that core's speed during the rounds.  Every timed
    interval is scaled by host_factor over it, so that a change in the
    host's speed during or between runs cancels out.  Each round is
    preceded by SETUP_REPS set-up timings.  Another round starts only if
    the median round so far still fits in the time left.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    samples_path = work / "host-speed.txt"
    with open(samples_path, "w") as out:
        sampler = subprocess.Popen([sys.executable, str(BENCH / "reference.py")], stdout=out)

    def timed_setup(reps: int) -> list[list[Run]]:
        # The sampler pauses: a burst would add a tenth to a 0.1 s command.
        sampler.send_signal(signal.SIGSTOP)
        try:
            return setup_times(w, work, reps)
        finally:
            sampler.send_signal(signal.SIGCONT)

    try:
        timed_setup(1)  # fills the bytecode cache; not counted
        setup: list[list[Run]] = []
        rounds: list[Round] = []
        slots: list[float] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.median(slots) <= seconds:
            slot_start = time.perf_counter()
            setup += timed_setup(SETUP_REPS)
            rounds.append(run_round(w, work))
            slots.append(time.perf_counter() - slot_start)
            print(f"{w.name}: round {len(rounds)} {rounds[-1].seconds:.3f}s", file=sys.stderr)
    finally:
        sampler.kill()
        sampler.wait()
    samples = [
        (float(t), float(cpu))
        for t, cpu in (line.split() for line in samples_path.read_text().splitlines())
    ]
    if len(samples) < MIN_SAMPLES:
        raise BenchError(f"only {len(samples)} host-speed samples")

    def scaled(seconds: float, start: float, end: float) -> float:
        return seconds * host_factor(samples, start, end)

    errors = w.check(rounds[0].runs)
    expected = w.output_key(rounds[0].runs)
    errors += [
        f"round {i} output differs from round 1"
        for i, rnd in enumerate(rounds[1:], start=2)
        if w.output_key(rnd.runs) != expected
    ]
    report_errors(errors)
    raw_wall = statistics.median(r.seconds for r in rounds)
    walls = [scaled(r.seconds, r.runs[0].start, r.runs[-1].end) for r in rounds]
    print(
        f"{w.name}: {len(rounds)} rounds, median round {raw_wall:.3f}s raw, "
        f"{statistics.median(walls):.3f}s scaled (host speed factors "
        f"{', '.join(f'{x / r.seconds:.2f}' for x, r in zip(walls, rounds))})",
        file=sys.stderr,
    )
    return {
        "correct": not errors,
        "attempted": len(rounds) * (w.operations() + len(w.probes)),
        "failed": sum(r.probe_failures for r in rounds),
        "metrics": {
            "setup_s": statistics.median(
                scaled(sum(r.seconds for r in s), s[0].start, s[-1].end) for s in setup
            ),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(max(x.peak_rss_mb for x in r.runs) for r in rounds),
            "first_record_s": statistics.median(
                scaled(r.runs[0].first_line_s, r.runs[0].start, r.runs[0].start + r.runs[0].first_line_s)
                for r in rounds
            ),
        },
    }


def traced(w: Workload, work: Path, out: Path) -> dict:
    """One untraced round for reference, then the in-process replay."""
    rnd = run_round(w, work)
    startup = [statistics.median(r.seconds for r in col) for col in zip(*setup_times(w, work, 3))]
    import tracing

    errors = w.check(rnd.runs)
    report_errors(errors)
    metrics = tracing.replay(w, rnd.runs, startup, work, out)
    print(f"{w.name}: trace written to {out}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": w.operations() + len(w.probes),
        "failed": rnd.probe_failures,
        "metrics": metrics,
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict, declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nulldiam end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "suites", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nulldiam" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'nulldiam'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = make_workload(args.workload, args.seed, work)
        if args.trace:
            result = traced(w, work, WORK / f"trace-{args.workload}-{args.seed}.json")
            result["metrics"] = with_units(result["metrics"], spec()["per_layer"])
        else:
            result = measure(w, args.seconds, work)
            result["metrics"] = with_units(result["metrics"], spec()["end_to_end"])
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
