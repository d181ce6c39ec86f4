"""Steadiness check: do two sets of benchmark runs agree within the bounds?

Usage (from the repository root):

    python3 bench/steady.py [--workloads sweep,suites,corpus]

Two sets of ten runs of each workload, each run with another seed (the
first set uses seeds 1..10, the second 11..20) and the run length given in
BENCHMARK.json.  For every end-to-end metric it prints each set's median
and its spread, the distance between the first and third quartiles as a
share of the median.  A workload passes when every spread is within the
metric's bound, when the second set's median is not worse than the first
set's by more than the bound, and when the share of failed operations is
exactly the same in every run.
Every run's attempted and failed operation counts are printed as well.
Exits 1 if a workload fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            results = []
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                r = run_once(workload, seed, spec["run_seconds"])
                print(
                    f"{workload} set {k + 1} seed {seed}: correct={r['correct']} "
                    f"attempted={r['attempted']} failed={r['failed']} "
                    + " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()),
                    flush=True,
                )
                ok &= r["correct"]
                results.append(r)
            sets.append(results)
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: FAIL failed shares differ between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            medians, spreads = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            drift = max(sign * (m - medians[0]) / medians[0] for m in medians)
            passed = drift <= bound and max(spreads) <= bound
            ok &= passed
            print(
                f"{workload} {name}: medians {', '.join(f'{m:.4g}' for m in medians)} "
                f"spreads {', '.join(f'{x:.3f}' for x in spreads)} drift {drift:+.3f} "
                f"bound {bound} {'ok' if passed else 'FAIL'}"
                + (" (spread above a third of the bound)" if max(spreads) > bound / 3 else ""),
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
