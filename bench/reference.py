"""Gauge of the host's speed, sampled while the benchmark's commands run.

The machine is shared, and its speed moves by up to half within seconds
and drifts over minutes: the same ``suites`` round has taken 2.05 s and
4.5 s.  ``run.py`` starts this script as a process of its own on the core
that runs the commands.  Every PERIOD_S seconds it runs one burst of fixed
pure-Python work, a permutation search for the least relabelling of a
6-vertex graph given as bitmask rows (the kind of work the census does),
and prints the burst's CPU time.  On the same core at the same moment, the
burst is slowed by whatever slows the command.  ``run.py`` scales each
timed interval by NOMINAL_S over the mean burst time inside it.  The
script imports nothing from the program, so a change to the program
cannot move it.  It takes about 4 % of the core.

Output lines are ``<time.monotonic()> <burst CPU seconds>``.  The script
exits when its parent does.  Never change the burst: the end-to-end times
are expressed in its units.
"""

from __future__ import annotations

import os
import sys
import time

#: CPU time of one burst on a quiet host (2-core Xeon, CPython 3.11.7).
#: Scaled times read as seconds on a host where a burst takes this long.
NOMINAL_S = 0.0065
#: Sleep between bursts.
PERIOD_S = 0.25

_ROWS = (0b011010, 0b101001, 0b110011, 0b001101, 0b110110, 0b011011)


def burst() -> tuple[int, ...]:
    """The lexicographically least relabelling of the graph _ROWS."""
    n = len(_ROWS)
    best: tuple[int, ...] | None = None
    perm: list[int] = []

    def dfs(used: int) -> None:
        nonlocal best
        if len(perm) == n:
            key = tuple(
                sum(((_ROWS[perm[a]] >> perm[b]) & 1) << b for b in range(n)) for a in range(n)
            )
            if best is None or key < best:
                best = key
            return
        for v in range(n):
            if not used >> v & 1:
                perm.append(v)
                dfs(used | 1 << v)
                perm.pop()

    dfs(0)
    return best


def main() -> None:
    parent = os.getppid()
    while os.getppid() == parent:
        start = time.thread_time()
        burst()
        cpu = time.thread_time() - start
        sys.stdout.write(f"{time.monotonic():.6f} {cpu:.9f}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
