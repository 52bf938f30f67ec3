"""Median wall time and peak RSS of one tausurvey command on two checkouts.

    python3 tools/peak_rss.py --base DIR --change DIR --runs 8 -- survey --X 1e66 --N 1000000
    python3 tools/peak_rss.py --base DIR --change DIR -- tau --n 1 --N 1500000

DIR is the root of a source checkout (for example a `git clone` of the parent
commit, and the working tree).  Each run is `python -m tausurvey.cli ARGS`
with DIR/src first on PYTHONPATH, its stdout discarded.  Run i runs the base
first when i is even and the change first when it is odd.  For each side the
tool prints the median wall time and the median, least and greatest peak RSS,
from the child's own wait4 `ru_maxrss`, with every run's figures after them.

A child's `ru_maxrss` starts from the high-water RSS of the process that
spawns it, so this tool imports nothing it does not need and keeps no child
output: its own peak (about 15 MiB) stays below that of any tausurvey
process (21 MiB or more), and the figure is the child's.  perfbench's
`peak_rss_mb` spawns from the harness, whose peak grows with the output it
parses, so it cannot show a change below that floor.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("base", "change")


def run_once(root: Path, args: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one CLI run from root's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "tausurvey.cli", *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=8, help="runs per side (default 8)")
    parser.add_argument("args", nargs="+", help="tausurvey arguments, after --")
    opts = parser.parse_args()
    if opts.runs < 1:
        parser.error("--runs must be >= 1")
    roots = {"base": opts.base.resolve(), "change": opts.change.resolve()}
    runs: dict[str, list[tuple[float, float]]] = {side: [] for side in SIDES}
    for i in range(opts.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(roots[side], opts.args))
    print(f"tausurvey {' '.join(opts.args)}: {opts.runs} runs per side, alternating")
    for side in SIDES:
        walls = [w for w, _ in runs[side]]
        peaks = [r for _, r in runs[side]]
        print(f"{side:6} {roots[side]}: wall median {statistics.median(walls):.3f} s, "
              f"peak RSS median {statistics.median(peaks):.1f} MiB "
              f"(least {min(peaks):.1f}, greatest {max(peaks):.1f})")
        print("       runs: " + ", ".join(f"{w:.3f} s / {r:.1f} MiB" for w, r in runs[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
