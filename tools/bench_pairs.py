"""Alternating parent/change runs of perfbench, summarized into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_7.json
    python3 tools/bench_pairs.py ... --workloads abc-triples --seeds 10 11 12

DIR is the root of a source checkout (for example a `git clone` of the parent
commit, and the working tree).  Each side runs its own `perfbench/run.py
--trace 0` from its own root, for every workload of the change's
BENCHMARK.json (or those named by --workloads), seeds 0-9 (or --seeds), each
run as long as its run_seconds.  Pair i runs the base first when i is even
and the change first when it is odd.  After every pair the output file is
rewritten, so a cut run keeps what it measured.  --seeds lets a claim be
checked again on seeds that were not looked at while the change was made.

For each workload and each end-to-end metric of the change's BENCHMARK.json
the file holds each side's median, Q1 and Q3 (inclusive quartiles of the
per-run medians), the change's wins out of the pairs (ties count for
neither), the gap in medians signed so that a positive gap means the change
is better, the base's Q3 - Q1, and the commit and src_sha256 each side
reported, with `dirty`: whether `git status --porcelain` lists any change in
that side's checkout (null when the root is not a git work tree).  A dirty
side's commit is only the one its changes sit on.  Each side's record also
holds `io_env`, the values of PYTHONUNBUFFERED and PYTHONDONTWRITEBYTECODE
(null when unset) that perfbench's children inherit from this process: an
unbuffered stdout makes every write a syscall, which moves wall time.

Each metric also says whether it passes the two benchmark rules:
`meets_gain_rule`, the change wins at least 9 of every 10 pairs and its
median gap exceeds the base's IQR (the bar for claiming a gain), and
`within_bound`, the change's median is worse than the base's by at most the
metric's `bound` in BENCHMARK.json, relative to the base's median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
# Interpreter settings from the environment that change the cost of a run.
IO_ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(env record, result record) of one perfbench run from root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = [line for line in got.stdout.splitlines() if line.startswith("{")]
    if got.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {got.returncode}\n{got.stderr[-2000:]}")
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def is_dirty(root: Path) -> bool | None:
    """Whether the git work tree at root has uncommitted changes; None if it is not one."""
    try:
        got = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                             capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return bool(got.stdout.strip()) if got.returncode == 0 else None


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
        base, change = quartiles(values["base"]), quartiles(values["change"])
        gap = (base["median"] - change["median"]) * (1 if lower else -1)
        iqr = base["q3"] - base["q1"]
        worsening = -gap / abs(base["median"]) if base["median"] else (math.inf if gap < 0 else 0.0)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": base,
            "change": change,
            "wins": wins,
            "pairs": len(pairs),
            "median_gap": gap,
            "base_iqr": iqr,
            "meets_gain_rule": 10 * wins >= 9 * len(pairs) and gap > iqr,
            "within_bound": worsening <= spec["bound"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    args = parser.parse_args()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    dirty = {side: is_dirty(root) for side, root in roots.items()}
    io_env = {name: os.environ.get(name) for name in IO_ENV}
    doc = {"seconds": seconds, "seeds": args.seeds, "sides": {}, "workloads": {}}
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        pairs: list[dict] = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                env, result = run_side(roots[side], workload, seed, seconds)
                doc["sides"][side] = {"commit": env["commit"], "dirty": dirty[side],
                                      "src_sha256": env["src_sha256"], "io_env": io_env}
                pair[side] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
            pairs.append(pair)
            doc["workloads"][workload] = {
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
                "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
                "metrics": summarize(pairs, bench["end_to_end"]),
                "pairs": pairs,
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            wall = pairs[-1]
            print(f"{workload} seed {seed}: wall_s base {wall['base']['metrics']['wall_s']['value']:.3f} "
                  f"change {wall['change']['metrics']['wall_s']['value']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
