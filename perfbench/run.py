"""End-to-end and per-layer benchmark of the tausurvey CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is always the
checkout's own src/, put on PYTHONPATH; a run refuses to start (exit 2, no
result) when src/tausurvey is missing or another copy would be imported.

Each workload is a closed loop with one client: it spawns one CLI process at
a time and spawns the next only after the previous one has exited.

--trace 0  alternates a set-up sample (a fresh interpreter that imports
           tausurvey.cli and exits) with one `python -m tausurvey.cli ...`
           invocation until S seconds have passed.  Every invocation is timed
           from outside, its CPU time and peak RSS come from its own wait4
           rusage, and its output is checked.  Metrics are medians.
--trace 1  alternates an untraced and a traced in-process run of the same
           subcommand (perfbench/child.py), checks that both print the same
           bytes, and reports the per-layer metrics of the traced run as
           medians, plus the tracing overhead.

The seed picks the inputs from a fixed family per workload (seed 0 is the
family's default point); the same seed always gives the same inputs.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Failed invocations are counted in `failed`; the summary printed above that
line also gives fail_frac = failed / attempted.

Every workload's end-to-end metrics, by name and unit, in one command:

    for w in series-survey survey-deep abc-triples near-count; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 28 --trace 0
    done
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

# A single invocation taking longer than this is killed and counted failed.
INVOCATION_TIMEOUT_S = 60

WORKLOADS = ("series-survey", "survey-deep", "abc-triples", "near-count")


# ------------------------------- inputs ---------------------------------


@dataclass(frozen=True)
class Inputs:
    argv: list[str]
    X: int
    N: int | None = None
    x_max: int | None = None


def inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs for one seed.

    The families are narrow on purpose: run-to-run spread is taken over
    runs with different seeds, so a seed must not change a workload's cost
    or its mix of layers, only the exact numbers it works on.
      series-survey  N in 98000..100000 (step 250), X in (5e53, 1e54]:
                     the m = 1 window (3X)^(1/11) <= 89633 fits inside the
                     table, so the survey is complete; 11 layers.
      survey-deep    N = 20000, X in (5e249, 1e250]: 48 layers, the first
                     five clipped by the table.
      abc-triples    X in [3.92e6, 4.08e6], x <= 150, 2 workers.
      near-count     X in [3.92e9, 4.08e9], x <= 4000, serial.
    """
    rng = random.Random(f"{workload}/{seed}")
    default = seed == 0
    if workload == "series-survey":
        N = 100_000 if default else 100_000 - 250 * rng.randrange(9)
        X = 10**54 if default else 10**54 - rng.randrange(5 * 10**53)
        return Inputs(["survey", "--X", str(X), "--N", str(N)], X, N=N)
    if workload == "survey-deep":
        X = 10**250 if default else 10**250 - rng.randrange(5 * 10**249)
        return Inputs(["survey", "--X", str(X), "--N", "20000"], X, N=20_000)
    if workload == "abc-triples":
        X = 4_000_000 if default else rng.randint(3_920_000, 4_080_000)
        argv = ["abc", "--kind", "deg11", "--X", str(X), "--x-max", "150",
                "--epsilon", "0.5", "--C", "1", "--workers", "2"]
        return Inputs(argv, X, x_max=150)
    if workload == "near-count":
        X = 4_000_000_000 if default else rng.randint(3_920_000_000, 4_080_000_000)
        argv = ["count", "--kind", "deg11", "--X", str(X), "--x-max", "4000"]
        return Inputs(argv, X, x_max=4000)
    raise ValueError(workload)


# --------------------------- output checking ----------------------------


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _odd_primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(3, limit + 1) if flags[p]]


def near_count_oracle(X: int, x_max: int) -> int:
    """Near-points on y^2 = x^11 + k, 0 < |k| <= X, 1 <= x <= x_max.

    O(1) per x from the isqrt bounds of the band: every y in [y_lo, y_hi]
    counts twice (for +-y) except y = 0, and the exact root (x a square)
    is dropped because k = 0 is excluded.
    """
    total = 0
    for x in range(1, x_max + 1):
        central = x**11
        lo = central - X
        y_lo = 0 if lo <= 0 else math.isqrt(lo - 1) + 1
        y_hi = math.isqrt(central + X)
        total += 2 * (y_hi - y_lo + 1) - (y_lo == 0)
        root = math.isqrt(central)
        if root * root == central:
            total -= 2
    return total


class Checker:
    """Checks one workload's output and returns its work count."""

    def __init__(self, workload: str, seed: int, inp: Inputs) -> None:
        self.workload = workload
        self.inp = inp
        self.digest = None
        if seed == 0:
            self.digest = json.loads(REFERENCE.read_text())["stdout_sha256"][workload]
        self._oracle = None
        self._odd_primes = None

    def check(self, code: int, stdout: bytes) -> int:
        _require(code == 0, f"exit code {code}")
        if self.digest is not None:
            got = hashlib.sha256(stdout).hexdigest()
            _require(got == self.digest, f"stdout sha256 {got} differs from the reference")
        text = stdout.decode("utf-8")
        if self.workload in ("series-survey", "survey-deep"):
            return self._check_survey(json.loads(text))
        if self.workload == "abc-triples":
            return self._check_abc(text)
        return self._check_count(text)

    def _check_survey(self, doc: dict) -> int:
        X, N = self.inp.X, self.inp.N
        _require(int(doc["X"]) == X, "survey X")
        primes = [int(s) for s in doc["primes"]]
        _require(all(ell % 2 == 1 and 3 <= ell <= X for ell in primes), "ell odd and <= X")
        _require(primes == sorted(set(primes)), "primes sorted and distinct")
        _require(doc["count"] == len(primes), "count == len(primes)")
        layers = doc["layers"]
        _require([layer["m"] for layer in layers] == list(range(1, doc["m_max"] + 1)), "layers 1..m_max")
        found = set()
        for layer in layers:
            ells = {int(r["ell"]) for r in layer["records"]}
            _require(layer["count"] == len(ells), "layer count")
            found |= ells
        _require(found == set(primes), "layer records cover the primes")
        if self.workload == "series-survey":
            _require(doc["truncated"] is False and len(layers) == 11, "series-survey family: complete, 11 layers")
            return N
        _require(len(layers) == 48, "survey-deep family: 48 layers")
        # primes scanned: odd primes up to each layer's window, clipped to N
        if self._odd_primes is None:
            self._odd_primes = _odd_primes_upto(N)
        return sum(
            bisect.bisect_right(self._odd_primes, min(layer["p_window"], N)) for layer in layers
        )

    def _check_abc(self, text: str) -> int:
        rows = 0
        for line in text.splitlines():
            r = json.loads(line)
            a, b, c, d = (int(r[k]) for k in "abcd")
            _require(a + b == c, f"a + b != c in {line}")
            _require(d > 0 and a % d == 0 and b % d == 0, f"d does not divide a and b in {line}")
            rows += 1
        _require(rows > 0, "no triples")
        return rows

    def _check_count(self, text: str) -> int:
        lines = text.splitlines()
        _require(len(lines) == 1, "one count record")
        doc = json.loads(lines[0])
        _require(int(doc["X"]) == self.inp.X and doc["x_max"] == self.inp.x_max, "count inputs")
        _require(doc["total"] == doc["small"] + doc["mid"] + doc["subunit"], "regimes sum to total")
        if self._oracle is None:
            self._oracle = near_count_oracle(self.inp.X, self.inp.x_max)
        _require(doc["total"] == self._oracle, f"total {doc['total']} != isqrt oracle {self._oracle}")
        return doc["total"]


# ---------------------------- process runner ----------------------------


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAUSURVEY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str]) -> Run:
    """Run argv to completion; resources come from this child's wait4 rusage
    (RUSAGE_CHILDREN's ru_maxrss is a maximum over all children so far)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        timer.start()
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, out, err[0] if err else b"")


# ------------------------------- runs -----------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def provenance(env: dict[str, str]) -> dict:
    """Where tausurvey was imported from, warming the import caches too."""
    probe = spawn([sys.executable, "-c", "import tausurvey.cli; print(tausurvey.cli.__file__)"], env)
    path = Path(probe.stdout.decode().strip()).resolve() if probe.code == 0 else None
    if path is None or SRC.resolve() not in path.parents:
        sys.stderr.write(f"tausurvey must import from {SRC}, got {path}\n")
        sys.exit(2)
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "tausurvey": str(path.relative_to(ROOT.resolve())),
        "from_checkout_src": True,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except OSError:
        return None
    return got.stdout.decode().strip() if got.returncode == 0 else None


def closed_loop(seconds: float, step) -> int:
    """Call step() back to back until about `seconds` have passed.

    The loop stops at the iteration boundary nearest the deadline, so a run
    lasts seconds plus or minus half an iteration; returns the iterations.
    """
    start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n / 2 >= seconds:
            return n


def _failed(workload: str, what: str, run: Run) -> None:
    tail = run.stderr[-2000:].decode(errors="replace")
    sys.stderr.write(f"{workload}: {what}\n{tail}\n")


E2E_UNITS = {"wall_s": "s", "work_per_s": "units/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def end_to_end(workload: str, inp: Inputs, checker: Checker, seconds: float, env: dict) -> dict:
    setup_argv = [sys.executable, "-c", "import tausurvey.cli"]
    cli_argv = [sys.executable, "-m", "tausurvey.cli", *inp.argv]
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    failed = 0

    def step() -> None:
        nonlocal failed
        setup = spawn(setup_argv, env)
        run = spawn(cli_argv, env)
        if setup.code == 0:
            samples["setup_s"].append(setup.wall_s)
        else:
            _failed(workload, "set-up import failed", setup)
        try:
            work = checker.check(run.code, run.stdout)
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            failed += 1
            _failed(workload, f"invocation failed: {exc}", run)
            return
        failed += setup.code != 0
        samples["wall_s"].append(run.wall_s)
        samples["work_per_s"].append(work / run.wall_s)
        samples["cpu_s"].append(run.cpu_s)
        samples["peak_rss_mb"].append(run.rss_mb)

    attempted = closed_loop(seconds, step)
    values = {name: median(v) for name, v in samples.items()}
    print(f"{workload}: {attempted} invocations, {len(samples['setup_s'])} set-up samples; "
          "median [samples]:")
    for name, value in values.items():
        listed = " ".join(f"{v:.6g}" for v in samples[name])
        print(f"  {name:12s} {value:14.6g} {E2E_UNITS[name]:8s} [{listed}]")
    print(f"  {'fail_frac':12s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in values},
    }


_IMPORTTIME = re.compile(rb"import time:\s+\d+ \|\s+(\d+) \|\s*tausurvey\.satotate\s*$", re.M)


def traced(workload: str, inp: Inputs, checker: Checker, seconds: float, env: dict) -> dict:
    plain_argv = [sys.executable, "-X", "importtime", str(CHILD), str(SRC), "0", "--", *inp.argv]
    traced_argv = [sys.executable, str(CHILD), str(SRC), "1", "--", *inp.argv]
    samples: dict[str, list[float]] = {}
    units = {"satotate.import_s": "s"}
    plain_s, traced_s, selfs, traces = [], [], [], []
    failed = 0

    def step() -> None:
        nonlocal failed
        plain = spawn(plain_argv, env)
        run = spawn(traced_argv, env)
        try:
            plain_report = _child_report(plain)
            report = _child_report(run)
            checker.check(plain_report["code"], plain.stdout)
            _require(report["code"] == plain_report["code"], "traced exit code differs")
            _require(run.stdout == plain.stdout, "traced stdout differs from untraced stdout")
            found = _IMPORTTIME.search(plain.stderr)
            _require(found is not None, "no -X importtime line for tausurvey.satotate")
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            failed += 1
            _failed(workload, f"traced pair failed: {exc}", run)
            return
        trace = report["trace"]
        traces.append(trace)
        plain_s.append(plain_report["dispatch_s"])
        traced_s.append(report["dispatch_s"])
        selfs.append(trace["self_s"])
        samples.setdefault("satotate.import_s", []).append(int(found.group(1)) / 1e6)
        for name, (value, unit) in trace["metrics"].items():
            samples.setdefault(name, []).append(value)
            units[name] = unit

    attempted = closed_loop(seconds, step)
    metrics = {name: {"value": median(v), "unit": units[name]} for name, v in sorted(samples.items())}
    if traces:
        overhead = median(traced_s) / median(plain_s) - 1.0
        components = {k: median([s.get(k, 0.0) for s in selfs]) for k in selfs[-1]}
        print(f"{workload}: {attempted} untraced/traced pairs; tracing overhead "
              f"{overhead:+.2%} of the untraced dispatch time ({median(plain_s):.4g} s)")
        print("  self time by component (median s): " + ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(components.items(), key=lambda kv: -kv[1])))
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        last = traces[-1]
        print(json.dumps({"trace": {"spans": last["spans"], "aggregates": last["aggregates"]}},
                         separators=(",", ":")))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _child_report(run: Run) -> dict:
    for line in reversed(run.stderr.splitlines()):
        if line.startswith(b"PERFBENCH "):
            return json.loads(line[len(b"PERFBENCH "):])
    raise CheckError(f"child exited {run.code} without a report: {run.stderr[-2000:]!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tausurvey" / "cli.py").is_file():
        sys.stderr.write(f"no tausurvey sources under {SRC}; run from a source checkout\n")
        return 2
    env = child_env()
    env_record = provenance(env)
    inp = inputs(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, inp)
    print(json.dumps({"env": env_record, "workload": args.workload, "seed": args.seed,
                      "argv": inp.argv}, separators=(",", ":")))
    measure = traced if args.trace else end_to_end
    result = measure(args.workload, inp, checker, args.seconds, env)
    result["correct"] = result["failed"] == 0
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
                     separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
