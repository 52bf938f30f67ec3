"""In-process tracing of tausurvey's public functions, from outside src/.

`install()` rebinds every module-level name in the tausurvey package that
refers to one of the traced functions, so each caller's own lookup (for
example `survey`'s imported `classify_prime`, or `primes.is_prime` reaching
`classify_prime` through its module global) goes through a timing wrapper.
Nothing under src/ is edited.

Cold calls (a subcommand's one build, survey, scan or emit) become spans:
name, parent span, start and end.  Hot per-item calls (`classify_prime`,
`tau_prime_power`, `cached_primes`, `sieve_primes`, `radical_budgeted`, ...)
are aggregated into a call count and a total time under their parent span,
so tracing a survey of 12k primes does not record 12k spans.  Every entry
also keeps the time covered by its traced children, which gives self time.
"""

from __future__ import annotations

import math
import sys
import time
import types
from collections import defaultdict

# wrapped name -> (module that defines the function, attribute, aggregate?)
TRACED = {
    "cli.emit": ("tausurvey.cli", "emit", False),
    "delta.build": ("tausurvey.delta", "delta_coefficients", False),
    "survey.survey": ("tausurvey.survey", "survey", False),
    "survey.layer": ("tausurvey.survey", "survey_layer", False),
    "hecke.tau_prime_power": ("tausurvey.hecke", "tau_prime_power", True),
    # traced so that its primality checks are not counted as survey gate calls
    "hecke.is_ordinary": ("tausurvey.hecke", "is_ordinary", True),
    "primes.classify": ("tausurvey.primes", "classify_prime", True),
    "primes.cached": ("tausurvey.primes", "cached_primes", True),
    "primes.sieve": ("tausurvey.primes", "sieve_primes", True),
    "curves.near_points": ("tausurvey.curves", "near_points", False),
    "curves.exact_count": ("tausurvey.curves", "exact_count", False),
    "abctriples.from_near_point": ("tausurvey.abctriples", "from_near_point", True),
    "abctriples.radical": ("tausurvey.abctriples", "radical_budgeted", True),
    "abctriples.check": ("tausurvey.abctriples", "abc_check", True),
}

ROOT = "root"


class Tracer:
    """Spans, per-parent aggregates and counters of one traced dispatch."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]  # [name, time covered by children]
        self.spans: list[dict] = []
        # (name, parent name) -> [calls, total seconds, child seconds]
        self.aggs: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.curve_calls: list[tuple] = []  # outermost scans: (kind, X, x_min, x_max, points)

    def wrap(self, name: str, fn, aggregate: bool, on_result=None):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                if aggregate:
                    entry = self.aggs[(name, parent[0])]
                    entry[0] += 1
                    entry[1] += end - start
                    entry[2] += frame[1]
                else:
                    self.spans.append(
                        {"name": name, "parent": parent[0], "start": start,
                         "end": end, "child_s": frame[1]}
                    )
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # ---------------------------- result hooks ----------------------------

    def _on_emit(self, args, kwargs, result):
        self.counts["emit_records"] += len(args[0])

    def _on_dumps(self, args, kwargs, result):
        if self.stack[-1][0] != "cli.emit":
            self.counts["emit_records"] += 1

    def _on_build(self, args, kwargs, result):
        self.counts["coeffs"] += result.N

    def _on_classify(self, args, kwargs, result):
        self.counts["verdict_" + result.value] += 1

    def _on_survey(self, args, kwargs, result):
        self.counts["survey_layers"] += len(result.layers)
        self.counts["survey_truncated_layers"] += sum(l.truncated for l in result.layers)
        self.counts["survey_records"] += sum(len(l.records) for l in result.layers)

    def _on_curves(self, name):
        def hook(args, kwargs, result):
            kind, X = args[0], args[1]
            if name == "curves.near_points":
                x_min, x_max = args[2], args[3]
                points = len(result)
            else:
                x_min, x_max = 1, args[2]
                points = result.total
            if self.stack[-1][0] not in ("curves.near_points", "curves.exact_count"):
                self.curve_calls.append((kind, X, x_min, x_max, points))
        return hook

    def _on_triple(self, args, kwargs, result):
        self.counts["rad_complete"] += result.rad_complete

    def hooks(self) -> dict:
        return {
            "cli.emit": self._on_emit,
            "delta.build": self._on_build,
            "primes.classify": self._on_classify,
            "survey.survey": self._on_survey,
            "curves.near_points": self._on_curves("curves.near_points"),
            "curves.exact_count": self._on_curves("curves.exact_count"),
            "abctriples.from_near_point": self._on_triple,
        }


def install() -> Tracer:
    """Wrap every binding of the traced functions across the package."""
    tracer = Tracer()
    hooks = tracer.hooks()
    modules = [m for n, m in sys.modules.items() if n.startswith("tausurvey") and m]
    for name, (module, attr, aggregate) in TRACED.items():
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, aggregate, hooks.get(name))
        bound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {module}.{attr} to trace")
    cli = sys.modules["tausurvey.cli"]
    # cli serializes survey and count payloads with json.dumps outside emit;
    # a proxy at cli's own `json` binding times those calls too.
    cli.json = types.SimpleNamespace(
        dumps=tracer.wrap("cli.dumps", cli.json.dumps, True, tracer._on_dumps)
    )
    return tracer


# ------------------------------- metrics --------------------------------


def y_candidates(kind, X: int, x_min: int, x_max: int) -> int:
    """Width of the isqrt window of admissible y, summed over x (both kinds)."""
    total = 0
    band = kind.band(X)
    for x in range(x_min, x_max + 1):
        central = kind.central(x)
        lo = central - band
        y_lo = 0 if lo <= 0 else math.isqrt(lo - 1) + 1
        total += math.isqrt(central + band) - y_lo + 1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, dispatch_s: float, stdout_bytes: int) -> dict:
    """Per-layer metrics, self times by component, and the raw trace."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls_under: dict[tuple[str, str], int] = defaultdict(int)
    for (name, parent), (n, t, child) in tracer.aggs.items():
        calls[name] += n
        total[name] += t
        self_s[name] += t - child
        calls_under[(name, parent)] += n
    for span in tracer.spans:
        name = span["name"]
        t = span["end"] - span["start"]
        calls[name] += 1
        total[name] += t
        self_s[name] += t - span["child_s"]
    root_child = sum(
        s["end"] - s["start"] for s in tracer.spans if s["parent"] == ROOT
    ) + sum(t for (name, parent), (n, t, c) in tracer.aggs.items() if parent == ROOT)
    self_s["cli.dispatch"] = dispatch_s - root_child

    c = tracer.counts
    classify_calls = calls["primes.classify"]
    survey_classify = calls_under[("primes.classify", "survey.layer")]
    scanned = calls_under[("hecke.tau_prime_power", "survey.layer")]
    emit_s = total["cli.emit"] + sum(
        t for (name, parent), (n, t, ch) in tracer.aggs.items()
        if name == "cli.dumps" and parent != "cli.emit"
    )
    scan_s = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["name"].startswith("curves.") and not s["parent"].startswith("curves.")
    )
    points = sum(call[4] for call in tracer.curve_calls)
    triples = calls["abctriples.from_near_point"]
    metrics = {
        "cli.dispatch_s": (dispatch_s, "s"),
        "cli.emit_s": (emit_s, "s"),
        "cli.emit_records": (c["emit_records"], "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "delta.build_s": (total["delta.build"], "s"),
        "delta.coeffs_per_s": (_ratio(c["coeffs"], total["delta.build"]), "1/s"),
        "primes.classify_calls": (classify_calls, "count"),
        "primes.classify_s": (total["primes.classify"], "s"),
        "primes.verdict_prime": (c["verdict_prime"], "count"),
        "primes.verdict_probable_prime": (c["verdict_probable_prime"], "count"),
        "primes.verdict_composite": (c["verdict_composite"], "count"),
        "primes.cached_calls": (calls["primes.cached"], "count"),
        "primes.sieve_calls": (calls["primes.sieve"], "count"),
        "primes.sieve_s": (total["primes.sieve"], "s"),
        "primes.sieve_reuse_ratio": (
            1.0 - _ratio(calls["primes.sieve"], calls["primes.cached"])
            if calls["primes.cached"] else 0.0, "ratio",
        ),
        "hecke.tau_prime_power_calls": (calls["hecke.tau_prime_power"], "count"),
        "hecke.tau_prime_power_s": (total["hecke.tau_prime_power"], "s"),
        "survey.layers": (c["survey_layers"], "count"),
        "survey.truncated_layers": (c["survey_truncated_layers"], "count"),
        "survey.primes_scanned": (scanned, "count"),
        "survey.gate_pass_ratio": (_ratio(survey_classify, scanned), "ratio"),
        "survey.prime_yield": (_ratio(c["survey_records"], survey_classify), "ratio"),
        "survey.self_s": (self_s["survey.survey"] + self_s["survey.layer"], "s"),
        "curves.scan_s": (scan_s, "s"),
        "curves.x_values": (sum(call[3] - call[2] + 1 for call in tracer.curve_calls), "count"),
        "curves.y_candidates": (sum(y_candidates(*call[:4]) for call in tracer.curve_calls), "count"),
        "curves.points": (points, "count"),
        "curves.points_per_s": (_ratio(points, scan_s), "1/s"),
        "abctriples.triples": (triples, "count"),
        "abctriples.triple_s": (total["abctriples.from_near_point"], "s"),
        "abctriples.radical_calls": (calls["abctriples.radical"], "count"),
        "abctriples.radical_s": (total["abctriples.radical"], "s"),
        "abctriples.rad_complete_ratio": (_ratio(c["rad_complete"], triples), "ratio"),
        "abctriples.check_s": (total["abctriples.check"], "s"),
    }
    # Self time by component: the layer, except that primes is split into
    # classify / cached / sieve, the three mechanisms the workloads target.
    components: dict[str, float] = defaultdict(float)
    for name in [n for n, k in calls.items() if k] + ["cli.dispatch"]:
        key = name if name.startswith("primes.") else name.split(".")[0]
        components[key] += self_s[name]
    return {
        "metrics": metrics,
        "self_s": dict(components),
        "spans": tracer.spans,
        "aggregates": [
            {"name": name, "parent": parent, "calls": n, "total_s": t, "child_s": ch}
            for (name, parent), (n, t, ch) in sorted(tracer.aggs.items())
        ],
    }
