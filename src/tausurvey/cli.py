"""Command-line surface: scriptable, deterministic, byte-stable output.

Every option can also be supplied through an environment variable with the
TAUSURVEY_ prefix (flag --x-max becomes TAUSURVEY_X_MAX; flags win), or
through a key=value config file passed with --config (lowest precedence).
Big integers are always emitted as decimal strings, floats are rounded to 12
significant digits before serialization, and record streams are canonically
sorted, so identical configurations reproduce identical bytes.  The
--workers knob is accepted and must be positive, but every subcommand runs
serially, so it never changes the output.

Exit codes: 0 success, 1 invariant violation found, 2 usage error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import IO, Any

from . import abctriples, curves, satotate, survey as survey_mod
from .delta import SERIES_MAX_DEFAULT, delta_coefficients, tau_parity, verify_deligne
from .errors import DeligneViolationError, OutOfRangeError, ResourceLimitError
from .hecke import tau_of
from .selftest import run_self_test

ENV_PREFIX = "TAUSURVEY_"

_DEFAULTS = {
    "N": 10_000,
    "X": 1_000_000,
    "x_min": 1,
    "x_max": 10,
    "m_max": 3,
    "bins": 8,
    "epsilon": None,
    "C": 1.0,
    "format": "json",
    "seed": 0,
    "workers": 1,
    "budget": abctriples.DEFAULT_BUDGET,
    "series_max": SERIES_MAX_DEFAULT,
    "scan_ceiling": curves.FULL_SCAN_CEILING,
}


# CPython's default int -> str limit: a longer X could not be printed anyway.
_BIG_INT_MAX_DIGITS = 4300


def _big_int(text: str) -> int:
    """Integer parser that accepts scientific notation exactly (1e26).

    The digit count is checked on the Decimal, before int() would build a
    huge integer.
    """
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value.adjusted() >= _BIG_INT_MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{text!r} has more than {_BIG_INT_MAX_DIGITS} digits"
        )
    return int(value)


def _finite_float(text: str) -> float:
    """Float parser that rejects nan and infinities (1e5000 overflows to inf)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@dataclass
class RunConfig:
    """Resolved knobs shared by the subcommands."""

    N: int
    X: int
    x_min: int
    x_max: int
    m_max: int
    bins: int
    epsilon: float | None
    C: float
    format: str
    seed: int
    workers: int
    budget: int
    series_max: int
    scan_ceiling: int

    def validate(self) -> None:
        positives = {
            "N": self.N,
            "X": self.X,
            "x_min": self.x_min,
            "x_max": self.x_max,
            "m_max": self.m_max,
            "workers": self.workers,
            "series_max": self.series_max,
            "scan_ceiling": self.scan_ceiling,
        }
        for name, value in positives.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.seed < 0 or self.budget < 0:
            raise ValueError("seed and budget must be non-negative")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format}")


_CASTS = {
    "N": int,
    "X": _big_int,
    "x_min": int,
    "x_max": int,
    "m_max": int,
    "bins": int,
    "epsilon": _finite_float,
    "C": _finite_float,
    "format": str,
    "seed": int,
    "workers": int,
    "budget": int,
    "series_max": int,
    "scan_ceiling": int,
}


# Config-file keys match knob names case-insensitively (n = N, X_MAX = x_max).
_KNOB_BY_LOWER = {key.lower(): key for key in _CASTS}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            values[_KNOB_BY_LOWER.get(key.lower(), key)] = value.strip()
    return values


def _cast(cast: Any, text: str, source: str) -> Any:
    """Parse an env or config-file value; a bad one is a usage error naming its source."""
    try:
        return cast(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"bad value for {source}: {exc}") from None


def _resolve(args: argparse.Namespace, file_cfg: dict[str, str]) -> RunConfig:
    resolved: dict[str, Any] = {}
    for key, cast in _CASTS.items():
        value = getattr(args, key, None)
        if value is None:
            env_name = ENV_PREFIX + key.upper()
            env = os.environ.get(env_name)
            if env is not None:
                value = _cast(cast, env, env_name)
            elif key in file_cfg:
                value = _cast(cast, file_cfg[key], f"config key {key}")
            else:
                value = _DEFAULTS[key]
        resolved[key] = value
    cfg = RunConfig(**resolved)
    cfg.validate()
    return cfg


# ----------------------------- serialization -----------------------------


def _f(x: float) -> float:
    """Round to 12 significant digits so output bytes are reproducible."""
    return float(f"{x:.12g}")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit(records: list[dict[str, Any]], fieldnames: list[str], fmt: str, out: IO[str]) -> None:
    """Write records as JSON lines or CSV with a fixed field order."""
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record, separators=(",", ":")))
            out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        for record in records:
            writer.writerow([_csv_cell(record[name]) for name in fieldnames])


# ------------------------------ subcommands ------------------------------


def _build_table(cfg: RunConfig, minimum: int = 1):
    return delta_coefficients(max(cfg.N, minimum), series_max=cfg.series_max)


def _cmd_tau(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    if args.n is None and args.max is None:
        raise ValueError("tau needs --n or --max")
    if args.max is not None:
        table = delta_coefficients(args.max, series_max=cfg.series_max)
        records = [{"n": n, "tau": str(t)} for n, t in table.iter_records()]
        emit(records, ["n", "tau"], cfg.format, out)
        return 0
    table = _build_table(cfg)
    n = args.n * args.n if args.square else args.n
    out.write(f"{tau_of(n, table)}\n")
    return 0


def _cmd_parity(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    record = {"n": args.n, "odd": tau_parity(args.n)}
    emit([record], ["n", "odd"], cfg.format, out)
    return 0


def _survey_record(r: survey_mod.SurveyRecord) -> dict[str, Any]:
    return {
        "ell": str(r.ell),
        "p": r.p,
        "m": r.m,
        "sign": r.sign,
        "verdict": r.verdict.value,
        "ordinary": r.ordinary,
    }


def _survey_payload(rep: survey_mod.SurveyReport) -> dict[str, Any]:
    return {
        "X": str(rep.X),
        "count": rep.count,
        "m_max": rep.m_max,
        "windowed": rep.windowed,
        "truncated": rep.truncated,
        "terms": {k: _f(v) for k, v in rep.terms.items()},
        "layers": [
            {
                "m": layer.m,
                "p_window": layer.p_window,
                "truncated": layer.truncated,
                "count": len(layer.primes),
                "records": [_survey_record(r) for r in layer.records],
            }
            for layer in rep.layers
        ],
        "primes": [str(ell) for ell in rep.primes],
        "caveat": rep.caveat,
    }


def _cmd_survey(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    table = _build_table(cfg)
    rep = survey_mod.survey(cfg.X, table)
    if cfg.format == "json":
        out.write(json.dumps(_survey_payload(rep), separators=(",", ":")))
        out.write("\n")
    else:
        records = [_survey_record(r) for layer in rep.layers for r in layer.records]
        emit(records, ["ell", "p", "m", "sign", "verdict", "ordinary"], "csv", out)
    return 0


def _near_point_records(points: list[curves.NearPoint]) -> list[dict[str, Any]]:
    return [
        {"kind": pt.kind.value, "x": pt.x, "y": str(pt.y), "k": str(pt.k)}
        for pt in points
    ]


def _cmd_near_points(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    points = curves.near_points(
        curves.CurveKind(args.kind),
        cfg.X,
        cfg.x_min,
        cfg.x_max,
        ceiling=cfg.scan_ceiling,
    )
    emit(_near_point_records(points), ["kind", "x", "y", "k"], cfg.format, out)
    return 0


def _cmd_count(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    rep = curves.exact_count(
        curves.CurveKind(args.kind),
        cfg.X,
        cfg.x_max,
        ceiling=cfg.scan_ceiling,
    )
    record = {
        "kind": rep.kind.value,
        "X": str(rep.X),
        "x_max": rep.x_max,
        "small": rep.small,
        "mid": rep.mid,
        "subunit": rep.subunit,
        "total": rep.total,
    }
    emit([record], list(record.keys()), cfg.format, out)
    return 0


def _cmd_abc(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    points = curves.near_points(
        curves.CurveKind(args.kind),
        cfg.X,
        cfg.x_min,
        cfg.x_max,
        ceiling=cfg.scan_ceiling,
    )
    fields = ["a", "b", "c", "d", "rad", "rad_complete", "quality"]
    if cfg.epsilon is not None:
        fields.append("abc_ok")
    records = []
    for pt in points:
        if pt.y == 0:
            continue
        triple = abctriples.from_near_point(pt, budget=cfg.budget, seed=cfg.seed)
        record: dict[str, Any] = {
            "a": str(triple.a),
            "b": str(triple.b),
            "c": str(triple.c),
            "d": str(triple.d),
            "rad": str(triple.rad),
            "rad_complete": triple.rad_complete,
            "quality": None if triple.quality is None else _f(triple.quality),
        }
        if cfg.epsilon is not None:
            record["abc_ok"] = (
                abctriples.abc_check(triple, cfg.epsilon, cfg.C)
                if triple.rad_complete
                else None
            )
        records.append(record)
    emit(records, fields, cfg.format, out)
    return 0


def _cmd_sato_tate(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    if (args.u_layer is None) != (args.u_threshold is None):
        raise ValueError("--u-layer and --u-threshold must be given together")
    table = _build_table(cfg)
    p_max = args.p_max if args.p_max is not None else table.N
    samples = satotate.angles_from_table(table, p_min=args.p_min, p_max=p_max)
    hist = satotate.st_histogram(samples, cfg.bins)
    if cfg.format == "csv":
        n = hist.sample_size
        records = [
            {
                "bin_lo": _f(hist.edges[i]),
                "bin_hi": _f(hist.edges[i + 1]),
                "observed": hist.observed[i],
                "expected": _f(n * hist.expected_mass[i]),
            }
            for i in range(cfg.bins)
        ]
        emit(records, ["bin_lo", "bin_hi", "observed", "expected"], "csv", out)
        return 0
    payload: dict[str, Any] = {
        "bins": cfg.bins,
        "samples": hist.sample_size,
        "edges": [_f(e) for e in hist.edges],
        "observed": list(hist.observed),
        "expected_mass": [_f(m) for m in hist.expected_mass],
        "chi_square": _f(hist.chi_square),
        "p_value": _f(hist.p_value),
    }
    if args.u_layer is not None:
        payload["u_layer"] = args.u_layer
        payload["u_threshold"] = _f(args.u_threshold)
        payload["u_proportion"] = _f(
            satotate.chebyshev_magnitude_proportion(samples, args.u_layer, args.u_threshold)
        )
    out.write(json.dumps(payload, separators=(",", ":")))
    out.write("\n")
    return 0


def _cmd_predict(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    try:
        X = float(cfg.X)
    except OverflowError:
        raise ValueError("X is too large for a float estimate") from None
    pred = satotate.heuristic_prediction(X, cfg.m_max, cfg.C)
    if not math.isfinite(pred.total):
        raise ValueError("the estimate overflows a float; lower X or C")
    if cfg.format == "csv":
        records = [{"m": m, "estimate": _f(v)} for m, v in pred.layers]
        emit(records, ["m", "estimate"], "csv", out)
        return 0
    payload = {
        "X": _f(pred.X),
        "C": _f(pred.C),
        "layers": [{"m": m, "estimate": _f(v)} for m, v in pred.layers],
        "total": _f(pred.total),
    }
    out.write(json.dumps(payload, separators=(",", ":")))
    out.write("\n")
    return 0


def _cmd_report(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    table = _build_table(cfg)
    deligne = verify_deligne(table)
    omitted = survey_mod.omitted_values_check(table)
    parity_bad = [
        n for n, t in table.iter_records() if (t % 2 == 1) != tau_parity(n)
    ]
    reduction = survey_mod.reduction_report(cfg.X, table, cfg.x_max)
    terms = {k: _f(v) for k, v in reduction.survey.terms.items()}
    terms["e2_windowed"] = reduction.e2_windowed
    terms["e4_windowed"] = reduction.e4_windowed
    payload = {
        "X": str(cfg.X),
        "N": table.N,
        "x_max": cfg.x_max,
        "count": reduction.survey.count,
        "primes": [str(ell) for ell in reduction.survey.primes],
        "terms": terms,
        "windowed": True,
        "truncated": reduction.survey.truncated,
        "caveat": reduction.survey.caveat,
        "deligne_violations": [[p, str(t)] for p, t in deligne],
        "omitted_violations": [[n, str(t)] for n, t in omitted],
        "parity_mismatches": parity_bad,
    }
    violations = bool(deligne or omitted or parity_bad)
    if cfg.format == "json":
        out.write(json.dumps(payload, separators=(",", ":")))
        out.write("\n")
    else:
        record = {
            "X": payload["X"],
            "N": payload["N"],
            "x_max": payload["x_max"],
            "count": payload["count"],
            "x_9_10_log_x": terms["x_9_10_log_x"],
            "x_13_22": terms["x_13_22"],
            "x_6_11": terms["x_6_11"],
            "e2_windowed": terms["e2_windowed"],
            "e4_windowed": terms["e4_windowed"],
            "deligne_violations": len(deligne),
            "omitted_violations": len(omitted),
            "parity_mismatches": len(parity_bad),
        }
        emit([record], list(record.keys()), "csv", out)
    return 1 if violations else 0


_HANDLERS = {
    "tau": _cmd_tau,
    "parity": _cmd_parity,
    "survey": _cmd_survey,
    "near-points": _cmd_near_points,
    "count": _cmd_count,
    "abc": _cmd_abc,
    "sato-tate": _cmd_sato_tate,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--N", type=int, help="series truncation order")
    sub.add_argument("--format", choices=("json", "csv"))
    sub.add_argument("--config", help="key=value config file (lowest precedence)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int, help="accepted for compatibility; runs are serial")
    sub.add_argument("--series-max", dest="series_max", type=int)
    sub.add_argument("--scan-ceiling", dest="scan_ceiling", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tausurvey",
        description="Exact tau arithmetic, prime-value surveys, near-point counts, "
        "abc instrumentation, and Sato-Tate statistics.",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the reduced-scale oracle-equivalence suite and exit",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("tau", help="tau(n) or a table export")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--n", type=int)
    group.add_argument("--max", type=int, help="export tau(1..max) as records")
    sub.add_argument("--square", action="store_true", help="evaluate at n^2")
    _add_common(sub)

    sub = subs.add_parser("parity", help="parity of tau(n) by the odd-square rule")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub)

    sub = subs.add_parser("survey", help="observed prime values |tau| <= X")
    sub.add_argument("--X", type=_big_int)
    _add_common(sub)

    for name, description in (
        ("near-points", "integer points near a twist family"),
        ("count", "regime-dissected near-point counts"),
        ("abc", "abc-triples from near-points"),
    ):
        sub = subs.add_parser(name, help=description)
        sub.add_argument("--kind", choices=("deg11", "deg22"), required=True)
        sub.add_argument("--X", type=_big_int)
        if name != "count":
            sub.add_argument("--x-min", dest="x_min", type=int)
        sub.add_argument("--x-max", dest="x_max", type=int)
        if name == "abc":
            sub.add_argument("--epsilon", type=_finite_float)
            sub.add_argument("--C", type=_finite_float)
            sub.add_argument("--budget", type=int)
        _add_common(sub)

    sub = subs.add_parser("sato-tate", help="angle histogram against the sin^2 measure")
    sub.add_argument("--bins", type=int)
    sub.add_argument("--p-min", dest="p_min", type=int, default=2)
    sub.add_argument("--p-max", dest="p_max", type=int)
    sub.add_argument("--u-layer", dest="u_layer", type=int)
    sub.add_argument("--u-threshold", dest="u_threshold", type=_finite_float)
    _add_common(sub)

    sub = subs.add_parser("predict", help="layered heuristic estimates for S(X)")
    sub.add_argument("--X", type=_finite_float, help="real-valued bound, must exceed e")
    sub.add_argument("--m-max", dest="m_max", type=int)
    sub.add_argument("--C", type=_finite_float)
    _add_common(sub)

    sub = subs.add_parser("report", help="verification suites plus reduction terms")
    sub.add_argument("--X", type=_big_int)
    sub.add_argument("--x-max", dest="x_max", type=int)
    _add_common(sub)

    return parser


def dispatch(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse argv, run the subcommand, and map errors to exit codes."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.self_test:
        return 0 if run_self_test(out) else 1
    if args.command is None:
        parser.print_usage(err)
        return 2
    try:
        file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
        cfg = _resolve(args, file_cfg)
        return _HANDLERS[args.command](args, cfg, out)
    except ResourceLimitError as exc:
        err.write(f"resource limit: {exc}\n")
        return 3
    except OutOfRangeError as exc:
        err.write(f"out of range: {exc}\n")
        return 3
    except DeligneViolationError as exc:
        err.write(f"invariant violation: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        err.write(f"usage error: {exc}\n")
        err.write(parser.format_usage())
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
