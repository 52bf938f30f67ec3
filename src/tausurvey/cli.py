"""Command-line surface: scriptable, deterministic, byte-stable output.

The shared options ("knobs") live in one table, _KNOBS, that gives each its
parser, default, validity rule and the subcommands with its --flag.  Every
knob can also be supplied through an environment variable with the
TAUSURVEY_ prefix (flag --x-max becomes TAUSURVEY_X_MAX; flags win), or
through a key=value config file passed with --config (lowest precedence).
predict --X alone parses a real number instead of an integer.
Big integers are always emitted as decimal strings, floats are rounded to 12
significant digits before serialization, and record streams are canonically
sorted, so identical configurations reproduce identical bytes.  The
--workers knob must be positive and defaults to the usable CPU count; survey
and report run their primality tests on a pool of at most that many
processes (never more than the usable CPUs), every other subcommand ignores
it, and the output bytes are the same for every value.

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
from decimal import Decimal, InvalidOperation
from types import SimpleNamespace
from typing import IO, Any, Callable, NamedTuple

from . import abctriples, curves, satotate, survey as survey_mod
from .delta import SERIES_MAX_DEFAULT, delta_coefficients, tau_parity, verify_deligne
from .errors import DeligneViolationError, OutOfRangeError, ResourceLimitError
from .hecke import tau_of
from .selftest import run_self_test

ENV_PREFIX = "TAUSURVEY_"

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


class _Knob(NamedTuple):
    cast: Callable[[str], Any]  # parser for flag, env and config-file text
    default: Any
    rule: str  # what a valid value is, for the usage error
    check: Callable[[Any], bool]
    commands: tuple[str, ...] | None = None  # subcommands with the --flag; None is all
    help: str | None = None


def _positive(value: Any) -> bool:
    return value >= 1


def _non_negative(value: Any) -> bool:
    return value >= 0


# The one table of knobs.  Each is a --flag (dashes for underscores) on the
# subcommands listed, a TAUSURVEY_ environment variable and a config-file key.
# predict's --X is a float parser of its own, added with that subcommand.
_KNOBS = {
    "N": _Knob(int, 10_000, "positive", _positive, help="series truncation order"),
    "X": _Knob(
        _big_int, 1_000_000, "positive", _positive,
        ("survey", "near-points", "count", "abc", "report"),
    ),
    "x_min": _Knob(int, 1, "positive", _positive, ("near-points", "abc")),
    "x_max": _Knob(int, 10, "positive", _positive, ("near-points", "count", "abc", "report")),
    "m_max": _Knob(int, 3, "positive", _positive, ("predict",)),
    "bins": _Knob(int, 8, ">= 2", lambda v: v >= 2, ("sato-tate",)),
    "epsilon": _Knob(_finite_float, None, "positive", lambda v: v is None or v > 0, ("abc",)),
    "C": _Knob(_finite_float, 1.0, "positive", lambda v: v > 0, ("abc", "predict")),
    "format": _Knob(str, "json", "json or csv", lambda v: v in ("json", "csv"), help="json or csv"),
    "seed": _Knob(int, 0, "non-negative", _non_negative),
    "workers": _Knob(
        int, survey_mod.usable_cpus(), "positive", _positive,
        help="processes for the survey/report primality tests (default and cap: "
        "the usable CPUs; other subcommands run serially); output is identical "
        "for every value",
    ),
    "budget": _Knob(int, abctriples.DEFAULT_BUDGET, "non-negative", _non_negative, ("abc",)),
    "series_max": _Knob(int, SERIES_MAX_DEFAULT, "positive", _positive),
    "scan_ceiling": _Knob(int, curves.FULL_SCAN_CEILING, "positive", _positive),
}


class RunConfig(SimpleNamespace):
    """Resolved knobs, one attribute per _KNOBS entry."""


# Config-file keys match knob names case-insensitively (n = N, X_MAX = x_max).
_KNOB_BY_LOWER = {key.lower(): key for key in _KNOBS}


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
    cfg = RunConfig()
    for key, knob in _KNOBS.items():
        value = getattr(args, key, None)
        if value is None:
            env_name = ENV_PREFIX + key.upper()
            env = os.environ.get(env_name)
            if env is not None:
                value = _cast(knob.cast, env, env_name)
            elif key in file_cfg:
                value = _cast(knob.cast, file_cfg[key], f"config key {key}")
            else:
                value = knob.default
        if not knob.check(value):
            raise ValueError(f"{key} must be {knob.rule}, got {value}")
        setattr(cfg, key, value)
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
    rep = survey_mod.survey(cfg.X, table, workers=cfg.workers)
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
    if args.u_layer is not None and cfg.format == "csv":
        raise ValueError("--u-layer/--u-threshold have no CSV column; use --format json")
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
    reduction = survey_mod.reduction_report(cfg.X, table, cfg.x_max, workers=cfg.workers)
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


def _add_knobs(sub: argparse.ArgumentParser, command: str) -> None:
    """Add the --flag of every knob the subcommand takes, parsed by the table's cast."""
    for name, knob in _KNOBS.items():
        if knob.commands is None or command in knob.commands:
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, dest=name, type=knob.cast, help=knob.help)
    sub.add_argument("--config", help="key=value config file (lowest precedence)")


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

    def command(name: str, description: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=description)
        _add_knobs(sub, name)
        return sub

    sub = command("tau", "tau(n) or a table export")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--n", type=int)
    group.add_argument("--max", type=int, help="export tau(1..max) as records")
    sub.add_argument("--square", action="store_true", help="evaluate at n^2")

    sub = command("parity", "parity of tau(n) by the odd-square rule")
    sub.add_argument("--n", type=int, required=True)

    command("survey", "observed prime values |tau| <= X")

    for name, description in (
        ("near-points", "integer points near a twist family"),
        ("count", "regime-dissected near-point counts"),
        ("abc", "abc-triples from near-points"),
    ):
        sub = command(name, description)
        sub.add_argument("--kind", choices=("deg11", "deg22"), required=True)

    sub = command("sato-tate", "angle histogram against the sin^2 measure")
    sub.add_argument("--p-min", dest="p_min", type=int, default=2)
    sub.add_argument("--p-max", dest="p_max", type=int)
    sub.add_argument("--u-layer", dest="u_layer", type=int)
    sub.add_argument("--u-threshold", dest="u_threshold", type=_finite_float)

    sub = command("predict", "layered heuristic estimates for S(X)")
    sub.add_argument("--X", type=_finite_float, help="real-valued bound, must exceed e")

    command("report", "verification suites plus reduction terms")

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
