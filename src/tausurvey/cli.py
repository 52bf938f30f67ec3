"""Command-line surface: scriptable, deterministic, byte-stable output.

The options ("knobs") live in one table, _KNOBS, that gives each its
parser, default, validity rule and the subcommands with its --flag.  A
subcommand takes the knobs it has flags for, and no other: each of them can
also be supplied through an environment variable with the TAUSURVEY_ prefix
(flag --x-max becomes TAUSURVEY_X_MAX; flags win), or through a key=value
config file passed with --config (lowest precedence), and one parser reads it
from all three.  Env and config values of other knobs are ignored, but a
config line that is not key=value (blank lines and # comments aside), or
whose key names no knob at all, is a usage error.  predict's X alone is a
real number instead of an integer, from every source.

emit is the only serializer: each subcommand builds its records once and
hands them to emit, which writes JSON lines or CSV rows in chunks of 64 KiB
of characters, not one write per line (a chunk is written once it reaches
that size, so it runs past it by at most one line).  A CSV row is its cells
joined by commas, never quoted: no cell holds a comma, a quote or a line
break, and no row is a single empty cell.  survey, report, sato-tate and
predict write one JSON document, and their CSV holds its flat rows; tau --n
alone prints a bare integer in either format.  abc lists each record at
both points of a mirror pair, and emit encodes it once.  Values
of tau, primes, y, k, the abc legs and radicals, and X are emitted as
decimal strings; counts (count's small/mid/subunit/total, report's
e2_windowed/e4_windowed) are exact JSON integers of any size.  Floats are
rounded to 12 significant digits before serialization, and record streams
are canonically sorted, so identical configurations reproduce identical
bytes.  The --workers knob must be positive and defaults to the usable CPU
count; survey and report run their primality tests on a pool of at most
that many processes (never more than the usable CPUs), every other
subcommand ignores it, and the output bytes are the same for every value.

Exit codes: 0 success, 1 invariant violation found, 2 usage error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
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
    cast_for: dict[str, Callable[[str], Any]] | None = None  # a subcommand's own parser


def _positive(value: Any) -> bool:
    return value >= 1


def _non_negative(value: Any) -> bool:
    return value >= 0


# Subcommands that build a tau table.
_TABLE_COMMANDS = ("tau", "survey", "sato-tate", "report")

# The one table of knobs.  Each is a --flag (dashes for underscores) on the
# subcommands listed, and for those alone a TAUSURVEY_ environment variable
# and a config-file key, all three read by the same parser.  Every integer
# knob is read by _big_int, so 1e5 is the integer 100000; predict parses X as
# a real number.
_KNOBS = {
    "N": _Knob(_big_int, 10_000, "positive", _positive, _TABLE_COMMANDS, "series truncation order"),
    "X": _Knob(
        _big_int, 1_000_000, "positive", _positive,
        ("survey", "near-points", "count", "abc", "report", "predict"),
        "the bound: an integer, or for predict a real number that must exceed e",
        {"predict": _finite_float},
    ),
    "x_min": _Knob(_big_int, 1, "positive", _positive, ("near-points", "abc")),
    "x_max": _Knob(_big_int, 10, "positive", _positive, ("near-points", "count", "abc", "report")),
    "m_max": _Knob(_big_int, 3, "positive", _positive, ("predict",)),
    "bins": _Knob(_big_int, 8, ">= 2", lambda v: v >= 2, ("sato-tate",)),
    "epsilon": _Knob(_finite_float, None, "positive", lambda v: v is None or v > 0, ("abc",)),
    "C": _Knob(_finite_float, 1.0, "positive", lambda v: v > 0, ("abc", "predict")),
    "format": _Knob(str, "json", "json or csv", lambda v: v in ("json", "csv"), help="json or csv"),
    "seed": _Knob(_big_int, 0, "non-negative", _non_negative, ("abc",)),
    # On every subcommand, though only survey and report run a pool: the
    # output is the same for every value, so any run may pass it (the
    # abc-triples benchmark passes --workers 2 to abc).
    "workers": _Knob(
        _big_int, survey_mod.usable_cpus(), "positive", _positive,
        help="processes for the survey/report primality tests (default and cap: "
        "the usable CPUs; other subcommands run serially); output is identical "
        "for every value",
    ),
    "budget": _Knob(_big_int, abctriples.DEFAULT_BUDGET, "non-negative", _non_negative, ("abc",)),
    "series_max": _Knob(_big_int, SERIES_MAX_DEFAULT, "positive", _positive, _TABLE_COMMANDS),
    "scan_ceiling": _Knob(
        _big_int, curves.FULL_SCAN_CEILING, "positive", _positive, ("near-points", "abc")
    ),
}


class RunConfig(SimpleNamespace):
    """Resolved knobs of one subcommand: an attribute for each knob it takes
    a flag for, and none for the others."""


# Config-file keys match knob names case-insensitively (n = N, X_MAX = x_max).
_KNOB_BY_LOWER = {key.lower(): key for key in _KNOBS}


def _read_config_file(path: str) -> dict[str, str]:
    """The key=value pairs of a config file, by knob name.  A line that is
    neither blank, a # comment nor key=value, and a key that names no knob,
    are usage errors; a knob of another subcommand is read and then ignored
    by _resolve."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {number} of {path} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            knob = _KNOB_BY_LOWER.get(key.lower())
            if knob is None:
                raise ValueError(f"config key {key!r} in {path} names no knob")
            values[knob] = value.strip()
    return values


def _cast(cast: Any, text: str, source: str) -> Any:
    """Parse an env or config-file value; a bad one is a usage error naming its source."""
    try:
        return cast(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"bad value for {source}: {exc}") from None


def _resolve(args: argparse.Namespace, file_cfg: dict[str, str]) -> RunConfig:
    """The subcommand's knobs, each by flag, env, config file or default,
    parsed by the cast its flag has (args.knob_casts, set by _add_knobs)."""
    cfg = RunConfig()
    for key, cast in args.knob_casts.items():
        knob = _KNOBS[key]
        value = getattr(args, key)
        if value is None:
            env_name = ENV_PREFIX + key.upper()
            env = os.environ.get(env_name)
            if env is not None:
                value = _cast(cast, env, env_name)
            elif key in file_cfg:
                value = _cast(cast, file_cfg[key], f"config key {key}")
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


# Characters emit gathers before a write: one write per chunk rather than per
# line, since with PYTHONUNBUFFERED=1 every write is a syscall.
_CHUNK_CHARS = 64 * 1024

# Made once: json.dumps with separators builds an encoder per record.  Bound
# at import, it outlives a tracer's swap of this module's json name.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def emit(
    records: list[dict[str, Any]], fieldnames: list[str], fmt: str, out: IO[str], *,
    mirrored: bool = False,
) -> None:
    """Write records as JSON lines or CSV with a fixed field order; the one
    place that serializes stdout.  A CSV row is its cells joined by commas,
    unquoted: no cell (a decimal string, integer, true/false, .12g float, enum
    value or empty) holds a comma, a quote or a line break.

    Encoded lines are joined and written in chunks: a chunk goes out as soon
    as it holds 64 KiB of characters, so no write is longer than 64 KiB plus
    one line, and the rest goes out at the end.

    mirrored is for a list that names each record object twice, as abc lists
    one record at both points of a mirror pair: the record's encoded line is
    kept from its first listing, written again at its second and dropped
    there, so each record is encoded once and only the lines still waiting
    for their second listing are held.
    """
    chunk: list[str] = []
    if fmt == "json":
        def encode(record: dict[str, Any]) -> str:
            return _encode_json(record) + "\n"
    else:
        def encode(record: dict[str, Any]) -> str:
            return ",".join([_csv_cell(record[name]) for name in fieldnames]) + "\n"

        chunk.append(",".join(fieldnames) + "\n")
    if mirrored:
        # Lines by id(record): the list keeps every record alive, so no id is reused.
        pending: dict[int, str] = {}

        def line_of(record: dict[str, Any]) -> str:
            line = pending.pop(id(record), None)
            if line is None:
                line = pending[id(record)] = encode(record)
            return line
    else:
        line_of = encode
    size = sum(map(len, chunk))
    for record in records:
        line = line_of(record)
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK_CHARS:
            out.write("".join(chunk))
            chunk = []
            size = 0
    if chunk:
        out.write("".join(chunk))


def _emit_document(
    document: dict[str, Any], rows: list[dict[str, Any]], fieldnames: list[str], fmt: str,
    out: IO[str],
) -> None:
    """A one-document subcommand: the whole document as JSON, its flat rows as CSV."""
    emit([document] if fmt == "json" else rows, fieldnames, fmt, out)


# ------------------------------ subcommands ------------------------------


def _float_X(cfg: RunConfig) -> float:
    """X as a float, for the analytic terms; an X beyond the largest float is a
    usage error, raised before any table or scan."""
    try:
        return float(cfg.X)
    except OverflowError:
        raise ValueError(f"X is too large for a float (max {sys.float_info.max:.6g})") from None


def _build_table(cfg: RunConfig):
    return delta_coefficients(cfg.N, series_max=cfg.series_max)


def _cmd_tau(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    if args.n is None and args.max is None:
        raise ValueError("tau needs --n or --max")
    if args.max is not None:
        if args.square:
            raise ValueError("--square applies to --n only")
        if args.N is not None:  # the flag alone: env and config N stay ignored
            raise ValueError("--N applies to --n only")
        if args.max < 1:
            raise ValueError("--max must be >= 1")
        table = delta_coefficients(args.max, series_max=cfg.series_max)
        records = [{"n": n, "tau": str(t)} for n, t in table.iter_records()]
        emit(records, ["n", "tau"], cfg.format, out)
        return 0
    if args.n < 1:  # before squaring: (-5)^2 would pass
        raise ValueError("n must be >= 1")
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


def _cmd_survey(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    _float_X(cfg)
    rep = survey_mod.survey(cfg.X, _build_table(cfg), workers=cfg.workers)
    layers = [
        {
            "m": layer.m,
            "p_window": layer.p_window,
            "truncated": layer.truncated,
            "count": len(layer.primes),
            "records": [_survey_record(r) for r in layer.records],
        }
        for layer in rep.layers
    ]
    document = {
        "X": str(rep.X),
        "count": rep.count,
        "m_max": rep.m_max,
        "windowed": rep.windowed,
        "truncated": rep.truncated,
        "terms": {k: _f(v) for k, v in rep.terms.items()},
        "layers": layers,
        "primes": [str(ell) for ell in rep.primes],
        "caveat": rep.caveat,
    }
    rows = [record for layer in layers for record in layer["records"]]
    fields = ["ell", "p", "m", "sign", "verdict", "ordinary"]
    _emit_document(document, rows, fields, cfg.format, out)
    return 0


def _near_points(args: argparse.Namespace, cfg: RunConfig) -> list[curves.NearPoint]:
    return curves.near_points(
        curves.CurveKind(args.kind), cfg.X, cfg.x_min, cfg.x_max, ceiling=cfg.scan_ceiling
    )


def _cmd_near_points(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    records = [
        {"kind": pt.kind.value, "x": pt.x, "y": str(pt.y), "k": str(pt.k)}
        for pt in _near_points(args, cfg)
    ]
    emit(records, ["kind", "x", "y", "k"], cfg.format, out)
    return 0


def _cmd_count(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    rep = curves.exact_count(curves.CurveKind(args.kind), cfg.X, cfg.x_max)
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
    points = _near_points(args, cfg)
    # The triple of (x, y, k) is that of (x, -y, k): it depends on x and k
    # alone.  Each record is built once, at the first of the two points, and
    # listed again at its mirror.
    records = []
    x = None
    by_defect: dict[int, dict[str, Any]] = {}  # records of abscissa x, by k
    for pt in points:
        if pt.y == 0:
            continue
        if pt.x != x:
            x = pt.x
            by_defect.clear()
        record = by_defect.get(pt.k)
        if record is None:
            triple = abctriples.from_near_point(pt, budget=cfg.budget, seed=cfg.seed)
            record = by_defect[pt.k] = abc_record(triple, cfg.epsilon, cfg.C)
        records.append(record)
    emit(records, abc_fields(cfg.epsilon), cfg.format, out, mirrored=True)
    return 0


def abc_fields(epsilon: float | None) -> list[str]:
    """Columns of the abc records; abc_ok only when an epsilon is given."""
    fields = ["a", "b", "c", "d", "rad", "rad_complete", "quality"]
    return fields if epsilon is None else fields + ["abc_ok"]


def abc_record(triple: abctriples.AbcTriple, epsilon: float | None, C: float) -> dict[str, Any]:
    """The output record of one triple."""
    record: dict[str, Any] = {
        "a": str(triple.a),
        "b": str(triple.b),
        "c": str(triple.c),
        "d": str(triple.d),
        "rad": str(triple.rad),
        "rad_complete": triple.rad_complete,
        "quality": None if triple.quality is None else _f(triple.quality),
    }
    if epsilon is not None:
        record["abc_ok"] = (
            abctriples.abc_check(triple, epsilon, C) if triple.rad_complete else None
        )
    return record


def _cmd_sato_tate(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    if (args.u_layer is None) != (args.u_threshold is None):
        raise ValueError("--u-layer and --u-threshold must be given together")
    if args.u_layer is not None and cfg.format == "csv":
        raise ValueError("--u-layer/--u-threshold have no CSV column; use --format json")
    table = _build_table(cfg)
    samples = satotate.angles_from_table(table, p_min=args.p_min, p_max=args.p_max)
    hist = satotate.st_histogram(samples, cfg.bins)
    edges = [_f(e) for e in hist.edges]
    rows = [
        {
            "bin_lo": edges[i],
            "bin_hi": edges[i + 1],
            "observed": hist.observed[i],
            "expected": _f(hist.sample_size * hist.expected_mass[i]),
        }
        for i in range(cfg.bins)
    ]
    document: dict[str, Any] = {
        "bins": cfg.bins,
        "samples": hist.sample_size,
        "edges": edges,
        "observed": list(hist.observed),
        "expected_mass": [_f(m) for m in hist.expected_mass],
        "chi_square": _f(hist.chi_square),
        "p_value": _f(hist.p_value),
    }
    if args.u_layer is not None:
        document["u_layer"] = args.u_layer
        document["u_threshold"] = _f(args.u_threshold)
        document["u_proportion"] = _f(
            satotate.chebyshev_magnitude_proportion(samples, args.u_layer, args.u_threshold)
        )
    _emit_document(document, rows, ["bin_lo", "bin_hi", "observed", "expected"], cfg.format, out)
    return 0


def _cmd_predict(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    pred = satotate.heuristic_prediction(cfg.X, cfg.m_max, cfg.C)
    if not math.isfinite(pred.total):
        raise ValueError("the estimate overflows a float; lower X or C")
    layers = [{"m": m, "estimate": _f(v)} for m, v in pred.layers]
    document = {"X": _f(pred.X), "C": _f(pred.C), "layers": layers, "total": _f(pred.total)}
    _emit_document(document, layers, ["m", "estimate"], cfg.format, out)
    return 0


def _cmd_report(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    _float_X(cfg)
    table = _build_table(cfg)
    violations = {
        "deligne_violations": [[p, str(t)] for p, t in verify_deligne(table)],
        "omitted_violations": [[n, str(t)] for n, t in survey_mod.omitted_values_check(table)],
        "parity_mismatches": [
            n for n, t in table.iter_records() if (t % 2 == 1) != tau_parity(n)
        ],
    }
    rep = survey_mod.survey(cfg.X, table, workers=cfg.workers)
    head = {"X": str(cfg.X), "N": table.N, "x_max": cfg.x_max, "count": rep.count}
    terms = {k: _f(v) for k, v in rep.terms.items()}
    # Windowed tails (lower bounds): the sub-unit near-points with x <= x_max,
    # past x^11 > X^2 for deg11 and past x^11 > X for deg22.
    terms["e2_windowed"] = curves.exact_count(curves.CurveKind.DEG11, cfg.X, cfg.x_max).subunit
    terms["e4_windowed"] = curves.exact_count(curves.CurveKind.DEG22, cfg.X, cfg.x_max).subunit
    document = {
        **head,
        "primes": [str(ell) for ell in rep.primes],
        "terms": terms,
        "windowed": True,
        "truncated": rep.truncated,
        "caveat": rep.caveat,
        **violations,
    }
    row = {**head, **terms, **{name: len(found) for name, found in violations.items()}}
    _emit_document(document, [row], list(row), cfg.format, out)
    return 1 if any(violations.values()) else 0


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
    """Add the --flag of every knob the subcommand takes, and record which
    knobs those are, with the cast that parses each (knob_casts)."""
    casts = {}
    for name, knob in _KNOBS.items():
        if knob.commands is None or command in knob.commands:
            cast = casts[name] = (knob.cast_for or {}).get(command, knob.cast)
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, dest=name, type=cast, help=knob.help)
    sub.add_argument("--config", help="key=value config file (lowest precedence)")
    sub.set_defaults(knob_casts=casts)


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
        sub.set_defaults(usage=sub.format_usage)  # for the usage errors dispatch prints
        return sub

    sub = command("tau", "tau(n) or a table export")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--n", type=_big_int)
    group.add_argument("--max", type=_big_int, help="export tau(1..max) as records")
    sub.add_argument("--square", action="store_true", help="evaluate at n^2")

    sub = command("parity", "parity of tau(n) by the odd-square rule")
    sub.add_argument("--n", type=_big_int, required=True)

    command("survey", "observed prime values |tau| <= X")

    for name, description in (
        ("near-points", "integer points near a twist family"),
        ("count", "regime-dissected near-point counts"),
        ("abc", "abc-triples from near-points"),
    ):
        sub = command(name, description)
        sub.add_argument("--kind", choices=("deg11", "deg22"), required=True)

    sub = command("sato-tate", "angle histogram against the sin^2 measure")
    sub.add_argument("--p-min", dest="p_min", type=_big_int, default=2)
    sub.add_argument("--p-max", dest="p_max", type=_big_int)
    sub.add_argument("--u-layer", dest="u_layer", type=_big_int)
    sub.add_argument("--u-threshold", dest="u_threshold", type=_finite_float)

    command("predict", "layered heuristic estimates for S(X)")
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
        # Under `python -m tausurvey.cli` this module runs as __main__: register
        # it under its package name, so the self-test's `from . import cli`
        # uses it instead of compiling cli.py a second time.
        sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
        from .selftest import run_self_test  # loaded only for the run that needs it

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
        err.write(args.usage())
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
