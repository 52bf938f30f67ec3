"""Reduced-scale oracle equivalence checks, runnable from the CLI.

The oracles here are deliberately naive and share no logic with the fast
paths they judge: the series oracle multiplies out the 24th power factor by
factor, the near-point oracle tests every admissible defect directly, the
survey oracle runs the primality test on every candidate, and the abc oracle
builds one triple per point and takes its radical by plain trial division.
They double as the independent reference implementations for the test suite.
"""

from __future__ import annotations

import hashlib
import io
import math
from typing import IO

from . import cli
from .abctriples import DEFAULT_BUDGET, AbcTriple, from_near_point, radical_budgeted
from .curves import CurveKind, NearPoint, exact_count, near_points
from .delta import TauTable, _cube_series_square, delta_coefficients, tau_parity
from .hecke import is_ordinary, tau_of, tau_prime_power
from .primes import PrimalityVerdict, cached_primes, classify_prime
from .satotate import angle_cdf
from .survey import (
    SurveyLayer,
    SurveyRecord,
    _layer_candidates,
    _pooled_verdicts,
    _verdicts,
    layer_cap,
    layer_window,
    survey_layer,
)


def naive_eta_power(power: int, top: int) -> list[int]:
    """prod (1-q^n)^power up to q^top, multiplied out one factor at a time."""
    poly = [0] * (top + 1)
    poly[0] = 1
    for n in range(1, top + 1):
        for _ in range(power):
            for i in range(top, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


def naive_delta_coefficients(N: int) -> list[int]:
    """tau(1..N) by multiplying out prod (1-q^n)^24 one factor at a time."""
    return naive_eta_power(24, N - 1)


def naive_primes(limit: int) -> list[int]:
    """Primes <= limit, testing each n against every d with d * d <= n."""
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def naive_survey_layer(m: int, X: int, table: TauTable) -> SurveyLayer:
    """Survey layer m with the primality test on every gate-passing value."""
    window = layer_window(m, X)
    records = []
    for p in cached_primes(min(window, table.N)):
        if p == 2:
            continue
        value = tau_prime_power(table.tau(p), p, 2 * m)
        mag = abs(value)
        if not 1 <= mag <= X:
            continue
        verdict = classify_prime(mag)
        if verdict is PrimalityVerdict.COMPOSITE:
            continue
        ordinary = is_ordinary(mag, table.tau(mag)) if mag <= table.N else None
        records.append(SurveyRecord(mag, p, m, 1 if value > 0 else -1, verdict, ordinary))
    return SurveyLayer(m, window, window > table.N, tuple(records))


def naive_near_points(kind: CurveKind, X: int, x_min: int, x_max: int) -> list[NearPoint]:
    """Near-points by testing every defect in the band for squareness."""
    band = kind.band(X)
    points = []
    for x in range(x_min, x_max + 1):
        central = kind.central(x)
        for k in range(-band, band + 1):
            if k == 0:
                continue
            target = central + k
            if target < 0:
                continue
            y = math.isqrt(target)
            if y * y == target:
                if y:
                    points.append(NearPoint(kind, x, -y, k))
                points.append(NearPoint(kind, x, y, k))
    points.sort(key=lambda pt: (pt.x, pt.y))
    return points


def naive_radical(n: int) -> int:
    """Product of the distinct primes of n >= 1, dividing by every d with d * d <= n."""
    rad, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            rad *= d
            while n % d == 0:
                n //= d
        d += 1
    return rad * n


# Legs at the boundaries of radical_budgeted's primorial gcd: high prime
# powers (many gcd rounds), primes either side of the stage top 4096, primes
# between TRIAL_LIMIT and 4096^2, values either side of 4096^2, and rests at
# or above 4096^2 that go on to trial division.  Each has at most one prime
# factor past 4111, so naive_radical takes it quickly.
RADICAL_EDGES = (
    128**11, 2**77 * 3**5, 4093**3,
    4093 * 4099, 4099**2, 4093 * 4099 * 4111, 4099 * 4111,
    1_000_003, 1_000_033, 16_777_213,
    4096**2 - 1, 4096**2, 4096**2 + 1, 16_777_259,
    4099 * 4111 * 1_000_003, 2**40 * 4093**2 * 16_777_259,
)


def naive_abc_triples(kind: CurveKind, X: int, x_min: int, x_max: int) -> list[AbcTriple]:
    """from_near_point on every oracle point with y != 0, mirror points
    included, each radical replaced by the trial-division oracle's.

    Matches the budgeted radicals only where they complete, so callers keep
    every leg small enough for trial division alone.
    """
    triples = []
    for pt in naive_near_points(kind, X, x_min, x_max):
        if pt.y == 0:
            continue
        t = from_near_point(pt)
        rad = naive_radical(abs(t.a1 * t.b1 * t.c1))
        top = max(abs(t.a1), abs(t.b1), abs(t.c1))
        quality = math.log(top) / math.log(rad) if rad > 1 else None
        triples.append(t._replace(rad=rad, rad_complete=True, quality=quality))
    return triples


def abc_output_pair(
    kind: CurveKind,
    X: int,
    x_max: int,
    *,
    fmt: str = "json",
    budget: int = DEFAULT_BUDGET,
    epsilon: float | None = None,
    C: float = 1.0,
) -> tuple[str, str]:
    """(stdout of `tausurvey abc` on 1 <= x <= x_max, the same records built
    from naive_abc_triples); every knob that shapes the output is a flag.

    The expected side builds one record per point and writes it through
    emit without `mirrored`, so the mirror memo runs on one side only."""
    argv = ["abc", "--kind", kind.value, "--X", str(X), "--x-min", "1", "--x-max", str(x_max),
            "--format", fmt, "--budget", str(budget), "--seed", "0", "--C", repr(C)]
    if epsilon is not None:
        argv += ["--epsilon", repr(epsilon)]
    out, expected = io.StringIO(), io.StringIO()
    cli.dispatch(argv, out, io.StringIO())
    triples = naive_abc_triples(kind, X, 1, x_max)
    records = [cli.abc_record(t, epsilon, C) for t in triples]
    cli.emit(records, cli.abc_fields(epsilon), fmt, expected)
    return out.getvalue(), expected.getvalue()


def naive_regime(kind: CurveKind, X: int, x: int) -> int:
    """0, 1 or 2 for an abscissa in the small, mid or sub-unit regime, by
    exact power comparisons: small is x^11 <= 2X (deg11) or x^22 <= X
    (deg22), and past the sub-unit cutoff x^11 > X^2 or x^11 > X."""
    if kind is CurveKind.DEG11:
        small, subunit = x**11 <= 2 * X, x**11 > X * X
    else:
        small, subunit = x**22 <= X, x**11 > X
    return 0 if small else 2 if subunit else 1


def naive_regime_counts(kind: CurveKind, X: int, x_max: int) -> tuple[int, int, int]:
    """(small, mid, subunit) by classifying every oracle point on 1 <= x <= x_max."""
    counts = [0, 0, 0]
    for pt in naive_near_points(kind, X, 1, x_max):
        counts[naive_regime(kind, X, pt.x)] += 1
    return tuple(counts)


def run_self_test(stream: IO[str]) -> bool:
    """Run the reduced-scale suite, printing one PASS/FAIL line per check."""
    failures = 0

    def check(ok: bool, label: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        stream.write(f"{'PASS' if ok else 'FAIL'}  {label}\n")

    limits = (60, 7, 0, 1, 2, 2, 61, 121, 119, 1000, 250, 2500, 2500, 5001, 3)
    check(
        all(list(cached_primes(limit)) == naive_primes(limit) for limit in limits),
        "shared prime sieve vs trial-division oracle, rising/falling/repeated limits",
    )
    table = delta_coefficients(500)
    check(list(table.coeffs) == naive_delta_coefficients(500), "series vs naive 24th-power product, N=500")
    digest = hashlib.sha256("\n".join(map(str, delta_coefficients(10_000).coeffs)).encode()).hexdigest()
    check(
        digest == "d6180a22882a91fa71063c31d15d30e38617cdef173ec7c1e77a1b96be8dc032",
        "series at N=10^4 (three pack batches, joined again after the re-slot) vs frozen checksum",
    )
    sixth = naive_eta_power(6, 600)
    triangular = [k * (k + 1) // 2 for k in range(35)]
    orders = {n for t in triangular for n in (t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1) if 1 <= n <= 601}
    check(
        all(_cube_series_square(n - 1) == sixth[:n] for n in orders),
        "sparse 6th power vs naive product, N at T_k, T_k +- 1, 2T_k, 2T_k +- 1 up to 601",
    )
    check(
        all((table.tau(n) % 2 == 1) == tau_parity(n) for n in range(1, 501)),
        "parity of tau(n) vs odd-square rule, n <= 500",
    )
    pairs_ok = all(
        tau_of(m * n, table) == tau_of(m, table) * tau_of(n, table)
        for m in range(2, 23)
        for n in range(m + 1, 500 // m)
        if math.gcd(m, n) == 1
    )
    check(pairs_ok, "multiplicativity on coprime pairs, mn < 500")
    for kind in CurveKind:
        agree = all(
            near_points(kind, X, 1, 12) == naive_near_points(kind, X, 1, 12)
            for X in (1, 10, 100, 1000)
        )
        check(agree, f"near-point enumeration vs defect-scan oracle, {kind.value}")
    check(exact_count(CurveKind.DEG11, 10, 2).total == 5, "regime dissection total, deg11 X=10")
    reports = [exact_count(kind, 1000, 16) for kind in CurveKind]
    check(
        all((r.small, r.mid, r.subunit) == naive_regime_counts(r.kind, 1000, 16) for r in reports),
        "arithmetic regime counts vs defect-scan oracle, X=1000, x <= 16",
    )
    table = delta_coefficients(2000)
    X = 10**120
    layers_ok = all(
        survey_layer(m, X, table) == naive_survey_layer(m, X, table) for m in range(1, layer_cap(X) + 1)
    )
    check(layers_ok, "pre-sieved survey layers vs primality test on every candidate, X=1e120, N=2000")
    # min_work 0: a batch this small would otherwise be tested in-process.
    values = [
        abs(v) for m in range(1, layer_cap(X) + 1) for _, v in _layer_candidates(m, X, table).values
    ]
    check(
        _pooled_verdicts(values, 2, 0) == _verdicts(values),
        "primality verdicts on a 2-worker pool vs in-process, X=1e120, N=2000",
    )
    check(
        all(radical_budgeted(n, budget) == (naive_radical(n), True)
            for n in RADICAL_EDGES for budget in (0, DEFAULT_BUDGET)),
        "primorial-gcd radicals vs trial-division oracle, prime powers and legs around 4096 and 4096^2",
    )
    pairs = [abc_output_pair(kind, 10_000, 6, fmt=fmt) for kind in CurveKind for fmt in ("json", "csv")]
    check(
        all(got == want for got, want in pairs),
        "abc records, one triple per mirror pair, vs per-point trial-division oracle, X=1e4, x <= 6",
    )
    check(abs(angle_cdf(math.pi) - 1.0) < 1e-12, "sin^2 measure normalization")
    stream.write(("self-test FAILED\n" if failures else "self-test OK\n"))
    return failures == 0
