"""Reduced-scale oracle equivalence checks, runnable from the CLI.

The oracles here are deliberately naive and share no logic with the fast
paths they judge: the series oracle multiplies out the 24th power factor by
factor, the near-point oracle tests every admissible defect directly, and the
survey oracle runs the primality test on every candidate.
They double as the independent reference implementations for the test suite.
"""

from __future__ import annotations

import math
from typing import IO

from .curves import CurveKind, NearPoint, exact_count, near_points
from .delta import TauTable, delta_coefficients, tau_parity
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


def naive_delta_coefficients(N: int) -> list[int]:
    """tau(1..N) by multiplying out prod (1-q^n)^24 one factor at a time."""
    top = N - 1
    poly = [0] * (top + 1)
    poly[0] = 1
    for n in range(1, top + 1):
        for _ in range(24):
            for i in range(top, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


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


def naive_regime_counts(kind: CurveKind, X: int, x_max: int) -> tuple[int, int, int]:
    """(small, mid, subunit) by classifying every oracle point on 1 <= x <= x_max."""
    counts = [0, 0, 0]
    for pt in naive_near_points(kind, X, 1, x_max):
        if kind.in_small_regime(pt.x, X):
            counts[0] += 1
        elif kind.past_subunit_cutoff(pt.x, X):
            counts[2] += 1
        else:
            counts[1] += 1
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
    check(abs(angle_cdf(math.pi) - 1.0) < 1e-12, "sin^2 measure normalization")
    stream.write(("self-test FAILED\n" if failures else "self-test OK\n"))
    return failures == 0
