"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they execute.
"""

import io
import math
import random
import time

from tausurvey.abctriples import abc_check, make_triple
from tausurvey.cli import dispatch
from tausurvey.curves import CurveKind, exact_count, near_points
from tausurvey.delta import delta_coefficients, tau_parity, verify_deligne
from tausurvey.hecke import tau_of, tau_prime_power
from tausurvey.primes import PrimalityVerdict, cached_primes, classify_prime
from tausurvey.satotate import (
    angle_cdf,
    angles_from_table,
    heuristic_prediction,
    st_histogram,
)
from tausurvey.selftest import naive_near_points
from tausurvey.survey import layer_cap, omitted_values_check
from tau_identities import chebyshev_check, quartic_identity_check

LEHMER = -80561663527802406257321747


def _criterion(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_c01_lehmer_golden_value():
    start = time.monotonic()
    table = delta_coefficients(10_000)
    value = tau_of(251 ** 2, table)
    verdict = classify_prime(abs(value))
    elapsed = time.monotonic() - start
    ok = (
        value == LEHMER
        and verdict in (PrimalityVerdict.PRIME, PrimalityVerdict.PROBABLE_PRIME)
        and elapsed < 120.0
    )
    _criterion(1, f"tau(251^2) golden value and primality ({elapsed:.2f}s)", ok)


def test_c02_parity_suite(table10k):
    ok = all((t % 2 == 1) == tau_parity(n) for n, t in table10k.iter_records())
    _criterion(2, "parity equals odd-square rule for all n <= 10^4", ok)


def test_c03_deligne_suite(table10k):
    _criterion(3, "tau(p)^2 <= 4 p^11 for all primes p <= 10^4", verify_deligne(table10k) == [])


def test_c04_multiplicativity_and_recurrence(table10k):
    ok = True
    for m in range(2, 101):
        for n in range(m + 1, 10_000 // m + 1):
            if math.gcd(m, n) == 1:
                if table10k.tau(m * n) != table10k.tau(m) * table10k.tau(n):
                    ok = False
    for p in cached_primes(100):
        tp = table10k.tau(p)
        if tau_prime_power(tp, p, 2) != tp * tp - p ** 11:
            ok = False
        if not quartic_identity_check(p, tp):
            ok = False
    _criterion(4, "multiplicativity on coprime mn <= 10^4, square and quartic relations", ok)


def test_c05_omitted_values(table10k):
    _criterion(5, "no omitted value hit on 2 <= n <= 10^4", omitted_values_check(table10k) == [])


def test_c06_near_point_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for X in (1, 10, 100, 1000, 10_000):
        for kind in CurveKind:
            if near_points(kind, X, 1, 30) != naive_near_points(kind, X, 1, 30):
                ok = False
    specific = near_points(CurveKind.DEG11, 100, 3, 10)
    ok = ok and [(p.x, p.y, p.k) for p in specific] == [(3, -421, 94), (3, 421, 94)]
    ok = ok and exact_count(CurveKind.DEG11, 10, 2).total == 5
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _criterion(6, f"fast enumerator equals naive oracle, both kinds ({elapsed:.2f}s)", ok)


def test_c07_abc_instrumentation():
    t = make_triple(3 ** 11, 94)
    ok = t.d == 1 and t.rad == 118722 and abs(t.quality - 1.0343) <= 1e-3
    rng = random.Random(1229)
    checked = 0
    while checked < 1000:
        a = rng.randint(1, 10_000)
        b = rng.randint(-10_000, 10_000)
        if b == 0 or a + b == 0:
            continue
        triple = make_triple(a, b)
        checked += 1
        quality = triple.quality
        if quality is None:
            ok = False
            continue
        for eps in (0.05, 0.2, 1.0):
            if quality <= 1 + eps and not abc_check(triple, eps, 1.0):
                ok = False
    _criterion(7, "triple from (3,421,94) and quality/bound coherence on 10^3 triples", ok)


def test_c08_sato_tate_statistics(table10k):
    samples = angles_from_table(table10k)
    hist = st_histogram(samples, 8)
    ok = len(samples) == 1229 and hist.p_value > 0.001
    closed = 1 / 3 + math.sqrt(3) / (2 * math.pi)
    mass = angle_cdf(2 * math.pi / 3) - angle_cdf(math.pi / 3)
    ok = ok and abs(mass - closed) <= 1e-10
    for p in cached_primes(1000):
        tp = table10k.tau(p)
        for r in range(9):
            if not chebyshev_check(p, tp, r, 1e-9):
                ok = False
    _criterion(
        8,
        f"chi-square p={hist.p_value:.4f} > 0.001, closed-form mass, Chebyshev sweep",
        ok,
    )


def test_c09_predictor_arithmetic():
    pred = heuristic_prediction(1e22, 3, 1.0)
    values = [v for _, v in pred.layers]
    ok = abs(values[0] - 0.038969) <= 1e-5
    ok = ok and all(a > b for a, b in zip(values, values[1:]))
    # domination over the layers the survey actually scans (the layer cap)
    for X in (1e6, 1e9, 1e22):
        cap = max(2, layer_cap(int(X)))
        layered = [v for _, v in heuristic_prediction(X, cap, 1.0).layers]
        ok = ok and layered[0] > sum(layered[1:])
    _criterion(9, "layer m=1 value, strict decrease, m=1 dominates the scanned tail", ok)


def test_c10_determinism():
    cases = [
        ["tau", "--n", "251", "--square", "--N", "300"],
        ["parity", "--n", "9"],
        ["survey", "--X", "1e26", "--N", "300"],
        ["count", "--kind", "deg22", "--X", "1000", "--x-max", "15"],
        ["abc", "--kind", "deg11", "--X", "1000", "--x-min", "1", "--x-max", "6"],
        ["sato-tate", "--N", "2000", "--bins", "8"],
        ["predict", "--X", "1e22", "--m-max", "3", "--C", "1"],
        ["report", "--X", "1e6", "--N", "1000", "--x-max", "5"],
    ]

    def capture(argv):
        out = io.StringIO()
        code = dispatch(argv, out, io.StringIO())
        return code, out.getvalue()

    ok = all(capture(argv) == capture(argv) for argv in cases)
    base = ["near-points", "--kind", "deg11", "--X", "10000", "--x-min", "1", "--x-max", "40"]
    single = capture(base + ["--workers", "1"])
    eight = capture(base + ["--workers", "8"])
    ok = ok and single == eight and single[0] == 0 and single[1]
    _criterion(10, "byte-identical reruns, including worker counts 1 and 8", ok)
