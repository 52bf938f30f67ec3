"""Empirical survey of prime values |tau(n)| up to X.

Odd tau-values force n to be an odd square, so prime values can only appear
at n = p^(2m) with p an odd prime.  Each layer m scans the p-window where
|tau(p^(2m))| can stay below X (the generic magnitude is (2m+1) p^(11m), via
the Deligne bound), keeps the values that pass the magnitude gate and the
primality test, and the survey deduplicates primes across layers.

Most candidates are composite, and most of those are proved composite without
a modular exponentiation.  tau(p^(d-1)) is the Lucas sequence U_d(P, Q) with
P = tau(p), Q = p^11 and d = 2m + 1, which gives two cheap divisors:

- d prime: a prime q != p dividing U_d has rank of apparition d, so q = d or
  q = +-1 (mod d).  The layer builds one product of such primes and takes
  gcd(|tau|, product).
- d composite, e its smallest prime factor: U_e = tau(p^(e-1)) divides U_d,
  and the layer takes gcd(|tau|, U_e).

Either way the gcd divides |tau|, so a gcd strictly between 1 and |tau|
proves |tau| composite on its own and the skip is exact whatever the
theorems say; they only choose divisors likely to be proper.  Every other
candidate (gcd 1 or |tau|, |tau| = 1) goes to the primality test.

No finite window is provably exhaustive (absent a lower bound on |tau|), so
every count reported here is an observed lower bound, and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import curves
from .delta import TauTable
from .hecke import is_ordinary, lucas_u
from .primes import PrimalityVerdict, cached_primes, classify_prime, factor_trial, iroot_ceil

WINDOW_CAVEAT = (
    "observed lower bound: finite p-window per layer and a layer cap sized for "
    "generic magnitudes; sporadic smaller values outside the window are not ruled out"
)

# Budget of the prime-d pre-sieve product: at most this many bits per bit of
# X, from primes no larger than PRESIEVE_Q_MAX (tuning sweep in CHANGES.md).
PRESIEVE_BITS_PER_X_BIT = 8
PRESIEVE_Q_MAX = 100_000

# Known small odd values that tau never takes at n >= 2.
OMITTED_VALUES = frozenset(
    {1, -1, 3, -3, 5, -5, 7, -7, 13, -13, 17, -17, -19, 23, -23, 37, -37, 691, -691}
)


@dataclass(frozen=True)
class SurveyRecord:
    """One candidate |tau(p^(2m))| = ell that survived the primality test."""

    ell: int
    p: int
    m: int
    sign: int
    verdict: PrimalityVerdict
    ordinary: bool | None


@dataclass(frozen=True)
class SurveyLayer:
    m: int
    p_window: int
    truncated: bool
    records: tuple[SurveyRecord, ...]

    @property
    def primes(self) -> set[int]:
        return {r.ell for r in self.records}


@dataclass(frozen=True)
class SurveyReport:
    X: int
    m_max: int
    layers: tuple[SurveyLayer, ...]
    primes: tuple[int, ...]
    truncated: bool
    terms: dict[str, float] = field(default_factory=dict)
    windowed: bool = True
    caveat: str = WINDOW_CAVEAT

    @property
    def count(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class ReductionReport:
    """Survey plus the windowed near-point tail counts, for tabulation."""

    survey: SurveyReport
    x_max: int
    e2_windowed: int
    e4_windowed: int


def layer_window(m: int, X: int) -> int:
    """ceil(((2m+1) X)^(1/(11m))): where generic |tau(p^(2m))| passes X."""
    if m < 1 or X < 1:
        raise ValueError("m and X must be >= 1")
    return iroot_ceil((2 * m + 1) * X, 11 * m)


def _apparition_product(d: int, X: int) -> int:
    """Product of the primes q = d or q = +-1 (mod d), ascending, for a prime d.

    These are the only primes q != p that can divide tau(p^(d-1)) = U_d, so
    a gcd against the product finds a factor of most composite candidates.
    Primes are added until the product passes PRESIEVE_BITS_PER_X_BIT bits per
    bit of X or the primes pass PRESIEVE_Q_MAX: sized by X, the gcd stays
    cheap next to the primality test it replaces at every X.
    """
    budget = PRESIEVE_BITS_PER_X_BIT * X.bit_length()
    prod = 1
    for q in cached_primes(PRESIEVE_Q_MAX):
        if q == d or q % d in (1, d - 1):
            prod *= q
            if prod.bit_length() > budget:
                break
    return prod


def survey_layer(m: int, X: int, table: TauTable) -> SurveyLayer:
    """Scan layer m: odd primes p up to the window, clamped to the table.

    Records keep only values passing both 1 <= |tau| <= X and the primality
    test; the layer is flagged truncated when the window exceeds coverage.
    A value with a known divisor strictly between 1 and itself is composite
    and skips the primality test (see the module docstring).
    """
    window = layer_window(m, X)
    truncated = window > table.N
    d = 2 * m + 1
    e = min(factor_trial(d, d)[0])
    prod = None
    records = []
    for p in cached_primes(min(window, table.N)):
        if p == 2:
            continue
        tau_p = table.tau(p)
        p11 = p ** 11
        value = lucas_u(tau_p, p11, d)  # tau(p^(2m)); p is prime by the sieve
        mag = abs(value)
        if not 1 <= mag <= X:
            continue
        if e == d:  # d prime
            if prod is None:
                prod = _apparition_product(d, X)
            divisor = math.gcd(mag, prod)
        else:
            divisor = math.gcd(mag, lucas_u(tau_p, p11, e))
        if 1 < divisor < mag:
            continue
        verdict = classify_prime(mag)
        if verdict is PrimalityVerdict.COMPOSITE:
            continue
        if mag % 2 == 0:
            raise AssertionError(f"even survey value {value} at p={p}, m={m}")
        ordinary = is_ordinary(mag, table.tau(mag)) if mag <= table.N else None
        records.append(
            SurveyRecord(mag, p, m, 1 if value > 0 else -1, verdict, ordinary)
        )
    return SurveyLayer(m, window, truncated, tuple(records))


def layer_cap(X: int) -> int:
    """Largest layer worth scanning: the smallest m with 3^(11m) > X, since
    generic magnitudes start at 3^(11m)."""
    m, power = 1, 3 ** 11
    while power <= X:
        m += 1
        power *= 3 ** 11
    return m


def comparison_terms(X: int) -> dict[str, float]:
    """The analytic reduction terms reported next to the observed count."""
    x = float(X)
    return {
        "x_9_10_log_x": x ** 0.9 * math.log(x),
        "x_13_22": x ** (13 / 22),
        "x_6_11": x ** (6 / 11),
    }


def survey(X: int, table: TauTable) -> SurveyReport:
    """Union of all layers m = 1 .. layer_cap(X), primes deduplicated."""
    if X < 3:
        raise ValueError("X must be >= 3")
    m_max = layer_cap(X)
    layers = tuple(survey_layer(m, X, table) for m in range(1, m_max + 1))
    primes = sorted(set().union(*(layer.primes for layer in layers)))
    return SurveyReport(
        X=X,
        m_max=m_max,
        layers=layers,
        primes=tuple(primes),
        truncated=any(layer.truncated for layer in layers),
        terms=comparison_terms(X),
    )


def omitted_values_check(table: TauTable) -> list[tuple[int, int]]:
    """Scan 2 <= n <= N for tau(n) in the known omitted-value set."""
    return [
        (n, t) for n, t in table.iter_records() if n >= 2 and t in OMITTED_VALUES
    ]


def reduction_report(X: int, table: TauTable, x_max: int) -> ReductionReport:
    """Observed S(X) side by side with the analytic terms and the windowed
    near-point tail counts of both curve families."""
    base = survey(X, table)
    e2 = curves.window_count(curves.CurveKind.DEG11, X, x_max)
    e4 = curves.window_count(curves.CurveKind.DEG22, X, x_max)
    return ReductionReport(base, x_max, e2, e4)
