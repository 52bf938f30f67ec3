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

survey() gathers the untested candidates of every layer first and tests them
as one batch, on a fork pool of up to `workers` processes when the batch is
large enough to pay for one; the verdicts come back in input order, so the
report is the same for every worker count.

No finite window is provably exhaustive (absent a lower bound on |tau|), so
every count reported here is an observed lower bound, and the reports say so.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, NamedTuple

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

# Pooled primality tests.  A test of an n-bit value costs about n^2 (3.3-3.6 ns
# per squared bit across the benchmark's surveys, 2-CPU x86 VM), and a batch
# whose summed squared bit lengths fall below POOL_MIN_WORK (about 0.7 s of
# tests) runs in-process: up to there a pool measured no faster end to end.
# Each pool task tests POOL_CHUNK values, few enough to balance layers of
# unequal cost (sweeps in CHANGES.md).
POOL_MIN_WORK = 200_000_000
POOL_CHUNK = 16

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


class _LayerCandidates(NamedTuple):
    """Layer m's window and the values that still need a primality test."""

    m: int
    window: int
    truncated: bool
    values: list[tuple[int, int]]  # (p, tau(p^(2m))), p ascending


def _layer_candidates(m: int, X: int, table: TauTable) -> _LayerCandidates:
    """Odd primes p up to the window, clamped to the table, whose value passes
    1 <= |tau| <= X and has no known divisor strictly between 1 and itself
    (see the module docstring)."""
    window = layer_window(m, X)
    d = 2 * m + 1
    e = min(factor_trial(d, d)[0])
    prod = None
    values = []
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
        values.append((p, value))
    return _LayerCandidates(m, window, window > table.N, values)


def _layer_records(
    cands: _LayerCandidates, verdicts: Iterable[PrimalityVerdict], table: TauTable
) -> SurveyLayer:
    """The layer's records: each candidate whose verdict is not composite."""
    records = []
    for (p, value), verdict in zip(cands.values, verdicts):
        if verdict is PrimalityVerdict.COMPOSITE:
            continue
        mag = abs(value)
        if mag % 2 == 0:
            raise AssertionError(f"even survey value {value} at p={p}, m={cands.m}")
        ordinary = is_ordinary(mag, table.tau(mag)) if mag <= table.N else None
        records.append(
            SurveyRecord(mag, p, cands.m, 1 if value > 0 else -1, verdict, ordinary)
        )
    return SurveyLayer(cands.m, cands.window, cands.truncated, tuple(records))


def _verdicts(values: list[int]) -> list[PrimalityVerdict]:
    """Primality verdicts of a chunk of values; the task a pool worker runs.

    Module-level, so a pool pickles it by name whatever `classify_prime` is
    bound to.
    """
    return [classify_prime(n) for n in values]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_pool(processes: int):
    """A fork pool whose `processes` workers are all running when it returns.

    Forked workers inherit the loaded package and need no re-import, and
    they ignore SIGINT, so an interrupt reaches the parent alone.  A worker
    that dies (say, to the OOM killer) makes the pool raise
    BrokenProcessPool instead of waiting for its result forever.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        processes,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        pool.submit(int).result()  # a fork pool forks every worker at its first task
    except BaseException:
        # A fork that fails part way leaves the workers it started out of
        # shutdown()'s reach, as the thread that would join them never began.
        started = list(pool._processes.values())
        for proc in started:
            proc.terminate()
        pool.shutdown(cancel_futures=True)
        for proc in started:
            proc.join()
        raise
    return pool


def _pooled_verdicts(values: list[int], workers: int, min_work: int) -> list[PrimalityVerdict]:
    """Verdicts of values in input order, on min(workers, usable CPUs) processes.

    Less work than min_work (summed squared bit lengths), one usable process,
    or a pool that cannot start (OSError; ValueError where fork is
    unavailable) runs in-process.  Every worker is joined before this returns
    or raises.
    """
    processes = min(workers, usable_cpus())
    if processes < 2 or sum(n.bit_length() ** 2 for n in values) < min_work:
        return _verdicts(values)
    try:
        pool = _start_pool(processes)
    except (OSError, ValueError):
        return _verdicts(values)
    chunks = [values[i : i + POOL_CHUNK] for i in range(0, len(values), POOL_CHUNK)]
    try:
        results = list(pool.map(_verdicts, chunks))
    finally:
        pool.shutdown(cancel_futures=True)
    return [verdict for chunk in results for verdict in chunk]


def survey_layer(m: int, X: int, table: TauTable) -> SurveyLayer:
    """Scan layer m: odd primes p up to the window, clamped to the table.

    Records keep only values passing both 1 <= |tau| <= X and the primality
    test; the layer is flagged truncated when the window exceeds coverage.
    A value with a known divisor strictly between 1 and itself is composite
    and skips the primality test (see the module docstring).
    """
    cands = _layer_candidates(m, X, table)
    return _layer_records(cands, _verdicts([abs(v) for _, v in cands.values]), table)


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


def survey(X: int, table: TauTable, *, workers: int = 1) -> SurveyReport:
    """Union of all layers m = 1 .. layer_cap(X), primes deduplicated.

    The primality tests of every layer run as one batch, on up to `workers`
    processes once the batch holds POOL_MIN_WORK of summed squared bit
    lengths; the report is the same either way.  The pool is forked, so
    workers > 1 is for a process that runs no other threads.
    """
    if X < 3:
        raise ValueError("X must be >= 3")
    m_max = layer_cap(X)
    candidates = [_layer_candidates(m, X, table) for m in range(1, m_max + 1)]
    values = [abs(v) for c in candidates for _, v in c.values]
    verdicts = iter(_pooled_verdicts(values, workers, POOL_MIN_WORK))
    layers = tuple(
        _layer_records(c, islice(verdicts, len(c.values)), table) for c in candidates
    )
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


def reduction_report(
    X: int, table: TauTable, x_max: int, *, workers: int = 1
) -> ReductionReport:
    """Observed S(X) side by side with the analytic terms and the windowed
    near-point tail counts of both curve families."""
    base = survey(X, table, workers=workers)
    e2 = curves.window_count(curves.CurveKind.DEG11, X, x_max)
    e4 = curves.window_count(curves.CurveKind.DEG22, X, x_max)
    return ReductionReport(base, x_max, e2, e4)
