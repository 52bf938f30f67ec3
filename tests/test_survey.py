import io
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from tausurvey import survey as survey_mod
from tausurvey.cli import dispatch
from tausurvey.delta import TauTable, delta_coefficients
from tausurvey.errors import ResourceLimitError
from tausurvey.hecke import tau_of
from tausurvey.primes import PrimalityVerdict, classify_prime, sieve_primes
from tausurvey.selftest import naive_primes, naive_survey_layer
from tausurvey.survey import (
    PRESIEVE_BITS_PER_X_BIT,
    PRESIEVE_Q_MAX,
    _apparition_product,
    layer_cap,
    layer_window,
    omitted_values_check,
    survey,
    survey_layer,
)

LEHMER = 80561663527802406257321747


def test_verdict_examples():
    assert classify_prime(937) is PrimalityVerdict.PRIME
    assert classify_prime(113643) is PrimalityVerdict.COMPOSITE
    assert classify_prime(LEHMER) is PrimalityVerdict.PROBABLE_PRIME
    assert classify_prime(1) is PrimalityVerdict.COMPOSITE
    with pytest.raises(ValueError):
        classify_prime(0)


def test_no_false_composites_below_sieve():
    primes = sieve_primes(1000000)
    for p in primes:
        assert classify_prime(p) is PrimalityVerdict.PRIME, p
    flags = bytearray(100001)
    for p in primes:
        if p <= 100000:
            flags[p] = 1
    for n in range(2, 100001):
        got = classify_prime(n) is not PrimalityVerdict.COMPOSITE
        assert got == bool(flags[n]), n


def test_strong_pseudoprimes_caught():
    # classic base-2 strong pseudoprimes must still come out composite
    for n in (2047, 3277, 4033, 121, 703):
        assert classify_prime(n) is PrimalityVerdict.COMPOSITE


def test_layer_window_values():
    assert layer_window(1, 10 ** 6) == 4
    assert layer_window(1, 10 ** 26) == 256
    assert layer_window(1, 1) == 2


def test_layer_empty_cases(table10k):
    assert survey_layer(1, 10 ** 6, table10k).records == ()
    assert survey_layer(1, 1, table10k).records == ()


def test_layer_finds_lehmer(table10k):
    layer = survey_layer(1, 10 ** 26, table10k)
    assert not layer.truncated
    hits = [r for r in layer.records if r.ell == LEHMER]
    assert len(hits) == 1
    rec = hits[0]
    assert rec.p == 251 and rec.m == 1 and rec.sign == -1
    assert rec.verdict is PrimalityVerdict.PROBABLE_PRIME
    assert rec.ordinary is None  # tau(ell) not computable at this size


def test_layer_truncation_flag():
    small = delta_coefficients(50)
    layer = survey_layer(1, 10 ** 26, small)
    assert layer.truncated
    assert layer.p_window == 256


def test_record_invariants(table10k):
    for m in (1, 2):
        for rec in survey_layer(m, 10 ** 30, table10k).records:
            assert rec.ell % 2 == 1
            assert rec.m == m
            assert tau_of(rec.p ** (2 * rec.m), table10k) == rec.sign * rec.ell


def test_survey_counts(table10k):
    assert survey(10 ** 6, table10k).count == 0
    rep = survey(10 ** 26, table10k)
    assert rep.count >= 1 and LEHMER in rep.primes
    assert survey(3, table10k).count == 0
    with pytest.raises(ValueError):
        survey(2, table10k)


def test_survey_monotone_in_x(table10k):
    small = set(survey(10 ** 24, table10k).primes)
    large = set(survey(10 ** 27, table10k).primes)
    assert small <= large


def test_survey_dedupes_across_layers(table10k):
    rep = survey(10 ** 26, table10k)
    union = set()
    for layer in rep.layers:
        union |= layer.primes
    assert sorted(union) == list(rep.primes)
    assert rep.windowed
    assert "lower bound" in rep.caveat


def test_comparison_terms(table10k):
    rep = survey(10 ** 6, table10k)
    assert abs(rep.terms["x_13_22"] - (10 ** 6) ** (13 / 22)) < 1e-6
    assert abs(rep.terms["x_6_11"] - 1873.8174) < 1e-3
    assert abs(rep.terms["x_9_10_log_x"] - (10 ** 5.4) * 13.815510557964274) < 1.0


def test_omitted_values_clean(table10k):
    assert omitted_values_check(table10k) == []


def test_omitted_values_planted(table500):
    coeffs = list(table500.coeffs)
    coeffs[49] = 691  # fake tau(50)
    fake = TauTable(table500.N, tuple(coeffs))
    assert omitted_values_check(fake) == [(50, 691)]


def test_omitted_exempts_tau_of_one():
    tiny = TauTable(1, (1,))
    assert omitted_values_check(tiny) == []


def test_survey_at_1e6_finds_no_prime_and_reports_every_term(table10k):
    rep = survey(10 ** 6, table10k)
    assert rep.count == 0
    assert set(rep.terms) == {"x_9_10_log_x", "x_13_22", "x_6_11"}


def test_layer_cap_at_powers_of_3_to_the_11():
    # layer_cap(X) is the smallest m with 3^(11m) > X
    assert layer_cap(3) == 1
    for k in range(1, 400):
        power = 3 ** (11 * k)
        assert layer_cap(power - 1) == k, k
        assert layer_cap(power) == k + 1, k
        assert layer_cap(power + 1) == k + 1, k


@pytest.mark.parametrize("k, N", [(6, 2000), (26, 2000), (54, 3000), (100, 2000), (250, 600)])
def test_layers_match_primality_test_on_every_candidate(k, N):
    X = 10**k
    table = delta_coefficients(N)
    for m in range(1, layer_cap(X) + 1):
        assert survey_layer(m, X, table) == naive_survey_layer(m, X, table), m


def test_small_prime_value_inside_the_product(table500):
    # With tau(3) planted as 422, tau(3^2) = 422^2 - 3^11 = 937 is a prime that
    # is 1 mod 3, so gcd(937, product) == 937 and it must still be tested.
    X = 10**100
    assert _apparition_product(3, X) % 937 == 0
    coeffs = list(table500.coeffs)
    coeffs[2] = 422
    planted = TauTable(table500.N, tuple(coeffs))
    layer = survey_layer(1, X, planted)
    assert layer == naive_survey_layer(1, X, planted)
    assert [(r.ell, r.p, r.sign) for r in layer.records if r.p == 3] == [(937, 3, 1)]


def test_proper_divisor_guard(monkeypatch, table500):
    # Stubbed values exercise each branch of 1 < divisor < mag: only a value
    # with a known divisor strictly between 1 and itself skips the test.
    # Per p: (|tau(p^(2m))|, U_e for the composite-d layer); 2^89 - 1 is prime.
    # lucas_u(tau(p), p^11, d) is the value itself; any other index is U_e.
    cases = {3: (1, 1), 5: (-937, -937), 7: (937 * 941, 941), 11: (11, 1),
             13: (2**89 - 1, 2**89 - 1), 17: (15, 3)}
    by_tau = {table500.tau(p): case for p, case in cases.items()}
    tested = []
    monkeypatch.setattr(
        survey_mod, "lucas_u", lambda P, Q, n: by_tau.get(P, (0, 0))[0 if n in (5, 9) else 1]
    )
    monkeypatch.setattr(survey_mod, "classify_prime", lambda n: tested.append(n) or classify_prime(n))
    X = 10**100
    prod = _apparition_product(5, X)
    assert prod % 941 == 0 and prod % 5 == 0 and prod % 11 == 0 and prod % 937 != 0
    for m in (2, 4):  # d = 5 is prime (gcd with the product), d = 9 = 3 * 3 (U_3)
        tested.clear()
        layer = survey_layer(m, X, table500)
        assert tested == [1, 937, 11, 2**89 - 1], m
        assert [r.ell for r in layer.records] == [937, 11, 2**89 - 1], m


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 23, 47, 97])
@pytest.mark.parametrize("X", [3, 10**6, 10**54, 10**250], ids=["3", "1e6", "1e54", "1e250"])
def test_apparition_product(d, X):
    prod = _apparition_product(d, X)
    primes = sieve_primes(PRESIEVE_Q_MAX)
    qualifying = [q for q in primes if q == d or q % d in (1, d - 1)]
    factors = [q for q in primes if prod % q == 0]
    assert math.prod(factors) == prod  # squarefree, no factor above the ceiling
    assert factors == qualifying[: len(factors)]  # only qualifying primes, ascending, none skipped
    budget = PRESIEVE_BITS_PER_X_BIT * X.bit_length()
    assert (prod // factors[-1]).bit_length() <= budget
    assert prod.bit_length() > budget or factors == qualifying


def test_composite_layers_divide_by_smallest_prime_factor(monkeypatch, table500):
    seen = []
    real = survey_mod.lucas_u
    monkeypatch.setattr(survey_mod, "lucas_u", lambda P, Q, n: seen.append(n) or real(P, Q, n))
    X = 10**250
    composite_layers = 0
    for m in range(1, layer_cap(X) + 1):
        d = 2 * m + 1
        smallest = min(q for q in naive_primes(d) if d % q == 0)
        seen.clear()
        survey_layer(m, X, table500)
        divisor_indices = set(seen) - {d}  # index d computes the value itself
        assert divisor_indices <= ({smallest} if smallest < d else set()), d
        composite_layers += bool(divisor_indices)
    assert composite_layers >= 5


# ------------------------------ pooled verdicts ------------------------------


def _naive_layers(X, table):
    return tuple(naive_survey_layer(m, X, table) for m in range(1, layer_cap(X) + 1))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("k, N", [(54, 2000), (120, 2000), (250, 600)])
def test_pooled_survey_matches_serial_and_oracle(pool_on, workers, k, N):
    X = 10**k
    table = delta_coefficients(N)
    pooled = survey(X, table, workers=workers)
    assert pool_on == [workers]
    assert multiprocessing.active_children() == []
    assert pooled == survey(X, table, workers=1)
    assert pooled.layers == _naive_layers(X, table)


def test_pool_size_capped_by_usable_cpus(monkeypatch, fake_pool, table500):
    calls = fake_pool()
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 3)
    X = 10**54
    assert survey(X, table500, workers=10**6) == survey(X, table500)
    assert calls == [("start", 3), ("shutdown", True, True)]


def test_pool_starts_only_at_the_work_threshold(monkeypatch, fake_pool, table500):
    calls = fake_pool()
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 4)
    X = 10**54
    work = sum(
        value.bit_length() ** 2
        for m in range(1, layer_cap(X) + 1)
        for _, value in survey_mod._layer_candidates(m, X, table500).values
    )
    assert 0 < work < survey_mod.POOL_MIN_WORK
    survey(X, table500, workers=4)
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", work + 1)
    survey(X, table500, workers=4)
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    survey(X, table500, workers=1)
    assert calls == []
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", work)
    survey(X, table500, workers=4)
    assert calls == [("start", 4), ("shutdown", True, True)]
    calls.clear()
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 1)
    survey(X, table500, workers=4)
    assert calls == []


@pytest.mark.parametrize("error", [OSError, ValueError])
def test_pool_start_failure_falls_back_in_process(monkeypatch, table500, error):
    def refuse(processes):
        raise error("cannot fork")

    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 4)
    monkeypatch.setattr(survey_mod, "_start_pool", refuse)
    X = 10**120
    assert survey(X, table500, workers=4) == survey(X, table500)


def test_failed_map_shuts_the_pool_down(monkeypatch, fake_pool, table500):
    calls = fake_pool(fail=True)
    monkeypatch.setattr(survey_mod, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(survey_mod, "usable_cpus", lambda: 4)
    with pytest.raises(MemoryError):
        survey(10**54, table500, workers=2)
    assert calls == [("start", 2), ("shutdown", True, True)]


def test_worker_exception_leaves_no_children(pool_on, monkeypatch, table500):
    # Forked after the patch, the workers raise on their first value.
    def broken(n):
        raise ArithmeticError(f"cannot test {n}")

    monkeypatch.setattr(survey_mod, "classify_prime", broken)
    with pytest.raises(ArithmeticError):
        survey(10**54, table500, workers=2)
    assert pool_on == [2]
    assert multiprocessing.active_children() == []


def _timed_out(signum, frame):
    raise AssertionError("pooled survey still waiting after a worker died")


def test_killed_worker_raises_instead_of_hanging(pool_on, monkeypatch, table500):
    # A worker that dies mid-task, as to the OOM killer, must fail the survey.
    # The alarm turns a hang into a test failure.
    parent = os.getpid()

    def die(n):
        if os.getpid() == parent:
            raise AssertionError("verdicts were computed in-process")
        os._exit(1)

    monkeypatch.setattr(survey_mod, "classify_prime", die)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        with pytest.raises(ResourceLimitError, match="worker process died") as info:
            survey(10**54, table500, workers=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        # From the command line: exit 3 and a one-line message.
        out, err = io.StringIO(), io.StringIO()
        code = dispatch(["survey", "--X", "1e54", "--N", "500", "--workers", "2"], out, err)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().startswith("resource limit: ")
    assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
    assert pool_on == [2, 2]
    assert multiprocessing.active_children() == []


def test_fork_failing_part_way_falls_back_and_reaps(pool_on, monkeypatch, table500):
    # The second fork fails: the worker already started must be ended, and
    # the verdicts computed in-process.
    real_start = multiprocessing.context.ForkProcess.start
    forks = []

    def start_once(proc):
        forks.append(proc)
        if len(forks) > 1:
            raise OSError(11, "Resource temporarily unavailable")
        real_start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
    X = 10**120
    pooled = survey(X, table500, workers=3)
    monkeypatch.undo()
    assert len(forks) == 2
    assert pooled == survey(X, table500)
    assert multiprocessing.active_children() == []
