import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tausurvey import primes
from tausurvey.abctriples import TRIAL_LIMIT, radical_budgeted
from tausurvey.primes import cached_primes, sieve_primes
from tausurvey.selftest import naive_primes

ORACLE_TOP = 5000
ORACLE = naive_primes(ORACLE_TOP)


def oracle(limit):
    return [p for p in ORACLE if p <= limit]


@contextmanager
def fresh_sieve():
    """Run with an empty shared sieve, then put the process's sieve back."""
    saved = primes._sieve_primes, primes._sieve_top
    primes._sieve_primes, primes._sieve_top = [], 1
    try:
        yield
    finally:
        primes._sieve_primes, primes._sieve_top = saved


def naive_radical(n):
    rad = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            rad *= d
            while n % d == 0:
                n //= d
        d += 1
    return rad * n if n > 1 else rad


def test_rising_falling_repeated_limits():
    with fresh_sieve():
        limits = [0, 1, 2, 2, 3, 1, 10, 4, 10]
        for limit in limits:
            assert list(cached_primes(limit)) == sieve_primes(limit) == oracle(limit), limit
        top = primes._sieve_top
        for limit in (top, top - 1, top + 1, top, 2 * top + 7, top - 1, 0, 2 * top + 7):
            assert list(cached_primes(limit)) == sieve_primes(limit) == oracle(limit), limit
        for limit in range(ORACLE_TOP, -1, -97):
            assert list(cached_primes(limit)) == oracle(limit), limit


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=ORACLE_TOP), min_size=1, max_size=12))
def test_random_limit_sequences(limits):
    with fresh_sieve():
        for i, limit in enumerate(limits):
            assert list(cached_primes(limit)) == oracle(limit)
            # The sieve holds at most twice the largest limit asked for.
            assert primes._sieve_top <= max(1, 2 * max(limits[: i + 1]))


@pytest.mark.parametrize("order", ["random", "rising"])
def test_sieve_grows_geometrically(monkeypatch, order):
    calls = []

    def counting_sieve(limit):
        calls.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(primes, "sieve_primes", counting_sieve)
    rng = random.Random(6)
    limits = [rng.randint(0, 10 ** 6) for _ in range(1000)]
    if order == "rising":
        limits.sort()
    with fresh_sieve():
        for limit in limits:
            next(cached_primes(limit), None)
        assert len(calls) <= math.ceil(math.log2(10 ** 6)) + 1
        assert calls == sorted(calls)
        assert list(cached_primes(ORACLE_TOP)) == ORACLE


def test_returned_values_do_not_share_state():
    with fresh_sieve():
        got = cached_primes(100)
        assert not isinstance(got, list)
        first = list(got)
        first.append(4)
        first[0] = 1
        first.clear()
        assert list(cached_primes(100)) == oracle(100)
        a, b = cached_primes(50), cached_primes(50)
        assert next(a) == 2 and next(a) == 3
        assert list(b) == oracle(50)


def test_growth_during_iteration_keeps_outer_iterator():
    with fresh_sieve():
        seen = []
        for p in cached_primes(30):
            seen.append(p)
            # A caller inside the loop pushes the sieve past its top.
            assert list(cached_primes(30 * p)) == oracle(30 * p)
        assert seen == oracle(30)


def test_radical_matches_naive_small():
    for n in range(1, 5001):
        assert radical_budgeted(n) == (naive_radical(n), True), n


@pytest.mark.parametrize(
    "n",
    [
        999_983,
        1_000_003,
        2 * 999_983,
        3 * 1_000_003,
        999_983 ** 2,
        1_000_003 ** 2,
        999_983 * 1_000_003,
        7 * 999_983 * 1_000_003,
    ],
)
def test_radical_straddles_trial_limit(n):
    assert 999_983 <= TRIAL_LIMIT < 1_000_003
    assert radical_budgeted(n) == (naive_radical(n), True)
