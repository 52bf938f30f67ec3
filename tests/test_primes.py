import io
import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tausurvey import abctriples, primes
from tausurvey.abctriples import TRIAL_LIMIT, radical_budgeted
from tausurvey.primes import TRIAL_FIRST_STAGE, cached_primes, factor_trial, is_prime, sieve_primes
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
    calls, aboves = [], []

    def counting_sieve(limit, above=0):
        calls.append(limit)
        aboves.append(above)
        return sieve_primes(limit, above)

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
        # Each growth sieves only the segment past the previous top.
        assert aboves == [1] + calls[:-1]
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


def test_sieve_interval_matches_oracle():
    for above in list(range(-2, 60)) + [960, 961, 2208, 2209]:
        for limit in list(range(0, 130)) + [960, 961, 2208, 2209, ORACLE_TOP]:
            want = [p for p in oracle(limit) if p > above]
            assert sieve_primes(limit, above) == want, (above, limit)


# Tops where a segment boundary meets a prime or a prime square: p - 1, p,
# p^2 - 1 and p^2.
GROWTH_TOPS = sorted({t for p in (2, 3, 5, 7, 11, 13, 37, 67) for t in (p - 1, p, p * p - 1, p * p)} - {1})


def test_sieve_growth_onto_prime_and_square_tops():
    for first in (1, 2, 3, 5, 7, 24, 48):
        for top in GROWTH_TOPS:
            with fresh_sieve():
                list(cached_primes(first))
                held = cached_primes(first)  # taken before the growth
                if top >= 2 * primes._sieve_top:
                    list(cached_primes(top))
                    assert primes._sieve_top == top
                checked = set(range(30)) | {t + d for t in GROWTH_TOPS + [first] for d in (-1, 0, 1)}
                for limit in sorted(checked):
                    if limit <= primes._sieve_top:
                        assert list(cached_primes(limit)) == oracle(limit), (first, top, limit)
                assert list(held) == oracle(first)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GROWTH_TOPS) | st.integers(0, ORACLE_TOP), min_size=1, max_size=10))
def test_sieve_growth_sequences_keep_every_prefix(limits):
    with fresh_sieve():
        taken = []
        for limit in limits:
            taken.append((limit, cached_primes(limit)))
            top = primes._sieve_top
            for below in {0, 1, 2, limit, top // 2, top - 1, top}:
                assert list(cached_primes(below)) == sieve_primes(below), below
        for limit, held in taken:
            assert list(held) == oracle(limit), limit


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


# -------------------------- staged trial division --------------------------


@pytest.fixture(scope="module", autouse=True)
def _restore_sieve():
    """Limits of 10^7 grow the shared sieve past 10^7; give the process its
    sieve back after this module."""
    with fresh_sieve():
        yield


def naive_factor_trial(n, limit):
    """factor_trial's contract by plain trial division with 2 and every odd d:
    the exponents of the primes <= limit, and what is left of n."""
    found = {}
    m = n
    d = 2
    while d <= limit and d * d <= m:
        while m % d == 0:
            found[d] = found.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if 1 < m <= limit:
        found[m] = found.get(m, 0) + 1
        m = 1
    return found, m


def split_at(factors, limit):
    """factor_trial's answer for the product of the primes in factors."""
    found, rest = {}, 1
    for p in factors:
        if p <= limit:
            found[p] = found.get(p, 0) + 1
        else:
            rest *= p
    return found, rest


TRIAL_LIMITS = [1, 2, 3, 4095, 4096, 4097, 8191, TRIAL_LIMIT, 10**7]


def _primes_around(t):
    """The largest prime <= t (if any) and the smallest prime > t."""
    below = t
    while below > 1 and not is_prime(below):
        below -= 1
    above = t + 1
    while not is_prime(above):
        above += 1
    return [above] if below < 2 else [below, above]


# Stage tops a factorization can meet: the first stage, its doublings, and
# the limits themselves; a prime on either side of each.
STAGE_TOPS = sorted({TRIAL_FIRST_STAGE << k for k in range(12)} | set(TRIAL_LIMITS))
EDGE_PRIMES = sorted({p for t in STAGE_TOPS for p in _primes_around(t)})
EDGE_PAIRS = [(p, q) for i, p in enumerate(EDGE_PRIMES) for q in EDGE_PRIMES[i:] if p * q <= 10**14]


@pytest.mark.parametrize("limit", TRIAL_LIMITS)
def test_factor_trial_on_edge_squares_and_products(limit):
    for p, q in EDGE_PAIRS:
        assert factor_trial(p * q, limit) == split_at([p, q], limit), (p, q)


@pytest.mark.parametrize("above", [3000, TRIAL_FIRST_STAGE, 2 * TRIAL_FIRST_STAGE])
@pytest.mark.parametrize("limit", [4095, 8191, TRIAL_LIMIT])
def test_factor_trial_above_a_bound_on_products_past_it(limit, above):
    # The caller vouches no prime <= above divides n; the answer is unchanged.
    for p, q in EDGE_PAIRS:
        if p > above:
            assert factor_trial(p * q, limit, above) == split_at([p, q], limit), (p, q)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**14),
        st.tuples(st.integers(1, 10**6), st.sampled_from(EDGE_PAIRS))
        .map(lambda t: t[0] * t[1][0] * t[1][1])
        .filter(lambda n: n <= 10**12),
    ),
    st.sampled_from(TRIAL_LIMITS),
)
def test_factor_trial_matches_naive_trial_division(n, limit):
    assert factor_trial(n, limit) == naive_factor_trial(n, limit)


def test_factor_trial_sieves_only_as_far_as_the_cofactor_needs():
    with fresh_sieve():
        assert factor_trial(19**11, TRIAL_LIMIT) == ({19: 11}, 1)
        assert primes._sieve_top == TRIAL_FIRST_STAGE
        assert factor_trial(2**40 * 4093, TRIAL_LIMIT) == ({2: 40, 4093: 1}, 1)
        assert primes._sieve_top == TRIAL_FIRST_STAGE
        assert factor_trial(999_983**2, TRIAL_LIMIT) == ({999_983: 2}, 1)
        assert primes._sieve_top <= 2 * TRIAL_LIMIT
        assert factor_trial(1_000_003**2, TRIAL_LIMIT) == ({}, 1_000_003**2)


def test_abc_at_the_benchmark_size_sieves_at_most_8192():
    # abc's legs at X = 4e6, x <= 150 never need a prime past 3,061.
    from tausurvey.cli import dispatch

    with fresh_sieve():
        assert dispatch(["abc", "--kind", "deg11", "--X", "4e6", "--x-max", "150"], io.StringIO()) == 0
        assert primes._sieve_top <= 8192


def test_abc_at_the_benchmark_size_sieves_only_the_primorial_stage():
    # The primorial of the primes up to TRIAL_FIRST_STAGE sieves the first
    # stage, and no leg's rest at this size needs a prime past it.
    from tausurvey.cli import dispatch

    with fresh_sieve():
        abctriples._small_primorial.cache_clear()
        assert dispatch(["abc", "--kind", "deg11", "--X", "4e6", "--x-max", "150"], io.StringIO()) == 0
        assert primes._sieve_top == TRIAL_FIRST_STAGE
