import math

import pytest

from tausurvey import hecke
from tausurvey.errors import OutOfRangeError
from tausurvey.hecke import is_ordinary, lucas_u, tau_of, tau_prime_power
from tausurvey.primes import cached_primes, sieve_primes
from tau_identities import admissible_exponents, quartic_identity_check

LEHMER_PRIME_SQUARE = -80561663527802406257321747


def test_seed_cases():
    assert tau_prime_power(1234, 7, 0) == 1
    assert tau_prime_power(1234, 7, 1) == 1234


def test_square_case():
    assert tau_prime_power(252, 3, 2) == -113643


def test_lehmer_value(table10k):
    assert tau_prime_power(table10k.tau(251), 251, 2) == LEHMER_PRIME_SQUARE
    assert tau_of(251 ** 2, table10k) == LEHMER_PRIME_SQUARE


def test_rejects_composite_p():
    with pytest.raises(ValueError):
        tau_prime_power(1, 6, 2)
    with pytest.raises(ValueError):
        tau_prime_power(1, 7, -1)


def test_tau_of_does_not_retest_its_sieved_primes(table10k, monkeypatch):
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called on a sieved prime")

    monkeypatch.setattr(hecke, "is_prime", refuse)
    assert tau_of(251 ** 2, table10k) == LEHMER_PRIME_SQUARE


def test_tau_of_basics(table10k):
    assert tau_of(1, table10k) == 1
    assert tau_of(12, table10k) == (-1472) * 252 == -370944


def test_tau_of_out_of_range(table10k):
    with pytest.raises(OutOfRangeError):
        tau_of(10007 * 2, table10k)  # prime factor just past coverage


def test_recurrence_consistent_with_table(table10k):
    for p in cached_primes(100):
        tp = table10k.tau(p)
        for e in range(9):
            if p ** e <= table10k.N:
                assert tau_prime_power(tp, p, e) == table10k.tau(p ** e)


def test_tau_of_matches_table(table10k):
    for n in range(1, 10_001):
        assert tau_of(n, table10k) == table10k.tau(n)


def test_quartic_identity(table10k):
    assert quartic_identity_check(2, -24)
    assert quartic_identity_check(3, 252)
    # polynomial identity: holds for a perturbed seed too
    assert quartic_identity_check(3, 253)
    for p in cached_primes(100):
        assert quartic_identity_check(p, table10k.tau(p))


def test_is_ordinary(table10k):
    assert not is_ordinary(3, table10k.tau(3))  # 3 | 252
    assert not is_ordinary(7, table10k.tau(7))  # 7 | 16744
    assert is_ordinary(11, table10k.tau(11))  # 534612 = 11k + 1
    with pytest.raises(ValueError):
        is_ordinary(2, -24)
    with pytest.raises(ValueError):
        is_ordinary(9, 1)


def test_admissible_exponents():
    assert admissible_exponents(3) == {3}
    assert admissible_exponents(5) == {3, 5}
    assert admissible_exponents(7) == {3, 7}
    with pytest.raises(ValueError):
        admissible_exponents(15)


def test_admissible_exponents_definition():
    for ell in (3, 5, 7, 11, 13, 101):
        got = admissible_exponents(ell)
        product = ell * (ell * ell - 1)
        for d in got:
            assert d % 2 == 1 and product % d == 0
        # no odd prime divisor was missed
        for d in cached_primes(ell + 1):
            if d != 2 and product % d == 0:
                assert d in got


def _admissible_exponents_by_hand(ell):
    # the trial-division loop admissible_exponents ran before it used factor_trial
    out = {ell}
    for part in (ell - 1, ell + 1):
        m = part
        for q in sieve_primes(math.isqrt(part) + 1):
            if q * q > m:
                break
            if m % q == 0:
                while m % q == 0:
                    m //= q
                if q != 2:
                    out.add(q)
        if m > 2:
            out.add(m)
    return out


def test_admissible_exponents_match_trial_division_loop():
    for ell in sieve_primes(200_000)[1:]:
        assert admissible_exponents(ell) == _admissible_exponents_by_hand(ell), ell


def test_lucas_u_small_indices():
    assert [lucas_u(3, 2, n) for n in range(6)] == [0, 1, 3, 7, 15, 31]  # 2^n - 1
    assert [lucas_u(1, -1, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert lucas_u(252, 3 ** 11, 3) == tau_prime_power(252, 3, 2)
    with pytest.raises(ValueError):
        lucas_u(1, 1, -1)


def test_lucas_divisibility(table10k):
    # tau(p^(e-1)) = U_e divides tau(p^(d-1)) = U_d whenever e | d
    for p in cached_primes(200):
        tau_p = table10k.tau(p)
        for d in range(1, 42):
            u_d = tau_prime_power(tau_p, p, d - 1)
            for e in range(1, d + 1):
                if d % e == 0:
                    assert u_d % tau_prime_power(tau_p, p, e - 1) == 0, (p, e, d)


def test_multiplicative_by_construction(table10k):
    for m in range(2, 40):
        for n in range(m + 1, 40):
            if math.gcd(m, n) == 1:
                assert tau_of(m * n, table10k) == tau_of(m, table10k) * tau_of(n, table10k)
