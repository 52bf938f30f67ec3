"""tau at prime powers and composites via the Hecke relations.

tau is multiplicative on coprime arguments, and at prime powers it obeys

    tau(p^(r+1)) = tau(p) * tau(p^r) - p^11 * tau(p^(r-1)),

so a table of tau at primes determines tau everywhere the table covers.
"""

from __future__ import annotations

from .delta import TauTable
from .errors import OutOfRangeError
from .primes import factor_trial, is_prime


def lucas_u(P: int, Q: int, n: int) -> int:
    """U_n(P, Q) of the Lucas sequence U_0 = 0, U_1 = 1, U_(k+1) = P U_k - Q U_(k-1).

    tau(p^(n-1)) = U_n(tau(p), p^11), so U_e divides tau(p^(d-1)) whenever
    e divides d.  n = 0 gives 0.  P may be a float: lucas_u(2x, 1, r + 1) is
    the Chebyshev polynomial U_r(x) of the second kind.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    prev, cur = 0, 1
    for _ in range(n - 1):
        prev, cur = cur, P * cur - Q * prev
    return cur if n else 0


def tau_prime_power(tau_p: int, p: int, e: int) -> int:
    """tau(p^e) from the seed tau(p) by the second-order recurrence.

    The caller supplies the true tau(p); this function only checks that p is
    prime.  e = 0 gives 1, e = 1 gives the seed back.
    """
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return lucas_u(tau_p, p ** 11, e + 1)


def tau_of(n: int, table: TauTable) -> int:
    """tau(n) for any n whose prime factors are all covered by the table.

    Factors n by trial division against the sieved primes up to table.N,
    evaluates each prime power by the recurrence, and multiplies.  The sieve
    has already proven the factors prime, so they are not tested again.
    Raises OutOfRangeError when some prime factor exceeds table coverage.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors, cofactor = factor_trial(n, table.N)
    if cofactor > 1:
        raise OutOfRangeError(f"n={n} has a prime factor beyond table coverage N={table.N}")
    result = 1
    for p, e in factors.items():
        result *= lucas_u(table.tau(p), p ** 11, e + 1)
    return result


def is_ordinary(ell: int, tau_ell: int) -> bool:
    """True when the odd prime ell does not divide tau(ell)."""
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"ell={ell} must be an odd prime")
    return tau_ell % ell != 0
