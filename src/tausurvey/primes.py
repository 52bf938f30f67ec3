"""Shared integer arithmetic: sieving, primality verdicts, exact roots.

Everything downstream (series build, factorization, survey windows) routes
through this module so the exactness rules live in one place.  No floats are
used for any correctness-bearing comparison; float seeds for root finding are
always verified and corrected with integer arithmetic.

Every caller gets its primes from `cached_primes`, which serves them out of one
process-wide sieve.  The sieve only grows, at least doubling its top each time a
request goes past it, and each growth sieves only the new segment, so a process
sieves each number up to its largest limit once, however many distinct limits
it asks for.  factor_trial asks for its primes in stages, so trial division
sieves only as far as its cofactors reach.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from itertools import compress, islice
from typing import Iterator


class PrimalityVerdict(Enum):
    COMPOSITE = "composite"
    PRIME = "prime"
    PROBABLE_PRIME = "probable_prime"


# Largest n for which the fixed Miller-Rabin battery below is known to be a
# deterministic primality test.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# (bound, bases): for n < bound the listed bases are a deterministic witness
# set.  Ordered so the first matching row applies.
_MR_BASE_TABLE = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (DETERMINISTIC_LIMIT, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sieve_primes(limit: int, above: int = 0) -> list[int]:
    """All primes p with above < p <= limit, ascending, via a bytearray
    Eratosthenes sieve of that interval alone."""
    return _sieve_interval(max(above, 1) + 1, limit)


def _sieve_interval(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] for lo >= 2, crossed off by the primes up to
    isqrt(hi), which a sieve of [2, isqrt(hi)] supplies.

    It recurses under this private name, so a counter wrapped around
    sieve_primes sees one call per interval asked for."""
    if hi < lo:
        return []
    flags = bytearray(b"\x01") * (hi - lo + 1)  # flags[n - lo] stands for n
    for p in _sieve_interval(2, math.isqrt(hi)):
        start = max(p * p, -(-lo // p) * p)  # first multiple >= lo that p crosses off
        if start <= hi:
            flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    return list(compress(range(lo, hi + 1), flags))


# The shared sieve: every prime <= _sieve_top, ascending.  A growth rebinds
# _sieve_primes to a new list and never mutates the old one, so an iterator
# handed out earlier stays valid while a caller inside its loop grows the sieve.
_sieve_primes: list[int] = []
_sieve_top = 1


def cached_primes(limit: int, above: int = 0) -> Iterator[int]:
    """Iterator over the primes p with above < p <= limit, ascending, from the
    shared sieve.

    A limit above the sieve's top grows it to max(limit, 2 * top) by sieving
    only the new segment (top, new top], so the sieve never holds more than
    twice the largest limit asked for and a growth never sieves again the
    numbers already held.  Other limits are served from the primes already
    held, without a copy.
    """
    global _sieve_primes, _sieve_top
    if limit > _sieve_top:
        top = max(limit, 2 * _sieve_top)
        _sieve_primes = _sieve_primes + sieve_primes(top, _sieve_top)
        _sieve_top = top
    start = bisect_right(_sieve_primes, above) if above > 1 else 0
    return islice(_sieve_primes, start, bisect_right(_sieve_primes, limit))


def _mr_composite_witness(n: int, a: int) -> bool:
    """True when base a proves n composite (n odd, > 2)."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_square(n: int) -> bool:
    """True iff n is the square of an integer (0 and 1 included), by isqrt."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge parameters (n odd, > 2, non-square)."""
    d_param = 5
    while True:
        j = jacobi_symbol(d_param, n)
        if j == -1:
            break
        if j == 0 and abs(d_param) != n:
            return False
        d_param = -(d_param + 2) if d_param > 0 else -(d_param - 2)
    p_param = 1
    q_param = (1 - d_param) // 4

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # Compute U_d, V_d, Q^d (mod n) by a left-to-right binary ladder.
    u, v, qk = 1, p_param, q_param % n
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = p_param * u + v, d_param * u + p_param * v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u = (u >> 1) % n
            v = (v >> 1) % n
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def classify_prime(n: int) -> PrimalityVerdict:
    """Primality verdict for n >= 1.

    Below DETERMINISTIC_LIMIT the fixed Miller-Rabin battery decides
    prime/composite outright.  Above it, a base-2 strong-pseudoprime test
    combined with a strong Lucas test (Selfridge parameters) yields
    probable_prime/composite.  n = 1 is reported composite: the verdict set
    has no separate tag for units.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PrimalityVerdict.COMPOSITE
    for p in _SMALL_PRIMES:
        if n == p:
            return PrimalityVerdict.PRIME
        if n % p == 0:
            return PrimalityVerdict.COMPOSITE
    if n < DETERMINISTIC_LIMIT:
        for bound, bases in _MR_BASE_TABLE:
            if n < bound:
                break
        for a in bases:
            if _mr_composite_witness(n, a):
                return PrimalityVerdict.COMPOSITE
        return PrimalityVerdict.PRIME
    if _mr_composite_witness(n, 2):
        return PrimalityVerdict.COMPOSITE
    if is_square(n):
        return PrimalityVerdict.COMPOSITE
    if not _strong_lucas_prp(n):
        return PrimalityVerdict.COMPOSITE
    return PrimalityVerdict.PROBABLE_PRIME


def is_prime(n: int) -> bool:
    """True when classify_prime does not say composite."""
    if n < 1:
        return False
    return classify_prime(n) is not PrimalityVerdict.COMPOSITE


def iroot(n: int, k: int) -> int:
    """Exact floor(n^(1/k)) for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Integer seed from the bit length, then Newton steps; both directions of
    # the final correction loop keep the result exact regardless of the seed.
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def iroot_ceil(n: int, k: int) -> int:
    """Exact ceil(n^(1/k))."""
    r = iroot(n, k)
    return r if r ** k == n else r + 1


# Top of factor_trial's first stage of primes; each later stage doubles it.
TRIAL_FIRST_STAGE = 4096


def factor_trial(n: int, limit: int, above: int = 1) -> tuple[dict[int, int], int]:
    """Trial-divide n by sieved primes p with above < p <= limit; the caller
    vouches that no prime <= above divides n.

    Returns (exponents of primes found, remaining cofactor).  The cofactor is
    1, a prime > limit, or a composite with no prime factor <= limit.

    The primes are taken in stages, so the shared sieve grows only as far as
    a cofactor needs.  The first stage tries the primes up to
    min(limit, TRIAL_FIRST_STAGE), or, for above >= TRIAL_FIRST_STAGE, up
    to min(limit, isqrt(n), 2 * above), as if the stages up to above were
    done.  When a stage runs out of primes while the cofactor m can still
    have a factor past its top, the next stage reaches min(limit, isqrt(m),
    twice that top).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found: dict[int, int] = {}
    m = n
    # Every prime <= done is tried, or known not to divide n.
    done, top = above, min(limit, max(TRIAL_FIRST_STAGE, min(math.isqrt(n), 2 * above)))
    while top > done:
        for p in cached_primes(top, done):
            if p * p > m:
                break  # m is 1 or a prime
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                found[p] = e
        else:
            # The stage ran out of primes: the next one reaches as far as m needs.
            done, top = top, min(limit, math.isqrt(m), 2 * top)
            continue
        break
    if m > 1 and m <= limit:
        found[m] = found.get(m, 0) + 1
        m = 1
    return found, m
