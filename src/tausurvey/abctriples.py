"""abc-triples built from near-points: normalization, radicals, quality.

A near-point (x, y) with defect k gives the additive relation

    x^11 + k = y^2        (or  5 x^22 + k = u^2),

and dividing by d = gcd of the first two legs produces a coprime triple
a1 + b1 = c1 ready for the abc inequality |c1| <= C * rad(a1 b1 c1)^(1+eps).
Radicals come from a budgeted factorization, in this order: a perfect square
is replaced by its root; one gcd against the product of the primes up to
TRIAL_FIRST_STAGE finds every small prime at once (the smooth-part gcd of
Bernstein, "How to find smooth parts of integers", 2004); a cofactor that
can still be composite is trial-divided in stages, then split by Brent's
cycle-finding rho with a deterministic seed.  When the budget runs out the
reported radical is an upper bound and the triple is flagged incomplete.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from .curves import NearPoint
from .primes import TRIAL_FIRST_STAGE, cached_primes, factor_trial, iroot, is_prime

TRIAL_LIMIT = 1_000_000
DEFAULT_BUDGET = 200_000

# Relative slack for float comparisons of logarithms: rounded outward so a
# borderline inequality is never reported false due to rounding alone.
_LOG_SLACK = 1e-9


class AbcTriple(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    a1: int
    b1: int
    c1: int
    rad: int
    rad_complete: bool
    quality: float | None


def _rho_brent(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """Brent-rho attempts on odd composite n; returns (factor, iterations).

    Every step of the map y -> y^2 + c counts as one iteration, the walk that
    opens each round included, and no more than `budget` are taken.
    """
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        ys = x = y
        while g == 1 and used < budget:
            x = y
            steps = min(r, budget - used)
            for _ in range(steps):
                y = (y * y + c) % n
            used += steps
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                steps = min(m, r - k, budget - used)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1 and used < budget:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
    return None, used


def _peel_perfect_power(n: int) -> int:
    """Smallest r with r^k = n for some k >= 1."""
    for k in cached_primes(n.bit_length()):
        r = iroot(n, k)
        while r ** k == n:
            n = r
            r = iroot(n, k)
    return n


@functools.cache
def _small_primorial() -> int:
    """Product of the primes up to TRIAL_FIRST_STAGE, built on first use
    (not at import, so a process that takes no radical never sieves)."""
    return math.prod(cached_primes(TRIAL_FIRST_STAGE))


def radical_budgeted(n: int, budget: int = DEFAULT_BUDGET, seed: int = 0) -> tuple[int, bool]:
    """Product of the distinct primes dividing n, under a factoring budget.

    The steps, in order:
      1. Square peel: a perfect square n = r^2 is replaced by r, since
         rad(r^2) = rad(r) and trial division of r^2 only stops early once it
         passes r, not sqrt(r).
      2. Primorial gcd: small = gcd(n, P), with P the product of the primes
         up to TRIAL_FIRST_STAGE, is the radical of n's small-prime part.
         Those primes leave n in O(log e) gcd rounds for a largest exponent
         e: divide by h, then take h = gcd(n, h^2).  The rest has no prime
         factor <= TRIAL_FIRST_STAGE, so below TRIAL_FIRST_STAGE^2 it is 1
         or a prime and the radical is complete.
      3. Staged trial division: a larger rest goes to factor_trial, which
         tries only the primes past TRIAL_FIRST_STAGE, up to TRIAL_LIMIT;
         its shared sieve grows stage by stage, only for a cofactor that
         can still have a factor there.
      4. Rho: remaining composite cofactors go through Brent rho with a
         deterministic RNG seeded by `seed`, spending at most `budget` steps
         of the rho map in total.

    When some cofactor resists rho, it is multiplied into the result as-is,
    so the returned value is an upper bound on the true radical and the flag
    is False.  Cofactors surviving the probable-prime test are treated as
    prime.  Neither the square peel nor the gcd changes a result: trial
    division of n itself would find the same primes up to TRIAL_LIMIT and
    leave rho a cofactor that peels to the same primitive root.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = math.isqrt(n)
    while r > 1 and r * r == n:
        n = r
        r = math.isqrt(n)
    small = h = math.gcd(n, _small_primorial())
    while h > 1:
        n //= h
        h = math.gcd(n, h * h)
    if n < TRIAL_FIRST_STAGE * TRIAL_FIRST_STAGE:
        return small * n, True
    exponents, cofactor = factor_trial(n, TRIAL_LIMIT, TRIAL_FIRST_STAGE)  # the gcd took the rest
    found = set(exponents)
    stubborn: set[int] = set()
    if cofactor > 1:
        rng = random.Random(seed)
        remaining = budget
        stack = [_peel_perfect_power(cofactor)]
        while stack:
            m = stack.pop()
            if m in found:
                continue
            if is_prime(m):
                found.add(m)
                continue
            factor, used = _rho_brent(m, rng, remaining)
            remaining -= used
            if factor is None:
                stubborn.add(m)
                continue
            stack.append(_peel_perfect_power(factor))
            stack.append(_peel_perfect_power(m // factor))
    rad = small
    for p in found:
        rad *= p
    for m in stubborn:
        rad *= m
    return rad, not stubborn


def make_triple(a: int, b: int, *, budget: int = DEFAULT_BUDGET, seed: int = 0) -> AbcTriple:
    """gcd-normalize the relation a + b = c and attach radical and quality."""
    if a == 0 or b == 0 or a + b == 0:
        raise ValueError("all three legs must be nonzero")
    c = a + b
    d = math.gcd(abs(a), abs(b))
    a1, b1, c1 = a // d, b // d, c // d
    # a1, b1, c1 are pairwise coprime (a shared prime of any two divides the
    # third leg of a1 + b1 = c1), so the radical splits over the legs.
    rad = 1
    complete = True
    for leg in (a1, b1, c1):
        leg_rad, leg_ok = radical_budgeted(abs(leg), budget=budget, seed=seed)
        rad *= leg_rad
        complete = complete and leg_ok
    quality = _quality(a1, b1, c1, rad, complete)
    return AbcTriple(a, b, c, d, a1, b1, c1, rad, complete, quality)


def _quality(a1: int, b1: int, c1: int, rad: int, complete: bool) -> float | None:
    if not complete or rad <= 1:
        return None
    top = max(abs(a1), abs(b1), abs(c1))
    return math.log(top) / math.log(rad)


def from_near_point(pt: NearPoint, *, budget: int = DEFAULT_BUDGET, seed: int = 0) -> AbcTriple:
    """Triple (central, defect, y^2) for a near-point with y and k nonzero."""
    if pt.y == 0:
        raise ValueError("y = 0 near-points do not generate a triple")
    if pt.k == 0:
        raise ValueError("defect must be nonzero")
    return make_triple(pt.kind.central(pt.x), pt.k, budget=budget, seed=seed)


def abc_check(t: AbcTriple, epsilon: float, C: float) -> bool:
    """Whether |c1| <= C * rad^(1+epsilon), rounded outward.

    Requires a complete radical; epsilon and C must be positive.
    """
    if not t.rad_complete:
        raise ValueError("abc_check needs a complete radical")
    if epsilon <= 0 or C <= 0:
        raise ValueError("epsilon and C must be positive")
    lhs = math.log(abs(t.c1))
    rhs = math.log(C) + (1.0 + epsilon) * math.log(t.rad)
    return lhs <= rhs + _LOG_SLACK * max(1.0, abs(rhs))
