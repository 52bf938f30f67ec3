"""Identity checks that only the tests use: closed forms of tau at prime
powers, held against the package's exact recurrence."""

import math
from fractions import Fraction

from tausurvey.hecke import lucas_u, tau_prime_power
from tausurvey.primes import factor_trial, is_prime
from tausurvey.satotate import angle

CHEBYSHEV_MAX_ORDER = 20  # float-range guard for the identity check


def chebyshev_check(p: int, tau_p: int, r: int, tol: float) -> bool:
    """Exact tau(p^r) versus p^(11r/2) U_r(cos theta_p), within tol*(r+1),
    with the Chebyshev U_r(x) evaluated as the Lucas value U_(r+1)(2x, 1).

    Both sides are compared after dividing by p^(11r/2); the exact side is
    scaled with Fraction so the quotient is correctly rounded even when the
    raw integers dwarf the float range.
    """
    if r > CHEBYSHEV_MAX_ORDER:
        raise ValueError(f"r must be <= {CHEBYSHEV_MAX_ORDER}")
    sample = angle(p, tau_p)
    exact = tau_prime_power(tau_p, p, r)
    if r % 2 == 0:
        scaled = float(Fraction(exact, p ** (11 * r // 2)))
    else:
        magnitude = math.sqrt(float(Fraction(exact * exact, p ** (11 * r))))
        scaled = math.copysign(magnitude, exact)
    return abs(scaled - lucas_u(2.0 * sample.cos_theta, 1, r + 1)) <= tol * (r + 1)


def quartic_identity_check(p: int, tau_p: int) -> bool:
    """Recurrence at exponent 4 versus its closed quartic form.

    tau(p^4) = tau(p)^4 - 3 p^11 tau(p)^2 + p^22 holds as a polynomial
    identity in the seed, so this is true for any integer tau_p.
    """
    p11 = p ** 11
    closed = tau_p ** 4 - 3 * p11 * tau_p ** 2 + p11 * p11
    return tau_prime_power(tau_p, p, 4) == closed


def admissible_exponents(ell: int) -> set[int]:
    """Odd primes d dividing ell * (ell^2 - 1).

    Solutions of tau(n) = +-ell^m with ell ordinary are forced into the shape
    n = p^(d-1) with d drawn from this set.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"ell={ell} must be an odd prime")
    out = {ell}
    for part in (ell - 1, ell + 1):
        found, cofactor = factor_trial(part, math.isqrt(part) + 1)
        out.update(q for q in found if q != 2)
        if cofactor > 2:
            out.add(cofactor)
    return out
