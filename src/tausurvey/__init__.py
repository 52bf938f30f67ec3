"""Exact Ramanujan tau arithmetic and the empirical machinery around it:
prime-value surveys, integer points near the two twist families, abc-triple
instrumentation, and Sato-Tate angle statistics."""

from .delta import TauTable, delta_coefficients, jacobi_series, tau_parity, verify_deligne
from .errors import DeligneViolationError, OutOfRangeError, ResourceLimitError
from .hecke import is_ordinary, tau_of, tau_prime_power
from .primes import PrimalityVerdict

__version__ = "0.1.0"

__all__ = [
    "DeligneViolationError",
    "OutOfRangeError",
    "PrimalityVerdict",
    "ResourceLimitError",
    "TauTable",
    "delta_coefficients",
    "is_ordinary",
    "jacobi_series",
    "tau_of",
    "tau_parity",
    "tau_prime_power",
    "verify_deligne",
    "__version__",
]
