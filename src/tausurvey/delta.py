"""Exact q-expansion of the discriminant cusp form Delta.

Delta = q * prod_{n>=1} (1 - q^n)^24, so its coefficients tau(n) are obtained
from the cube of the product: by Jacobi's identity

    prod (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2},

raising that sparse series to the 8th power and shifting by one power of q
yields tau(1..N).  All coefficients are exact integers.  The cube series has
only about sqrt(2N) terms, so its square (the 6th power) is summed pair by
pair; the two dense squarings after it (6th -> 12th -> 24th power) use
Kronecker substitution in base 10^w: coefficients are packed as fixed-width
decimal slots into one Decimal, squared exactly by libmpdec (a
number-theoretic transform at these sizes, so near-linear in N), cut to the
low half that the truncated product needs, and unpacked with a
balanced-digit borrow pass, so no Python-level O(N^2) loop is needed.
Packing and unpacking go through Decimals of one batch of slots each (joined
pairwise on the way in, split by shifts on the way out), so no digit string
of a whole operand or product is built, and each squaring drops the
coefficient list before it multiplies: the transform's own buffers set the
build's peak memory.

The table is a TauTable, an immutable NamedTuple (N, coeffs): a tuple that
compares and hashes by value, updated only by _replace, which checks the
coefficient count as construction does.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import ResourceLimitError
from .primes import cached_primes, is_square

# Series builds beyond this order are refused (memory/time guard, checked
# before any allocation).  Measured build time / peak RSS of a whole process
# that builds one table (Python 3.11.7, libmpdec 2.5.1, 2-core VM):
# N = 200k 1.2 s / 39 MiB, 400k 2.5 s / 69 MiB, 1M 7.8-8.0 s / 192 MiB,
# 1.5M 10.9-11.6 s / 320 MiB (247-335 MiB, depending on what the process
# allocated before the build).  The default covers the m = 1 survey window
# (3X)^(1/11) <= N up to X of about 2.9e67.
SERIES_MAX_DEFAULT = 1_500_000

# Exact integer arithmetic for the Kronecker squarings: unbounded precision,
# and any rounding at all raises instead of passing silently.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


class _TauTableFields(NamedTuple):
    N: int
    coeffs: tuple[int, ...]


class TauTable(_TauTableFields):
    """Exact tau(1..N); 1-indexed, tau(0) does not exist.

    An immutable NamedTuple (N, coeffs), checked on construction.
    """

    __slots__ = ()

    def __new__(cls, N: int, coeffs: tuple[int, ...]) -> TauTable:
        if N < 1 or len(coeffs) != N:
            raise ValueError("coefficient count must equal N >= 1")
        return super().__new__(cls, N, coeffs)

    @classmethod
    def _make(cls, iterable) -> TauTable:
        # _replace builds through _make: check its result as well.
        return cls(*iterable)

    def tau(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise ValueError(f"n={n} outside table range 1..{self.N}")
        return self.coeffs[n - 1]

    def iter_records(self) -> Iterator[tuple[int, int]]:
        for i, t in enumerate(self.coeffs, start=1):
            yield i, t


def jacobi_series(order: int) -> tuple[tuple[int, int], ...]:
    """prod (1-q^n)^3 truncated to exponent <= order.

    Returns (exponent, coefficient) pairs: terms sit at the triangular
    numbers k(k+1)/2, strictly increasing, with the nonzero coefficient
    (-1)^k (2k+1).  order = 0 leaves only the constant term.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = []
    k = 0
    while k * (k + 1) // 2 <= order:
        coeff = 2 * k + 1
        terms.append((k * (k + 1) // 2, -coeff if k & 1 else coeff))
        k += 1
    return tuple(terms)


def _cube_series_square(top: int) -> list[int]:
    """prod (1-q^n)^6 truncated to exponent <= top, as a dense list.

    The square of the sparse Jacobi series, summed over its pairs of
    nonzero terms: c_i^2 at 2 e_i and 2 c_i c_j at e_i + e_j for i < j.
    """
    terms = jacobi_series(top)
    out = [0] * (top + 1)
    for i, (e, c) in enumerate(terms):
        if 2 * e > top:
            break  # exponents ascend, so no later pair fits either
        out[2 * e] += c * c
        twice = 2 * c
        for f, d in islice(terms, i + 1, None):
            if e + f > top:
                break
            out[e + f] += twice * d
    return out


# Slots folded and formatted per batch, so packing and unpacking hold one
# Python object or string per slot only for a batch at a time, never for the
# whole polynomial.
_PACK_BATCH = 4096


def _pack(coeffs: list[int], max_exp: int) -> tuple[Decimal, int]:
    """Kronecker operand of coeffs[:max_exp + 1] and its slot width w.

    w is wide enough that every coefficient of the truncated square fits in
    a signed slot.  A borrow pass, low slot first, folds the signs into
    base-10^w digits in [0, 10^w); each batch of slots becomes one Decimal,
    and neighbouring Decimals are joined pairwise, so no digit string of
    the whole operand is built.  A borrow left over at the top stands for
    -10^(w * slots), subtracted once.  The caller's list is only read.
    """
    low = coeffs[: max_exp + 1]  # terms above max_exp cannot reach the result
    peak = max(max(low, default=0), -min(low, default=0))
    # |product coefficient| <= len * peak^2 < 10^w / 2
    w = len(str(2 * len(low) * peak * peak))

    slots = len(low)
    full = 10**w
    slot = f"%0{w}d"
    borrow = False
    pieces = []  # one Decimal per batch, low batch first
    for start in range(0, slots, _PACK_BATCH):
        digits = low[start : start + _PACK_BATCH]
        for k, c in enumerate(digits):
            c -= borrow
            borrow = c < 0
            digits[k] = c + full if borrow else c
        digits.reverse()
        pieces.append(Decimal(slot * len(digits) % tuple(digits)))
    del low
    width = w * _PACK_BATCH  # digits spanned by every piece but the top one
    while len(pieces) > 1:  # an odd top piece waits for the next round
        pieces = [
            _EXACT.add(lo, _EXACT.scaleb(hi, width)) for lo, hi in zip(pieces[::2], pieces[1::2])
        ] + pieces[len(pieces) & ~1 :]
        width *= 2
    packed = pieces.pop() if pieces else Decimal(0)  # the empty polynomial is 0
    if borrow:
        packed = _EXACT.subtract(packed, _EXACT.scaleb(1, w * slots))
    return packed, w


def _low_digits(x: Decimal, digits: int) -> Decimal:
    """x mod 10^digits, for an integer Decimal x >= 0.

    Context.shift by 0 cuts the coefficient on the left to the context's
    precision: exact, linear in the length, no division and no flag.
    """
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN).shift(x, 0)


def _square_low(packed: Decimal, w: int, slots: int) -> list[tuple[Decimal, int]]:
    """The low `slots` w-digit slots of packed^2, as a stack for _unpack.

    libmpdec squares the operand exactly (a number-theoretic transform at
    these sizes; _EXACT traps Inexact and Rounded, so a product that does
    not fit raises instead of corrupting the coefficients).  The square is
    cut to its low slots as soon as it exists, and dropped.
    """
    return [(_low_digits(_EXACT.multiply(packed, packed), slots * w), slots)]


def _unpack(pending: list[tuple[Decimal, int]], w: int) -> list[int]:
    """Signed coefficients from the w-digit slots of the pieces in `pending`.

    `pending` is a stack of (piece, slot count), lowest piece on top, and
    every piece is taken off it.  A piece of more than _PACK_BATCH slots is
    split in two by shifts; only smaller pieces are formatted, so no digit
    string of the whole product is built.  A balanced-digit borrow pass
    then reads each slot as a signed coefficient.
    """
    limbs = []
    while pending:
        piece, slots = pending.pop()
        while slots > _PACK_BATCH:
            cut = slots // 2
            pending.append((_EXACT.shift(piece, -cut * w), slots - cut))
            piece, slots = _low_digits(piece, cut * w), cut
        digits = str(piece).rjust(slots * w, "0")  # zero slots above a short piece
        limbs.extend(int(digits[i - w : i]) for i in range(slots * w, 0, -w))

    full = 10**w
    half = full // 2
    carry = 0
    for k, limb in enumerate(limbs):
        limb += carry
        carry = limb >= half
        limbs[k] = limb - full if carry else limb
    return limbs


def _square_truncated(coeffs: list[int], max_exp: int) -> list[int]:
    """Exact square of a signed integer polynomial, truncated to
    exponents <= max_exp.

    Kronecker substitution in base 10^w: _pack evaluates the polynomial at
    10^w, _square_low squares that Decimal and keeps its low slots, and
    _unpack reads them back.  The caller's list is left as it was.
    """
    packed, w = _pack(coeffs, max_exp)
    return _unpack(_square_low(packed, w, max_exp + 1), w)


def delta_coefficients(N: int, *, series_max: int = SERIES_MAX_DEFAULT) -> TauTable:
    """Exact tau(1..N): the pairwise square of the cube series, then two
    Kronecker squarings.

    Each squaring drops the coefficient list once it is packed and the
    operand once it is squared, so neither is alive next to the product.

    Raises ResourceLimitError when N exceeds series_max.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > series_max:
        raise ResourceLimitError(f"series order {N} exceeds configured maximum {series_max}")
    top = N - 1  # exponent budget before the q-shift
    power = _cube_series_square(top)  # prod^6
    for _ in range(2):  # prod^12, then prod^24
        packed, w = _pack(power, top)
        del power
        pending = _square_low(packed, w, N)
        del packed
        power = _unpack(pending, w)
    return TauTable(N, tuple(power))


def tau_parity(n: int) -> bool:
    """True iff tau(n) is odd, i.e. n is an odd square."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n % 2 == 1 and is_square(n)


def verify_deligne(table: TauTable) -> list[tuple[int, int]]:
    """Check tau(p)^2 <= 4 p^11 for every prime p <= N, exactly.

    Returns the list of violating (p, tau(p)) pairs; empty means the whole
    table satisfies the Deligne bound.
    """
    violations = []
    for p in cached_primes(table.N):
        t = table.tau(p)
        if t * t > 4 * p ** 11:
            violations.append((p, t))
    return violations
