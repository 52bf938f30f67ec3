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
number-theoretic transform at these sizes, so near-linear in N), and cut to
the low half that the truncated product needs, so no Python-level O(N^2)
loop is needed.

- Slot widths.  Only the low N slots of each square are read, and they
  hold prod^12 and tau, whose sizes Deligne's bound limits; _proven_widths
  states the proof.  The widths follow from N alone, and no coefficient is
  scanned for them: 17 and 31 digits at N = 100k, 21 and 38 at 1.5M.
- Offset slots.  A slot holds c + H, with H = 10^w / 2, so every slot is
  w digits in [0, 10^w) whatever the sign of c.  Packing
  subtracts sum_k H 10^(w k) once; after the square, adding it back and
  cutting to the low slots leaves each slot reading c + H, with no carry
  between slots.
- Re-slot.  The first square's slots (prod^12 + H at width w1) are widened
  to the second width w2 as digits and joined into the second operand, so
  prod^12 never becomes a list of Python ints.

Packing, re-slotting and unpacking go through one batch of slots at a time
(joined pairwise on the way in, split by shifts on the way out), so no
digit string of a whole operand or product is built.  Each step drops what
it no longer needs before the next multiply.  The free heap is handed back
to the OS just before each multiply and before the unpack (glibc's
malloc_trim; a no-op on other C libraries), as neither can reuse the pages
that freed temporaries leave.  So the second square's operand and the
transform's own buffers set the build's peak memory, whatever the process
allocated before: 127 MiB for a whole process at N = 1M, 183 MiB at 1.5M.

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
from functools import cache
from itertools import islice
from struct import unpack
from typing import Callable, Iterator, NamedTuple

from .errors import ResourceLimitError
from .primes import cached_primes, is_square

# Series builds beyond this order are refused (memory/time guard, checked
# before any allocation).  Measured build time / peak RSS of a whole process
# that builds one table (Python 3.11.7, libmpdec 2.5.1, glibc 2.36, 2-core
# VM): N = 200k 0.85 s / 37 MiB, 400k 1.8 s / 58 MiB, 1M 5.0 s / 127 MiB,
# 1.5M 7.5-10.2 s / 183 MiB.  The default covers the m = 1 survey window
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


# Slots formatted or parsed per batch, so packing and unpacking hold one
# Python object or string per slot only for a batch at a time, never for the
# whole polynomial.
_PACK_BATCH = 4096


def _width(bound: int) -> int:
    """The narrowest slot width w with 10^w > 2 * bound.

    A coefficient c with |c| <= bound is then below H = 10^w / 2 in size,
    and its offset slot c + H lies in [0, 10^w).
    """
    return len(str(2 * bound))


def _proven_widths(N: int) -> tuple[int, int]:
    """Slot widths (w1, w2) of the two squarings of delta_coefficients(N),
    from N alone.

    Only the low N slots of each square are read, and those hold known
    coefficients with proven bounds:
    - squaring 1 gives prod^12 = sum b_k q^k, and eta(2z)^12 =
      sum b_k q^(2k+1) spans S_6(Gamma0(4)), which has dimension 1 (there
      are no weight-6 cusp forms of level 1 or 2), so it is a newform and
      Deligne gives |b_k| <= d(2k+1) (2k+1)^(5/2);
    - squaring 2 gives prod^24, whose q^k coefficient is tau(k+1), with
      |tau(n)| <= d(n) n^(11/2);
    - d(n) <= 2 sqrt(n), because the divisors of n pair off around sqrt(n).
    With k <= N - 1 the low slots are bounded by B1 = 2 (2N-1)^3 and
    B2 = 2 N^6.  The slots at N and above hold other values, but they add a
    multiple of 10^(N w) to the square, so they cannot reach the low N
    slots.  The operands fit as well: prod^12 is read from the w1 slots
    into w2 >= w1 (B2 >= B1, since N^2 >= 2N - 1), and the q^k coefficient
    of prod^6 sums (2i+1)(2j+1) <= 4k+1 over the at most k+1 ordered pairs
    of triangular numbers T_i + T_j = k, so it is within (k+1)(4k+1) <= B1.
    """
    return _width(2 * (2 * N - 1) ** 3), _width(2 * N**6)


def _offset_digits(w: int) -> str:
    """H = 10^w / 2 as w digits: the offset that makes every slot non-negative."""
    return "5".ljust(w, "0")


def _repeat(slot: str, count: int) -> Decimal:
    """The integer whose digits are `slot` written `count` times, which is
    sum_k v 10^(w k) over k < count for the w-digit slot v.

    Built by doubling one slot, so no digit string of it is formatted.
    """
    w = len(slot)
    total, filled = Decimal(0), 0
    unit, span = Decimal(slot), 1  # `span` slots of v
    while count:
        if count & 1:
            total = _EXACT.add(total, _EXACT.scaleb(unit, w * filled))
            filled += span
        count >>= 1
        if count:
            unit = _EXACT.add(unit, _EXACT.scaleb(unit, w * span))
            span *= 2
    return total


def _join(pieces: list[tuple[Decimal, int]], w: int) -> Decimal:
    """sum of piece_i 10^(w * slots below piece i), for (piece, slot count)
    pairs lowest first.

    Neighbours are joined pairwise, each by its own slot count, so no digit
    string of the whole operand is built.  No pieces make 0.
    """
    while len(pieces) > 1:  # an odd top piece waits for the next round
        pieces = [
            (_EXACT.add(lo, _EXACT.scaleb(hi, w * n)), n + m)
            for (lo, n), (hi, m) in zip(pieces[::2], pieces[1::2])
        ] + pieces[len(pieces) & ~1 :]
    return pieces[0][0] if pieces else Decimal(0)


def _pack(coeffs: list[int], w: int) -> Decimal:
    """Kronecker operand sum_k c_k 10^(w k) of coeffs, in offset slots.

    Each batch is written as one string of slots c + H (H = 10^w / 2),
    which is one Decimal; the batches are joined, and sum_k H 10^(w k) is
    subtracted once.  A coefficient outside [-H, H) raises OverflowError:
    its slot would be longer than w digits or negative.  The caller's list
    is only read.
    """
    half = 10**w // 2
    slot = f"%0{w}d"
    pieces = []
    for start in range(0, len(coeffs), _PACK_BATCH):
        batch = coeffs[start : start + _PACK_BATCH]
        batch.reverse()  # the top slot is written first
        digits = slot * len(batch) % tuple(map(half.__add__, batch))
        if len(digits) != w * len(batch) or "-" in digits:
            raise OverflowError(f"a coefficient does not fit a {w}-digit slot")
        pieces.append((Decimal(digits), len(batch)))
    return _EXACT.subtract(_join(pieces, w), _repeat(_offset_digits(w), len(coeffs)))


def _low_digits(x: Decimal, digits: int) -> Decimal:
    """x mod 10^digits, for an integer Decimal x >= 0.

    Context.shift by 0 cuts the coefficient on the left to the context's
    precision: exact, linear in the length, no division and no flag.
    """
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN).shift(x, 0)


@cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's malloc_trim, whose call with 0 hands the heap's free pages back
    to the OS; None where ctypes or the symbol is missing (macOS, musl,
    Windows).

    Looked up once, so ctypes is imported on the first table build and never
    by importing the CLI.
    """
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, OSError, TypeError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Hand the heap's free pages back to the OS (see _malloc_trim)."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _square_low(packed: Decimal, w: int, slots: int) -> list[tuple[Decimal, int]]:
    """The low `slots` slots of packed^2 in offset form, as a stack for
    _batches: each w-digit slot reads c + H for the square's coefficient c.

    libmpdec squares the operand exactly (a number-theoretic transform at
    these sizes; _EXACT traps Inexact and Rounded, so a product that does
    not fit raises instead of corrupting the coefficients).  Adding
    sum_k H 10^(w k) and cutting to the low slots * w digits leaves
    sum_k (c_k + H) 10^(w k) with no carry between slots, as long as every
    |c_k| < H.  The square is cut before the offsets are added, so it is
    dropped before they exist.

    The free heap is handed back to the OS just before the multiply: glibc
    would otherwise keep the pages of the build's freed temporaries
    resident, and the transform's buffers would land on top of them.
    """
    span = slots * w
    _release_free_heap()
    low = _low_digits(_EXACT.multiply(packed, packed), span)
    return [(_low_digits(_EXACT.add(low, _repeat(_offset_digits(w), slots)), span), slots)]


def _batches(pending: list[tuple[Decimal, int]], w: int) -> Iterator[tuple[str, int]]:
    """(digit string, slot count) of every batch of the pieces in `pending`,
    lowest first; each string is slots * w digits, its top slot first.

    `pending` is a stack of (piece, slot count), lowest piece on top, and
    every piece is taken off it.  A piece of more than _PACK_BATCH slots is
    split in two by shifts, so the halves can differ in size by one slot;
    only smaller pieces are formatted, so no digit string of the whole
    product is built.
    """
    while pending:
        piece, slots = pending.pop()
        while slots > _PACK_BATCH:
            cut = slots // 2
            pending.append((_EXACT.shift(piece, -cut * w), slots - cut))
            piece, slots = _low_digits(piece, cut * w), cut
        yield str(piece).rjust(slots * w, "0"), slots  # zero slots above a short piece


def _unpack(pending: list[tuple[Decimal, int]], w: int) -> list[int]:
    """Signed coefficients c from the offset slots c + H of `pending`.

    The ints go to Python's small-object arenas, which are mapped apart
    from the heap, so the free heap (the last transform's buffers) is
    handed back to the OS first.
    """
    _release_free_heap()
    half = 10**w // 2
    coeffs = []
    for digits, slots in _batches(pending, w):
        batch = list(map(half.__rsub__, map(int, unpack(f"{w}s" * slots, digits.encode()))))
        batch.reverse()
        coeffs += batch
    return coeffs


def _reslot(pending: list[tuple[Decimal, int]], w1: int, w2: int) -> Decimal:
    """The Kronecker operand sum_k c_k 10^(w2 k) of the coefficients in the
    w1-digit offset slots c + H1 of `pending`, without making them ints.

    Each batch's slots are widened to w2 digits by w1 strided copies into a
    zero-filled buffer, which becomes one Decimal; the batches are joined by
    their slot counts, and sum_k H1 10^(w2 k) is subtracted once.
    """
    pad = w2 - w1
    pieces = []
    for digits, slots in _batches(pending, w1):
        src = digits.encode()
        wide = bytearray(b"0" * (slots * w2))
        for j in range(w1):
            wide[pad + j :: w2] = src[j::w1]
        pieces.append((Decimal(wide.decode()), slots))
    slots = sum(n for _, n in pieces)
    return _EXACT.subtract(_join(pieces, w2), _repeat(_offset_digits(w1).rjust(w2, "0"), slots))


def delta_coefficients(N: int, *, series_max: int = SERIES_MAX_DEFAULT) -> TauTable:
    """Exact tau(1..N): the pairwise square of the cube series, then two
    Kronecker squarings at the widths _proven_widths gives.

    The first square's low slots are re-slotted into the second operand as
    digits, so prod^12 is never a list of ints.  Each coefficient list,
    operand and cut square is dropped once the next step holds what it
    needs, so none is alive next to the product.

    Raises ResourceLimitError when N exceeds series_max.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > series_max:
        raise ResourceLimitError(f"series order {N} exceeds configured maximum {series_max}")
    power = _cube_series_square(N - 1)  # prod^6, exponents below N
    w1, w2 = _proven_widths(N)
    packed = _pack(power, w1)
    del power
    pending = _square_low(packed, w1, N)  # prod^12
    del packed
    packed = _reslot(pending, w1, w2)
    pending = _square_low(packed, w2, N)  # prod^24
    del packed
    return TauTable(N, tuple(_unpack(pending, w2)))


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
