"""Integer points near y^2 = x^11 and u^2 = 5 x^22.

A near-point at abscissa x is an integer y whose square lands within the
defect band around the central value (x^11, or 5 x^22 with band 4X): the
defect k = y^2 - central is nonzero and |k| stays inside the band.  Prime
defects are exactly the parameters of the degree-11 twists with an integer
point; defects 4*prime play that role for the degree-22 family.

Both paths start from the same per-x band bounds y_lo <= y <= y_hi, found
with math.isqrt.  Enumeration walks that run, so each abscissa costs
O(band / x^(11/2)) candidate checks; past the sub-unit cutoff that is O(1)
per x.  A run wider than the scan ceiling is refused before any point of it
is built.  Counting never enumerates, so no ceiling applies to it: the size
of the run gives the count at x in O(1) isqrt arithmetic, and it is split
into the three regimes (small / mid / sub-unit), whose boundaries are two
exact integer roots of X taken once per count, never floats.

NearPoint and RegimeReport are immutable NamedTuples: tuples that compare
and hash by value, updated with _replace.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import ResourceLimitError
from .primes import iroot, is_square

# Widest per-x candidate run near_points may enumerate (resource guard, not a
# correctness parameter: the enumerated set never depends on it).
FULL_SCAN_CEILING = 100_000_000


class CurveKind(Enum):
    DEG11 = "deg11"
    DEG22 = "deg22"

    def central(self, x: int) -> int:
        return x ** 11 if self is CurveKind.DEG11 else 5 * x ** 22

    def band(self, X: int) -> int:
        return X if self is CurveKind.DEG11 else 4 * X

    def regime_tops(self, X: int) -> tuple[int, int]:
        """(s, u): x <= s is the small regime and x > u is past the sub-unit
        cutoff; deg11 s = (2X)^(1/11), u = X^(2/11); deg22 s = X^(1/22),
        u = X^(1/11), each floored exactly by iroot."""
        if self is CurveKind.DEG11:
            return iroot(2 * X, 11), iroot(X * X, 11)
        return iroot(X, 22), iroot(X, 11)


class NearPoint(NamedTuple):
    """One admissible pair; y doubles as the u-coordinate for DEG22."""

    kind: CurveKind
    x: int
    y: int
    k: int


class RegimeReport(NamedTuple):
    kind: CurveKind
    X: int
    x_max: int
    small: int
    mid: int
    subunit: int

    @property
    def total(self) -> int:
        return self.small + self.mid + self.subunit


def _y_band(kind: CurveKind, X: int, x: int) -> tuple[int, int, int]:
    """(central, y_lo, y_hi): the y >= 0 whose square lies in the band at x."""
    central = kind.central(x)
    band = kind.band(X)
    lo = central - band
    y_lo = 0 if lo <= 0 else math.isqrt(lo - 1) + 1
    return central, y_lo, math.isqrt(central + band)


def _scan_x(kind: CurveKind, X: int, x: int, ceiling: int) -> list[NearPoint]:
    """All near-points at one abscissa in canonical order: y ascending.

    Raises ResourceLimitError when the run of candidates exceeds the ceiling,
    before any point is built.
    """
    central, y_lo, y_hi = _y_band(kind, X, x)
    if y_hi - y_lo + 1 > ceiling:
        raise ResourceLimitError(
            f"x={x}: {y_hi - y_lo + 1} y-candidates exceed the scan ceiling {ceiling}"
        )
    positive = [
        (y, k)
        for y in range(max(y_lo, 1), y_hi + 1)
        if (k := y * y - central)
    ]
    points = [NearPoint(kind, x, -y, k) for y, k in reversed(positive)]
    if y_lo == 0:
        points.append(NearPoint(kind, x, 0, -central))
    points.extend(NearPoint(kind, x, y, k) for y, k in positive)
    return points


def near_points(
    kind: CurveKind,
    X: int,
    x_min: int,
    x_max: int,
    *,
    ceiling: int = FULL_SCAN_CEILING,
) -> list[NearPoint]:
    """All near-points with x in [x_min, x_max], canonically sorted by (x, y).

    Both signs of y are distinct points; y = 0 appears once.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    if x_min < 1:
        raise ValueError("x_min must be >= 1")
    points = []
    for x in range(x_min, x_max + 1):
        points.extend(_scan_x(kind, X, x, ceiling))
    return points


def exact_count(kind: CurveKind, X: int, x_max: int) -> RegimeReport:
    """Near-point count over 1 <= x <= x_max, dissected into the three regimes.

    Nothing is enumerated: each abscissa contributes 2 per y in [y_lo, y_hi]
    (one per sign), less one when y = 0 is among them and less two when the
    central value is an exact square (its root has defect 0).  The total
    equals len(near_points(kind, X, 1, x_max)) wherever that enumeration fits
    under the scan ceiling; the count builds no point, so no ceiling applies
    to it.  The dissection is bookkeeping only: the regime tops (s, u) are
    taken once, and x is small for x <= s, else sub-unit for x > u, else mid.

    Every x in 1..x_max is visited, at about 2.5-4 microseconds each
    (Python 3.11, 2-CPU x86 VM), and no guard bounds x_max.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    small_top, subunit_top = kind.regime_tops(X)
    mid_top = max(small_top, subunit_top)
    counts = [0, 0, 0]  # small, mid, sub-unit
    for x in range(1, x_max + 1):
        central, y_lo, y_hi = _y_band(kind, X, x)
        n = 2 * (y_hi - y_lo + 1) - (y_lo == 0)
        if is_square(central):
            n -= 2
        counts[(x > small_top) + (x > mid_top)] += n
    return RegimeReport(kind, X, x_max, *counts)
