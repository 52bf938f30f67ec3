"""Angle statistics for tau(p) and the sparse-prime-value heuristic.

Writing tau(p) = 2 p^(11/2) cos(theta_p) (legal by the Deligne bound), the
angles equidistribute with density (2/pi) sin^2(theta) on [0, pi], and
tau(p^r) = p^(11r/2) U_r(cos theta_p) with U_r the Chebyshev polynomial of
the second kind, U_r(x) = hecke.lucas_u(2x, 1, r + 1).  This module
produces the angle samples, bins angles against the sin^2 measure, and
evaluates the layered predictor C X^(1/(11m)) / (ln X)^2.  Its records
(AngleSample, Histogram, HeuristicPrediction) are immutable NamedTuples:
tuples that compare by value, updated with _replace.

Floats are fine for statistics; the only correctness gate (the Deligne
inequality itself) is checked in exact integer arithmetic first.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .delta import TauTable
from .errors import DeligneViolationError, ResourceLimitError
from .hecke import lucas_u
from .primes import cached_primes

# X^(1/(11m)) >= 2 needs m <= log2(X)/11, which is below 94 for every finite
# float X, so layers past that each add less than 2C/(ln X)^2; this round cap
# is far above any useful m_max and bounds the layer tuple before it is built.
PREDICT_LAYER_MAX = 1024

# A chi-square tail series term past e^_RESCALE is scaled back by e^-_RESCALE,
# so large x and k overflow neither the series nor the exp(-x/2) factor.
# The scale is a whole power of e so that it joins -x/2 exactly in the exponent.
_RESCALE = 354


class AngleSample(NamedTuple):
    p: int
    cos_theta: float
    theta: float


class Histogram(NamedTuple):
    edges: tuple[float, ...]
    observed: tuple[int, ...]
    expected_mass: tuple[float, ...]
    chi_square: float
    p_value: float

    @property
    def sample_size(self) -> int:
        return sum(self.observed)


def angle(p: int, tau_p: int) -> AngleSample:
    """Angle sample for one prime; requires tau_p^2 <= 4 p^11 exactly."""
    if tau_p * tau_p > 4 * p ** 11:
        raise DeligneViolationError(f"tau({p})={tau_p} violates the Deligne bound")
    cos_theta = float(tau_p) / (2.0 * math.exp(5.5 * math.log(p)))
    cos_theta = max(-1.0, min(1.0, cos_theta))
    return AngleSample(p, cos_theta, math.acos(cos_theta))


def angles_from_table(table: TauTable, p_min: int = 2, p_max: int | None = None) -> list[AngleSample]:
    """Angle samples for all primes in [p_min, min(p_max, N)]."""
    top = table.N if p_max is None else min(p_max, table.N)
    return [angle(p, table.tau(p)) for p in cached_primes(top) if p >= p_min]


def angle_cdf(theta: float) -> float:
    """Mass of [0, theta] under (2/pi) sin^2: (2/pi)(theta/2 - sin(2 theta)/4)."""
    return (2.0 / math.pi) * (theta / 2.0 - math.sin(2.0 * theta) / 4.0)


def _chi2_sf(x: float, k: int) -> float:
    """Upper tail P(chi^2_k > x) for an integer k >= 1, in closed form.

    Abramowitz & Stegun 26.4.5 (even k) and 26.4.4 (odd k):

        even k: exp(-x/2) sum_{i < k/2} (x/2)^i / i!
        odd k:  erfc(sqrt(x/2))
                + sqrt(2/pi) exp(-x/2) sum_{1 <= j <= (k-1)/2} sqrt(x) x^(j-1) / (1*3*...*(2j-1))

    Consecutive series terms differ by the factor x/den, den = 2, 4, ... (even)
    or 3, 5, ... (odd); the series is summed with fsum.
    """
    big = math.exp(_RESCALE)
    terms = [] if k == 1 else [math.sqrt(x) if k % 2 else 1.0]
    shift = 0  # the series is fsum(terms) * e^shift
    for den in range(2 + k % 2, k - 1, 2):
        term = terms[-1] * x / den
        if term > big:
            terms = [math.fsum(terms) / big]
            term /= big
            shift += _RESCALE
        terms.append(term)
    tail = 0.0
    if terms:
        series = math.fsum(terms)
        weight = math.exp(-x / 2)
        if shift == 0 and weight >= sys.float_info.min:
            tail = weight * series
        else:  # exp(-x/2) alone would underflow or lose its precision
            tail = math.exp(math.fsum([math.log(series), shift, -x / 2]))
    if k % 2:
        tail = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 / math.pi) * tail
    return tail


def st_histogram(samples: list[AngleSample], bins: int) -> Histogram:
    """Equal-width histogram on [0, pi] with sin^2-measure expected masses.

    bins may not exceed the sample count; the check comes before any
    per-bin allocation.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not samples:
        raise ValueError("samples must be nonempty")
    if bins > len(samples):
        raise ValueError(f"bins ({bins}) must not exceed the sample count ({len(samples)})")
    edges = tuple(math.pi * i / bins for i in range(bins + 1))
    expected = tuple(angle_cdf(edges[i + 1]) - angle_cdf(edges[i]) for i in range(bins))
    if min(expected) <= 0.0:
        raise ValueError("degenerate binning: zero expected mass")
    observed = [0] * bins
    for s in samples:
        idx = min(int(s.theta / math.pi * bins), bins - 1)
        observed[idx] += 1
    n = len(samples)
    chi_square = sum(
        (observed[i] - n * expected[i]) ** 2 / (n * expected[i]) for i in range(bins)
    )
    p_value = _chi2_sf(chi_square, bins - 1)
    return Histogram(edges, tuple(observed), expected, chi_square, p_value)


def chebyshev_magnitude_proportion(samples: list[AngleSample], m: int, threshold: float) -> float:
    """Fraction of samples with |U_{2m}(cos theta_p)| >= threshold.

    Exposes, as a measurable statistic, how often the layer-m Chebyshev
    factor is of unit size.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not samples:
        raise ValueError("samples must be nonempty")
    hits = sum(1 for s in samples if abs(lucas_u(2.0 * s.cos_theta, 1, 2 * m + 1)) >= threshold)
    return hits / len(samples)


class HeuristicPrediction(NamedTuple):
    X: float
    C: float
    layers: tuple[tuple[int, float], ...]

    @property
    def total(self) -> float:
        return sum(v for _, v in self.layers)


def heuristic_prediction(X: float, m_max: int, C: float = 1.0) -> HeuristicPrediction:
    """Layered estimates C X^(1/(11m)) / (ln X)^2 for m = 1..m_max.

    Raises ResourceLimitError when m_max exceeds PREDICT_LAYER_MAX.
    """
    if X <= math.e:
        raise ValueError("X must exceed e so that log X > 1")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if m_max > PREDICT_LAYER_MAX:
        raise ResourceLimitError(f"m_max {m_max} exceeds the layer cap {PREDICT_LAYER_MAX}")
    log_sq = math.log(X) ** 2
    layers = tuple((m, C * X ** (1.0 / (11.0 * m)) / log_sq) for m in range(1, m_max + 1))
    return HeuristicPrediction(X, C, layers)
