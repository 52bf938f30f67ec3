import math
import random
import sys

import pytest

from tausurvey.errors import DeligneViolationError, ResourceLimitError
from tausurvey.hecke import lucas_u
from tausurvey.primes import cached_primes
from tausurvey.satotate import (
    PREDICT_LAYER_MAX,
    AngleSample,
    _chi2_sf,
    angle,
    angle_cdf,
    angles_from_table,
    chebyshev_magnitude_proportion,
    heuristic_prediction,
    st_histogram,
)
from tau_identities import chebyshev_check

CLOSED_MIDDLE_THIRD = 1 / 3 + math.sqrt(3) / (2 * math.pi)


def test_angle_zero_tau():
    assert angle(3, 0).theta == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_p2():
    a = angle(2, -24)
    assert a.cos_theta == pytest.approx(-24 / 2 ** 6.5, rel=1e-12)
    assert a.theta == pytest.approx(math.acos(-24 / 2 ** 6.5), rel=1e-12)
    assert a.theta == pytest.approx(1.8391714, abs=1e-6)


def test_angle_near_boundary():
    p = 5
    tau_edge = math.isqrt(4 * p ** 11)  # largest integer passing the gate
    a = angle(p, tau_edge)
    assert a.theta < 0.01
    assert angle(p, -tau_edge).theta > math.pi - 0.01


def test_angle_gate_is_exact():
    p = 5
    bad = math.isqrt(4 * p ** 11) + 1
    with pytest.raises(DeligneViolationError):
        angle(p, bad)


def test_angles_in_range(table10k):
    for s in angles_from_table(table10k, p_max=500):
        assert -1.0 <= s.cos_theta <= 1.0
        assert 0.0 <= s.theta <= math.pi


def test_float_lucas_u_matches_the_chebyshev_closed_form():
    # U_r(cos t) = sin((r+1) t) / sin t, and U_r(+-1) = (+-1)^r (r+1) at the
    # ends, where the quotient is 0/0.
    rng = random.Random(11)
    for _ in range(2000):
        theta = rng.uniform(0.01, math.pi - 0.01)
        r = rng.randrange(0, 40)
        closed = math.sin((r + 1) * theta) / math.sin(theta)
        assert lucas_u(2.0 * math.cos(theta), 1, r + 1) == pytest.approx(
            closed, rel=1e-9, abs=1e-9 * (r + 1) / math.sin(theta)
        ), (theta, r)
    for r in range(40):
        assert lucas_u(2.0, 1, r + 1) == r + 1
        assert lucas_u(-2.0, 1, r + 1) == (-1) ** r * (r + 1)


def test_chebyshev_check_trivial_orders(table10k):
    for p in (2, 3, 101):
        tp = table10k.tau(p)
        assert chebyshev_check(p, tp, 0, 1e-12)
        assert chebyshev_check(p, tp, 1, 1e-12)


def test_chebyshev_check_square(table10k):
    assert chebyshev_check(3, 252, 2, 1e-9)


def test_chebyshev_check_sweep(table10k):
    for p in cached_primes(1000):
        tp = table10k.tau(p)
        for r in range(9):
            assert chebyshev_check(p, tp, r, 1e-9), (p, r)


def test_chebyshev_order_guard(table10k):
    with pytest.raises(ValueError):
        chebyshev_check(2, -24, 21, 1e-9)


def test_measure_normalization():
    assert angle_cdf(math.pi) == pytest.approx(1.0, abs=1e-12)
    assert angle_cdf(math.pi / 2) == pytest.approx(0.5, abs=1e-12)


def test_middle_third_mass():
    mass = angle_cdf(2 * math.pi / 3) - angle_cdf(math.pi / 3)
    assert abs(mass - CLOSED_MIDDLE_THIRD) < 1e-10


def test_histogram_masses_and_counts(table10k):
    samples = angles_from_table(table10k)
    hist = st_histogram(samples, 8)
    assert sum(hist.expected_mass) == pytest.approx(1.0, abs=1e-12)
    assert sum(hist.observed) == len(samples)
    assert hist.chi_square >= 0.0
    mid = st_histogram(samples, 3).expected_mass[1]
    assert abs(mid - CLOSED_MIDDLE_THIRD) < 1e-10


def test_histogram_hand_computed_chi_square():
    samples = [AngleSample(0, math.cos(t), t) for t in (0.5, 1.5, 1.6, 2.5)]
    hist = st_histogram(samples, 2)
    lo, hi = hist.expected_mass
    expected = (2 - 4 * lo) ** 2 / (4 * lo) + (2 - 4 * hi) ** 2 / (4 * hi)
    assert hist.chi_square == pytest.approx(expected, rel=1e-12)


def test_histogram_validation(table10k):
    samples = angles_from_table(table10k, p_max=100)
    with pytest.raises(ValueError):
        st_histogram(samples, 1)
    with pytest.raises(ValueError):
        st_histogram([], 4)


def test_histogram_bins_capped_by_sample_count(table10k):
    samples = angles_from_table(table10k, p_max=100)  # 25 primes
    assert st_histogram(samples, len(samples)).sample_size == len(samples)
    for bins in (len(samples) + 1, 10**9):  # refused before the edges are built
        with pytest.raises(ValueError, match="sample count"):
            st_histogram(samples, bins)


def _mpmath_chi2_sf(mpmath, x, k):
    return mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def test_chi2_sf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(26)
    with mpmath.workdps(40):
        for _ in range(400):
            k = rng.randint(1, 200)
            x = rng.uniform(0.0, 3.0 * k + 30.0)
            exact = _mpmath_chi2_sf(mpmath, x, k)
            assert abs(_chi2_sf(x, k) - exact) <= 1e-14 * exact, (x, k)
        # past the rescaling threshold: large k and x, and a tail below 1e-300
        for x, k in ((2000.0, 1000), (1500.0, 2001), (1e5, 100_000), (1450.0, 4)):
            exact = _mpmath_chi2_sf(mpmath, x, k)
            assert abs(_chi2_sf(x, k) - exact) <= 1e-12 * exact, (x, k)


def test_chi2_sf_exact_cases():
    for k in (1, 2, 3, 8, 199, 200):
        assert _chi2_sf(0.0, k) == 1.0
    for x in (0.1, 1.0, 7.5, 60.0):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(x, 2) == math.exp(-x / 2)


def test_magnitude_proportion(table10k):
    samples = angles_from_table(table10k, p_max=1000)
    everything = chebyshev_magnitude_proportion(samples, 1, 0.0)
    assert everything == 1.0
    some = chebyshev_magnitude_proportion(samples, 1, 1.0)
    assert 0.0 < some < 1.0


def test_prediction_value():
    pred = heuristic_prediction(1e22, 3, 1.0)
    assert pred.layers[0][1] == pytest.approx(0.038969, abs=1e-5)


def test_prediction_boundary_and_shape():
    pred = heuristic_prediction(math.e ** 2, 2, 1.0)
    assert pred.layers[0][1] == pytest.approx(math.e ** (2 / 11) / 4, rel=1e-12)
    with pytest.raises(ValueError):
        heuristic_prediction(math.e, 1, 1.0)
    with pytest.raises(ValueError):
        heuristic_prediction(100.0, 0, 1.0)


def test_prediction_layer_cap():
    # X^(1/(11m)) >= 2 only while m <= log2(X)/11 < 94 for a finite float X
    assert 11 * 94 > math.log2(sys.float_info.max)
    assert len(heuristic_prediction(1e22, PREDICT_LAYER_MAX).layers) == PREDICT_LAYER_MAX
    for m_max in (PREDICT_LAYER_MAX + 1, 10**12):  # refused before any layer is built
        with pytest.raises(ResourceLimitError):
            heuristic_prediction(1e22, m_max)


def test_prediction_layers_decreasing():
    for X in (1e6, 1e10, 1e22):
        pred = heuristic_prediction(X, 6, 1.0)
        values = [v for _, v in pred.layers]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert pred.total == pytest.approx(sum(values), rel=1e-12)


def test_prediction_layer_one_dominates_scanned_tail():
    # over the layers the survey scans (its cap), m=1 beats the rest combined
    for X, cap in ((1e6, 2), (1e10, 2), (1e22, 5)):
        values = [v for _, v in heuristic_prediction(X, cap, 1.0).layers]
        assert values[0] > sum(values[1:])
