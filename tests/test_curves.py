import io
import json

import pytest

from tausurvey.cli import dispatch
from tausurvey.curves import CurveKind, NearPoint, exact_count, near_points
from tausurvey.errors import ResourceLimitError
from tausurvey.selftest import naive_near_points, naive_regime, naive_regime_counts


def as_tuples(points):
    return [(p.x, p.y, p.k) for p in points]


def test_single_pair_example():
    got = near_points(CurveKind.DEG11, 100, 3, 10)
    assert as_tuples(got) == [(3, -421, 94), (3, 421, 94)]
    assert 421 ** 2 - 3 ** 11 == 94


def test_x_equals_one_example():
    got = near_points(CurveKind.DEG11, 10, 1, 1)
    assert as_tuples(got) == [(1, -3, 8), (1, -2, 3), (1, 0, -1), (1, 2, 3), (1, 3, 8)]


def test_empty_range():
    assert near_points(CurveKind.DEG11, 10, 5, 4) == []
    assert near_points(CurveKind.DEG22, 10, 5, 4) == []


def test_input_validation():
    with pytest.raises(ValueError):
        near_points(CurveKind.DEG11, 0, 1, 2)
    with pytest.raises(ValueError):
        near_points(CurveKind.DEG11, 10, 0, 2)


@pytest.mark.parametrize("kind", list(CurveKind))
@pytest.mark.parametrize("X", [1, 10, 100, 1000, 10000])
def test_oracle_equivalence(kind, X):
    fast = near_points(kind, X, 1, 30)
    assert fast == naive_near_points(kind, X, 1, 30)


def test_sign_symmetry_and_defect_integrity():
    points = near_points(CurveKind.DEG22, 10 ** 4, 1, 20)
    seen = {(p.x, p.y) for p in points}
    for p in points:
        assert p.y * p.y - p.kind.central(p.x) == p.k
        assert 1 <= abs(p.k) <= p.kind.band(10 ** 4)
        if p.y:
            assert (p.x, -p.y) in seen


def test_perfect_power_never_reported():
    # 2048^2 = 4^11 exactly: the zero defect must be skipped
    points = near_points(CurveKind.DEG11, 10 ** 4, 4, 4)
    assert all(p.y not in (2048, -2048) for p in points)
    assert all(p.k != 0 for p in points)


def test_regime_dissection_example():
    rep = exact_count(CurveKind.DEG11, 10, 2)
    assert (rep.small, rep.mid, rep.subunit) == (5, 0, 0)
    assert rep.total == 5


def test_subunit_regime_example():
    rep = exact_count(CurveKind.DEG11, 100, 10)
    assert rep.subunit == 2
    assert rep.total == sum((rep.small, rep.mid, rep.subunit))


def test_total_matches_enumeration():
    for kind in CurveKind:
        for X in (10, 1000):
            rep = exact_count(kind, X, 25)
            assert rep.total == len(near_points(kind, X, 1, 25))


def test_window_counts():
    assert exact_count(CurveKind.DEG11, 100, 10).subunit == 2
    assert exact_count(CurveKind.DEG11, 1, 50).subunit == 0
    # window empty when x_max sits at or below the cutoff
    assert exact_count(CurveKind.DEG11, 10 ** 4, 5).subunit == 0


def test_window_is_subunit_count():
    out = io.StringIO()
    argv = ["report", "--X", "1e10", "--N", "100", "--x-max", "100", "--format", "json"]
    assert dispatch(argv, out, io.StringIO()) == 0
    terms = json.loads(out.getvalue())["terms"]
    assert terms["e2_windowed"] == exact_count(CurveKind.DEG11, 10**10, 100).subunit == 20
    assert terms["e4_windowed"] == exact_count(CurveKind.DEG22, 10**10, 100).subunit == 2


@pytest.mark.parametrize("X, e2", [(420, 2), (421, 0)])
def test_subunit_tails_start_at_the_cutoffs(X, e2):
    # deg11 points are sub-unit once x^11 > X^2, deg22 points once x^11 > X.
    # With x <= 3: 3^11 = 177147 > 420^2 = 176400, but not > 421^2 = 177241,
    # and the deg11 points at x = 3 are y = +-421 (421^2 - 177147 = 94), so
    # the deg11 tail is 2 at X = 420 and 0 at X = 421.  The deg22 tail covers
    # x = 2 and 3 (2^11 = 2048 > X), but 5 * 2^22 = 20971520 and
    # 5 * 3^22 = 156905298045 have no square within 4X <= 1684 (the nearest
    # are 4279 and 210724 away), so it is 0 on both sides.
    e4 = exact_count(CurveKind.DEG22, X, 3).subunit
    assert (exact_count(CurveKind.DEG11, X, 3).subunit, e4) == (e2, 0)


def test_scan_ceiling_error():
    with pytest.raises(ResourceLimitError):
        near_points(CurveKind.DEG11, 10 ** 30, 1, 1, ceiling=10 ** 6)


@pytest.mark.parametrize("kind", list(CurveKind))
@pytest.mark.parametrize("X", [1, 2, 3, 10, 99, 100, 1000, 4096])
def test_exact_count_matches_oracle_by_regime(kind, X):
    # x <= 16 covers square x (x^11 a perfect square), y_lo == 0 and the
    # regime boundaries of every X listed
    rep = exact_count(kind, X, 16)
    assert (rep.small, rep.mid, rep.subunit) == naive_regime_counts(kind, X, 16)


# X at a regime boundary, where a regime top is an exact root, and X +- 1,
# each counted two abscissas past the boundary.  An off-by-one top moves an
# abscissa that holds points into the next regime in at least one X of each
# triple.  (At X = 9^11 itself the deg11 cutoff abscissa x = 9 holds no point:
# x^11 is the square of X, and its neighbouring squares are 2X +- 1 away.)
REGIME_EDGES = [
    (kind, X, x + 2)
    for kind, x, top in (
        (CurveKind.DEG11, 2, 2**10),  # 2X = x^11
        (CurveKind.DEG11, 9, 3**11),  # X^2 = x^11
        (CurveKind.DEG22, 1, 1),  # X = x^22
        (CurveKind.DEG22, 2, 2**22),
        (CurveKind.DEG22, 2, 2**11),  # X = x^11
        (CurveKind.DEG22, 3, 3**11),
    )
    for X in (top - 1, top, top + 1)
    if X >= 1
]


@pytest.mark.parametrize("kind, X, x_max", REGIME_EDGES)
def test_exact_count_at_the_regime_boundaries(kind, X, x_max):
    rep = exact_count(kind, X, x_max)
    if kind.band(X) <= 10**4:
        want = naive_regime_counts(kind, X, x_max)
    else:  # too wide a band for the defect scan: enumerate, classify naively
        want = [0, 0, 0]
        for pt in near_points(kind, X, 1, x_max):
            want[naive_regime(kind, X, pt.x)] += 1
        want = tuple(want)
    assert (rep.small, rep.mid, rep.subunit) == want


def test_exact_count_frozen_large_case():
    # confirmed once against the point-by-point enumeration (30.2M points)
    rep = exact_count(CurveKind.DEG11, 10 ** 12, 2000)
    assert (rep.small, rep.mid, rep.subunit) == (26609494, 3630432, 66)


def test_scan_ceiling_applies_to_enumeration_only():
    with pytest.raises(ResourceLimitError) as scanned:
        near_points(CurveKind.DEG11, 10 ** 30, 1, 3, ceiling=10 ** 6)
    assert str(scanned.value).startswith("x=1:")
    # the same band is counted in closed form: at x = 1, y in [0, 10^15]
    # (y = +-1 has defect 0), and x = 1 is the small regime
    assert exact_count(CurveKind.DEG11, 10 ** 30, 1) == (
        CurveKind.DEG11, 10 ** 30, 1, 2 * 10 ** 15 - 1, 0, 0
    )
    # X = 10, x = 1: y in [0, 3] is four candidates, exactly at a ceiling of 4
    assert len(near_points(CurveKind.DEG11, 10, 1, 1, ceiling=4)) == 5
    with pytest.raises(ResourceLimitError):
        near_points(CurveKind.DEG11, 10, 1, 1, ceiling=3)


def test_exact_count_input_validation():
    for X in (0, -5):
        with pytest.raises(ValueError):
            exact_count(CurveKind.DEG11, X, 2)
    assert exact_count(CurveKind.DEG22, 10, 0).total == 0


def test_near_point_is_plain_data():
    pt = NearPoint(CurveKind.DEG11, 3, 421, 94)
    assert pt.y * pt.y - pt.kind.central(pt.x) == 94
