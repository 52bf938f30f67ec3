import math
import random

import pytest

from tausurvey.abctriples import (
    abc_check,
    from_near_point,
    make_triple,
    radical_budgeted,
)
from tausurvey.curves import CurveKind, NearPoint


def test_triple_from_prime_defect_point():
    t = make_triple(3 ** 11, 94)
    assert (t.a, t.b, t.c, t.d) == (177147, 94, 177241, 1)
    assert (t.a1, t.b1, t.c1) == (177147, 94, 177241)
    assert t.rad == 3 * 2 * 47 * 421 == 118722
    assert t.rad_complete
    assert abs(t.quality - 1.0343) < 1e-3


def test_triple_from_937_point():
    t = from_near_point(NearPoint(CurveKind.DEG11, 3, 422, 937))
    assert (t.a, t.b, t.c, t.d) == (177147, 937, 178084, 1)


def test_normalization():
    t = make_triple(4, 4)
    assert t.d == 4
    assert (t.a1, t.b1, t.c1) == (1, 1, 2)
    assert t.rad == 2 and t.quality == 1.0


def test_normalization_idempotent():
    t = make_triple(3 ** 11, -747)
    again = make_triple(t.a1, t.b1)
    assert (again.a1, again.b1, again.c1) == (t.a1, t.b1, t.c1)
    assert again.d == 1


def test_sum_preserved_and_coprime():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(1, 10 ** 6)
        b = rng.randint(-(10 ** 6), 10 ** 6)
        if b == 0 or a + b == 0:
            continue
        t = make_triple(a, b)
        assert t.a1 + t.b1 == t.c1
        assert t.d * t.a1 == t.a and t.d * t.b1 == t.b and t.d * t.c1 == t.c
        assert math.gcd(abs(t.a1), abs(t.b1)) == 1


def test_from_near_point_rejects_degenerate():
    with pytest.raises(ValueError):
        from_near_point(NearPoint(CurveKind.DEG11, 1, 0, -1))


def test_radical_examples():
    assert radical_budgeted(8) == (2, True)
    assert radical_budgeted(177147) == (3, True)
    assert radical_budgeted(118722) == (118722, True)
    assert radical_budgeted(1) == (1, True)


def test_radical_divides_and_squarefree():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 10 ** 9)
        rad, complete = radical_budgeted(n)
        assert complete
        assert n % rad == 0
        for p in range(2, 200):
            assert rad % (p * p) != 0 or not complete


def test_radical_budget_exhaustion():
    n = 1000003 * 1000033  # both prime, beyond trial division
    rad, complete = radical_budgeted(n, budget=0)
    assert not complete
    assert rad == n  # unfactored cofactor reported as-is (upper bound)
    rad, complete = radical_budgeted(n, budget=10 ** 6)
    assert complete
    assert rad == n  # squarefree, so the true radical is n itself


def test_radical_deterministic_seed():
    n = 1000003 * 1000033 * 7
    assert radical_budgeted(n, seed=5) == radical_budgeted(n, seed=5)


def test_quality_examples():
    assert make_triple(1, 1).quality == 1.0
    t = make_triple(1, 8)
    assert t.rad == 6
    assert abs(t.quality - math.log(9) / math.log(6)) < 1e-12
    assert abs(t.quality - 1.2263) < 1e-3


def test_quality_absent_when_incomplete():
    t = make_triple(1000003 * 1000033, 1, budget=0)
    assert not t.rad_complete
    assert t.quality is None
    with pytest.raises(ValueError):
        abc_check(t, 0.5, 1.0)


def test_abc_check_examples():
    assert abc_check(make_triple(1, 1), 1.0, 1.0)  # 2 <= 4
    assert abc_check(make_triple(3 ** 11, 94), 0.1, 1.0)  # 177241 <= 118722^1.1
    assert not abc_check(make_triple(1, 8), 0.01, 1.0)  # 9 > 6^1.01


def test_abc_check_validates():
    t = make_triple(1, 1)
    with pytest.raises(ValueError):
        abc_check(t, -1.0, 1.0)
    with pytest.raises(ValueError):
        abc_check(t, 0.5, 0.0)


def test_quality_bound_coherence():
    rng = random.Random(2024)
    for _ in range(300):
        a = rng.randint(1, 10 ** 4)
        b = rng.randint(1, 10 ** 4)
        t = make_triple(a, b)
        for eps in (0.01, 0.1, 0.5, 1.0):
            if t.quality is not None and t.quality <= 1 + eps:
                assert abc_check(t, eps, 1.0)
