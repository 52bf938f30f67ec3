import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tausurvey import abctriples, primes
from tausurvey.abctriples import (
    DEFAULT_BUDGET,
    TRIAL_LIMIT,
    abc_check,
    from_near_point,
    make_triple,
    radical_budgeted,
)
from tausurvey.curves import CurveKind, NearPoint
from tausurvey.primes import TRIAL_FIRST_STAGE, factor_trial, is_prime
from tausurvey.selftest import RADICAL_EDGES, abc_output_pair, naive_radical


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


class _MapStep(int):
    """An int that counts every addition it takes part in.

    Drawn as the rho constant c, it counts the steps of y -> y*y + c (the
    walk adds c once per step and nowhere else); drawn as the start y, it
    adds nothing, since y*y is a plain int.
    """

    steps = 0

    def __add__(self, other):
        _MapStep.steps += 1
        return int(self) + int(other)

    __radd__ = __add__


class _CountingRandom(random.Random):
    def randrange(self, *args):
        return _MapStep(super().randrange(*args))


@pytest.mark.parametrize("budget", [1_000, 50_000, 200_000])
def test_rho_takes_at_most_budget_map_steps(budget):
    # Both primes near 1e12: rho needs about 1e6 steps, past every budget here.
    p = _next_prime(10**12)
    q = _next_prime(10**12 + 10**6)
    _MapStep.steps = 0
    factor, used = abctriples._rho_brent(p * q, _CountingRandom(0), budget)
    assert factor is None
    assert _MapStep.steps == used == budget


def test_rho_map_step_counter_sees_every_step():
    # Walk y -> y*y + c by hand with a counted c, and check the count.
    c = _MapStep(7)
    _MapStep.steps = 0
    y = 3
    for _ in range(10):
        y = (y * y + c) % 1_000_003
    assert _MapStep.steps == 10
    assert type(y) is int


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


# ------------------------- square peel equivalence -------------------------


def reference_radical(n, budget=DEFAULT_BUDGET, seed=0):
    """radical_budgeted as it was before the square peel: trial division of n itself."""
    if n == 1:
        return 1, True
    exponents, cofactor = factor_trial(n, TRIAL_LIMIT)
    found = set(exponents)
    stubborn = set()
    if cofactor > 1:
        rng = random.Random(seed)
        remaining = budget
        stack = [abctriples._peel_perfect_power(cofactor)]
        while stack:
            m = stack.pop()
            if m in found:
                continue
            if is_prime(m):
                found.add(m)
                continue
            factor, used = abctriples._rho_brent(m, rng, remaining)
            remaining -= used
            if factor is None:
                stubborn.add(m)
                continue
            stack.append(abctriples._peel_perfect_power(factor))
            stack.append(abctriples._peel_perfect_power(m // factor))
    return math.prod(found) * math.prod(stubborn), not stubborn


BUDGETS = st.sampled_from([0, 50, DEFAULT_BUDGET])


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**24), BUDGETS, st.integers(0, 3))
def test_peel_matches_reference_on_random_n(n, budget, seed):
    assert radical_budgeted(n, budget, seed) == reference_radical(n, budget, seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.sampled_from([2, 4]), BUDGETS)
def test_peel_matches_reference_on_squares_and_fourth_powers(r, k, budget):
    assert radical_budgeted(r**k, budget) == reference_radical(r**k, budget)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=TRIAL_LIMIT + 1, max_value=10**9),
    st.integers(min_value=TRIAL_LIMIT + 1, max_value=10**9),
    st.integers(min_value=1, max_value=30),
    BUDGETS,
)
def test_peel_matches_reference_on_squared_large_semiprimes(p, q, small, budget):
    # Both primes beyond trial division, so the cofactor goes to rho (and
    # resists it at budget 0) on either path.
    p, q = _next_prime(p), _next_prime(q)
    n = (small * p * q) ** 2
    assert radical_budgeted(n, budget) == reference_radical(n, budget)


def test_peel_keeps_a_stubborn_square_root():
    n = 1000003 * 1000033
    assert radical_budgeted(n**2, budget=0) == reference_radical(n**2, budget=0) == (n, False)
    assert radical_budgeted(n**4) == (n, True)


# ------------------------- primorial gcd edges -------------------------

# Legs whose rest after the primorial gcd is at or above TRIAL_FIRST_STAGE^2,
# so they must still reach factor_trial; RHO_EDGES also reach rho, where two
# primes past TRIAL_LIMIT resist a budget of 0.
RHO_EDGES = {1_000_003 * 1_000_033, 6 * 4093**5 * 1_000_003 * 1_000_033}
ROUGH_EDGES = RHO_EDGES | {
    4093 * 4099 * 4111, 4099 * 4111, 16_777_259, 4099 * 4111 * 1_000_003,
    2**40 * 4093**2 * 16_777_259, 1_000_003**3,
}


@pytest.mark.parametrize("n", sorted(set(RADICAL_EDGES) | ROUGH_EDGES))
def test_primorial_gcd_on_edge_legs(n, monkeypatch):
    reached = set()
    for name in ("factor_trial", "_rho_brent"):
        real = getattr(abctriples, name)
        monkeypatch.setattr(abctriples, name, lambda *a, _f=real, _name=name: reached.add(_name) or _f(*a))
    paths = {"factor_trial"} if n in ROUGH_EDGES else set()
    paths |= {"_rho_brent"} if n in RHO_EDGES else set()
    want = naive_radical(n)
    for budget in (0, DEFAULT_BUDGET):
        reached.clear()
        got = radical_budgeted(n, budget)
        assert reached == paths
        assert got == reference_radical(n, budget)
        assert got == (want, budget > 0 or n not in RHO_EDGES)


# Legs past TRIAL_FIRST_STAGE^2 whose primes above TRIAL_FIRST_STAGE all lie
# within trial division, so factor_trial completes each radical alone.
TRIAL_LEGS = (
    4099 * 4111, 4099**3, 2**5 * 4099 * 999_983, 3 * 4127 * 7919 * 999_979,
    4093**2 * 8191 * 65_537, 999_979 * 999_983, 1_000_000 * 4099**2 * 524_287,
)


@pytest.mark.parametrize("n", TRIAL_LEGS)
def test_radical_trial_division_starts_past_the_primorial(n, monkeypatch):
    asked = []  # the `above` of every range of primes factor_trial asks for
    real = primes.cached_primes
    monkeypatch.setattr(primes, "cached_primes", lambda top, above=0: asked.append(above) or real(top, above))
    assert radical_budgeted(n) == (naive_radical(n), True)
    assert asked and min(asked) >= TRIAL_FIRST_STAGE, asked


# ---------------------- abc records, one per mirror pair ----------------------


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("budget", [0, DEFAULT_BUDGET])
@pytest.mark.parametrize(
    "kind, X, x_max", [(CurveKind.DEG11, 10**5, 8), (CurveKind.DEG22, 10**4, 6)]
)
def test_abc_output_matches_per_point_oracle(kind, X, x_max, budget, fmt):
    got, want = abc_output_pair(kind, X, x_max, fmt=fmt, budget=budget, epsilon=0.5)
    # Compared as lists: pytest's diff of two long unequal strings is very slow.
    assert got.splitlines() == want.splitlines()
    assert len(want.splitlines()) > 100


def test_abc_mirror_points_share_one_triple(monkeypatch):
    built = []
    real = abctriples.from_near_point

    def counting(pt, **kwargs):
        built.append((pt.x, pt.k))
        return real(pt, **kwargs)

    monkeypatch.setattr(abctriples, "from_near_point", counting)
    got, want = abc_output_pair(CurveKind.DEG11, 1000, 6)
    assert got.splitlines() == want.splitlines()
    assert len(built) == len(set(built))
    assert 2 * len(built) == got.count("\n")


def test_naive_radical():
    assert [naive_radical(n) for n in (1, 2, 8, 12, 49, 118722, 1009**2)] == [
        1, 2, 2, 6, 7, 118722, 1009,
    ]
