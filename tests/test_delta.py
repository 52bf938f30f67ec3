import hashlib
import itertools
import math
import os
import pickle
import platform
import random
import subprocess
import sys
import tracemalloc
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, Rounded
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tausurvey import delta
from tausurvey.delta import (
    _EXACT,
    _PACK_BATCH,
    TauTable,
    _cube_series_square,
    _low_digits,
    _pack,
    _proven_widths,
    _repeat,
    _reslot,
    _square_low,
    _unpack,
    _width,
    delta_coefficients,
    jacobi_series,
    tau_parity,
    verify_deligne,
)
from tausurvey.errors import ResourceLimitError
from tausurvey.primes import cached_primes
from tausurvey.selftest import naive_delta_coefficients, naive_eta_power


def test_jacobi_small_orders():
    assert jacobi_series(3) == ((0, 1), (1, -3), (3, 5))
    assert jacobi_series(0) == ((0, 1),)


def test_jacobi_exponents_are_triangular():
    series = jacobi_series(10)
    assert 2 not in dict(series)
    exponents = [e for e, _ in series]
    assert exponents == sorted(set(exponents))  # strictly increasing
    for e, c in series:
        k = (math.isqrt(8 * e + 1) - 1) // 2
        assert k * (k + 1) // 2 == e
        assert abs(c) == 2 * k + 1


def test_jacobi_rejects_negative_order():
    with pytest.raises(ValueError):
        jacobi_series(-1)


def test_first_coefficients_match_brute_force():
    # frozen from the naive 24th-power product expansion
    table = delta_coefficients(5)
    assert table.coeffs == (1, -24, 252, -1472, 4830)


def test_matches_naive_product_oracle():
    table = delta_coefficients(500)
    assert list(table.coeffs) == naive_delta_coefficients(500)


# frozen from an independent base-2^b Kronecker implementation
CHECKSUM_10K = "d6180a22882a91fa71063c31d15d30e38617cdef173ec7c1e77a1b96be8dc032"


def table_digest(table):
    return hashlib.sha256("\n".join(map(str, table.coeffs)).encode()).hexdigest()


def test_frozen_checksum_10k(table10k):
    assert table_digest(table10k) == CHECKSUM_10K
    assert table10k.tau(10_000) == -482606811957501440000


def schoolbook_square(coeffs, max_exp):
    out = [0] * (max_exp + 1)
    for i, a in enumerate(coeffs):
        if i > max_exp:
            break
        for j, b in enumerate(coeffs[: max_exp + 1 - i]):
            out[i + j] += a * b
    return out


def square_truncated(coeffs, max_exp):
    """The square up to q^max_exp by _pack, _square_low and _unpack, at the
    width that bounds every slot of the full square."""
    low = coeffs[: max_exp + 1]  # terms above max_exp cannot reach the result
    w = _width(len(low) * max(map(abs, low)) ** 2)
    return _unpack(_square_low(_pack(low, w), w, max_exp + 1), w)


SQUARE_CASES = {
    "constant": [7],
    "negative constant": [-7],
    "one nonzero term": [0, 0, 0, -123456789, 0, 0],
    "all zeros": [0, 0, 0, 0],
    "leading and trailing zeros": [0, 0, 5, -3, 0, 9, 0, 0, 0],
    "all negative": [-(10**40), -1, -(10**39) - 7, -2, -(10**40)],
    "alternating extremes": [(-1) ** i * 10**40 for i in range(12)],
    "slot boundary": [10**40 - 1, -(10**40) + 1, 10**40 - 1],
    # The sign fold borrows from the slot above each negative one.
    "borrow through zeros": [1, 0, 0, -1],
    "negative constant then zeros": [-1, 0, 0, 0],
    "negative top slot": [0, -1],
    "all minus one": [-1] * 9,
    "negative power of ten": [3, -(10**20), 0, 10**20, -(10**20)],
    "negatives above a positive prefix": [2, 1, -3, -(10**30), -4],
}


@pytest.mark.parametrize("name", sorted(SQUARE_CASES))
def test_square_truncated_edge_cases(name):
    coeffs = SQUARE_CASES[name]
    before = list(coeffs)
    for max_exp in range(len(coeffs) + 2):  # below, at and past len - 1
        assert square_truncated(coeffs, max_exp) == schoolbook_square(coeffs, max_exp), max_exp
        assert coeffs == before  # the caller's list is left as it was


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(10**12), 10**12) | st.sampled_from([0, -1, 1, -(10**40)]), min_size=1, max_size=30),
    st.integers(0, 32),
)
def test_square_truncated_matches_schoolbook_hypothesis(coeffs, max_exp):
    before = list(coeffs)
    assert square_truncated(coeffs, max_exp) == schoolbook_square(coeffs, max_exp)
    assert coeffs == before


def test_square_truncated_matches_schoolbook_random():
    rng = random.Random(20090101)
    for trial in range(60):
        bound = 1 << rng.choice((1, 8, 64, 133))  # 2^133 > 10^40
        coeffs = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 40))]
        if trial % 3 == 0:
            coeffs = [0] * rng.randint(0, 3) + coeffs + [0] * rng.randint(0, 3)
        if trial % 5 == 0:
            coeffs = [-abs(c) for c in coeffs]
        for max_exp in {len(coeffs) - 1, rng.randrange(len(coeffs))}:
            got = square_truncated(coeffs, max_exp)
            assert got == schoolbook_square(coeffs, max_exp), (trial, max_exp)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**400), st.integers(0, 45), st.integers(-9, 9))
def test_low_digits_matches_string_tail(root, words, offset):
    # spans at, inside and past 19-digit word boundaries, and past the square
    span = max(1, 19 * words + offset)
    square = Decimal(root * root)
    low = _low_digits(square, span)
    assert low.as_tuple().exponent == 0
    assert low == int(str(square)[-span:])
    cut = Context(prec=span, Emax=MAX_EMAX, Emin=MIN_EMIN)
    cut.shift(square, 0)
    assert not any(cut.flags.values())  # exact: no Rounded, no Inexact


def kronecker_square(coeffs, max_exp):
    """Independent oracle for square_truncated: Kronecker substitution over
    Python ints in base 2^b, balanced digits read back through byte strings."""
    low = coeffs[: max_exp + 1]
    peak = max(map(abs, low))
    size = (2 * len(low) * peak * peak).bit_length() // 8 + 1  # bytes per slot
    b = 8 * size  # every product coefficient is below 2^(b - 1) in size

    def evaluate(cs):
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in cs), "little")

    value = evaluate([max(c, 0) for c in low]) - evaluate([max(-c, 0) for c in low])
    slots = max_exp + 1
    bias = evaluate([1 << (b - 1)] * slots)
    raw = ((value * value + bias) & ((1 << (b * slots)) - 1)).to_bytes(size * slots, "little")
    return [
        int.from_bytes(raw[i : i + size], "little") - (1 << (b - 1))
        for i in range(0, size * slots, size)
    ]


@pytest.mark.parametrize("length", [_PACK_BATCH - 1, _PACK_BATCH, _PACK_BATCH + 1,
                                    2 * _PACK_BATCH + 1, 3 * _PACK_BATCH + 7])
def test_square_truncated_across_batches(length):
    # Several pack batches joined, and an unpack that splits the low half.
    rng = random.Random(length)
    coeffs = [rng.randint(-(10**12), 10**12) for _ in range(length)]
    coeffs[length // 3 : length // 3 + 50] = [0] * 50
    coeffs[-1] = -abs(coeffs[-1]) - 1  # a negative top slot leaves a borrow
    before = list(coeffs)
    for max_exp in (length - 1, length // 2, length + 2):
        assert square_truncated(coeffs, max_exp) == kronecker_square(coeffs, max_exp), max_exp
    assert coeffs == before


@pytest.mark.parametrize("N", [4095, 4096, 4097, 8193, 12289])
def test_build_across_batches_matches_integer_oracle(N):
    # The re-slot joins pieces of unequal size once the first square is
    # split; the oracle squares twice over Python ints, at the general width.
    top = N - 1
    power = kronecker_square(kronecker_square(_cube_series_square(top), top), top)
    assert delta_coefficients(N).coeffs == tuple(power)


def evaluate_at_ten_power(coeffs, w):
    """sum c_k 10^(w k) as a Python int, by Horner's rule from the top."""
    value = 0
    for c in reversed(coeffs):
        value = value * 10**w + c
    return value


@pytest.mark.parametrize("slots", [1, 2, _PACK_BATCH - 1, _PACK_BATCH, _PACK_BATCH + 1,
                                   2 * _PACK_BATCH + 1, 3 * _PACK_BATCH + 7])
def test_reslot_widens_offset_slots(slots):
    rng = random.Random(slots)
    w1, w2 = 3, 5
    half = 10**w1 // 2
    coeffs = [rng.randrange(-half, half) for _ in range(slots)]
    coeffs[0], coeffs[-1] = -half, half - 1  # both ends of the slot range
    # the cut square's form: slots c + H, top slot first
    cut = Decimal("".join("%03d" % (c + half) for c in reversed(coeffs)))
    pending = [(cut, slots)]
    assert _reslot(pending, w1, w2) == evaluate_at_ten_power(coeffs, w2)
    assert pending == []


@pytest.mark.parametrize("at", [0, 1, _PACK_BATCH - 1, _PACK_BATCH, _PACK_BATCH + 1, -1])
def test_pack_raises_on_a_coefficient_outside_its_slot(at):
    w = 4
    half = 10**w // 2
    coeffs = [(-1) ** k * (k % half) for k in range(2 * _PACK_BATCH + 3)]
    for fits in (-half, half - 1):
        coeffs[at] = fits
        assert _pack(coeffs, w) == evaluate_at_ten_power(coeffs, w)
    for outside in (half, -half - 1, 10 * half, -(10**w)):
        coeffs[at] = outside
        with pytest.raises(OverflowError):
            _pack(coeffs, w)


def test_repeat_matches_string_repeat():
    for slot in ("5", "50", "0500", "5000000"):
        for count in list(range(70)) + [4095, 4096, 4097, 12289]:
            assert _repeat(slot, count) == Decimal(slot * count or "0"), (slot, count)


@pytest.fixture(scope="module")
def table100k():
    return delta_coefficients(100_000)


def divisor_counts(top):
    counts = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            counts[m] += 1
    return counts


def test_frozen_checksum_100k(table100k):
    # frozen from the build at general slot widths with borrow and carry passes
    assert table_digest(table100k) == "2343f75e9bf14df82f534cf260ddd1a538cec1bc5dd78f76d4a18aac3a45ef04"


def test_slot_bounds_hold_on_a_100k_table(table100k):
    # The two Deligne bounds _proven_widths rests on, in integers, for every
    # coefficient the two squarings of a 10^5 build read.
    N = table100k.N
    d = divisor_counts(2 * N)
    for n, t in table100k.iter_records():
        assert t * t <= d[n] ** 2 * n**11, n
        assert d[n] ** 2 <= 4 * n  # d(n) <= 2 sqrt(n)
    twelfth = square_truncated(_cube_series_square(N - 1), N - 1)
    for k, b in enumerate(twelfth):
        n = 2 * k + 1
        assert b * b <= d[n] ** 2 * n**5, k
    # so every slot read is within B1 = 2 (2N-1)^3 and B2 = 2 N^6
    assert max(map(abs, twelfth)) <= 2 * (2 * N - 1) ** 3
    assert max(map(abs, table100k.coeffs)) <= 2 * N**6


def check_proven_widths(orders, top):
    peaks = list(itertools.accumulate(map(abs, _cube_series_square(top)), max))
    for N in orders:
        w1, w2 = _proven_widths(N)
        assert w1 == _width(2 * (2 * N - 1) ** 3) and w2 == _width(2 * N**6) >= w1, N
        assert 2 * peaks[N - 1] < 10**w1, N  # prod^6 fits the first operand's slots
        yield N, (w1, w2)


def test_proven_widths_fit_the_first_operand():
    assert len(list(check_proven_widths(range(1, 2001), 1999))) == 2000
    found = dict(check_proven_widths([20_000, 100_000], 99_999))
    assert found[100_000] == (17, 31)


def test_proven_widths_at_the_series_cap():
    found = dict(check_proven_widths([1_000_000, 1_500_000], 1_499_999))
    # 38 digits put the second operand's square back in 3 * 2^21 words
    assert found[1_500_000] == (21, 38)
    assert found[1_000_000][1] == 37


def test_build_peak_memory_within_three_tables():
    # The build's transient peak, next to the table it leaves behind.
    tracemalloc.start()
    try:
        table = delta_coefficients(20_000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.N == 20_000
    assert peak <= 3 * kept, (peak, kept)


class _RecordingContext(Context):
    def __init__(self, events):
        super().__init__(prec=_EXACT.prec, Emax=_EXACT.Emax, Emin=_EXACT.Emin,
                         traps=[t for t, on in _EXACT.traps.items() if on])
        self.events = events

    def multiply(self, a, b):
        self.events.append("multiply")
        return super().multiply(a, b)


def test_heap_is_trimmed_before_each_square_and_the_unpack(monkeypatch):
    events = []
    monkeypatch.setattr(delta, "_EXACT", _RecordingContext(events))
    monkeypatch.setattr(delta, "_malloc_trim", lambda: lambda pad: events.append(("trim", pad)))
    assert delta_coefficients(5).coeffs == (1, -24, 252, -1472, 4830)
    # the last trim is the unpack's: nothing but the unpack follows it
    assert events == [("trim", 0), "multiply", ("trim", 0), "multiply", ("trim", 0)]


def test_build_without_malloc_trim_matches_frozen_checksum(monkeypatch):
    # as on a platform without glibc's malloc_trim
    monkeypatch.setattr(delta, "_malloc_trim", lambda: None)
    assert table_digest(delta_coefficients(10_000)) == CHECKSUM_10K


PEAK_PROBE = """
from tausurvey.delta import delta_coefficients

def status_kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

before = status_kib("VmRSS")
delta_coefficients({N})
print(status_kib("VmHWM") - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="malloc_trim and /proc/self/status are glibc and Linux only",
)
def test_build_peak_is_the_second_square_live_data():
    # The second square is the build's largest step: its operand of w2 * N
    # digits (19 to a word in a 64-bit libmpdec) and the three
    # number-theoretic transform buffers, each of the transform length n, the
    # least 2^k or 3 * 2^(k-1) that holds the 2 * words of the square.  On
    # Python 3.11.7 with glibc 2.36 the build reads 21.3-22.5 MiB, so about
    # 2 MiB of slack, and the bound leaves 1.5 MiB more.  Without the trim,
    # freed temporaries of the build stay resident under the transform, and
    # the same build reads 25.1-26.2 MiB.
    N = 200_000
    words = -(-_proven_widths(N)[1] * N // 19)
    n = 1 << (2 * words - 1).bit_length()
    if 3 * n // 4 >= 2 * words:
        n = 3 * n // 4
    live_mib = 8 * (words + 3 * n) / 2**20
    assert 20 < live_mib < 21  # 2.6 MiB operand, 3 * 6 MiB of transform
    src = str(Path(delta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    got = subprocess.run([sys.executable, "-c", PEAK_PROBE.format(N=N)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    peak_mib = int(got.stdout) / 1024
    assert peak_mib < live_mib + 3.5, (peak_mib, live_mib)


NAIVE_TOP = 2000
TRIANGULAR = [k * (k + 1) // 2 for k in range(64)]
# Orders N at the triangular boundaries of the sparse pair loop: T_k, T_k +- 1,
# 2 T_k and 2 T_k +- 1, each with top = N - 1.
BOUNDARY_TOPS = sorted(
    {n - 1 for t in TRIANGULAR for n in (t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1)
     if 1 <= n <= NAIVE_TOP + 1}
)


@pytest.fixture(scope="module")
def naive_sixth_power():
    return naive_eta_power(6, NAIVE_TOP)


def test_cube_series_square_matches_dense_and_naive(naive_sixth_power):
    for top in sorted(set(range(60)) | set(BOUNDARY_TOPS)):
        dense = [0] * (top + 1)
        for e, c in jacobi_series(top):
            dense[e] = c
        sparse = _cube_series_square(top)
        assert sparse == square_truncated(dense, top), top
        assert sparse == naive_sixth_power[: top + 1], top


def test_exact_context_traps_rounding():
    assert _EXACT.traps[Inexact] and _EXACT.traps[Rounded]
    narrow = _EXACT.copy()
    narrow.prec = 5  # same traps, but a product that no longer fits
    assert narrow.multiply(Decimal(1234), Decimal(7)) == 8638
    with pytest.raises((Inexact, Rounded)):
        narrow.multiply(Decimal(123456), Decimal(7))


def test_table_indexing():
    table = delta_coefficients(10)
    assert table.tau(1) == 1
    with pytest.raises(ValueError):
        table.tau(0)
    with pytest.raises(ValueError):
        table.tau(11)


def test_table_constructor_validates():
    with pytest.raises(ValueError):
        TauTable(3, (1, -24))
    table = delta_coefficients(30)
    with pytest.raises(ValueError):
        table._replace(coeffs=table.coeffs[:-1])
    assert table._replace(N=3, coeffs=table.coeffs[:3]) == TauTable(3, (1, -24, 252))
    assert pickle.loads(pickle.dumps(table)) == table


def test_series_ceiling():
    with pytest.raises(ResourceLimitError):
        delta_coefficients(1001, series_max=1000)


def test_parity_rule():
    assert tau_parity(9)
    assert not tau_parity(2)
    assert tau_parity(25)
    assert not tau_parity(16)
    with pytest.raises(ValueError):
        tau_parity(0)


def test_parity_agrees_with_table(table500):
    for n, t in table500.iter_records():
        assert (t % 2 == 1) == tau_parity(n)


def test_multiplicativity_on_table(table500):
    for m in range(2, 23):
        for n in range(m + 1, 500 // m + 1):
            if math.gcd(m, n) == 1 and m * n <= 500:
                assert table500.tau(m * n) == table500.tau(m) * table500.tau(n)


def test_prime_square_relation(table500):
    for p in cached_primes(22):
        assert table500.tau(p * p) == table500.tau(p) ** 2 - p ** 11


def test_deligne_clean(table500):
    assert verify_deligne(table500) == []
    # frozen single-prime checks
    assert (-24) ** 2 == 576 <= 4 * 2 ** 11 == 8192
    assert 252 ** 2 == 63504 <= 4 * 3 ** 11 == 708588


def test_deligne_planted_violation(table500):
    coeffs = list(table500.coeffs)
    coeffs[1] = 10 ** 6  # fake tau(2)
    fake = TauTable(table500.N, tuple(coeffs))
    assert verify_deligne(fake) == [(2, 10 ** 6)]

