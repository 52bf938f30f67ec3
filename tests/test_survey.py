import pytest

from tausurvey.delta import TauTable, delta_coefficients
from tausurvey.hecke import tau_of
from tausurvey.primes import PrimalityVerdict, classify_prime, sieve_primes
from tausurvey.survey import (
    layer_window,
    omitted_values_check,
    reduction_report,
    survey,
    survey_layer,
)

LEHMER = 80561663527802406257321747


def test_verdict_examples():
    assert classify_prime(937) is PrimalityVerdict.PRIME
    assert classify_prime(113643) is PrimalityVerdict.COMPOSITE
    assert classify_prime(LEHMER) is PrimalityVerdict.PROBABLE_PRIME
    assert classify_prime(1) is PrimalityVerdict.COMPOSITE
    with pytest.raises(ValueError):
        classify_prime(0)


def test_no_false_composites_below_sieve():
    primes = sieve_primes(1000000)
    for p in primes:
        assert classify_prime(p) is PrimalityVerdict.PRIME, p
    flags = bytearray(100001)
    for p in primes:
        if p <= 100000:
            flags[p] = 1
    for n in range(2, 100001):
        got = classify_prime(n) is not PrimalityVerdict.COMPOSITE
        assert got == bool(flags[n]), n


def test_strong_pseudoprimes_caught():
    # classic base-2 strong pseudoprimes must still come out composite
    for n in (2047, 3277, 4033, 121, 703):
        assert classify_prime(n) is PrimalityVerdict.COMPOSITE


def test_layer_window_values():
    assert layer_window(1, 10 ** 6) == 4
    assert layer_window(1, 10 ** 26) == 256
    assert layer_window(1, 1) == 2


def test_layer_empty_cases(table10k):
    assert survey_layer(1, 10 ** 6, table10k).records == ()
    assert survey_layer(1, 1, table10k).records == ()


def test_layer_finds_lehmer(table10k):
    layer = survey_layer(1, 10 ** 26, table10k)
    assert not layer.truncated
    hits = [r for r in layer.records if r.ell == LEHMER]
    assert len(hits) == 1
    rec = hits[0]
    assert rec.p == 251 and rec.m == 1 and rec.sign == -1
    assert rec.verdict is PrimalityVerdict.PROBABLE_PRIME
    assert rec.ordinary is None  # tau(ell) not computable at this size


def test_layer_truncation_flag():
    small = delta_coefficients(50)
    layer = survey_layer(1, 10 ** 26, small)
    assert layer.truncated
    assert layer.p_window == 256


def test_record_invariants(table10k):
    for m in (1, 2):
        for rec in survey_layer(m, 10 ** 30, table10k).records:
            assert rec.ell % 2 == 1
            assert rec.m == m
            assert tau_of(rec.p ** (2 * rec.m), table10k) == rec.sign * rec.ell


def test_survey_counts(table10k):
    assert survey(10 ** 6, table10k).count == 0
    rep = survey(10 ** 26, table10k)
    assert rep.count >= 1 and LEHMER in rep.primes
    assert survey(3, table10k).count == 0
    with pytest.raises(ValueError):
        survey(2, table10k)


def test_survey_monotone_in_x(table10k):
    small = set(survey(10 ** 24, table10k).primes)
    large = set(survey(10 ** 27, table10k).primes)
    assert small <= large


def test_survey_dedupes_across_layers(table10k):
    rep = survey(10 ** 26, table10k)
    union = set()
    for layer in rep.layers:
        union |= layer.primes
    assert sorted(union) == list(rep.primes)
    assert rep.windowed
    assert "lower bound" in rep.caveat


def test_comparison_terms(table10k):
    rep = survey(10 ** 6, table10k)
    assert abs(rep.terms["x_13_22"] - (10 ** 6) ** (13 / 22)) < 1e-6
    assert abs(rep.terms["x_6_11"] - 1873.8174) < 1e-3
    assert abs(rep.terms["x_9_10_log_x"] - (10 ** 5.4) * 13.815510557964274) < 1.0


def test_omitted_values_clean(table10k):
    assert omitted_values_check(table10k) == []


def test_omitted_values_planted(table500):
    coeffs = list(table500.coeffs)
    coeffs[49] = 691  # fake tau(50)
    fake = TauTable(table500.N, tuple(coeffs))
    assert omitted_values_check(fake) == [(50, 691)]


def test_omitted_exempts_tau_of_one():
    tiny = TauTable(1, (1,))
    assert omitted_values_check(tiny) == []


def test_reduction_report(table10k):
    rep = reduction_report(10 ** 6, table10k, 10)
    assert rep.e2_windowed >= 0 and rep.e4_windowed >= 0
    assert rep.x_max == 10
    assert rep.survey.count == 0
    assert set(rep.survey.terms) == {"x_9_10_log_x", "x_13_22", "x_6_11"}
