"""The record and report types are immutable NamedTuples: value equality,
hashing where every field hashes, no attribute assignment, _replace."""

import pytest

from tausurvey.abctriples import make_triple
from tausurvey.curves import CurveKind, exact_count, near_points
from tausurvey.delta import delta_coefficients
from tausurvey.satotate import angle, angles_from_table, heuristic_prediction, st_histogram
from tausurvey.survey import survey

LEHMER_X = 10**26  # layer 1 holds |tau(251^2)|, so it has a record


def _survey():
    return survey(LEHMER_X, delta_coefficients(300))


# name -> (builder of a fresh value, whether the value hashes).  The survey
# reports hold their terms in a dict, so they compare but do not hash.
BUILDERS = {
    "TauTable": (lambda: delta_coefficients(30), True),
    "NearPoint": (lambda: near_points(CurveKind.DEG11, 100, 1, 4)[0], True),
    "RegimeReport": (lambda: exact_count(CurveKind.DEG11, 100, 4), True),
    "AbcTriple": (lambda: make_triple(1, 8), True),
    "SurveyRecord": (lambda: _survey().layers[0].records[0], True),
    "SurveyLayer": (lambda: _survey().layers[0], True),
    "SurveyReport": (_survey, False),
    "AngleSample": (lambda: angle(3, 252), True),
    "Histogram": (lambda: st_histogram(angles_from_table(delta_coefficients(300)), 4), True),
    "HeuristicPrediction": (lambda: heuristic_prediction(1e22, 3), True),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_record_is_an_immutable_value(name):
    build, hashable = BUILDERS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and isinstance(a, tuple)
    assert a is not b and a == b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    assert a._replace() == a and type(a._replace()) is type(a)
