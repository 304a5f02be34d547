"""The record classes: construction, immutability, repr, equality, pickling.

Records that validate their fields are ``__slots__`` classes on a common
immutable base; results that only hold data are NamedTuples, which also
compare equal to plain tuples of their values.
"""

import pickle

import numpy as np
import pytest

from divbounds import (
    AugmentedDensityBounds,
    CurvePoint,
    DensityBounds,
    DiscreteDistribution,
    FuzzReport,
    GammaSearchResult,
    Gaussian1D,
    GaussianND,
    ProjectionSearchResult,
    SandwichReport,
    StiefelFrame,
)
from divbounds.oracle import FuzzMargin, SandwichViolation

_REPORT = SandwichReport(
    poly_lb=0.1, vajda_lb=0.2, divergence=0.3, upper=0.4, all_hold=True
)
_MARGIN = FuzzMargin(value=0.5, p=(0.5, 0.5), q=(0.25, 0.75))
_FRAME = dict(v=np.array([[0.6, 0.8]]), b=np.array([1.5]))

# name -> (class, constructor arguments by keyword, equal by value)
RECORDS = {
    "DiscreteDistribution": (DiscreteDistribution, dict(probs=[0.25, 0.75]), False),
    "Gaussian1D": (Gaussian1D, dict(mu=0.5, sigma2=2.0), True),
    "GaussianND": (GaussianND, dict(nu=np.zeros(2), sigma=np.eye(2)), False),
    "DensityBounds": (DensityBounds, dict(m=0.5, M=2.0), True),
    "CurvePoint": (CurvePoint, dict(t=1.0, delta=0.6, l_value=0.2), True),
    "GammaSearchResult": (GammaSearchResult, dict(gamma_star=-0.1, value=0.2), True),
    "AugmentedDensityBounds": (
        AugmentedDensityBounds,
        dict(emb=DensityBounds(0.5, 2.0), proj=DensityBounds(0.25, 4.0)),
        True,
    ),
    "SandwichReport": (SandwichReport, _REPORT.as_dict(), True),
    "SandwichViolation": (
        SandwichViolation, dict(p=(0.5, 0.5), q=(0.25, 0.75), report=_REPORT), True,
    ),
    "FuzzReport": (
        FuzzReport,
        dict(
            violations=(),
            vajda_minus_poly=_MARGIN, kl_minus_vajda=_MARGIN, upper_minus_kl=_MARGIN,
        ),
        True,
    ),
    "StiefelFrame": (StiefelFrame, _FRAME, False),
    "ProjectionSearchResult": (
        ProjectionSearchResult,
        dict(
            best_frame=StiefelFrame(**_FRAME), best_value=0.1, n_samples=5,
            witness=Gaussian1D(1.5, 1.0),
        ),
        False,
    ),
}


def _build(name):
    cls, kwargs, _ = RECORDS[name]
    return cls(**kwargs), cls(*kwargs.values())


@pytest.mark.parametrize("name", RECORDS)
def test_construction_by_keyword_and_by_position(name):
    by_keyword, by_position = _build(name)
    assert type(by_keyword) is type(by_position) is RECORDS[name][0]
    assert repr(by_keyword) == repr(by_position)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, _ = _build(name)
    field = next(iter(RECORDS[name][1]))
    if name == "DiscreteDistribution":
        field = "_probs"  # ``probs`` is a property that builds an array
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_fields(name):
    record, _ = _build(name)
    text = repr(record)
    assert text.startswith(f"{name}(")
    for field in RECORDS[name][1]:
        assert f"{field}=" in text


@pytest.mark.parametrize("name", [n for n, (_, _, by_value) in RECORDS.items() if by_value])
def test_value_records_compare_and_hash_by_value(name):
    a, b = _build(name)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "name", [n for n, (_, _, by_value) in RECORDS.items() if not by_value]
)
def test_array_records_equal_only_themselves(name):
    a, b = _build(name)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record, _ = _build(name)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert repr(back) == repr(record)
    if RECORDS[name][2]:
        assert back == record


def test_records_of_different_classes_differ():
    assert Gaussian1D(0.5, 2.0) != DensityBounds(0.5, 2.0)


def test_named_tuple_records_equal_plain_tuples():
    assert CurvePoint(1.0, 0.6, 0.2) == (1.0, 0.6, 0.2)
    assert DensityBounds(0.5, 2.0) != (0.5, 2.0)
