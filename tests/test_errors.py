"""The one domain rule, errors._check: its wording, and every float field
of the model's value classes checked through it."""

import math
from dataclasses import fields, replace

import pytest

from gapdyn import (
    Ar1,
    DsgeBlockParams,
    DsgePoint,
    Impulse,
    InvariantViolation,
    ObservedSeries,
    OscillatorParams,
    OscState,
    PhysicalOscillator,
    ScenarioConfig,
    TimeGrid,
    WhiteNoise,
)
from gapdyn.errors import _check

# One valid instance of every class that holds float fields.
_VALID = [
    OscillatorParams(gamma=0.5, alpha=2.0),
    PhysicalOscillator(m=1.0, c=0.5, k=2.0),
    OscState(y=1.0, ydot=0.0),
    Impulse(),
    WhiteNoise(),
    Ar1(),
    TimeGrid(t0=0.0, dt=0.1, n_steps=3),
    ScenarioConfig(),
    DsgeBlockParams(beta=0.99, sigma_c=2.0, theta=0.3, a_tfp=1.0),
    DsgePoint(c=1.2, l=0.5, b=0.5, b_next=0.4, r=0.03, w=1.1, n=0.9, k=2.0,
              y=1.3, p=1.0, r_k=0.05),
    ObservedSeries(dt=0.1, values=[1.0, 0.5]),
]

_FLOAT_FIELDS = [
    (obj, f.name) for obj in _VALID for f in fields(obj) if f.type == "float"
]


# An int past the float range is not finite either.
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "int"])
@pytest.mark.parametrize(
    "obj, name", _FLOAT_FIELDS, ids=[f"{type(o).__name__}.{n}" for o, n in _FLOAT_FIELDS]
)
def test_non_finite_field_is_worded_once(obj, name, value):
    with pytest.raises(InvariantViolation) as excinfo:
        replace(obj, **{name: value})
    assert str(excinfo.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("kwargs, value, text", [
    ({}, -math.inf, "x must be finite, got -inf"),
    ({"low": 0}, -1.0, "x must be >= 0, got -1.0"),
    ({"low": 0.0, "low_strict": True}, 0.0, "x must be > 0.0, got 0.0"),
    ({"high": 1}, 2.0, "x must be <= 1, got 2.0"),
    ({"high": 1.0, "high_strict": True}, 1.0, "x must be < 1.0, got 1.0"),
], ids=["finite", "low-closed", "low-open", "high-closed", "high-open"])
def test_check_words_each_bound(kwargs, value, text):
    with pytest.raises(InvariantViolation) as excinfo:
        _check("x", value, **kwargs)
    assert str(excinfo.value) == text


def test_check_accepts_a_closed_bound_and_the_interior():
    _check("x", 0.0, low=0)
    _check("x", 1.0, high=1)
    _check("x", 0.5, low=0, low_strict=True, high=1, high_strict=True)
