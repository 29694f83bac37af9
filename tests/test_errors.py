"""The one domain rule, errors._check: its wording, and every float field
of the model's value classes checked through it; its integer twin,
errors._check_int; and its array twin, errors._check_array, with every
array input checked through it."""

import math
import os
from dataclasses import fields, replace

import numpy as np
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
    Trajectory,
    WhiteNoise,
    integrate_euler,
    integrate_rk4,
    write_svg,
)
from gapdyn.errors import _check, _check_int
from gapdyn.integrate import integrate_batch
from gapdyn.shocks import standard_normals

# One valid instance of every class that holds float fields.
_VALID = [
    OscillatorParams(gamma=0.5, alpha=2.0),
    PhysicalOscillator(m=1.0, c=0.5, k=2.0),
    OscState(y=1.0, ydot=0.0),
    Impulse(),
    WhiteNoise(),
    Ar1(),
    TimeGrid(dt=0.1, n_steps=3),
    ScenarioConfig(),
    DsgeBlockParams(beta=0.99, sigma_c=2.0, theta=0.3, a_tfp=1.0),
    DsgePoint(c=1.2, b=0.5, b_next=0.4, r=0.03, w=1.1, n=0.9, k=2.0,
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


# bool is a subclass of int, yet True is not a number a model reads.
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "obj, name", _FLOAT_FIELDS, ids=[f"{type(o).__name__}.{n}" for o, n in _FLOAT_FIELDS]
)
def test_bool_field_is_refused(obj, name, value):
    with pytest.raises(InvariantViolation) as excinfo:
        replace(obj, **{name: value})
    assert str(excinfo.value) == f"{name} must be a number, got {value!r}"


# The integer inputs; the float fields are in the table above.
@pytest.mark.parametrize("call, text", [
    (lambda: TimeGrid(0.1, True), "n_steps must be an integer >= 1, got True"),
    (lambda: WhiteNoise(0.1, seed=True),
     "seed must be an integer in [0, 18446744073709551616), got True"),
    (lambda: Ar1(seed=False), "seed must be an integer in [0, 18446744073709551616), got False"),
    (lambda: standard_normals(True, True),
     "seed must be an integer in [0, 18446744073709551616), got True"),
    (lambda: standard_normals(0, True), "n must be an integer >= 0, got True"),
], ids=["TimeGrid", "WhiteNoise", "Ar1", "standard_normals.seed", "standard_normals.n"])
def test_bool_is_not_an_integer(call, text):
    with pytest.raises(InvariantViolation) as excinfo:
        call()
    assert str(excinfo.value) == text


@pytest.mark.parametrize("value, high, text", [
    (0, None, "x must be an integer >= 1, got 0"),
    (1.0, None, "x must be an integer >= 1, got 1.0"),
    (True, None, "x must be an integer >= 1, got True"),
    (2**64, 2**64, "x must be an integer in [1, 18446744073709551616), got 18446744073709551616"),
], ids=["low", "float", "bool", "high"])
def test_check_int_words_each_bound(value, high, text):
    with pytest.raises(InvariantViolation) as excinfo:
        _check_int("x", value, 1, high)
    assert str(excinfo.value) == text


def test_check_int_accepts_both_ends():
    _check_int("x", 1, 1)
    _check_int("x", 2**64 - 1, 1, 2**64)


_GRID = TimeGrid(dt=0.1, n_steps=3)
_NODES = [0.0, 0.5, 1.0]
_PARAMS = OscillatorParams(gamma=0.5, alpha=2.0)
_INIT = OscState(y=1.0, ydot=0.0)


def _trajectory(field):
    return lambda values: Trajectory(
        _GRID, **{"y": _NODES, "ydot": _NODES, "forcing": _NODES, field: values}
    )


# Every array input: (id, the name its message uses, the entries it must
# have or None for "at least 2", a call that passes the values to it).
_ARRAY_INPUTS = [
    ("Trajectory.y", "y", 3, _trajectory("y")),
    ("Trajectory.ydot", "ydot", 3, _trajectory("ydot")),
    ("Trajectory.forcing", "forcing", 3, _trajectory("forcing")),
    ("integrate_euler", "forcing", 3, lambda v: integrate_euler(_PARAMS, _INIT, v, _GRID)),
    ("integrate_rk4", "forcing", 3, lambda v: integrate_rk4(_PARAMS, _INIT, v, _GRID)),
    ("integrate_batch", "forcing", 3,
     lambda v: integrate_batch([_PARAMS], _INIT, v, _GRID, "rk4")),
    ("ObservedSeries.values", "values", None, lambda v: ObservedSeries(dt=0.1, values=v)),
    ("write_svg.times", "times", None, lambda v: write_svg(os.devnull, v, [("a", _NODES)])),
    ("write_svg.series", "series 'a'", 3, lambda v: write_svg(os.devnull, _NODES, [("a", v)])),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "short", "2-d"])
@pytest.mark.parametrize(
    "name, size, call", [case[1:] for case in _ARRAY_INPUTS], ids=[c[0] for c in _ARRAY_INPUTS]
)
def test_bad_array_is_worded_once(name, size, call, bad):
    want = size if size is not None else "at least 2"
    short = (size or 2) - 1
    values, text = {
        "nan": ([0.0, math.nan, 1.0], f"{name} must be finite, got nan at index 1"),
        "inf": ([0.0, 0.5, -math.inf], f"{name} must be finite, got -inf at index 2"),
        "short": ([0.0] * short, f"{name} must be 1-d with {want} entries, got shape ({short},)"),
        "2-d": ([_NODES], f"{name} must be 1-d with {want} entries, got shape (1, 3)"),
    }[bad]
    with pytest.raises(InvariantViolation) as excinfo:
        call(values)
    assert str(excinfo.value) == text


def test_records_copy_and_freeze_the_callers_arrays():
    y, ydot, forcing = (np.array(_NODES) for _ in range(3))
    records = [
        Trajectory(_GRID, y, ydot, forcing),
        integrate_euler(_PARAMS, _INIT, forcing, _GRID),
        integrate_rk4(_PARAMS, _INIT, forcing, _GRID),
    ]
    series = ObservedSeries(dt=0.1, values=y)
    for arr in (y, ydot, forcing):
        assert arr.flags.writeable
        arr[0] = 9.0  # the caller's array is still the caller's
    owned = [getattr(r, f) for r in records for f in ("y", "ydot", "forcing")] + [series.values]
    for arr in owned:
        assert not arr.flags.writeable
        assert arr[0] != 9.0


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
