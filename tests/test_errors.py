"""The one domain rule, errors._check: its wording, and every float field
of the model's value classes checked through it; its integer twin,
errors._check_int; and its array twin, errors._check_array, with every
array input checked through it."""

import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapdyn
from gapdyn import (
    Ar1,
    DsgeBlockParams,
    DsgePoint,
    GapdynError,
    Impulse,
    InvariantViolation,
    NoShock,
    ObservedSeries,
    OscillatorParams,
    OscState,
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


# An int past the float range is not finite either, nor a Fraction that
# float() refuses.
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, Fraction(10**400, 3)],
                         ids=["nan", "inf", "int", "fraction"])
@pytest.mark.parametrize(
    "obj, name", _FLOAT_FIELDS, ids=[f"{type(o).__name__}.{n}" for o, n in _FLOAT_FIELDS]
)
def test_non_finite_field_is_worded_once(obj, name, value):
    with pytest.raises(InvariantViolation) as excinfo:
        replace(obj, **{name: value})
    assert str(excinfo.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize(
    "obj, name", _FLOAT_FIELDS, ids=[f"{type(o).__name__}.{n}" for o, n in _FLOAT_FIELDS]
)
def test_a_numpy_scalar_field_holds_a_python_number(obj, name):
    x = getattr(obj, name)
    held = getattr(replace(obj, **{name: np.float64(x)}), name)
    assert type(held) is float and held == x
    # An integer in the field's domain: rho's (-1, 1) holds 0, and no
    # integer lies in theta's (0, 1).
    if name != "theta":
        n = 0 if name == "rho" else 1
        held = getattr(replace(obj, **{name: np.int64(n)}), name)
        assert type(held) is int and held == n


# bool is a subclass of int, yet True is not a number a model reads; nor
# is any other value that is not a real number, such as a Decimal, which no
# float arithmetic takes.
@pytest.mark.parametrize("value", [True, False, "1", None, 1j, [1.0], Decimal("sNaN")],
                         ids=["True", "False", "str", "None", "complex", "list", "sNaN"])
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
    # a count that no float64 array can hold
    (sys.maxsize // 8 + 1, None, f"x must be <= {sys.maxsize // 8}, got {sys.maxsize // 8 + 1}"),
], ids=["low", "float", "bool", "high", "ceiling"])
def test_check_int_words_each_bound(value, high, text):
    with pytest.raises(InvariantViolation) as excinfo:
        _check_int("x", value, 1, high)
    assert str(excinfo.value) == text


def test_check_int_accepts_both_ends():
    _check_int("x", 1, 1)
    _check_int("x", 2**64 - 1, 1, 2**64)
    _check_int("x", sys.maxsize // 8, 1)


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


@pytest.mark.parametrize(
    "bad", ["nan", "inf", "short", "2-d", "text", "ragged", "object", "complex", "big-int"]
)
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
        "text": (["0.0", "x", "1.0"], f"{name} must be an array of numbers"),
        "ragged": ([[0.0], [0.5, 1.0], 1.0], f"{name} must be an array of numbers"),
        "object": (np.array([object()] * 3), f"{name} must be an array of numbers"),
        # a float cast would keep the real parts alone
        "complex": (np.array([0.0, 1j, 1.0]), f"{name} must be an array of numbers"),
        "big-int": ([0.0, 10**400, 1.0], f"{name} must be an array of numbers"),
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
    # a numpy scalar is worded as the Python number it becomes
    ({}, np.float64(math.nan), "x must be finite, got nan"),
    ({"low": 0}, np.int64(-2), "x must be >= 0, got -2"),
], ids=["finite", "low-closed", "low-open", "high-closed", "high-open", "numpy-float",
        "numpy-int"])
def test_check_words_each_bound(kwargs, value, text):
    with pytest.raises(InvariantViolation) as excinfo:
        _check("x", value, **kwargs)
    assert str(excinfo.value) == text


def test_check_accepts_a_closed_bound_and_the_interior():
    _check("x", 0.0, low=0)
    _check("x", 1.0, high=1)
    _check("x", 0.5, low=0, low_strict=True, high=1, high_strict=True)


_BLOCK = DsgeBlockParams(beta=0.99, sigma_c=2.0)
_POINT = DsgePoint(r=0.03)
_TRAJ = Trajectory(_GRID, _NODES, _NODES, _NODES)
_SERIES = ObservedSeries(dt=0.1, values=[1.0, 0.4, -0.3, -0.5, 0.1, 0.6, 0.2, -0.4])

# One valid call of every callable that gapdyn exports, by keyword; the
# error classes, the taxonomy itself, are left out.  Each float, int and
# list-of-floats argument is an input the contract covers.
_CALLS = {
    "Ar1": dict(rho=0.5, sigma=0.1, seed=1),
    "DsgeBlockParams": dict(beta=0.99, sigma_c=2.0, theta=0.3, a_tfp=1.0),
    "DsgePoint": dict(r=0.03, c=1.2, b=0.5, b_next=0.4, w=1.1, n=0.9, k=2.0, y=1.3, p=1.0,
                      r_k=0.05),
    "EstimationResult": dict(gamma_hat=0.5, alpha_hat=2.0, sigma_hat=0.1, loglik=-1.0,
                             method="ar2", converged=True, n_obs=8),
    "Impulse": dict(at=0.1, magnitude=1.0),
    "NoShock": dict(),
    "ObservedSeries": dict(dt=0.1, values=_NODES),
    "OscState": dict(y=1.0, ydot=0.0),
    "OscillatorParams": dict(gamma=0.5, alpha=2.0),
    "RecoveryMetrics": dict(settling_time=0.1, overshoot=0.0, zero_crossings=1,
                            terminal_abs=0.0),
    "ScenarioConfig": dict(gamma=0.5, alpha=2.0, y0=1.0, ydot0=0.0, t_end=0.2, dt=0.1,
                           shock=Impulse(), integrator="rk4"),
    "TimeGrid": dict(dt=0.1, n_steps=3),
    "Trajectory": dict(grid=_GRID, y=_NODES, ydot=_NODES, forcing=_NODES),
    "WhiteNoise": dict(sigma=0.1, seed=1),
    "analytic_trajectory": dict(params=_PARAMS, init=_INIT, grid=_GRID),
    "budget_residual": dict(point=_POINT),
    "classify": dict(params=_PARAMS),
    "discretize_exact": dict(params=_PARAMS, dt=0.1),
    "energy": dict(params=_PARAMS, state=_INIT),
    "estimate_ar2": dict(series=_SERIES),
    "estimate_mle": dict(series=_SERIES),
    "euler_residual": dict(c_now=1.0, c_next=1.1, r_next=0.03, params=_BLOCK),
    "integrate_euler": dict(params=_PARAMS, init=_INIT, forcing=_NODES, grid=_GRID),
    "integrate_rk4": dict(params=_PARAMS, init=_INIT, forcing=_NODES, grid=_GRID),
    "parse_config": dict(text="gamma = 0.5\n"),
    "production": dict(k=2.0, n=0.9, params=_BLOCK),
    "profit": dict(point=_POINT),
    "read_series_csv": dict(
        path=os.path.join(os.path.dirname(__file__), "golden", "simulate-rk4-white-noise.csv")),
    "realize": dict(spec=WhiteNoise(), grid=_GRID),
    "recovery_metrics": dict(traj=_TRAJ),
    "solve_analytic": dict(params=_PARAMS, init=_INIT, t=0.5),
    "standard_normals": dict(seed=1, n=3),
    "steady_state_rate": dict(params=_BLOCK),
    "utility": dict(c=1.0, l=0.5, params=_BLOCK),
    "write_svg": dict(path=os.devnull, times=_NODES, series=[("a", _NODES)], title="t",
                      y_label="y"),
    "write_trajectory_csv": dict(path=os.devnull, traj=_TRAJ),
}


def _kind(value):
    """"int" (a count, seed or index), "float" or "array" for an input the
    contract covers, else None (a record, a name, a path, a flag)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, list) and all(isinstance(v, float) for v in value):
        return "array"
    return None


# Anything a caller might pass where a number goes, but an int, drawn apart.
_NOT_INT = st.one_of(
    st.floats(), st.floats().map(np.float64), st.booleans(), st.none(), st.text(max_size=3),
    st.complex_numbers(), st.decimals(), st.fractions(), st.lists(st.floats(), max_size=2),
    st.just(np.array([1.0, 2.0])),
)
_CEILING = sys.maxsize // 8  # of every count, in errors._check_int
# Counts past the 128 TiB a 64-bit Linux process can map, in float64
# entries: numpy refuses to allocate them at once.
_UNMAPPABLE = (10**14, 10**17)
_VALUES = {
    # Counts stay at most 16, are unmappable or pass the ceiling, so nothing
    # large is allocated.
    "int": st.one_of(st.integers(max_value=16), st.integers(*_UNMAPPABLE),
                     st.integers(min_value=_CEILING + 1), _NOT_INT),
    "float": st.one_of(st.integers(), st.just(10**400), _NOT_INT),
    "array": st.one_of(
        st.lists(st.one_of(st.integers(-(2**70), 2**70), st.just(10**400), _NOT_INT),
                 max_size=4),
        st.lists(st.lists(st.floats(), max_size=2), max_size=3),  # 2-d or ragged
        st.lists(st.floats(), max_size=16).map(np.array),
        st.lists(st.complex_numbers(), min_size=1, max_size=3).map(np.array),
        st.lists(st.floats(), min_size=1, max_size=3).map(lambda v: np.array(v, dtype=object)),
        _NOT_INT,
    ),
}

# A numpy scalar of each kind a record field may be built from.
_NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _field_swaps(valid, value):
    """{param: record} for each record argument in `valid` rebuilt with one
    float field set to `value`, where the record takes it."""
    swaps = []
    for param, record in valid.items():
        for f in fields(record) if is_dataclass(record) else ():
            if f.type == "float":
                try:
                    swaps.append({param: replace(record, **{f.name: value})})
                except GapdynError:
                    pass
    return swaps


_EXPORTED = sorted(
    name for name in gapdyn.__all__ if callable(value := getattr(gapdyn, name))
    and not (isinstance(value, type) and issubclass(value, GapdynError))
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_bad_input_stays_in_the_taxonomy(data):
    # Every export runs from its table entry, once with each covered input
    # swapped for one drawn value of its kind (or as it is, if it has none):
    # it returns or raises a GapdynError, never a bare Python error, and it
    # warns for no input, numpy scalars included (tier-1 makes a warning an
    # error).  Each record argument is also rebuilt, one float field at a
    # time, from one drawn numpy scalar.
    assert sorted(_CALLS) == _EXPORTED  # a new export needs an entry
    values = {kind: data.draw(strategy, label=kind) for kind, strategy in _VALUES.items()}
    scalar = data.draw(_NUMPY_SCALARS, label="numpy scalar")
    for name, valid in _CALLS.items():
        swaps = [{param: values[_kind(v)]} for param, v in valid.items() if _kind(v)]
        swaps += _field_swaps(valid, scalar)
        for swap in swaps or [{}]:
            try:
                getattr(gapdyn, name)(**{**valid, **swap})
            except GapdynError:
                pass


@pytest.mark.parametrize("number", [float, np.float64])
def test_an_overflowing_grid_ratio_warns_for_no_number_type(number):
    # numpy's scalar divide warns where float division overflows quietly.
    with pytest.raises(InvariantViolation, match="t_end / dt must be finite"):
        ScenarioConfig(t_end=number(1e308))


@pytest.mark.parametrize("number", [float, np.float64])
def test_an_overflowing_power_warns_for_no_number_type(number):
    # 3.4e-211 ** -2 passes the float range: +inf, with numpy's scalar power
    # as with Python's.
    params = DsgeBlockParams(beta=0.99, sigma_c=2.0)
    assert gapdyn.euler_residual(number(3.4e-211), 1.1, 0.03, params) == math.inf


# Each call takes a numpy scalar through a record field into arithmetic that
# overflows; tier-1 makes numpy's overflow warning an error, so each gives
# the float result or fails.
@pytest.mark.parametrize("call", [
    lambda number: gapdyn.energy(_PARAMS, OscState(number(1e308), 0.0)),
    lambda number: gapdyn.budget_residual(DsgePoint(r=0.5, b=number(1.7976931348623157e308))),
    lambda number: gapdyn.steady_state_rate(DsgeBlockParams(beta=number(5e-324), sigma_c=2.0)),
    lambda number: gapdyn.realize(WhiteNoise(sigma=number(1e308), seed=1), _GRID),
    lambda number: gapdyn.solve_analytic(OscillatorParams(number(1e308), 2.0), _INIT, 0.5),
    lambda number: gapdyn.discretize_exact(OscillatorParams(number(1e308), 2.0), 0.1),
    lambda number: gapdyn.production(
        2.0, 0.9, DsgeBlockParams(beta=0.99, sigma_c=2.0, a_tfp=number(1.7e308))),
    lambda number: OscillatorParams(number(1e200), 1.0).discriminant,
], ids=["energy", "budget_residual", "steady_state_rate", "realize", "solve_analytic",
        "discretize_exact", "production", "discriminant"])
def test_a_numpy_scalar_field_overflows_as_a_float(call):
    assert repr(call(np.float64)) == repr(call(float))


@pytest.mark.parametrize("n", _UNMAPPABLE)
@pytest.mark.parametrize("call, text", [
    (lambda n: TimeGrid(0.1, n).times(), "a grid of n_steps={n} nodes"),
    (lambda n: standard_normals(0, n), "n={n} draws"),
    (lambda n: gapdyn.realize(NoShock(), TimeGrid(0.1, n)), "a grid of n_steps={n} nodes"),
    # A noise process's first allocation is its draws.
    (lambda n: gapdyn.realize(Ar1(), TimeGrid(0.1, n)), "n={n} draws"),
    (lambda n: gapdyn.realize(WhiteNoise(), TimeGrid(0.1, n)), "n={n} draws"),
    (lambda n: gapdyn.analytic_trajectory(_PARAMS, _INIT, TimeGrid(0.1, n)),
     "a grid of n_steps={n} nodes"),
], ids=["times", "standard_normals", "realize-none", "realize-ar1", "realize-white-noise",
        "analytic_trajectory"])
def test_a_count_too_large_for_memory_names_the_count(call, text, n):
    with pytest.raises(InvariantViolation) as excinfo:
        call(n)
    assert str(excinfo.value) == "cannot allocate " + text.format(n=n)


def test_a_stepper_out_of_memory_names_n_steps(monkeypatch):
    # A forcing of n_steps entries exists, so the grid is no bigger than
    # memory: the allocation that fails is simulated.
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(InvariantViolation, match=r"^cannot allocate a grid of n_steps=3 nodes$"):
        integrate_euler(_PARAMS, _INIT, _NODES, _GRID)
