"""Scenario configuration: flat key=value documents with validated defaults.

The empty document is a valid scenario; every key has a default.  Defaults
describe a critically damped unit deviation relaxing over 20 time units at
dt = 0.1 with no forcing:

    gamma = 2.0          alpha = 1.0
    y0 = 1.0             ydot0 = 0.0
    t_end = 20.0         dt = 0.1
    integrator = euler   shock = none

Shock kinds and their parameter keys:

    shock = none
    shock = impulse      shock_at, shock_magnitude
    shock = white-noise  shock_sigma, shock_seed
    shock = ar1          shock_rho, shock_sigma, shock_seed
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, fields

from .errors import BadValue, InvariantViolation, UnknownKey, _check
from .integrate import TimeGrid
from .oscillator import OscillatorParams, OscState
from .shocks import Ar1, Impulse, NoShock, ShockSpec, WhiteNoise


class Integrator(enum.Enum):
    EULER = "euler"
    RK4 = "rk4"


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: dynamics, initial state, grid, and forcing."""

    gamma: float = 2.0
    alpha: float = 1.0
    y0: float = 1.0
    ydot0: float = 0.0
    t_end: float = 20.0
    dt: float = 0.1
    shock: ShockSpec = field(default_factory=NoShock)
    integrator: Integrator = Integrator.EULER

    def __post_init__(self) -> None:
        self.params()
        _check("y0", self.y0)
        _check("ydot0", self.ydot0)
        _check("t_end", self.t_end, low=0, low_strict=True)
        _check("dt", self.dt, low=0, low_strict=True)
        if not isinstance(self.integrator, Integrator):
            names = " or ".join(f"Integrator({scheme.value!r})" for scheme in Integrator)
            raise InvariantViolation(f"integrator must be {names}, got {self.integrator!r}")
        if not isinstance(self.shock, ShockSpec):
            *rest, last = (kind.__name__ for kind in ShockSpec.__args__)
            names = f"{', '.join(rest)} or {last}"
            raise InvariantViolation(f"shock must be {names}, got {self.shock!r}")
        if self.dt > self.t_end:
            raise InvariantViolation(
                f"dt must not exceed t_end, got dt={self.dt!r} t_end={self.t_end!r}"
            )
        if not math.isfinite(self.t_end / self.dt):
            raise InvariantViolation(
                f"t_end / dt must be finite, got t_end={self.t_end!r} dt={self.dt!r}"
            )
        # numpy counts a float64 array's bytes in a signed machine word.
        if self.n_steps > sys.maxsize // 8:
            raise InvariantViolation(f"n_steps must be <= {sys.maxsize // 8}, got {self.n_steps}")

    @property
    def n_steps(self) -> int:
        """Inclusive sample count floor(t_end/dt) + 1."""
        return math.floor(self.t_end / self.dt) + 1

    def grid(self) -> TimeGrid:
        return TimeGrid(t0=0.0, dt=self.dt, n_steps=self.n_steps)

    def params(self) -> OscillatorParams:
        return OscillatorParams(gamma=self.gamma, alpha=self.alpha)

    def initial_state(self) -> OscState:
        return OscState(y=self.y0, ydot=self.ydot0)


_SHOCK_KINDS = {"none": NoShock, "impulse": Impulse, "white-noise": WhiteNoise, "ar1": Ar1}

# Each key's default, and so its type, is that of the field it fills: a
# ScenarioConfig field, or field f of a shock kind as key shock_f.  Kinds
# that share a field must share its default, since shock_f keeps only one.
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig) if f.name != "shock"}
_DEFAULTS.update(
    (f"shock_{f.name}", f.default) for kind in _SHOCK_KINDS.values() for f in fields(kind)
)
_ENUM_KEYS = {
    "integrator": tuple(scheme.value for scheme in Integrator),
    "shock": tuple(_SHOCK_KINDS),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a `key = value` document; `#` starts a comment.

    Unknown keys raise UnknownKey, and unparseable values and repeated keys
    raise BadValue, all with the offending line number.  Cross-field
    violations (for example a negative dt) raise InvariantViolation naming
    the field.
    """
    entries: dict[str, float | int | str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key in entries:
            raise BadValue(f"line {lineno}: duplicate key {key!r}")
        if key in _ENUM_KEYS:
            if value not in _ENUM_KEYS[key]:
                allowed = ", ".join(_ENUM_KEYS[key])
                raise BadValue(f"line {lineno}: {key} must be one of {allowed}, got {value!r}")
            entries[key] = value
        elif key in _DEFAULTS:
            integer = isinstance(_DEFAULTS[key], int)
            try:
                entries[key] = int(value) if integer else float(value)
            except ValueError:
                expected = "an integer" if integer else "a number"
                raise BadValue(f"line {lineno}: {key} expects {expected}, got {value!r}") from None
        else:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")

    shock_args = {
        key.removeprefix("shock_"): entries.pop(key)
        for key in list(entries) if key.startswith("shock_")
    }
    # The chosen kind takes its keys; those of the other kinds go unused.
    kind = _SHOCK_KINDS[entries.pop("shock", "none")]
    shock = kind(**{f.name: shock_args[f.name] for f in fields(kind) if f.name in shock_args})
    if "integrator" in entries:
        entries["integrator"] = Integrator(entries["integrator"])
    # Every key left names a ScenarioConfig field.
    return ScenarioConfig(shock=shock, **entries)
