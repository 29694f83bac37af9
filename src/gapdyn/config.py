"""Scenario configuration: flat key=value documents with validated defaults.

The empty document is a valid scenario; every key has a default.  Defaults
describe a critically damped unit deviation relaxing over 20 time units at
dt = 0.1 with no forcing:

    gamma = 2.0          alpha = 1.0
    y0 = 1.0             ydot0 = 0.0
    t_end = 20.0         dt = 0.1
    integrator = euler   shock = none

Shock kinds and their parameter keys; a key of another kind is BadValue:

    shock = none
    shock = impulse      shock_at, shock_magnitude
    shock = white-noise  shock_sigma, shock_seed
    shock = ar1          shock_rho, shock_sigma, shock_seed
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import BadValue, InvariantViolation, UnknownKey, _check
from .integrate import _STEPS, TimeGrid, _scheme
from .oscillator import OscillatorParams, OscState
from .shocks import Ar1, Impulse, NoShock, ShockSpec, WhiteNoise


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: dynamics, initial state, grid, and forcing.

    `integrator` names the stepping scheme, "euler" or "rk4".
    """

    gamma: float = 2.0
    alpha: float = 1.0
    y0: float = 1.0
    ydot0: float = 0.0
    t_end: float = 20.0
    dt: float = 0.1
    shock: ShockSpec = field(default_factory=NoShock)
    integrator: str = "euler"

    def __post_init__(self) -> None:
        self.params()
        _check("y0", self.y0)
        _check("ydot0", self.ydot0)
        _check("t_end", self.t_end, low=0, low_strict=True)
        _check("dt", self.dt, low=0, low_strict=True)
        _scheme("integrator", self.integrator)
        if not isinstance(self.shock, ShockSpec):
            *rest, last = (kind.__name__ for kind in ShockSpec.__args__)
            names = f"{', '.join(rest)} or {last}"
            raise InvariantViolation(f"shock must be {names}, got {self.shock!r}")
        if self.dt > self.t_end:
            raise InvariantViolation(
                f"dt must not exceed t_end, got dt={self.dt!r} t_end={self.t_end!r}"
            )
        if not math.isfinite(float(self.t_end) / float(self.dt)):
            raise InvariantViolation(
                f"t_end / dt must be finite, got t_end={self.t_end!r} dt={self.dt!r}"
            )
        self.grid()

    @property
    def n_steps(self) -> int:
        """Inclusive sample count floor(t_end/dt) + 1."""
        return math.floor(self.t_end / self.dt) + 1

    def grid(self) -> TimeGrid:
        return TimeGrid(dt=self.dt, n_steps=self.n_steps)

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
    "integrator": tuple(_STEPS),
    "shock": tuple(_SHOCK_KINDS),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a `key = value` document; `#` starts a comment.

    Unknown keys raise UnknownKey, and unparseable values, repeated keys
    and a shock_f key whose field f the chosen shock kind lacks raise
    BadValue, all with the offending line number (the lowest stray shock_f
    key's).  Cross-field violations (for example a negative dt) raise
    InvariantViolation naming the field.
    """
    entries: dict[str, float | int | str] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key in lines:
            raise BadValue(f"line {lineno}: duplicate key {key!r}")
        lines[key] = lineno
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

    name = entries.pop("shock", "none")
    kind = _SHOCK_KINDS[name]
    taken = {f"shock_{f.name}" for f in fields(kind)}
    # Entries keep line order, so the first stray key is on the lowest line.
    for key in entries:
        if key.startswith("shock_") and key not in taken:
            raise BadValue(f"line {lines[key]}: {key} does not apply to shock = {name}")
    shock = kind(**{key.removeprefix("shock_"): entries.pop(key) for key in taken & entries.keys()})
    # Every key left names a ScenarioConfig field.
    return ScenarioConfig(shock=shock, **entries)
