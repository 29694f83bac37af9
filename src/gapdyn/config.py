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
    shock = white-noise  shock_sigma, shock_seed, shock_scaling
    shock = ar1          shock_rho, shock_sigma, shock_seed
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .errors import BadValue, InvariantViolation, UnknownKey
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
    shock_scaling: str = "diffusion"

    def __post_init__(self) -> None:
        self.params()
        self.initial_state()
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise InvariantViolation(f"t_end must be finite and > 0, got {self.t_end!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvariantViolation(f"dt must be finite and > 0, got {self.dt!r}")
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
        if self.shock_scaling not in ("diffusion", "literal"):
            raise InvariantViolation(
                f"shock_scaling must be 'diffusion' or 'literal', got {self.shock_scaling!r}"
            )

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


_FLOAT_KEYS = frozenset(
    ["gamma", "alpha", "y0", "ydot0", "t_end", "dt",
     "shock_at", "shock_magnitude", "shock_sigma", "shock_rho"]
)
_INT_KEYS = frozenset(["shock_seed"])
_ENUM_KEYS = {
    "integrator": ("euler", "rk4"),
    "shock": ("none", "impulse", "white-noise", "ar1"),
    "shock_scaling": ("diffusion", "literal"),
}

_SHOCK_DEFAULTS = {
    "shock": "none",
    "shock_at": 0.0,
    "shock_magnitude": 1.0,
    "shock_sigma": 0.1,
    "shock_rho": 0.9,
    "shock_seed": 0,
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a `key = value` document; `#` starts a comment.

    Unknown keys raise UnknownKey and unparseable values raise BadValue, both
    with the offending line number.  Cross-field violations (for example a
    negative dt) raise InvariantViolation naming the field.
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
        if key in _FLOAT_KEYS:
            try:
                entries[key] = float(value)
            except ValueError:
                raise BadValue(f"line {lineno}: {key} expects a number, got {value!r}") from None
        elif key in _INT_KEYS:
            try:
                entries[key] = int(value)
            except ValueError:
                raise BadValue(
                    f"line {lineno}: {key} expects an integer, got {value!r}"
                ) from None
        elif key in _ENUM_KEYS:
            if value not in _ENUM_KEYS[key]:
                allowed = ", ".join(_ENUM_KEYS[key])
                raise BadValue(f"line {lineno}: {key} must be one of {allowed}, got {value!r}")
            entries[key] = value
        else:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")

    shock_fields = dict(_SHOCK_DEFAULTS)
    for name in shock_fields:
        if name in entries:
            shock_fields[name] = entries.pop(name)
    shock = _build_shock(shock_fields)

    kwargs: dict = {}
    for name in ("gamma", "alpha", "y0", "ydot0", "t_end", "dt", "shock_scaling"):
        if name in entries:
            kwargs[name] = entries.pop(name)
    if "integrator" in entries:
        kwargs["integrator"] = Integrator(entries.pop("integrator"))
    return ScenarioConfig(shock=shock, **kwargs)


def _build_shock(fields: dict) -> ShockSpec:
    kind = fields["shock"]
    if kind == "none":
        return NoShock()
    if kind == "impulse":
        return Impulse(at=fields["shock_at"], magnitude=fields["shock_magnitude"])
    if kind == "white-noise":
        return WhiteNoise(sigma=fields["shock_sigma"], seed=fields["shock_seed"])
    return Ar1(rho=fields["shock_rho"], sigma=fields["shock_sigma"], seed=fields["shock_seed"])
