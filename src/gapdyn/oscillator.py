"""Damped-oscillator parameterization, regime taxonomy, and closed-form solutions.

The output gap y(t) follows a second-order law

    y'' + gamma * y' + alpha * y = eps(t)

where gamma >= 0 is the damping coefficient (how strongly momentum is bled
off) and alpha > 0 is the squared natural adjustment frequency of the pull
back toward trend.  y is a dimensionless deviation from trend, so gamma has
units 1/time and alpha units 1/time^2.  The same law in mass/friction/
stiffness form, m y'' + c y' + k y = F, reduces to the economic one through
gamma = c/m and alpha = k/m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvariantViolation

# Width of the relative band around gamma^2 == 4*alpha inside which a
# parameterization is treated as critically damped.
DEFAULT_REL_TOL = 1e-9


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvariantViolation(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OscillatorParams:
    """Reduced-form coefficients (gamma, alpha) of the second-order law."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        _check_finite("gamma", self.gamma)
        _check_finite("alpha", self.alpha)
        if self.gamma < 0.0:
            raise InvariantViolation(f"gamma must be >= 0, got {self.gamma!r}")
        if self.alpha <= 0.0:
            raise InvariantViolation(f"alpha must be > 0, got {self.alpha!r}")

    @property
    def discriminant(self) -> float:
        """gamma^2 - 4*alpha; its sign separates the damping regimes."""
        return self.gamma * self.gamma - 4.0 * self.alpha


@dataclass(frozen=True)
class PhysicalOscillator:
    """Mass/friction/stiffness form of the same oscillator: m y'' + c y' + k y."""

    m: float
    c: float
    k: float

    def __post_init__(self) -> None:
        _check_finite("m", self.m)
        _check_finite("c", self.c)
        _check_finite("k", self.k)
        if self.m <= 0.0:
            raise InvariantViolation(f"m must be > 0, got {self.m!r}")
        if self.c < 0.0:
            raise InvariantViolation(f"c must be >= 0, got {self.c!r}")
        if self.k <= 0.0:
            raise InvariantViolation(f"k must be > 0, got {self.k!r}")


@dataclass(frozen=True)
class OscState:
    """Instantaneous gap level and its rate of change (y, ydot)."""

    y: float
    ydot: float

    def __post_init__(self) -> None:
        _check_finite("y", self.y)
        _check_finite("ydot", self.ydot)


class Regime(enum.Enum):
    """Damping regime of the homogeneous solution."""

    UNDER_DAMPED = "under-damped"
    CRITICALLY_DAMPED = "critically-damped"
    OVER_DAMPED = "over-damped"


def from_physical(osc: PhysicalOscillator) -> OscillatorParams:
    """Reduce a mass/friction/stiffness triple to (gamma, alpha) = (c/m, k/m)."""
    return OscillatorParams(gamma=osc.c / osc.m, alpha=osc.k / osc.m)


def classify(params: OscillatorParams, rel_tol: float = DEFAULT_REL_TOL) -> Regime:
    """Classify the damping regime from the sign of gamma^2 - 4*alpha.

    Floating point makes the exact boundary undecidable, so the regime is
    critical whenever |gamma^2 - 4*alpha| <= rel_tol * max(gamma^2, 4*alpha).
    gamma = 0 (no damping at all) classifies as under-damped.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise InvariantViolation(f"rel_tol must be finite and >= 0, got {rel_tol!r}")
    gg = params.gamma * params.gamma
    fa = 4.0 * params.alpha
    d = gg - fa
    if abs(d) <= rel_tol * max(gg, fa):
        return Regime.CRITICALLY_DAMPED
    return Regime.UNDER_DAMPED if d < 0.0 else Regime.OVER_DAMPED


def solve_analytic(params: OscillatorParams, init: OscState, t: float) -> OscState:
    """Exact solution of the unforced equation advanced from `init` to time t.

    The branch is chosen by `classify` with the default tolerance:

      under-damped      y = e^(-gamma t/2) (A cos(wd t) + B sin(wd t)),
                        wd = sqrt(alpha - gamma^2/4)
      critically damped y = (A + B t) e^(-gamma t/2)
      over-damped       y = A e^(r1 t) + B e^(r2 t),
                        r = (-gamma +- sqrt(gamma^2 - 4 alpha)) / 2

    with A, B fixed by the initial conditions.  t must be finite and >= 0;
    t = 0 returns `init` unchanged.
    """
    if not math.isfinite(t) or t < 0.0:
        raise InvariantViolation(f"t must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return OscState(init.y, init.ydot)
    import numpy as np

    y, ydot = _homogeneous(params, init, np.array([t], dtype=float))
    return OscState(float(y[0]), float(ydot[0]))


def energy(params: OscillatorParams, state: OscState) -> float:
    """Mechanical energy analogue E = ydot^2/2 + alpha*y^2/2.

    E is non-increasing along unforced trajectories and constant when
    gamma = 0, which makes it a convenient decay monitor.
    """
    return 0.5 * state.ydot * state.ydot + 0.5 * params.alpha * state.y * state.y


def _homogeneous(
    params: OscillatorParams, init: OscState, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form (y, ydot) of the unforced equation at times t."""
    import numpy as np

    g = params.gamma
    regime = classify(params)
    decay = np.exp(-0.5 * g * t)
    if regime is Regime.CRITICALLY_DAMPED:
        ca = init.y
        cb = init.ydot + 0.5 * g * init.y
        y = (ca + cb * t) * decay
        ydot = (cb - 0.5 * g * (ca + cb * t)) * decay
    elif regime is Regime.UNDER_DAMPED:
        wd = math.sqrt(params.alpha - 0.25 * g * g)
        ca = init.y
        cb = (init.ydot + 0.5 * g * init.y) / wd
        cos_t = np.cos(wd * t)
        sin_t = np.sin(wd * t)
        y = decay * (ca * cos_t + cb * sin_t)
        ydot = decay * ((cb * wd - 0.5 * g * ca) * cos_t - (ca * wd + 0.5 * g * cb) * sin_t)
    else:
        s = math.sqrt(0.25 * g * g - params.alpha)
        r_slow = -0.5 * g + s
        r_fast = -0.5 * g - s
        ca = (init.ydot - r_fast * init.y) / (r_slow - r_fast)
        cb = init.y - ca
        e_slow = np.exp(r_slow * t)
        e_fast = np.exp(r_fast * t)
        y = ca * e_slow + cb * e_fast
        ydot = ca * r_slow * e_slow + cb * r_fast * e_fast
    return y, ydot
