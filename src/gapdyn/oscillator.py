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

import math
from dataclasses import dataclass

from .errors import _check

# Width of the relative band around gamma^2 == 4*alpha inside which `classify`
# labels a parameterization critically damped.  It only names the regime.
_CRITICAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class OscillatorParams:
    """Reduced-form coefficients (gamma, alpha) of the second-order law."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        _check("gamma", self.gamma, low=0)
        _check("alpha", self.alpha, low=0, low_strict=True)

    @property
    def discriminant(self) -> float:
        """gamma^2 - 4*alpha; its sign separates the damping regimes.

        Where gamma^2 or 4 alpha passes the float range, the difference is
        taken on _scaled_squares and scaled back with one rounding, so it is
        +-inf only where gamma^2 - 4 alpha itself overflows.
        """
        d = self.gamma * self.gamma - 4.0 * self.alpha
        if math.isfinite(d):  # both terms finite: the plain expression, bit for bit
            return d
        e, gg, fa = _scaled_squares(self)
        d = gg - fa
        try:
            return math.ldexp(d, 2 * e)
        except OverflowError:
            return math.copysign(math.inf, d)


@dataclass(frozen=True)
class PhysicalOscillator:
    """Mass/friction/stiffness form of the same oscillator: m y'' + c y' + k y."""

    m: float
    c: float
    k: float

    def __post_init__(self) -> None:
        _check("m", self.m, low=0, low_strict=True)
        _check("c", self.c, low=0)
        _check("k", self.k, low=0, low_strict=True)


@dataclass(frozen=True)
class OscState:
    """Instantaneous gap level and its rate of change (y, ydot)."""

    y: float
    ydot: float

    def __post_init__(self) -> None:
        _check("y", self.y)
        _check("ydot", self.ydot)


def from_physical(osc: PhysicalOscillator) -> OscillatorParams:
    """Reduce a mass/friction/stiffness triple to (gamma, alpha) = (c/m, k/m)."""
    return OscillatorParams(gamma=osc.c / osc.m, alpha=osc.k / osc.m)


def classify(params: OscillatorParams) -> str:
    """The damping regime of the homogeneous solution, "under-damped",
    "critically-damped" or "over-damped", from the sign of gamma^2 - 4*alpha.

    Floating point makes the exact boundary undecidable, so the regime is
    critical whenever |gamma^2 - 4*alpha| <= 1e-9 * max(gamma^2, 4*alpha)
    (_CRITICAL_REL_TOL).
    gamma = 0 (no damping at all) classifies as under-damped.  The label is
    for readers (the CLI `classify` line, the SVG legend): the closed form and
    the lag coefficients branch on the exact sign of the discriminant instead.
    The comparison is made on _scaled_squares, which cannot overflow to inf.
    """
    _, gg, fa = _scaled_squares(params)
    d = gg - fa
    if abs(d) <= _CRITICAL_REL_TOL * max(gg, fa):
        return "critically-damped"
    return "under-damped" if d < 0.0 else "over-damped"


def _scaled_squares(params: OscillatorParams) -> tuple[int, float, float]:
    """(e, gamma'^2, 4 alpha') for (gamma', alpha') = (gamma 2^-e, alpha 2^-2e),
    e the binary exponent of max(gamma, sqrt(alpha)): a time rescaling, which
    keeps the regime, and after which gamma'^2 <= 1 and 4 alpha' <= 4, so
    neither overflows.  gamma^2 - 4 alpha = (gamma'^2 - 4 alpha') 2^2e."""
    e = math.frexp(max(params.gamma, math.sqrt(params.alpha)))[1]
    gamma = math.ldexp(params.gamma, -e)
    return e, gamma * gamma, 4.0 * math.ldexp(params.alpha, -2 * e)


def solve_analytic(params: OscillatorParams, init: OscState, t: float) -> OscState:
    """Exact solution of the unforced equation advanced from `init` to time t.

    The state moves by e^(A t) = e^(-gamma t/2) (c(t) I + s(t) N) for the
    companion matrix A and N = A + gamma/2 I, with c and s as in `_flow_parts`.
    t must be finite and >= 0; t = 0 returns `init` unchanged.
    """
    _check("t", t, low=0)
    if t == 0.0:
        return OscState(init.y, init.ydot)
    return OscState(*_homogeneous(params, init, t, math))


def energy(params: OscillatorParams, state: OscState) -> float:
    """Mechanical energy analogue E = ydot^2/2 + alpha*y^2/2.

    E is non-increasing along unforced trajectories and constant when
    gamma = 0, which makes it a convenient decay monitor.
    """
    return 0.5 * state.ydot * state.ydot + 0.5 * params.alpha * state.y * state.y


def _homogeneous(params: OscillatorParams, init: OscState, t, xp):
    """Closed-form (y, ydot) of the unforced equation at times t, with `xp`
    as in `_flow_parts`."""
    g, a = params.gamma, params.alpha
    ec, es, ed = _flow_parts(g, a, t, xp)
    y = ec * init.y + es * (0.5 * g * init.y + init.ydot)
    ydot = ed * init.ydot - es * (a * init.y)
    return y, ydot


def _flow_parts(gamma: float, alpha: float, t, xp):
    """Parts of the flow e^(A t) = e^(mu t) (c(t) I + s(t) N) of the unforced law.

    A = [[0, 1], [-alpha, -gamma]], mu = -gamma/2 and N = A - mu I, whose
    square is delta I with delta = gamma^2/4 - alpha.  Returns e^(mu t) c,
    e^(mu t) s and the (2, 2) entry e^(mu t) (c + mu s).  Only the exact sign
    of delta picks the formula: (c, s) = (cos(w t), sin(w t)/w) with
    w^2 = -delta, (cosh(r t), sinh(r t)/r) with r^2 = delta, or (1, t).
    Over-damped, the slow root is alpha/fast, e^(mu t) s goes through expm1
    and the (2, 2) entry is e^(fast t) + slow e^(mu t) s, so nothing cancels
    when gamma^2 >> alpha.  `xp` is numpy for an array t, math for a scalar;
    with math, a phase w t past the float range raises InvariantViolation.
    """
    mu = -0.5 * gamma
    delta = 0.25 * gamma * gamma - alpha
    if delta > 0.0:
        r = math.sqrt(delta)
        fast = mu - r
        slow = alpha / fast
        e_slow, e_fast = xp.exp(slow * t), xp.exp(fast * t)
        es = -e_slow * xp.expm1(-2.0 * r * t) / (2.0 * r)
        return 0.5 * (e_slow + e_fast), es, e_fast + slow * es
    decay = xp.exp(mu * t)
    if delta < 0.0:
        w = math.sqrt(-delta)
        phase = w * t
        if xp is math:  # math.cos raises ValueError at inf; numpy gives nan
            _check("phase w*t", phase)
        ec, es = decay * xp.cos(phase), decay * xp.sin(phase) / w
    else:
        ec, es = decay, t * decay
    return ec, es, ec + mu * es
