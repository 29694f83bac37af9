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

from .errors import _check, _check_field

# Width of the relative band around gamma^2 == 4*alpha inside which `classify`
# labels a parameterization critically damped.  It only names the regime.
_CRITICAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class OscillatorParams:
    """Reduced-form coefficients (gamma, alpha) of the second-order law."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        _check_field(self, "gamma", low=0)
        _check_field(self, "alpha", low=0, low_strict=True)

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
class OscState:
    """Instantaneous gap level and its rate of change (y, ydot)."""

    y: float
    ydot: float

    def __post_init__(self) -> None:
        _check_field(self, "y")
        _check_field(self, "ydot")


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
    t = _check("t", t, low=0)
    if t == 0.0:
        return OscState(init.y, init.ydot)
    g, a = params.gamma, params.alpha
    ec, es, ed = _flow_parts(g, a, t)
    # Where gamma/2 y + ydot or alpha y passes the float range, the answer
    # need not (es falls like 1/gamma or 1/sqrt(alpha)), so es scales the
    # coefficient first; wherever both are finite, the plain products run,
    # bit for bit.
    drift, pull = 0.5 * g * init.y + init.ydot, a * init.y
    es_drift = es * drift if math.isfinite(drift) else (es * 0.5 * g) * init.y + es * init.ydot
    es_pull = es * pull if math.isfinite(pull) else (es * a) * init.y
    return OscState(ec * init.y + es_drift, ed * init.ydot - es_pull)


def energy(params: OscillatorParams, state: OscState) -> float:
    """Mechanical energy analogue E = ydot^2/2 + alpha*y^2/2.

    E is non-increasing along unforced trajectories and constant when
    gamma = 0, which makes it a convenient decay monitor.
    """
    return 0.5 * state.ydot * state.ydot + 0.5 * params.alpha * state.y * state.y


def _flow_parts(gamma: float, alpha: float, t: float) -> tuple[float, float, float]:
    """Parts of the flow e^(A t) = e^(mu t) (c(t) I + s(t) N) of the unforced law.

    A = [[0, 1], [-alpha, -gamma]], mu = -gamma/2 and N = A - mu I, whose
    square is delta I with delta = gamma^2/4 - alpha.  Returns e^(mu t) c,
    e^(mu t) s and the (2, 2) entry e^(mu t) (c + mu s).  Only the exact sign
    of delta picks the formula: (c, s) = (cos(w t), sin(w t)/w) with
    w^2 = -delta, (cosh(r t), sinh(r t)/r) with r^2 = delta, or (1, t).
    Over-damped, the slow root is alpha/fast, e^(mu t) s goes through expm1
    and the (2, 2) entry is e^(fast t) + slow e^(mu t) s, so nothing cancels
    when gamma^2 >> alpha.  Where gamma^2/4 passes the float range, delta is
    taken 2^1024 lower, where it is positive and finite.  A phase w t past
    the float range raises InvariantViolation.
    """
    mu = -0.5 * gamma
    delta = 0.25 * gamma * gamma - alpha
    if delta > 0.0:
        r = math.sqrt(delta)
        if r == math.inf:
            h = math.ldexp(-mu, -512)
            r = math.ldexp(math.sqrt(h * h - math.ldexp(alpha, -1024)), 512)
        fast = mu - r
        slow = alpha / fast
        e_slow, e_fast = math.exp(slow * t), math.exp(fast * t)
        es = -e_slow * math.expm1(-2.0 * r * t) / (2.0 * r)
        return 0.5 * (e_slow + e_fast), es, e_fast + slow * es
    decay = math.exp(mu * t)
    if delta < 0.0:
        w = math.sqrt(-delta)
        phase = _check("phase w*t", w * t)  # math.cos raises ValueError at inf
        ec, es = decay * math.cos(phase), decay * math.sin(phase) / w
    else:
        ec, es = decay, t * decay
    return ec, es, ec + mu * es
