"""Household and firm optimality conditions evaluated as residuals.

Preferences are CRRA in consumption plus log leisure; technology is
Cobb-Douglas.  Every condition is exposed as a residual so candidate
allocations can be checked directly: a residual of zero means the condition
holds exactly at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _check


@dataclass(frozen=True)
class DsgeBlockParams:
    """Deep parameters: discount factor, risk aversion, capital share, TFP."""

    beta: float
    sigma_c: float
    theta: float = 1.0 / 3.0
    a_tfp: float = 1.0

    def __post_init__(self) -> None:
        _check("beta", self.beta, low=0.0, low_strict=True, high=1.0)
        _check("sigma_c", self.sigma_c, low=0.0, low_strict=True)
        _check("theta", self.theta, low=0.0, low_strict=True, high=1.0, high_strict=True)
        _check("a_tfp", self.a_tfp, low=0.0, low_strict=True)


@dataclass(frozen=True)
class DsgePoint:
    """A candidate allocation at which the optimality residuals are evaluated.
    DsgePoint(r=x) is the unit allocation: at any finite r its budget
    balances and its profit is exactly zero."""

    r: float             # interest rate, > -1
    c: float = 1.0       # consumption, > 0
    b: float = 0.0       # bonds held entering the period
    b_next: float = 0.0  # bonds carried into the next period
    w: float = 1.0       # wage, >= 0
    n: float = 1.0       # labor input, >= 0
    k: float = 1.0       # capital input, >= 0
    y: float = 1.0       # output, >= 0
    p: float = 1.0       # output price, > 0
    r_k: float = 0.0     # capital rental rate, >= 0

    def __post_init__(self) -> None:
        _check("r", self.r, low=-1.0, low_strict=True)
        _check("c", self.c, low=0.0, low_strict=True)
        _check("b", self.b)
        _check("b_next", self.b_next)
        _check("w", self.w, low=0.0)
        _check("n", self.n, low=0.0)
        _check("k", self.k, low=0.0)
        _check("y", self.y, low=0.0)
        _check("p", self.p, low=0.0, low_strict=True)
        _check("r_k", self.r_k, low=0.0)


def _pow(x: float, y: float) -> float:
    """x ** y for x > 0, as floats.  Where it overflows, and Python's float
    power would raise, +inf as IEEE-754 rounds it."""
    try:
        return float(x) ** float(y)
    except OverflowError:
        return math.inf


def utility(c: float, l: float, params: DsgeBlockParams) -> float:
    """Period utility c^(1-sigma_c)/(1-sigma_c) + ln(1+l).

    At sigma_c = 1 the consumption term is its limit ln(c).
    """
    _check("c", c, low=0.0, low_strict=True)
    _check("l", l, low=0.0)
    s = params.sigma_c
    if s == 1.0:
        consumption_term = math.log(c)
    else:
        consumption_term = _pow(c, 1.0 - s) / (1.0 - s)
    return consumption_term + math.log(1.0 + l)


def euler_residual(c_now: float, c_next: float, r_next: float,
                   params: DsgeBlockParams) -> float:
    """Intertemporal condition c_now^(-s) - beta (1 + r_next) c_next^(-s).

    Zero exactly when consumption is on the optimal path between two periods.
    """
    _check("c_now", c_now, low=0.0, low_strict=True)
    _check("c_next", c_next, low=0.0, low_strict=True)
    _check("r_next", r_next, low=-1.0, low_strict=True)
    s = params.sigma_c
    return _pow(c_now, -s) - params.beta * (1.0 + float(r_next)) * _pow(c_next, -s)


def budget_residual(point: DsgePoint) -> float:
    """Household budget gap: c + b_next - (1 + r) b - w n."""
    return point.c + point.b_next - (1.0 + point.r) * point.b - point.w * point.n


def production(k: float, n: float, params: DsgeBlockParams) -> float:
    """Cobb-Douglas output a_tfp * k^theta * n^(1-theta); 0^theta is 0."""
    _check("k", k, low=0.0)
    _check("n", n, low=0.0)
    return params.a_tfp * float(k) ** params.theta * float(n) ** (1.0 - params.theta)


def profit(point: DsgePoint) -> float:
    """Firm profit p y - w n - r_k k at the candidate point."""
    return point.p * point.y - point.w * point.n - point.r_k * point.k


def steady_state_rate(params: DsgeBlockParams) -> float:
    """Interest rate 1/beta - 1 that holds consumption flat on the Euler path."""
    return 1.0 / params.beta - 1.0
