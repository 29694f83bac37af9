"""Time steppers for the forced oscillator and trajectory recovery metrics.

Both steppers take the forcing as one value per grid node and hold it as a
zero-order hold: forcing[i-1] acts, constant, over the whole step from node
i-1 to node i.  forcing[i] therefore first moves the state at node i+1, and
the last entry acts on no step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Divergence, InvariantViolation
from .oscillator import OscillatorParams, OscState, _homogeneous


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_steps samples spaced dt apart, starting at t0."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.t0):
            raise InvariantViolation(f"t0 must be finite, got {self.t0!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvariantViolation(f"dt must be finite and > 0, got {self.dt!r}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise InvariantViolation(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n_steps - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps)


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: gap level, its rate, and the applied forcing per node."""

    grid: TimeGrid
    y: np.ndarray
    ydot: np.ndarray
    forcing: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "ydot", "forcing"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_steps,):
                raise InvariantViolation(
                    f"{name} must have length n_steps={self.grid.n_steps}, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvariantViolation(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def state(self, i: int) -> OscState:
        return OscState(float(self.y[i]), float(self.ydot[i]))


@dataclass(frozen=True)
class RecoveryMetrics:
    """How a trajectory returns into a |y| <= band corridor around trend."""

    settling_time: float
    overshoot: float
    zero_crossings: int
    terminal_abs: float


def _forcing_nodes(forcing: Sequence[float] | np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The forcing as a float array with one finite value per grid node."""
    eps = np.asarray(forcing, dtype=float)
    if eps.shape != (grid.n_steps,):
        raise InvariantViolation(
            f"forcing must have length n_steps={grid.n_steps}, got shape {eps.shape}"
        )
    if not np.all(np.isfinite(eps)):
        raise InvariantViolation("forcing contains non-finite entries")
    return eps


def integrate_euler(
    params: OscillatorParams,
    init: OscState,
    forcing: Sequence[float] | np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """Explicit Euler stepping with the position advanced by the pre-update rate.

    Per step i >= 1, in this order:

        accel   = -gamma*ydot[i-1] - alpha*y[i-1] + forcing[i-1]
        ydot[i] = ydot[i-1] + accel*dt
        y[i]    = y[i-1] + ydot[i-1]*dt

    The position update deliberately uses the rate from before the velocity
    update; swapping that order changes every sample and is a different
    scheme.  `forcing` supplies one finite value per grid node; any other
    shape or a non-finite entry raises InvariantViolation.  A non-finite
    intermediate state aborts with Divergence naming the step.
    """
    eps = _forcing_nodes(forcing, grid)
    g, a, dt = params.gamma, params.alpha, grid.dt
    yi, vi = init.y, init.ydot
    y = array("d", [yi])
    v = array("d", [vi])
    # Overflow to inf is an expected failure mode here; it is caught by the
    # finiteness check and reported as Divergence, so silence the warning
    # that numpy scalars in `init` or `params` would give.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, e in enumerate(eps[:-1].tolist(), start=1):
            accel = -g * vi - a * yi + e
            v_next = vi + accel * dt
            y_next = yi + vi * dt
            if not (math.isfinite(v_next) and math.isfinite(y_next)):
                raise Divergence(i)
            y.append(y_next)
            v.append(v_next)
            yi, vi = y_next, v_next
    return Trajectory(grid, np.frombuffer(y), np.frombuffer(v), eps)


def integrate_rk4(
    params: OscillatorParams,
    init: OscState,
    forcing: Sequence[float] | np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta on the first-order system (y, ydot).

    `forcing` supplies one value per grid node, checked as in
    integrate_euler.  All four stages of step i >= 1 use forcing[i-1], the
    value held over that step, so the scheme integrates the same
    zero-order-hold forcing as integrate_euler.  A non-finite intermediate
    state aborts with Divergence naming the step.
    """
    eps = _forcing_nodes(forcing, grid)
    g, a, dt = params.gamma, params.alpha, grid.dt
    half = 0.5 * dt
    yi, vi = init.y, init.ydot
    y = array("d", [yi])
    v = array("d", [vi])
    # As in integrate_euler: numpy scalars in `init` or `params` would warn
    # on the overflow that the finiteness check reports as Divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, e in enumerate(eps[:-1].tolist(), start=1):
            k1y = vi
            k1v = -g * vi - a * yi + e
            k2y = vi + half * k1v
            k2v = -g * k2y - a * (yi + half * k1y) + e
            k3y = vi + half * k2v
            k3v = -g * k3y - a * (yi + half * k2y) + e
            k4y = vi + dt * k3v
            k4v = -g * k4y - a * (yi + dt * k3y) + e
            y_next = yi + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v_next = vi + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (math.isfinite(v_next) and math.isfinite(y_next)):
                raise Divergence(i)
            y.append(y_next)
            v.append(v_next)
            yi, vi = y_next, v_next
    return Trajectory(grid, np.frombuffer(y), np.frombuffer(v), eps)


def analytic_trajectory(params: OscillatorParams, init: OscState, grid: TimeGrid) -> Trajectory:
    """Sample the closed-form unforced solution on a grid (forcing is zero)."""
    y, ydot = _homogeneous(params, init, grid.times() - grid.t0)
    # Pin the first node to the initial state exactly.
    y = np.array(y)
    ydot = np.array(ydot)
    y[0], ydot[0] = init.y, init.ydot
    return Trajectory(grid, y, ydot, np.zeros(grid.n_steps))


def recovery_metrics(traj: Trajectory, band: float = 0.05) -> RecoveryMetrics:
    """Summarize the return of a trajectory into the corridor |y| <= band.

    settling_time   last grid time with |y| > band, 0.0 if never outside
    overshoot       |min y| when y starts positive and later changes sign,
                    else 0.0
    zero_crossings  count of strict sign changes (zero samples are skipped
                    when pairing signs)
    terminal_abs    |y| at the final sample
    """
    if not (math.isfinite(band) and band > 0.0):
        raise InvariantViolation(f"band must be finite and > 0, got {band!r}")
    y = traj.y
    times = traj.grid.times()
    outside = np.abs(y) > band
    settling = float(times[outside][-1]) if outside.any() else 0.0
    signs = np.sign(y)
    signs = signs[signs != 0.0]
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    overshoot = abs(float(np.min(y))) if (y[0] > 0.0 and crossings >= 1) else 0.0
    return RecoveryMetrics(
        settling_time=settling,
        overshoot=overshoot,
        zero_crossings=crossings,
        terminal_abs=abs(float(y[-1])),
    )
