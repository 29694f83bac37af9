"""Time steppers for the forced oscillator and trajectory recovery metrics.

Both schemes take the forcing as one value per grid node and hold it as a
zero-order hold: forcing[i-1] acts, constant, over the whole step from node
i-1 to node i.  forcing[i] therefore first moves the state at node i+1, and
the last entry acts on no step.

Each scheme's arithmetic is written once, as a loop (_euler_steps,
_rk4_steps) that fills nodes 1.. of position and rate buffers from node 0.
integrate_euler and integrate_rk4 feed it Python floats, for one parameter
set, into array('d') buffers.  integrate_batch feeds it (k,) float64 rows,
one column per parameter set, into (n, k) arrays for `gapdyn sweep`.
Python floats and numpy float64 both round every operation correctly and
neither fuses a multiply-add, so each column of a batch is bit-identical
to the single run.  Both kinds of call end in one finiteness check, which
raises Divergence at the first non-finite node.
recovery_metrics is recovery_metrics_block on a one-row block, so the
metrics have one definition.
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


def _euler_steps(y, v, eps, ng, a, dt) -> None:
    """Fill nodes 1..len(eps) of positions y and rates v from node 0 by
    explicit Euler, with ng = -gamma and eps[i-1] held over step i; the
    nodes of y and v, ng and a are all Python floats or all (k,) rows."""
    yi, vi = y[0], v[0]
    for i, e in enumerate(eps, start=1):
        v_next = vi + (ng * vi - a * yi + e) * dt
        yi = yi + vi * dt
        vi = v_next
        y[i] = yi
        v[i] = vi


def _rk4_steps(y, v, eps, ng, a, dt) -> None:
    """Fill nodes 1..len(eps) of y and v from node 0 by classical RK4, as
    _euler_steps does; all four stages of step i hold eps[i-1]."""
    half = 0.5 * dt
    sixth = dt / 6.0
    yi, vi = y[0], v[0]
    for i, e in enumerate(eps, start=1):
        k1y = vi
        k1v = ng * vi - a * yi + e
        k2y = vi + half * k1v
        k2v = ng * k2y - a * (yi + half * k1y) + e
        k3y = vi + half * k2v
        k3v = ng * k3y - a * (yi + half * k2y) + e
        k4y = vi + dt * k3v
        k4v = ng * k4y - a * (yi + dt * k3y) + e
        yi = yi + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        vi = vi + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        y[i] = yi
        v[i] = vi


_STEPS = {"euler": _euler_steps, "rk4": _rk4_steps}


def _check_finite(y: np.ndarray, v: np.ndarray) -> None:
    """Raise Divergence at the first non-finite node of the lowest-index
    column of the (n, k) positions y and rates v that has one.

    Under +, - and * a non-finite y or ydot stays non-finite at every later
    node, so a column's last node is finite exactly when all of them are.
    """
    finite = np.isfinite(y[-1]) & np.isfinite(v[-1])
    if not finite.all():
        j = int(np.argmin(finite))
        raise Divergence(int(np.argmin(np.isfinite(y[:, j]) & np.isfinite(v[:, j]))))


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
    state aborts with Divergence naming its first node.
    """
    return _integrate_one(_euler_steps, params, init, forcing, grid)


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
    zero-order-hold forcing as integrate_euler.  A non-finite state aborts
    with Divergence naming its first node.
    """
    return _integrate_one(_rk4_steps, params, init, forcing, grid)


def _integrate_one(steps, params, init, forcing, grid) -> Trajectory:
    """One parameter set stepped on Python floats into array('d') buffers."""
    eps = _forcing_nodes(forcing, grid)
    y = array("d", [0.0]) * grid.n_steps
    v = array("d", y)
    y[0], v[0] = init.y, init.ydot
    # Overflow to inf is reported as Divergence, so silence the warning that
    # numpy scalars in `params` would give; `init` arrives as Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        steps(y, v, eps[:-1].tolist(), -params.gamma, params.alpha, grid.dt)
    y, v = np.frombuffer(y), np.frombuffer(v)
    _check_finite(y[:, None], v[:, None])
    return Trajectory(grid, y, v, eps)


def analytic_trajectory(params: OscillatorParams, init: OscState, grid: TimeGrid) -> Trajectory:
    """Sample the closed-form unforced solution on a grid (forcing is zero)."""
    y, ydot = _homogeneous(params, init, grid.times() - grid.t0)
    # Pin the first node to the initial state exactly.
    y = np.array(y)
    ydot = np.array(ydot)
    y[0], ydot[0] = init.y, init.ydot
    return Trajectory(grid, y, ydot, np.zeros(grid.n_steps))


def integrate_batch(
    params: Sequence[OscillatorParams],
    init: OscState,
    forcing: Sequence[float] | np.ndarray,
    grid: TimeGrid,
    scheme: str,
) -> np.ndarray:
    """Positions of every params[j] from one start, stepped together.

    Returns a (len(params), n_steps) block whose row j is bit-identical to
    integrate_euler (scheme "euler") or integrate_rk4 (scheme "rk4") run on
    params[j]: the same step loop runs on (k,) float64 rows, and float64
    rounds every operation exactly as Python floats do.  `forcing` is
    checked as in those steppers.  The lowest-index parameter set whose
    path turns non-finite raises Divergence at its first non-finite node.
    """
    if scheme not in _STEPS:
        raise InvariantViolation(f"scheme must be 'euler' or 'rk4', got {scheme!r}")
    eps = _forcing_nodes(forcing, grid)
    ng = -np.array([p.gamma for p in params], dtype=float)
    a = np.array([p.alpha for p in params], dtype=float)
    y = np.empty((grid.n_steps, len(params)))
    v = np.empty_like(y)
    y[0], v[0] = init.y, init.ydot
    # Overflow is reported by _check_finite, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        _STEPS[scheme](y, v, eps[:-1].tolist(), ng, a, grid.dt)
    _check_finite(y, v)
    return y.T


# Bytes of positions that sweep_metrics steps at once: the parameter sets go
# through integrate_batch in column blocks of this size (at least one
# column).  integrate_batch stores the rates as well, so a block holds
# twice this, 4 MiB.  Bounds a temporary; it is not a tuning knob.
_SWEEP_BLOCK_BYTES = 2 * 2**20


def sweep_metrics(
    params: Sequence[OscillatorParams],
    init: OscState,
    forcing: Sequence[float] | np.ndarray,
    grid: TimeGrid,
    scheme: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """recovery_metrics of every params[j]'s path, as in recovery_metrics_block.

    The paths come from integrate_batch, so entry j is bit-identical to
    stepping params[j] with the scalar stepper and calling
    recovery_metrics; the lowest-index diverging parameter set raises its
    Divergence.
    """
    cols = max(1, _SWEEP_BLOCK_BYTES // (8 * grid.n_steps))
    times = grid.times()
    blocks = [
        recovery_metrics_block(
            integrate_batch(params[i : i + cols], init, forcing, grid, scheme), times
        )
        for i in range(0, len(params), cols)
    ]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def recovery_metrics_block(
    y: np.ndarray, times: np.ndarray, band: float = 0.05
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """recovery_metrics of every row of a (k, n) block of finite paths
    sampled at `times`, as four (k,) arrays in RecoveryMetrics' field order:

    settling_time   last time with |y| > band, 0.0 if never outside
    overshoot       |min y| when y starts positive and later changes sign,
                    else 0.0
    zero_crossings  count of strict sign changes (zero samples are skipped
                    when pairing signs)
    terminal_abs    |y| at the final sample
    """
    if not (math.isfinite(band) and band > 0.0):
        raise InvariantViolation(f"band must be finite and > 0, got {band!r}")
    k, n = y.shape
    # |y| > band, without a float temporary the size of y.
    outside = (y > band) | (y < -band)
    last_outside = n - 1 - np.argmax(outside[:, ::-1], axis=1)
    settling = np.where(outside.any(axis=1), times[last_outside], 0.0)
    # The sign of every nonzero sample, row after row.  A sign that differs
    # from the one before it is a crossing unless it starts its row.
    nonzero = y != 0.0
    positive = (y > 0.0)[nonzero]
    counts = np.count_nonzero(nonzero, axis=1)
    ends = np.cumsum(counts)
    flips = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    row = np.searchsorted(ends, flips, side="right")
    crossings = np.bincount(row[flips != ends[row] - counts[row]], minlength=k)
    overshoot = np.where((y[:, 0] > 0.0) & (crossings >= 1), np.abs(y.min(axis=1)), 0.0)
    return settling, overshoot, crossings, np.abs(y[:, -1])


def recovery_metrics(traj: Trajectory, band: float = 0.05) -> RecoveryMetrics:
    """Summarize the return of a trajectory into the corridor |y| <= band:
    recovery_metrics_block on the one-row block traj.y."""
    settling, overshoot, crossings, terminal = recovery_metrics_block(
        traj.y[None, :], traj.grid.times(), band
    )
    return RecoveryMetrics(
        settling_time=float(settling[0]),
        overshoot=float(overshoot[0]),
        zero_crossings=int(crossings[0]),
        terminal_abs=float(terminal[0]),
    )
