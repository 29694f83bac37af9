"""Time steppers for the forced oscillator and trajectory recovery metrics.

Both schemes take the forcing as one value per grid node and hold it as a
zero-order hold: forcing[i-1] acts, constant, over the whole step from node
i-1 to node i.  forcing[i] therefore first moves the state at node i+1, and
the last entry acts on no step.

Each scheme's arithmetic is written once, as a loop (_euler_steps,
_rk4_steps) that fills nodes 1.. of position and rate buffers from node 0.
integrate_euler and integrate_rk4 feed it Python floats, for one parameter
set, through memoryviews of (n,) arrays.  integrate_batch feeds it (k,)
float64 rows, one column per parameter set, into (n, k) arrays for
`gapdyn sweep`.  Python floats and numpy float64 both round every operation
correctly and neither fuses a multiply-add, so each column of a batch is
bit-identical to the single run.  Both kinds of call run the loop through
one driver, _run, and its _step_nodes, which stops once the state no longer
changes after the forcing's last change, found once per run by _settled_from
(a settled run decays to a float fixed point), and end in one finiteness
check, which raises Divergence at the first non-finite node.
With eps held, RK4 on x' = A x + b eps, x = (y, ydot), is the affine map
x[i] = R x[i-1] + dt S b eps[i-1]: z = A dt, S = I + z/2 + z^2/6 + z^3/24,
and R = I + z S is RK4's stability function.  Their entries come from those
scalar operations too, not `@` or np.linalg, which may reach FMA kernels.
recovery_metrics is recovery_metrics_block on a one-row block, so the
metrics have one definition.
Every array input goes through errors._check_array, and a Trajectory holds
read-only copies, so the caller's arrays stay writable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Divergence, InvariantViolation, _allocating, _check, _check_array, _check_int
from .oscillator import OscillatorParams, OscState, solve_analytic


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_steps samples spaced dt apart, starting at 0."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        _check("dt", self.dt, low=0, low_strict=True)
        _check_int("n_steps", self.n_steps, 1)

    @property
    def t_end(self) -> float:
        return (self.n_steps - 1) * self.dt

    def times(self) -> np.ndarray:
        with self._allocating():
            return self.dt * np.arange(self.n_steps)

    def _allocating(self):
        """errors._allocating for arrays of one entry per node: a MemoryError
        reads `cannot allocate a grid of n_steps=<n> nodes`."""
        return _allocating(f"a grid of n_steps={self.n_steps} nodes")


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: gap level, its rate, and the applied forcing per node."""

    grid: TimeGrid
    y: np.ndarray
    ydot: np.ndarray
    forcing: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "ydot", "forcing"):
            # A copy: freezing the caller's own array would make it read-only.
            arr = _check_array(name, getattr(self, name), self.grid.n_steps).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# Half-width of the corridor around trend that recovery_metrics measures.
_BAND = 0.05


@dataclass(frozen=True)
class RecoveryMetrics:
    """How a trajectory returns into the |y| <= _BAND corridor around trend."""

    settling_time: float
    overshoot: float
    zero_crossings: int
    terminal_abs: float


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
    """Fill nodes 1..len(eps) of y and v from node 0 as _euler_steps does, by
    RK4's map: S = I + z/2 (I + z/3 (I + z/4)) by Horner on the entries
    [[p, q], [r, s]], then R = I + z S, and gy, gv = dt S (0, 1)."""
    p, q, r, s = 1.0, 0.0, 0.0, 1.0
    for h in (dt / 4.0, dt / 3.0, dt / 2.0):
        p, q, r, s = 1.0 + h * r, h * s, h * (ng * r - a * p), 1.0 + h * (ng * s - a * q)
    gy, gv = dt * q, dt * s
    p, q, r, s = 1.0 + dt * r, dt * s, dt * (ng * r - a * p), 1.0 + dt * (ng * s - a * q)
    yi, vi = y[0], v[0]
    for i, e in enumerate(eps, start=1):
        yi, vi = p * yi + q * vi + gy * e, r * yi + s * vi + gv * e
        y[i] = yi
        v[i] = vi


_STEPS = {"euler": _euler_steps, "rk4": _rk4_steps}


def _scheme(name: str, scheme):
    """The step loop of `scheme`, a key of _STEPS; any other value raises
    InvariantViolation as the value of `name`."""
    if not (isinstance(scheme, str) and scheme in _STEPS):
        names = " or ".join(map(repr, _STEPS))
        raise InvariantViolation(f"{name} must be {names}, got {scheme!r}")
    return _STEPS[scheme]


# Steps between two checks for a settled state: bounds the steps taken after
# a run settles.  It is also how many nodes a loop over Python floats holds
# as Python objects at once (here, in shocks.realize's AR(1) recursion and
# in analytic_trajectory), so their memory does not grow with the grid.
# Not a tuning knob.
_CHUNK = 1024


def _step_nodes(steps, y, v, eps, ng, a, dt) -> None:
    """Fill nodes 1.. of the (n,) or (n, k) positions y and rates v from
    node 0 with `steps` (_euler_steps or _rk4_steps), _CHUNK steps a call.

    The forcing is read once, before stepping: quiet is the first step
    after which every later step's forcing, eps[quiet:-1], is one value bit
    for bit.  After a call that ends at node i > quiet, stepping stops when
    node i is equal bit for bit to node i-1 (in every column): each later
    step then has the inputs of step i and gives node i again, so node i
    fills the rest.  Bitwise, so -0.0 and +0.0 stay apart.  One parameter
    set (1-d buffers) steps on Python floats through memoryviews.
    """
    rows = memoryview if y.ndim == 1 else np.asarray
    last = len(eps) - 1
    quiet = _settled_from((eps[:last],))
    yb, vb = y.view(np.int64), v.view(np.int64)
    for start in range(0, last, _CHUNK):
        i = min(start + _CHUNK, last)
        steps(rows(y[start:]), rows(v[start:]), eps[start:i].tolist(), ng, a, dt)
        if quiet < i < last and np.all(yb[i] == yb[i - 1]) and np.all(vb[i] == vb[i - 1]):
            y[i + 1 :] = y[i]
            v[i + 1 :] = v[i]
            return


def _settled_from(columns: tuple[np.ndarray, ...]) -> int:
    """The first row from which every column keeps its bits to the end (0
    for columns of no rows)."""
    changed = np.zeros(max(len(columns[0]) - 1, 0), bool)
    for col in columns:
        bits = col.view(np.int64)
        changed |= bits[1:] != bits[:-1]
    last = np.flatnonzero(changed)
    return int(last[-1]) + 1 if last.size else 0


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
    scheme.  `forcing` supplies one finite value per grid node.  A
    non-finite state aborts with Divergence naming its first node.
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
    integrate_euler.  Step i >= 1 holds forcing[i-1] in all four stages, the
    zero-order hold of integrate_euler, and is the affine map R, S of the
    module docstring.  A non-finite state aborts with Divergence naming its
    first node, node 1 if an entry of R or S overflows (gamma*dt > ~1e77).
    """
    return _integrate_one(_rk4_steps, params, init, forcing, grid)


def _integrate_one(steps, params, init, forcing, grid) -> Trajectory:
    """One parameter set stepped on Python floats into (n,) arrays."""
    return Trajectory(grid, *_run(steps, -params.gamma, params.alpha, init, forcing, grid, ()))


def _run(steps, ng, a, init, forcing, grid, cols):
    """(y, v, eps): the (n, *cols) positions and rates that `steps` fills
    from `init` with ng = -gamma and a = alpha (Python floats for cols (),
    (k,) rows for cols (k,)), and the checked forcing.  A non-finite node
    raises Divergence, as _check_finite does."""
    eps = _check_array("forcing", forcing, grid.n_steps)
    with grid._allocating():
        y = np.empty((grid.n_steps, *cols))
        v = np.empty_like(y)
    y[0], v[0] = init.y, init.ydot
    # Overflow to inf is reported as Divergence, so silence the warning that
    # (k,) rows or numpy scalars in `params` would give.
    with np.errstate(over="ignore", invalid="ignore"):
        if y.size:  # else cols is (0,): no parameter set to step
            _step_nodes(steps, y, v, eps, ng, a, grid.dt)
    _check_finite(y.reshape(grid.n_steps, -1), v.reshape(grid.n_steps, -1))
    return y, v, eps


def analytic_trajectory(params: OscillatorParams, init: OscState, grid: TimeGrid) -> Trajectory:
    """Sample the closed-form unforced solution on a grid (forcing is zero):
    solve_analytic at each node, so the two agree bit for bit.

    The times go to Python floats _CHUNK nodes at a time, and each state's
    y and ydot are stored into float64 arrays through memoryviews, so no
    per-node object outlives its chunk.
    """
    times = grid.times()
    with grid._allocating():
        y, v, eps = np.empty(grid.n_steps), np.empty(grid.n_steps), np.zeros(grid.n_steps)
    y_store, v_store = memoryview(y), memoryview(v)
    for start in range(0, grid.n_steps, _CHUNK):
        for i, t in enumerate(times[start : start + _CHUNK].tolist(), start):
            state = solve_analytic(params, init, t)
            y_store[i] = state.y
            v_store[i] = state.ydot
    return Trajectory(grid, y, v, eps)


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
    steps = _scheme("scheme", scheme)
    ng = -np.array([p.gamma for p in params], dtype=float)
    a = np.array([p.alpha for p in params], dtype=float)
    return _run(steps, ng, a, init, forcing, grid, (len(params),))[0].T


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
    Divergence.  No parameter sets give four (0,) arrays, after the same
    checks of `scheme` and `forcing`.
    """
    cols = max(1, _SWEEP_BLOCK_BYTES // (8 * grid.n_steps))
    times = grid.times()
    # At least one block, so an empty `params` is checked too.
    blocks = [
        recovery_metrics_block(
            integrate_batch(params[i : i + cols], init, forcing, grid, scheme), times
        )
        for i in range(0, max(len(params), 1), cols)
    ]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def recovery_metrics_block(
    y: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """recovery_metrics of every row of a (k, n) block of finite paths
    sampled at `times`, as four (k,) arrays in RecoveryMetrics' field order:

    settling_time   last time with |y| > _BAND (0.05), 0.0 if never outside
    overshoot       max(-s*y), where s is the sign of the first nonzero
                    sample, when y changes sign, else 0.0; so -y has the
                    metrics of y
    zero_crossings  count of strict sign changes (zero samples are skipped
                    when pairing signs)
    terminal_abs    |y| at the final sample
    """
    k, n = y.shape
    # |y| > _BAND, without a float temporary the size of y.
    outside = (y > _BAND) | (y < -_BAND)
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
    first = y[np.arange(k), np.argmax(nonzero, axis=1)]
    overshoot = np.where(first > 0.0, -y.min(axis=1), y.max(axis=1))
    overshoot = np.where(crossings >= 1, overshoot, 0.0)
    return settling, overshoot, crossings, np.abs(y[:, -1])


def recovery_metrics(traj: Trajectory) -> RecoveryMetrics:
    """Summarize the return of a trajectory into the corridor |y| <= _BAND
    (0.05): recovery_metrics_block on the one-row block traj.y."""
    settling, overshoot, crossings, terminal = recovery_metrics_block(
        traj.y[None, :], traj.grid.times()
    )
    return RecoveryMetrics(
        settling_time=float(settling[0]),
        overshoot=float(overshoot[0]),
        zero_crossings=int(crossings[0]),
        terminal_abs=float(terminal[0]),
    )
