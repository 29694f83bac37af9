"""Fixed-step integrators, trajectory containers, and recovery metrics."""

import math
import warnings

import numpy as np
import pytest

from gapdyn import (
    Divergence,
    Impulse,
    InvariantViolation,
    OscState,
    OscillatorParams,
    TimeGrid,
    Trajectory,
    WhiteNoise,
    analytic_trajectory,
    integrate_euler,
    integrate_rk4,
    recovery_metrics,
    realize,
    solve_analytic,
)
import gapdyn.integrate as integrate
from gapdyn.integrate import _rk4_steps, integrate_batch

UNDER = OscillatorParams(gamma=0.5, alpha=1.0)
CRITICAL = OscillatorParams(gamma=2.0, alpha=1.0)
OVER = OscillatorParams(gamma=4.0, alpha=1.0)
UNIT_START = OscState(y=1.0, ydot=0.0)
GRID = TimeGrid(dt=0.1, n_steps=201)
ZERO_FORCING = np.zeros(201)


class TestTimeGrid:
    def test_span(self):
        assert GRID.t_end == pytest.approx(20.0)
        times = GRID.times()
        assert times.shape == (201,)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(20.0)

    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            TimeGrid(dt=0.0, n_steps=10)
        with pytest.raises(InvariantViolation):
            TimeGrid(dt=-0.1, n_steps=10)
        with pytest.raises(InvariantViolation):
            TimeGrid(dt=0.1, n_steps=0)


class TestTrajectoryType:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvariantViolation):
            Trajectory(GRID, np.zeros(200), np.zeros(201), np.zeros(201))

    def test_non_finite_rejected(self):
        y = np.zeros(201)
        y[5] = math.nan
        with pytest.raises(InvariantViolation):
            Trajectory(GRID, y, np.zeros(201), np.zeros(201))

    def test_samples_are_read_only(self):
        traj = analytic_trajectory(CRITICAL, UNIT_START, GRID)
        with pytest.raises(ValueError):
            traj.y[0] = 5.0


class TestEuler:
    def test_single_step_by_hand(self):
        # accel = -2*0 - 1*1 = -1; ydot1 = -0.1; y1 advances on the old rate
        grid = TimeGrid(0.1, 2)
        traj = integrate_euler(CRITICAL, UNIT_START, np.zeros(2), grid)
        assert traj.ydot[1] == -0.1
        assert traj.y[1] == 1.0

    def test_fixed_point_at_origin(self):
        traj = integrate_euler(OVER, OscState(0.0, 0.0), ZERO_FORCING, GRID)
        assert np.all(traj.y == 0.0)
        assert np.all(traj.ydot == 0.0)

    def test_under_damped_overshoots(self):
        traj = integrate_euler(UNDER, UNIT_START, ZERO_FORCING, GRID)
        assert traj.y.min() < 0.0

    def test_forcing_length_checked(self):
        with pytest.raises(InvariantViolation):
            integrate_euler(CRITICAL, UNIT_START, np.zeros(5), GRID)

    def test_forcing_must_be_finite(self):
        bad = np.zeros(201)
        bad[3] = math.inf
        with pytest.raises(InvariantViolation):
            integrate_euler(CRITICAL, UNIT_START, bad, GRID)

    def test_divergence_reports_step(self):
        # dt*gamma = 5 makes the explicit scheme violently unstable
        stiff = OscillatorParams(gamma=50.0, alpha=1.0)
        with pytest.raises(Divergence) as excinfo:
            integrate_euler(stiff, OscState(1e300, 0.0), ZERO_FORCING, GRID)
        assert excinfo.value.step == 15
        assert "step 15" in str(excinfo.value)

    def test_stays_near_analytic_on_critical_case(self):
        ana = analytic_trajectory(CRITICAL, UNIT_START, GRID)
        eul = integrate_euler(CRITICAL, UNIT_START, ZERO_FORCING, GRID)
        assert np.max(np.abs(eul.y - ana.y)) < 0.05


class TestRk4:
    def test_critical_value_at_unit_time(self):
        grid = TimeGrid(0.1, 11)
        traj = integrate_rk4(CRITICAL, UNIT_START, np.zeros(11), grid)
        assert abs(traj.y[-1] - 2.0 * math.exp(-1.0)) < 1.1e-6

    def test_fixed_point_at_origin(self):
        traj = integrate_rk4(UNDER, OscState(0.0, 0.0), ZERO_FORCING, GRID)
        assert np.all(traj.y == 0.0)

    def test_full_period_cosine_return(self):
        # one full period of the undamped oscillator in 628 steps
        n = 629
        grid = TimeGrid(2.0 * math.pi / 628.0, n)
        traj = integrate_rk4(OscillatorParams(0.0, 1.0), UNIT_START, np.zeros(n), grid)
        assert abs(traj.y[-1] - 1.0) < 1e-8

    def test_much_tighter_than_euler(self):
        ana = analytic_trajectory(CRITICAL, UNIT_START, GRID)
        rk4 = integrate_rk4(CRITICAL, UNIT_START, ZERO_FORCING, GRID)
        assert np.max(np.abs(rk4.y - ana.y)) < 1e-5

    def test_records_forcing_at_nodes(self):
        grid = TimeGrid(0.5, 5)
        traj = integrate_rk4(CRITICAL, UNIT_START, 2.0 * grid.times(), grid)
        assert np.allclose(traj.forcing, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_forcing_length_checked(self):
        with pytest.raises(InvariantViolation):
            integrate_rk4(CRITICAL, UNIT_START, np.zeros(5), GRID)

    def test_forcing_must_be_finite(self):
        bad = np.zeros(201)
        bad[3] = math.nan
        with pytest.raises(InvariantViolation):
            integrate_rk4(CRITICAL, UNIT_START, bad, GRID)

    def test_divergence_reports_step_without_warnings(self):
        # numpy scalar params are held as Python floats, so the stages are
        # floats too; their overflow must surface as Divergence, not as a
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Divergence) as info:
                integrate_rk4(OscillatorParams(np.float64(50), np.float64(1)),
                              OscState(1e300, 0), np.zeros(201), TimeGrid(0.1, 201))
        # 9, not 8: the affine map forms no stage values, which overflowed at 8
        assert info.value.step == 9


class TestOverflowingStepMap:
    """Once gamma*dt or alpha*dt**2 is large enough, an entry of RK4's step
    map R or S overflows; node 1 is then inf or 0*inf = nan from any start
    and forcing, so the run raises Divergence at step 1."""

    CASES = [
        (OscillatorParams(1e100, 1.0), OscState(0.0, 0.0)),
        (OscillatorParams(1e80, 1.0), OscState(1.0, 0.0)),
        (OscillatorParams(2e78, 1.0), OscState(0.0, -3.0)),
        (OscillatorParams(0.0, 1e300), OscState(1.0, 1.0)),
    ]

    @pytest.mark.parametrize("params", [params for params, _ in CASES])
    def test_map_is_non_finite(self, params):
        # the columns of R and dt S (0, 1): one step from (1, 0), from (0, 1),
        # and from (0, 0) under unit forcing
        entries = []
        for y0, v0, e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            y, v = [y0, 0.0], [v0, 0.0]
            _rk4_steps(y, v, [e], -params.gamma, params.alpha, GRID.dt)
            entries += [y[1], v[1]]
        assert not all(map(math.isfinite, entries))

    @pytest.mark.parametrize("params, init", CASES)
    @pytest.mark.parametrize("forcing", [np.zeros(201), np.ones(201)], ids=["zero", "one"])
    def test_divergence_at_step_1(self, params, init, forcing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Divergence) as info:
                integrate_rk4(params, init, forcing, GRID)
            assert info.value.step == 1
            with pytest.raises(Divergence) as info:
                integrate_batch([UNDER, params], init, forcing, GRID, "rk4")
            assert info.value.step == 1


class TestDivergenceAfterStepping:
    """Both steppers check finiteness once, after the loop, and name the
    first non-finite node: the step where the old per-step check raised."""

    # With gamma = 0 and a tiny alpha, ydot stays at 1e307 while y grows by
    # 1e307 a unit step from 1e308 and overflows at step 8.
    PARAMS = OscillatorParams(gamma=0.0, alpha=1e-300)
    START = OscState(y=1e308, ydot=1e307)

    @pytest.mark.parametrize("step", [integrate_euler, integrate_rk4])
    def test_y_overflows_before_ydot(self, step):
        before = step(self.PARAMS, self.START, np.zeros(8), TimeGrid(1.0, 8))
        assert before.ydot[-1] == 1e307 and float(before.y[-1]) + 1e307 == math.inf
        with pytest.raises(Divergence) as info:
            step(self.PARAMS, self.START, np.zeros(20), TimeGrid(1.0, 20))
        assert info.value.step == 8
        assert str(info.value) == "non-finite state at step 8"

    @pytest.mark.parametrize("step", [integrate_euler, integrate_rk4])
    def test_blow_up_at_the_last_step(self, step):
        with pytest.raises(Divergence) as info:
            step(self.PARAMS, self.START, np.zeros(9), TimeGrid(1.0, 9))
        assert info.value.step == 8
        assert str(info.value) == "non-finite state at step 8"


def _euler_reference(params, init, eps, grid):
    # the per-element numpy loop the integrator replaced; same arithmetic
    y, v = np.empty(grid.n_steps), np.empty(grid.n_steps)
    y[0], v[0] = init.y, init.ydot
    for i in range(1, grid.n_steps):
        accel = -params.gamma * v[i - 1] - params.alpha * y[i - 1] + eps[i - 1]
        v[i] = v[i - 1] + accel * grid.dt
        y[i] = y[i - 1] + v[i - 1] * grid.dt
    return y, v


def _rk4_map_reference(params, init, eps, grid):
    # per-element numpy loop over RK4's affine step map, with z = A dt:
    # S = I + z/2 (I + z/3 (I + z/4)), R = I + z S, x[i] = R x[i-1] + dt S b e;
    # every 2x2 product is written out entry by entry
    dt = grid.dt
    A = ((0.0, 1.0), (-params.alpha, -params.gamma))

    def identity_plus(h, M):
        return [[float(i == j) + h * (A[i][0] * M[0][j] + A[i][1] * M[1][j])
                 for j in (0, 1)] for i in (0, 1)]

    S = [[1.0, 0.0], [0.0, 1.0]]
    for h in (dt / 4.0, dt / 3.0, dt / 2.0):
        S = identity_plus(h, S)
    R = identity_plus(dt, S)
    g = (dt * S[0][1], dt * S[1][1])
    x = np.empty((grid.n_steps, 2))
    x[0] = init.y, init.ydot
    for i in range(1, grid.n_steps):
        for j in (0, 1):
            x[i, j] = R[j][0] * x[i - 1, 0] + R[j][1] * x[i - 1, 1] + g[j] * eps[i - 1]
    return x[:, 0], x[:, 1]


def _rk4_reference(params, init, eps, grid):
    # per-element numpy loop over RK4's four stages; every stage of step i
    # holds eps[i - 1]
    g, a, dt = params.gamma, params.alpha, grid.dt
    half = 0.5 * dt
    y, v = np.empty(grid.n_steps), np.empty(grid.n_steps)
    y[0], v[0] = init.y, init.ydot
    for i in range(1, grid.n_steps):
        yi, vi, e = y[i - 1], v[i - 1], eps[i - 1]
        k1y, k1v = vi, -g * vi - a * yi + e
        k2y = vi + half * k1v
        k2v = -g * k2y - a * (yi + half * k1y) + e
        k3y = vi + half * k2v
        k3v = -g * k3y - a * (yi + half * k2y) + e
        k4y = vi + dt * k3v
        k4v = -g * k4y - a * (yi + dt * k3y) + e
        y[i] = yi + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v[i] = vi + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


class TestMatchesElementLoop:
    """Bit-for-bit agreement with stepping that indexes numpy arrays per node."""

    GRID = TimeGrid(dt=0.05, n_steps=1500)

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER])
    def test_euler(self, params):
        eps = np.random.default_rng(4).normal(size=self.GRID.n_steps)
        eps[::7] = -0.0
        init = OscState(0.3, -1.25)
        traj = integrate_euler(params, init, eps, self.GRID)
        y, v = _euler_reference(params, init, eps, self.GRID)
        assert traj.y.tobytes() == y.tobytes()
        assert traj.ydot.tobytes() == v.tobytes()

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER])
    @pytest.mark.parametrize("kind", ["float", "numpy", "int"])
    def test_rk4(self, params, kind):
        table = np.random.default_rng(5).normal(size=self.GRID.n_steps)
        forcing = {
            "float": table.tolist(),
            "numpy": table,
            "int": (8 * table).astype(np.int64),
        }[kind]
        init = OscState(0.3, -1.25)
        traj = integrate_rk4(params, init, forcing, self.GRID)
        eps = np.asarray(forcing, dtype=float)
        y, v = _rk4_map_reference(params, init, eps, self.GRID)
        assert traj.y.tobytes() == y.tobytes()
        assert traj.ydot.tobytes() == v.tobytes()
        assert traj.forcing.tobytes() == eps.tobytes()
        # the four stages and the map are one scheme, up to rounding
        y, v = _rk4_reference(params, init, eps, self.GRID)
        limit = 1e-13 * max(np.max(np.abs(y)), np.max(np.abs(v)))
        assert np.max(np.abs(traj.y - y)) <= limit
        assert np.max(np.abs(traj.ydot - v)) <= limit


class TestSettledRuns:
    """The steppers stop once the state repeats bit for bit under constant
    forcing and fill the rest; single runs and batch columns must equal a
    loop that steps every node, and a kick after a stall must still act."""

    GRID = TimeGrid(dt=0.5, n_steps=4000)
    PARAMS = [CRITICAL, OscillatorParams(gamma=2.0, alpha=0.75)]
    START = OscState(1.0, 0.3)
    REFERENCE = {"euler": _euler_reference, "rk4": _rk4_map_reference}
    SINGLE = {"euler": integrate_euler, "rk4": integrate_rk4}

    @staticmethod
    def _forcing(kind):
        eps = np.zeros(TestSettledRuns.GRID.n_steps)
        if kind == "step":
            eps[300:] = 2.5
        elif kind == "release":
            # settled under 2.5, released by the last entry a check at node
            # _CHUNK reads: that step repeats the state, the next one does not
            eps[: integrate._CHUNK] = 2.5
        elif kind == "kick":
            eps[3500] = 3.0
        elif kind == "last":
            # the last entry drives no step, so it cannot keep a run stepping
            eps[-1] = 3.0
        return eps

    @pytest.fixture
    def stepped(self, monkeypatch):
        """Nodes the step loops fill, summed over calls."""
        counts = []
        for scheme in ("euler", "rk4"):
            loop = integrate._STEPS[scheme]

            def counting(y, v, eps, ng, a, dt, loop=loop):
                counts.append(len(eps))
                loop(y, v, eps, ng, a, dt)

            monkeypatch.setattr(integrate, f"_{scheme}_steps", counting)
            monkeypatch.setitem(integrate._STEPS, scheme, counting)
        return counts

    # Both parameter sets repeat a state by node 2979 unforced and by node
    # 450 under the step, so stepping stops before the last of 3999 steps;
    # after the release only CRITICAL settles again.
    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind, settles", [
        ("none", True), ("step", True), ("release", None), ("kick", False), ("last", True),
    ])
    def test_matches_full_length_loop(self, stepped, scheme, kind, settles):
        eps = self._forcing(kind)
        last = self.GRID.n_steps - 1
        for j, params in enumerate(self.PARAMS):
            y, v = self.REFERENCE[scheme](params, self.START, eps, self.GRID)
            stepped.clear()
            traj = self.SINGLE[scheme](params, self.START, eps, self.GRID)
            assert traj.y.tobytes() == y.tobytes()
            assert traj.ydot.tobytes() == v.tobytes()
            # the fill path was taken, or (a late kick) every node was stepped
            assert settles is None or (sum(stepped) < last) == settles
            block = integrate_batch(self.PARAMS, self.START, eps, self.GRID, scheme)
            assert block[j].tobytes() == y.tobytes()
        stepped.clear()
        integrate_batch(self.PARAMS, self.START, eps, self.GRID, scheme)
        assert settles is None or (sum(stepped) < last) == settles

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", ["none", "kick"])
    def test_forcing_is_read_once_a_run(self, monkeypatch, scheme, kind):
        # Where the forcing stops changing is decided from the input before
        # stepping, not rescanned at every check for a settled state.
        calls = []

        def counting(columns):
            calls.append(len(columns[0]))
            return settled_from(columns)

        settled_from = integrate._settled_from
        monkeypatch.setattr(integrate, "_settled_from", counting)
        eps = self._forcing(kind)
        self.SINGLE[scheme](CRITICAL, self.START, eps, self.GRID)
        assert calls == [self.GRID.n_steps - 1]
        calls.clear()
        integrate_batch(self.PARAMS, self.START, eps, self.GRID, scheme)
        assert calls == [self.GRID.n_steps - 1]

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("params, start", [
        # y = 1e8 moves by less than half an ulp a step while the rate decays
        (OscillatorParams(gamma=0.01, alpha=1e-20), OscState(1e8, 1e-9)),
        # the rate keeps its bits while y drifts
        (OscillatorParams(gamma=0.0, alpha=1e-300), OscState(1.0, 1.0)),
    ], ids=["rate-moves", "position-moves"])
    def test_one_coordinate_still_moving(self, scheme, params, start):
        eps = np.zeros(self.GRID.n_steps)
        y, v = self.REFERENCE[scheme](params, start, eps, self.GRID)
        i = integrate._CHUNK
        assert (y[i] == y[i - 1]) != (v[i] == v[i - 1])  # repeats in one only
        traj = self.SINGLE[scheme](params, start, eps, self.GRID)
        assert traj.y.tobytes() == y.tobytes()
        assert traj.ydot.tobytes() == v.tobytes()
        block = integrate_batch([params], start, eps, self.GRID, scheme)
        assert block[0].tobytes() == y.tobytes()

    @pytest.mark.parametrize("scheme, params", [
        ("euler", OscillatorParams(gamma=0.5, alpha=5.0)),
        ("rk4", OscillatorParams(gamma=0.0, alpha=35.0)),
    ])
    def test_divergence_at_the_same_node(self, scheme, params):
        with np.errstate(over="ignore", invalid="ignore"):
            y, v = self.REFERENCE[scheme](params, self.START, np.zeros(4000), self.GRID)
        first = int(np.argmin(np.isfinite(y) & np.isfinite(v)))
        assert integrate._CHUNK < first < 3999  # past the first settled-state check
        with pytest.raises(Divergence) as info:
            self.SINGLE[scheme](params, self.START, np.zeros(4000), self.GRID)
        assert info.value.step == first
        with pytest.raises(Divergence) as info:
            integrate_batch([CRITICAL, params], self.START, np.zeros(4000), self.GRID, scheme)
        assert info.value.step == first

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_divergence_past_a_chunk_matches_a_short_run(self, stepped, scheme):
        # The run overflows within its first chunk and its nan nodes then
        # repeat bit for bit, so stepping stops at the first check and fills
        # the rest: the Divergence step is that of the run cut to 1000 nodes.
        params = OscillatorParams(gamma=3.0, alpha=100.0)
        steps = []
        for n in (1000, 5001):
            grid = TimeGrid(dt=0.5, n_steps=n)
            stepped.clear()
            with pytest.raises(Divergence) as single:
                self.SINGLE[scheme](params, self.START, np.zeros(n), grid)
            filled = sum(stepped) < n - 1
            with pytest.raises(Divergence) as batch:
                integrate_batch([CRITICAL, params], self.START, np.zeros(n), grid, scheme)
            steps.append((single.value.step, batch.value.step, filled))
        assert steps[0][0] == steps[0][1] < 999
        assert steps[1] == (steps[0][0], steps[0][0], True)


def _zoh_exact(params, init, eps, grid):
    # exact solution under the zero-order hold: over a step that holds e the
    # constant e/alpha solves the forced equation, so the state moves as the
    # unforced flow of its offset from (e/alpha, 0)
    y, v = np.empty(grid.n_steps), np.empty(grid.n_steps)
    y[0], v[0] = init.y, init.ydot
    for i in range(1, grid.n_steps):
        rest = eps[i - 1] / params.alpha
        h = solve_analytic(params, OscState(y[i - 1] - rest, v[i - 1]), grid.dt)
        y[i], v[i] = h.y + rest, h.ydot
    return y, v


class TestZeroOrderHold:
    """Both steppers integrate eps[i - 1] held over step i."""

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER])
    @pytest.mark.parametrize(
        "shock", [WhiteNoise(sigma=1.0, seed=3), Impulse(at=50.0, magnitude=5.0)]
    )
    def test_rk4_matches_exact_hold(self, params, shock):
        grid = TimeGrid(0.1, 2001)
        eps = realize(shock, grid)
        traj = integrate_rk4(params, UNIT_START, eps, grid)
        y, v = _zoh_exact(params, UNIT_START, eps, grid)
        limit = 1e-3 * np.max(np.abs(eps)) * grid.dt
        assert np.max(np.abs(traj.y - y)) <= limit
        assert np.max(np.abs(traj.ydot - v)) <= limit

    @pytest.mark.parametrize("step", [integrate_euler, integrate_rk4])
    def test_impulse_first_moves_the_next_node(self, step):
        k = 40
        eps = np.zeros(GRID.n_steps)
        eps[k] = 5.0
        free = step(UNDER, UNIT_START, ZERO_FORCING, GRID)
        forced = step(UNDER, UNIT_START, eps, GRID)
        assert np.array_equal(forced.y[: k + 1], free.y[: k + 1])
        assert np.array_equal(forced.ydot[: k + 1], free.ydot[: k + 1])
        assert forced.ydot[k + 1] != free.ydot[k + 1]


class TestConvergenceOrder:
    def _max_err(self, params, integrator, dt):
        n = math.floor(20.0 / dt) + 1
        grid = TimeGrid(dt, n)
        ana = analytic_trajectory(params, UNIT_START, grid)
        if integrator == "euler":
            num = integrate_euler(params, UNIT_START, np.zeros(n), grid)
        else:
            num = integrate_rk4(params, UNIT_START, np.zeros(n), grid)
        return float(np.max(np.abs(num.y - ana.y)))

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER])
    def test_euler_first_order(self, params):
        ratio = self._max_err(params, "euler", 0.1) / self._max_err(params, "euler", 0.05)
        assert 1.7 <= ratio <= 2.3

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER])
    def test_rk4_fourth_order(self, params):
        ratio = self._max_err(params, "rk4", 0.1) / self._max_err(params, "rk4", 0.05)
        assert 12.0 <= ratio <= 20.0


class TestLinearity:
    def test_superposition_both_integrators(self):
        rng = np.random.default_rng(23)
        zero = OscState(0.0, 0.0)
        for _ in range(25):
            n = int(rng.integers(30, 120))
            grid = TimeGrid(0.1, n)
            params = OscillatorParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.1, 2.0)))
            e1 = rng.normal(size=n)
            e2 = rng.normal(size=n)
            a = integrate_euler(params, zero, e1, grid)
            b = integrate_euler(params, zero, e2, grid)
            combined = integrate_euler(params, zero, e1 + e2, grid)
            scale = max(np.max(np.abs(combined.y)), 1e-30)
            assert np.max(np.abs(combined.y - (a.y + b.y))) < 1e-10 * scale

            ra = integrate_rk4(params, zero, e1, grid)
            rb = integrate_rk4(params, zero, e2, grid)
            rc = integrate_rk4(params, zero, e1 + e2, grid)
            scale = max(np.max(np.abs(rc.y)), 1e-30)
            assert np.max(np.abs(rc.y - (ra.y + rb.y))) < 1e-10 * scale

    def test_impulse_doubling_is_exact(self):
        zero = OscState(0.0, 0.0)
        single = np.zeros(201)
        single[50] = 1.0
        a = integrate_euler(CRITICAL, zero, single, GRID)
        b = integrate_euler(CRITICAL, zero, 2.0 * single, GRID)
        assert np.array_equal(2.0 * a.y, b.y)


class TestRecoveryMetrics:
    def test_over_damped_never_crosses(self):
        m = recovery_metrics(analytic_trajectory(OVER, UNIT_START, GRID))
        assert m.zero_crossings == 0
        assert m.overshoot == 0.0
        assert m.settling_time == pytest.approx(11.4)

    def test_under_damped_overshoots(self):
        m = recovery_metrics(analytic_trajectory(UNDER, UNIT_START, GRID))
        assert m.zero_crossings >= 1
        assert m.zero_crossings == 6
        assert m.overshoot == pytest.approx(0.4438985999564005, rel=1e-12)
        assert m.settling_time == pytest.approx(10.7)

    def test_critical_settles_fast(self):
        m = recovery_metrics(analytic_trajectory(CRITICAL, UNIT_START, GRID))
        assert m.zero_crossings == 0
        assert m.settling_time == pytest.approx(4.7)
        assert m.terminal_abs < 1e-7

    def test_all_zero_trajectory(self):
        traj = Trajectory(GRID, np.zeros(201), np.zeros(201), np.zeros(201))
        m = recovery_metrics(traj)
        assert m.settling_time == 0.0
        assert m.zero_crossings == 0
        assert m.overshoot == 0.0
        assert m.terminal_abs == 0.0

    def test_zero_samples_do_not_count_as_crossings(self):
        grid = TimeGrid(1.0, 5)
        traj = Trajectory(grid, np.array([1.0, 0.0, 1.0, -1.0, 1.0]), np.zeros(5), np.zeros(5))
        assert recovery_metrics(traj).zero_crossings == 2
