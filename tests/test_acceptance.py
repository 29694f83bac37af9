"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single `criterion N (<label>): PASS|FAIL` line (visible
under `pytest -s`) and then asserts, so the suite doubles as a checklist.
Numerical thresholds that were calibrated rather than derived are pinned to
the calibration results and commented at the point of use.
"""

import contextlib
import io
import math
import time

import numpy as np

from gapdyn import (
    Degenerate,
    NonStationary,
    ObservedSeries,
    OscillatorParams,
    OscState,
    TimeGrid,
    analytic_trajectory,
    discretize_exact,
    energy,
    estimate_ar2,
    estimate_mle,
    integrate_euler,
    integrate_rk4,
    recovery_metrics,
    standard_normals,
)
from gapdyn.cli import main as cli_main

REST = OscState(1.0, 0.0)
GRID = TimeGrid(0.1, 201)  # t in [0, 20] inclusive


def _report(n: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"criterion {n} ({label}): {status}")
    assert not failures, f"criterion {n} ({label}): " + "; ".join(failures)


def _check_runtime(failures: list, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:g}s")


def test_01_three_regime_recovery():
    failures = []
    started = time.perf_counter()
    eps = np.zeros(GRID.n_steps)
    for gamma, oscillatory in [(0.5, True), (2.0, False), (4.0, False)]:
        params = OscillatorParams(gamma=gamma, alpha=1.0)
        numeric = integrate_euler(params, REST, eps, GRID)
        crossings = recovery_metrics(numeric).zero_crossings
        if oscillatory and crossings < 1:
            failures.append(f"gamma={gamma}: expected oscillation, got {crossings} crossings")
        if not oscillatory and crossings != 0:
            failures.append(f"gamma={gamma}: expected monotone return, got {crossings} crossings")
        terminal = abs(numeric.y[-1])
        if not terminal < 0.05:
            failures.append(f"gamma={gamma}: numeric |y(20)|={terminal:.3g} not < 0.05")
        exact = abs(analytic_trajectory(params, REST, GRID).y[-1])
        if not exact < 0.01:
            failures.append(f"gamma={gamma}: exact |y(20)|={exact:.3g} not < 0.01")
    _check_runtime(failures, started, 1.0)
    _report(1, "three-regime recovery", failures)


def test_02_integrator_convergence():
    failures = []
    started = time.perf_counter()
    params = OscillatorParams(gamma=2.0, alpha=1.0)

    def euler_error(dt: float) -> float:
        n = math.floor(20.0 / dt) + 1
        grid = TimeGrid(dt, n)
        numeric = integrate_euler(params, REST, np.zeros(n), grid)
        exact = analytic_trajectory(params, REST, grid)
        return float(np.max(np.abs(numeric.y - exact.y)))

    ratio = euler_error(0.1) / euler_error(0.05)  # calibrated: 2.044
    if not 1.7 <= ratio <= 2.3:
        failures.append(f"first-order error ratio {ratio:.3f} outside [1.7, 2.3]")

    rk4 = integrate_rk4(params, REST, np.zeros(GRID.n_steps), GRID)
    exact = analytic_trajectory(params, REST, GRID)
    rk4_error = float(np.max(np.abs(rk4.y - exact.y)))  # calibrated: 1.07e-6
    if not rk4_error < 1e-5:
        failures.append(f"fourth-order error {rk4_error:.3g} not < 1e-5")
    _check_runtime(failures, started, 1.0)
    _report(2, "integrator convergence", failures)


def test_03_critical_is_fastest():
    failures = []
    started = time.perf_counter()
    settle = {}
    for gamma in (0.5, 2.0, 4.0):
        traj = analytic_trajectory(OscillatorParams(gamma=gamma, alpha=1.0), REST, GRID)
        settle[gamma] = recovery_metrics(traj).settling_time
    # calibrated: 4.7 < 10.7 (under) and 4.7 < 11.4 (over)
    if not settle[2.0] < settle[0.5]:
        failures.append(f"critical {settle[2.0]} not faster than under-damped {settle[0.5]}")
    if not settle[2.0] < settle[4.0]:
        failures.append(f"critical {settle[2.0]} not faster than over-damped {settle[4.0]}")
    _check_runtime(failures, started, 1.0)
    _report(3, "critical damping fastest", failures)


def test_04_estimator_round_trip():
    failures = []
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        gamma = float(rng.uniform(0.05, 4.0))
        alpha = float(rng.uniform(0.05, 4.0))
        params = OscillatorParams(gamma, alpha)
        # repeated-root neighborhood is ill-conditioned; held to a looser bar below
        near_critical = abs(params.discriminant) <= 1e-6 * max(gamma * gamma, 4.0 * alpha)
        if near_critical:
            continue
        init = OscState(1.0, float(rng.uniform(-1.0, 1.0)))
        traj = analytic_trajectory(params, init, GRID)
        result = estimate_ar2(ObservedSeries(dt=0.1, values=traj.y))
        for name, truth, got in [("gamma", gamma, result.gamma_hat),
                                 ("alpha", alpha, result.alpha_hat)]:
            err = abs(got - truth) / truth
            if not err < 1e-6:  # calibrated worst case: 5.8e-12
                failures.append(f"{name}={truth:.4g}: relative error {err:.3g}")
        checked += 1
    for _ in range(5):
        alpha = float(rng.uniform(0.2, 3.0))
        gamma = 2.0 * math.sqrt(alpha) * (1.0 + float(rng.uniform(-5e-7, 5e-7)))
        traj = analytic_trajectory(OscillatorParams(gamma, alpha), REST, GRID)
        result = estimate_ar2(ObservedSeries(dt=0.1, values=traj.y))
        err = abs(result.gamma_hat - gamma) / gamma
        if not err < 1e-3:
            failures.append(f"near-critical gamma={gamma:.4g}: relative error {err:.3g}")
    _check_runtime(failures, started, 10.0)
    _report(4, "estimator round trip", failures)


def test_05_mle_monte_carlo():
    failures = []
    started = time.perf_counter()
    params = OscillatorParams(gamma=2.0, alpha=1.0)
    phi1, phi2 = discretize_exact(params, 0.1)
    scale = 0.05 * math.sqrt(0.1)

    hits = 0
    for seed in range(100):
        eta = standard_normals(seed, 2001)
        y = np.zeros(2001)
        for i in range(2, 2001):
            y[i] = phi1 * y[i - 1] + phi2 * y[i - 2] + scale * eta[i]
        try:
            result = estimate_mle(ObservedSeries(dt=0.1, values=y))
        except (NonStationary, Degenerate):
            continue
        if abs(result.gamma_hat - 2.0) / 2.0 <= 0.15:
            hits += 1
    if hits < 90:
        failures.append(f"only {hits}/100 seeds within 15% of true damping")
    # regression pin from the calibration run (fail seeds 1, 10, 66, 67, 96)
    if hits != 95:
        failures.append(f"pass rate drifted from pinned 95/100 to {hits}/100")
    _check_runtime(failures, started, 120.0)
    _report(5, "noisy damping recovery", failures)


def test_06_energy_and_superposition():
    failures = []
    started = time.perf_counter()
    rng = np.random.default_rng(4096)

    worst_gain = 0.0
    for _ in range(1000):
        params = OscillatorParams(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.05, 4.0)))
        init = OscState(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        traj = analytic_trajectory(params, init, GRID)
        levels = 0.5 * traj.ydot * traj.ydot + 0.5 * params.alpha * traj.y * traj.y
        # anchor the vectorized levels to the scalar API
        if levels[0] != energy(params, init):
            failures.append("vectorized energy disagrees with energy()")
            break
        gains = np.diff(levels)
        slack = 1e-12 * max(float(levels[0]), 1.0)
        worst_gain = max(worst_gain, float(gains.max(initial=0.0)))
        if np.any(gains > slack):
            failures.append(
                f"energy rose by {gains.max():.3g} for gamma={params.gamma:.3g}, "
                f"alpha={params.alpha:.3g}"
            )
            break

    for case in range(1000):
        params = OscillatorParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 3.0)))
        n = int(rng.integers(40, 161))
        grid = TimeGrid(float(rng.uniform(0.02, 0.2)), n)
        init_a = OscState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        init_b = OscState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        combined_init = OscState(init_a.y + init_b.y, init_a.ydot + init_b.ydot)
        if case % 4 != 0:
            eps_a = rng.normal(size=n)
            eps_b = rng.normal(size=n)
            one = integrate_euler(params, init_a, eps_a, grid)
            two = integrate_euler(params, init_b, eps_b, grid)
            both = integrate_euler(params, combined_init, eps_a + eps_b, grid)
        else:
            coeff = rng.uniform(-1.0, 1.0, size=4)
            omega = rng.uniform(0.3, 3.0, size=2)
            times = grid.times()
            eps_a = coeff[0] + coeff[1] * np.sin(omega[0] * times)
            eps_b = coeff[2] + coeff[3] * np.cos(omega[1] * times)
            one = integrate_rk4(params, init_a, eps_a, grid)
            two = integrate_rk4(params, init_b, eps_b, grid)
            both = integrate_rk4(params, combined_init, eps_a + eps_b, grid)
        spread = float(np.max(np.abs(both.y - (one.y + two.y))))
        limit = 1e-10 * max(1.0, float(np.max(np.abs(both.y))))
        if not spread <= limit:
            failures.append(f"superposition gap {spread:.3g} on case {case}")
            break

    _check_runtime(failures, started, 30.0)
    _report(6, "energy decay and superposition", failures)


def test_07_consumption_block_identities():
    from gapdyn import DsgeBlockParams, euler_residual, production, utility

    failures = []
    started = time.perf_counter()
    rng = np.random.default_rng(7171)

    for _ in range(100):
        params = DsgeBlockParams(beta=float(rng.uniform(0.8, 1.0)),
                                 sigma_c=float(rng.uniform(0.5, 4.0)),
                                 theta=0.3, a_tfp=1.0)
        c = float(rng.uniform(0.1, 5.0))
        rate = 1.0 / params.beta - 1.0
        residual = euler_residual(c, c, rate, params)
        if not abs(residual) < 1e-12:
            failures.append(f"flat-path residual {residual:.3g} at beta={params.beta:.4g}")

    for _ in range(100):
        params = DsgeBlockParams(beta=0.99, sigma_c=2.0,
                                 theta=float(rng.uniform(0.1, 0.9)),
                                 a_tfp=float(rng.uniform(0.5, 2.0)))
        k, n = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.1, 10.0))
        scaled = production(lam * k, lam * n, params)
        direct = lam * production(k, n, params)
        if not abs(scaled - direct) <= 1e-12 * max(1.0, abs(direct)):
            failures.append(f"homogeneity gap at theta={params.theta:.3g}")

    h = 1e-6
    for _ in range(100):
        params = DsgeBlockParams(beta=0.99, sigma_c=float(rng.uniform(0.5, 4.0)),
                                 theta=0.3, a_tfp=1.0)
        c = float(rng.uniform(0.2, 5.0))
        numeric = (utility(c + h, 0.5, params) - utility(c - h, 0.5, params)) / (2.0 * h)
        exact = c ** -params.sigma_c
        if not abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact)):
            failures.append(f"marginal utility mismatch at c={c:.3g}")

    _check_runtime(failures, started, 1.0)
    _report(7, "consumption-block identities", failures)


def test_08_byte_determinism(tmp_path):
    failures = []
    config = tmp_path / "seeded.cfg"
    config.write_text("shock = white-noise\nshock_sigma = 0.2\nshock_seed = 11\n")
    blobs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["simulate", "--config", str(config),
                             "--out", str(csv_path), "--svg", str(svg_path)])
        if code != 0:
            failures.append(f"{tag} run exited {code}")
            break
        blobs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    if len(blobs) == 2:
        if blobs[0][0] != blobs[1][0]:
            failures.append("CSV bytes differ between identical runs")
        if blobs[0][1] != blobs[1][1]:
            failures.append("SVG bytes differ between identical runs")
    _report(8, "byte-deterministic output", failures)
