"""Inputs, CLI calls and output checks of the three benchmark workloads.

A workload is a rotation of operations made from the seed; a round runs the
rotation once.  An operation is a list of CLI calls, each an argv for
gapdyn.cli.main and a check of its standard output against oracle.py.
Checks run after the round, outside every timed interval.  gapdyn receives
only the generated files and flags, never the seed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

Call = tuple[list[str], Callable[[str], None]]
Op = list[Call]

CRITICAL_BAND = (6, 12)  # critical scenarios use gamma = 2k, alpha = k^2, k = m/8


def _num(x: float) -> str:
    return repr(float(x))


def _regime_params(rng: np.random.Generator, regime: int) -> tuple[float, float]:
    """(gamma, alpha) in regime 0 under-, 1 critically, 2 over-damped.

    Critical pairs are exact in binary so gamma^2 - 4 alpha is exactly 0;
    the others keep |gamma^2 - 4 alpha| far from the critical band and
    gamma > alpha dt, which keeps Euler at dt = 0.1 stable.
    """
    if regime == 1:
        k = int(rng.integers(*CRITICAL_BAND, endpoint=True)) / 8.0
        return 2.0 * k, k * k
    if regime == 0:
        alpha = float(rng.uniform(1.0, 3.0))
        return float(rng.uniform(0.4, 0.7)) * 2.0 * math.sqrt(alpha), alpha
    alpha = float(rng.uniform(0.5, 1.5))
    return float(rng.uniform(1.3, 2.0)) * 2.0 * math.sqrt(alpha), alpha


def _config(path: Path, entries: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


def _shock_entries(kind: str, rng: np.random.Generator, n: int, dt: float) -> dict:
    """Scenario-file shock keys, plus 'node' for impulses (not written)."""
    if kind == "none":
        return {"shock": "none"}
    if kind == "impulse":
        node = int(rng.integers(n // 20, n // 2))
        at = (node + float(rng.uniform(-0.3, 0.3))) * dt
        return {"shock": "impulse", "shock_at": at, "node": node,
                "shock_magnitude": float(rng.uniform(1.0, 5.0)) * (1 if rng.random() < 0.5 else -1)}
    entries = {"shock": kind, "shock_sigma": float(rng.uniform(0.05, 0.5)),
               "shock_seed": int(rng.integers(0, 2**63))}
    if kind == "ar1":
        entries["shock_rho"] = float(rng.uniform(0.5, 0.95))
    return entries


def _written(entries: dict) -> dict:
    return {k: (_num(v) if isinstance(v, float) else v) for k, v in entries.items() if k != "node"}


class _Trajectory:
    """Checks of a CSV trajectory (and its SVG) written by simulate or impulse."""

    def __init__(self, gamma, alpha, y0, v0, dt, n, integrator, shock, csv, svg):
        self.gamma, self.alpha, self.y0, self.v0 = gamma, alpha, y0, v0
        self.dt, self.n, self.integrator, self.shock = dt, n, integrator, shock
        self.csv, self.svg = csv, svg
        self._reference = None

    def reference(self):
        """Forcing and reference path, which depend on the inputs alone."""
        if self._reference is None:
            eps = oracle.forcing(self.shock, self.n, self.dt)
            if self.shock["shock"] == "none":
                times = self.dt * np.arange(self.n)
                y, v = oracle.closed_form(self.gamma, self.alpha, self.y0, self.v0, times)
            else:
                y, v = oracle.zoh_exact(self.gamma, self.alpha, self.y0, self.v0, eps.tolist(), self.dt)
            order, c = (1, oracle.EULER_ERR_C) if self.integrator == "euler" else (4, oracle.RK4_ERR_C)
            rate_dt = max(self.gamma, math.sqrt(self.alpha)) * self.dt
            scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(v))))
            tol = c * rate_dt**order * scale + oracle.ZOH_EPS_C * float(np.max(np.abs(eps))) * self.dt
            self._reference = (eps, y, v, tol)
        return self._reference

    def check(self, out: str) -> None:
        data = oracle.read_trajectory_csv(self.csv)
        oracle.equal("csv rows", data.shape[0], self.n)
        t, y, v, eps = data.T
        oracle.check_path("t", t, self.dt * np.arange(self.n), 1e-12 * self.dt * self.n)
        want_eps, ref_y, ref_v, tol = self.reference()
        oracle.check_forcing(eps, want_eps)
        if self.integrator == "euler":
            ey, ev = oracle.euler_replay(self.gamma, self.alpha, self.y0, self.v0, eps.tolist(), self.dt)
            if not (np.array_equal(y, ey) and np.array_equal(v, ev)):
                raise oracle.CheckFailed("euler trajectory differs from its exact replay")
        if self.integrator == "rk4" or self.shock["shock"] == "none":
            oracle.check_path("y", y, ref_y, tol)
            oracle.check_path("ydot", v, ref_v, tol)
        oracle.check_metrics_output(out, t, y)
        if self.svg:
            oracle.check_svg(self.svg, self.n)


def _scenario_call(dirpath: Path, tag: str, rng: np.random.Generator, gamma: float, alpha: float,
                   integrator: str, kind: str, t_end: float, dt: float, svg: bool) -> Call:
    """simulate (or impulse, for an impulse shock given by flags) with --out
    and optionally --svg, checked against the benchmark's own trajectory."""
    y0 = float(rng.uniform(0.5, 2.0))
    v0 = float(rng.uniform(-1.0, 1.0))
    n = math.floor(t_end / dt) + 1
    shock = _shock_entries(kind, rng, n, dt)
    entries = {"gamma": _num(gamma), "alpha": _num(alpha), "y0": _num(y0), "ydot0": _num(v0),
               "t_end": _num(t_end), "dt": _num(dt), "integrator": integrator}
    argv_shock: list[str] = []
    if kind == "impulse":
        argv = ["impulse", "--magnitude", _num(shock["shock_magnitude"]), "--at", _num(shock["shock_at"])]
    else:
        argv = ["simulate"]
        entries.update(_written(shock))
        if kind == "white-noise":
            # The --seed flag outranks shock_seed in the file.
            shock = dict(shock, shock_seed=int(rng.integers(0, 2**63)))
            argv_shock = ["--seed", str(shock["shock_seed"])]
    csv = str(dirpath / f"{tag}.csv")
    argv += ["--config", _config(dirpath / f"{tag}.cfg", entries)] + argv_shock + ["--out", csv]
    svg_path = str(dirpath / f"{tag}.svg") if svg else None
    if svg_path:
        argv += ["--svg", svg_path]
    traj = _Trajectory(gamma, alpha, y0, v0, dt, n, integrator, shock, csv, svg_path)
    return argv, traj.check


def _sweep_call(dirpath: Path, tag: str, rng: np.random.Generator, kind: str,
                steps: int) -> Call:
    """A sweep over a 201-node forced Euler scenario whose gamma range crosses
    all three regimes.  Each row is compared with the benchmark's own
    simulation of that scenario at that gamma."""
    alpha = float(rng.uniform(0.8, 1.5))
    dt, n = 0.1, 201
    y0, v0 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
    shock = _shock_entries(kind, rng, n, dt)
    g_crit = 2.0 * math.sqrt(alpha)
    g_from, g_to = 0.2 * g_crit, 2.5 * g_crit
    path = _config(dirpath / f"{tag}.cfg", dict(
        {"alpha": _num(alpha), "y0": _num(y0), "ydot0": _num(v0), "t_end": "20.0", "dt": "0.1"},
        **_written(shock)))
    gammas = np.linspace(g_from, g_to, steps)
    expected: list[tuple] = []

    def check(out: str) -> None:
        if not expected:
            eps = oracle.forcing(shock, n, dt).tolist()
            times = dt * np.arange(n)
            for g in gammas.tolist():
                y, _ = oracle.euler_replay(g, alpha, y0, v0, eps, dt)
                expected.append(oracle.recovery(times, np.array(y)))
        oracle.check_sweep(out, gammas, expected)

    argv = ["sweep", "--config", path, "--gamma-from", _num(g_from), "--gamma-to", _num(g_to),
            "--gamma-steps", str(steps)]
    return argv, check


# Series for the estimators: (regime, dt).  dt keeps -phi2 at least eight
# standard errors inside (0, 1) at 200 rows, so no fit is non-stationary.
_SERIES_DT = {0: 0.5, 1: 0.5, 2: 0.25}
_SERIES_BASE = {0: (1.0, 1.5), 2: (3.0, 1.0)}


def _estimate_calls(dirpath: Path, tag: str, rng: np.random.Generator, regime: int,
                    n: int, methods: tuple[str, ...]) -> list[Call]:
    dt = _SERIES_DT[regime]
    if regime == 1:
        k = float(rng.uniform(0.9, 1.1))
        gamma, alpha = 2.0 * k, k * k
    else:
        g0, a0 = _SERIES_BASE[regime]
        gamma, alpha = g0 * float(rng.uniform(0.9, 1.1)), a0 * float(rng.uniform(0.9, 1.1))
    values = oracle.ar2_series(gamma, alpha, dt, float(rng.uniform(0.2, 2.0)), n,
                               int(rng.integers(0, 2**63)))
    path = str(dirpath / f"{tag}.csv")
    oracle.write_series_csv(path, dt, values)
    fit: dict = {}

    def checker(method: str):
        def check(out: str) -> None:
            if not fit:
                fit.update(oracle.ols_fit(values, dt))
            oracle.check_estimate(out, method, values, dt, (gamma, alpha), fit)
        return check

    return [(["estimate", "--in", path, "--method", m], checker(m)) for m in methods]


def _classify_call(rng: np.random.Generator, regime: int) -> Call:
    gamma, alpha = _regime_params(rng, regime)
    argv = ["classify", "--gamma", _num(gamma), "--alpha", _num(alpha)]
    return argv, lambda out: oracle.check_classify(out, gamma, alpha)


def _check_call(rng: np.random.Generator, override: bool) -> Call:
    beta = float(rng.uniform(0.9, 0.999))
    sigma_c = float(rng.uniform(0.5, 4.0))
    argv = ["check", "--beta", _num(beta), "--sigma-c", _num(sigma_c)]
    point = oracle.default_point(beta)
    if override:
        changes = {"c": rng.uniform(0.5, 2.0), "r": rng.uniform(-0.05, 0.1), "b": rng.uniform(-2, 2),
                   "b_next": rng.uniform(-2, 2), "w": rng.uniform(0.5, 2.0), "n": rng.uniform(0.2, 1.5),
                   "y": rng.uniform(0.5, 2.0), "r_k": rng.uniform(0.0, 0.2)}
        changes = {k: float(v) for k, v in changes.items()}
        point.update(changes)
        argv += ["--point", ",".join(f"{k}={_num(v)}" for k, v in changes.items())]
    return argv, lambda out: oracle.check_residuals(out, beta, sigma_c, point)


def cli_startup(dirpath: Path, seed: int) -> list[Op]:
    """Short commands, one fresh process each: classify (three regimes),
    check (default point and an override), the default 201-node simulate,
    impulse --out, estimate ar2 on 201 rows and an 8-gamma sweep."""
    rng = np.random.default_rng([seed, 1])
    calls = [_classify_call(rng, r) for r in (0, 1, 2)]
    calls += [_check_call(rng, False), _check_call(rng, True)]
    sim_argv = ["simulate", "--config", _config(dirpath / "default.cfg", {})]
    calls.append((sim_argv, lambda out: oracle.check_metrics_output(
        out, 0.1 * np.arange(201), np.array(oracle.euler_replay(2.0, 1.0, 1.0, 0.0, [0.0] * 201, 0.1)[0]))))
    calls.append(_scenario_call(dirpath, "impulse", rng, *_regime_params(rng, int(rng.integers(0, 3))),
                                "rk4", "impulse", 20.0, 0.1, svg=False))
    calls += _estimate_calls(dirpath, "series", rng, int(rng.integers(0, 3)), 201, ("ar2",))
    calls.append(_sweep_call(dirpath, "sweep", rng, "white-noise", 8))
    return [[call] for call in calls]


# (gamma, alpha) per regime on the long horizon.  They are fixed, not drawn:
# how soon a decaying path reaches subnormal numbers and then exact zeros,
# which format and step at other speeds, depends on them, and drawing them
# made the work per run depend on the seed.
LONG_PARAMS = ((1.2, 2.0), (2.0, 1.0), (3.0, 1.0))


def long_horizon(dirpath: Path, seed: int) -> list[Op]:
    """20 001-node simulate and impulse runs with --out and --svg, one run an
    operation, cycling euler/rk4 x none/impulse/white-noise/ar1 with gamma
    in all three regimes.  The seed draws initial states, shock streams and
    sizes, and impulse times."""
    rng = np.random.default_rng([seed, 2])
    combos = [(ig, k) for ig in ("euler", "rk4") for k in ("none", "impulse", "white-noise", "ar1")]
    return [[_scenario_call(dirpath, f"run{i}", rng, *LONG_PARAMS[i % 3], integrator, kind, 2000.0, 0.1,
                            svg=True)]
            for i, (integrator, kind) in enumerate(combos)]


def many_scenarios(dirpath: Path, seed: int) -> list[Op]:
    """One operation: a 100-gamma sweep over a 201-node AR(1)-forced scenario,
    then ar2 and mle fits of six generated series (three regimes, 400 and
    3000 rows)."""
    rng = np.random.default_rng([seed, 3])
    calls = [_sweep_call(dirpath, "sweep", rng, "ar1", 100)]
    for regime in (0, 1, 2):
        for n in (400, 3000):
            calls += _estimate_calls(dirpath, f"series{regime}-{n}", rng, regime, n, ("ar2", "mle"))
    return [calls]


WORKLOADS = {
    "cli-startup": (cli_startup, False),
    "long-horizon": (long_horizon, True),
    "many-scenarios": (many_scenarios, True),
}
