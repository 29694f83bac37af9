"""Reference computations that check gapdyn's outputs, made apart from gapdyn.

Nothing here imports gapdyn or scipy.  Every formula is taken from the
documented contract (PAPER.md and the CLI docstrings), not from the code:

- regimes and discriminant: the sign of gamma^2 - 4 alpha;
- consumption block: the Euler, budget and profit residuals and 1/beta - 1;
- shocks: the frozen Philox/Box-Muller stream, nearest-node impulses and the
  stationary AR(1) recursion;
- Euler stepping: the documented update order, replayed exactly;
- unforced paths: the closed-form 2x2 matrix exponential;
- forced paths: the exact zero-order-hold recursion x[i] = Phi x[i-1] + G eps[i-1];
- recovery metrics, the AR(2) least-squares fit and its map to (gamma, alpha).

A failed comparison raises CheckFailed with the quantity, the value read and
the value expected.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

BAND = 0.05  # recovery corridor |y| <= BAND, the CLI's default
_TWO_NEG53 = 2.0**-53

# Global-error constants for comparing an integrator run with the exact
# solution: |error| <= C * (rate dt)^order * scale, rate = max(gamma,
# sqrt(alpha)), scale = the largest |y| or |ydot| of the exact path.  At the
# corners of the benchmark's parameter ranges the observed constants are
# 0.92 (Euler) and 0.015 (RK4).
EULER_ERR_C = 3.0
RK4_ERR_C = 0.1
# Forced RK4 runs are compared with the exact zero-order hold within
# ZOH_EPS_C * max|eps| * dt on top of the RK4 term.  That is the first-order
# size of reading the forcing one node early, as the RK4 stepper does today
# (observed up to 0.20), so a causal RK4 passes as well.
ZOH_EPS_C = 0.5
# Fitted (gamma, alpha) may sit this many delta-method standard errors from
# the truth before a fit counts as wrong.
TRUTH_SIGMAS = 7.0


class CheckFailed(Exception):
    """An output of gapdyn disagrees with the reference computation."""


def close(name: str, got: float, want: float, rtol: float, atol: float = 0.0) -> None:
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckFailed(f"{name}: got {got!r}, want {want!r}")


def equal(name: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{name}: got {got!r}, want {want!r}")


def key_values(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for token in text.split():
        key, _, value = token.partition("=")
        pairs[key] = value
    return pairs


def expect_keys(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    kv = key_values(text)
    missing = [k for k in keys if k not in kv]
    if missing:
        raise CheckFailed(f"missing keys {missing} in output {text!r}")
    return kv


# -- regimes and the consumption block ---------------------------------------

def regime(gamma: float, alpha: float) -> str:
    d = gamma * gamma - 4.0 * alpha
    if d == 0.0:
        return "critically-damped"
    return "under-damped" if d < 0.0 else "over-damped"


def check_classify(out: str, gamma: float, alpha: float) -> None:
    kv = expect_keys(out, ("regime", "discriminant"))
    equal("regime", kv["regime"], regime(gamma, alpha))
    close("discriminant", float(kv["discriminant"]), gamma * gamma - 4.0 * alpha,
          rtol=1e-11, atol=1e-300)


# Allocation the CLI evaluates when --point leaves a field out: a flat
# consumption path at the steady-state rate, balanced budget, zero profit.
def default_point(beta: float) -> dict[str, float]:
    return {"c": 1.0, "l": 1.0, "b": 0.0, "b_next": 0.0, "r": 1.0 / beta - 1.0,
            "w": 1.0, "n": 1.0, "k": 1.0, "y": 1.0, "p": 1.0, "r_k": 0.0}


def check_residuals(out: str, beta: float, sigma_c: float, point: dict[str, float]) -> None:
    kv = expect_keys(out, ("euler_residual", "budget_residual", "profit", "steady_state_rate"))
    p = point
    c_pow = p["c"] ** (-sigma_c)
    want = {
        "euler_residual": c_pow - beta * (1.0 + p["r"]) * c_pow,
        "budget_residual": p["c"] + p["b_next"] - (1.0 + p["r"]) * p["b"] - p["w"] * p["n"],
        "profit": p["p"] * p["y"] - p["w"] * p["n"] - p["r_k"] * p["k"],
        "steady_state_rate": 1.0 / beta - 1.0,
    }
    scale = max(abs(v) for v in p.values()) * max(1.0, c_pow)
    for key, value in want.items():
        close(key, float(kv[key]), value, rtol=1e-11, atol=1e-14 * scale)


# -- shocks -------------------------------------------------------------------

def standard_normals(seed: int, n: int) -> np.ndarray:
    """The documented frozen stream: Philox words through Box-Muller."""
    pairs = (n + 1) // 2
    raw = np.random.Philox(key=seed).random_raw(2 * pairs)
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
    u2 = (raw[1::2] >> np.uint64(11)) * _TWO_NEG53
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out[:n]


def forcing(shock: dict, n: int, dt: float) -> np.ndarray:
    """Forcing per node for a shock described as in a scenario file."""
    kind = shock["shock"]
    if kind == "none":
        return np.zeros(n)
    if kind == "impulse":
        out = np.zeros(n)
        out[shock["node"]] = shock["shock_magnitude"]
        return out
    draws = standard_normals(shock["shock_seed"], n)
    sigma = shock["shock_sigma"]
    if kind == "white-noise":
        return draws * (sigma / math.sqrt(dt))
    rho = shock["shock_rho"]
    innov = (sigma * math.sqrt(1.0 - rho * rho) * draws).tolist()
    innov[0] = sigma * float(draws[0])
    out = np.empty(n)
    prev = 0.0
    for i, e in enumerate(innov):
        prev = e + rho * prev if i else e
        out[i] = prev
    return out


def check_forcing(eps: np.ndarray, want: np.ndarray) -> None:
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(eps - want)))
    if not err <= 1e-12 * max(scale, 1e-300):
        raise CheckFailed(f"forcing column off by {err!r} (scale {scale!r})")


# -- trajectories ---------------------------------------------------------------

def euler_replay(gamma: float, alpha: float, y0: float, v0: float,
                 eps: list[float], dt: float) -> tuple[list[float], list[float]]:
    """Documented Euler order: rate from the old state, position from the old rate."""
    ys, vs = [y0], [v0]
    y, v = y0, v0
    for e in eps[:-1]:
        accel = -gamma * v - alpha * y + e
        v_next = v + accel * dt
        y_next = y + v * dt
        ys.append(y_next)
        vs.append(v_next)
        y, v = y_next, v_next
    return ys, vs


def _expm_parts(gamma: float, alpha: float, t: np.ndarray):
    """e^{At} = e^{mu t} (c(t) I + s(t) N) with A = [[0,1],[-alpha,-gamma]],
    mu = -gamma/2 and N = A - mu I, N^2 = delta I, delta = gamma^2/4 - alpha.

    Returns (e^{mu t} c, e^{mu t} s, N), each exponential folded in so that
    long over-damped horizons neither overflow nor lose the slow mode.
    """
    mu = -0.5 * gamma
    delta = 0.25 * gamma * gamma - alpha
    if delta > 0.0:
        root = math.sqrt(delta)
        slow, fast = np.exp((mu + root) * t), np.exp((mu - root) * t)
        ec, es = 0.5 * (slow + fast), 0.5 * (slow - fast) / root
    elif delta < 0.0:
        w = math.sqrt(-delta)
        decay = np.exp(mu * t)
        ec, es = decay * np.cos(w * t), decay * np.sin(w * t) / w
    else:
        decay = np.exp(mu * t)
        ec, es = decay, decay * t
    n_mat = np.array([[-mu, 1.0], [-alpha, -gamma - mu]])
    return ec, es, n_mat


def closed_form(gamma: float, alpha: float, y0: float, v0: float,
                times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ec, es, n_mat = _expm_parts(gamma, alpha, times)
    ny, nv = n_mat @ np.array([y0, v0])
    return ec * y0 + es * ny, ec * v0 + es * nv


def zoh_exact(gamma: float, alpha: float, y0: float, v0: float,
              eps: list[float], dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution with eps[i-1] held over step i (x[i] = Phi x[i-1] + G eps[i-1])."""
    ec, es, n_mat = _expm_parts(gamma, alpha, np.array([dt]))
    phi = float(ec[0]) * np.eye(2) + float(es[0]) * n_mat
    a_inv = np.array([[-gamma / alpha, -1.0 / alpha], [1.0, 0.0]])
    g_y, g_v = a_inv @ (phi - np.eye(2)) @ np.array([0.0, 1.0])
    (p11, p12), (p21, p22) = phi.tolist()
    ys, vs = [y0], [v0]
    y, v = y0, v0
    for e in eps[:-1]:
        y, v = p11 * y + p12 * v + g_y * e, p21 * y + p22 * v + g_v * e
        ys.append(y)
        vs.append(v)
    return np.array(ys), np.array(vs)


def check_path(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        raise CheckFailed(f"{name} off the reference by {err!r} > {tol!r}")


# -- recovery metrics ---------------------------------------------------------

def recovery(times: np.ndarray, y: np.ndarray) -> tuple[float, float, int, float]:
    """(settling_time, overshoot, zero_crossings, terminal_abs) per the CLI docs."""
    outside = np.abs(y) > BAND
    settling = float(times[outside][-1]) if outside.any() else 0.0
    signs = np.sign(y)
    signs = signs[signs != 0.0]
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    overshoot = abs(float(np.min(y))) if (y[0] > 0.0 and crossings >= 1) else 0.0
    return settling, overshoot, crossings, abs(float(y[-1]))


def check_recovery(values: dict[str, str], want: tuple[float, float, int, float],
                   rtol: float) -> None:
    settling, overshoot, crossings, terminal = want
    close("settling_time", float(values["settling_time"]), settling, rtol)
    close("overshoot", float(values["overshoot"]), overshoot, rtol)
    equal("zero_crossings", int(values["zero_crossings"]), crossings)
    close("terminal_abs", float(values["terminal_abs"]), terminal, rtol, atol=1e-300)


def check_metrics_output(out: str, times: np.ndarray, y: np.ndarray) -> None:
    kv = expect_keys(out, ("settling_time", "overshoot", "zero_crossings", "terminal_abs"))
    check_recovery(kv, recovery(times, y), rtol=1e-11)


def check_sweep(out: str, gammas: np.ndarray, rows_want: list[tuple]) -> None:
    lines = out.splitlines()
    equal("sweep header", lines[0] if lines else "",
          "gamma,settling_time,overshoot,zero_crossings,terminal_abs")
    equal("sweep rows", len(lines) - 1, len(gammas))
    for line, g, want in zip(lines[1:], gammas, rows_want):
        cells = line.split(",")
        equal("sweep columns", len(cells), 5)
        close("sweep gamma", float(cells[0]), float(g), rtol=0.0)
        row = dict(zip(("settling_time", "overshoot", "zero_crossings", "terminal_abs"), cells[1:]))
        check_recovery(row, want, rtol=1e-14)


# -- files ----------------------------------------------------------------------

def read_trajectory_csv(path: str) -> np.ndarray:
    """Columns t, y, ydot, eps of a written trajectory, as an (n, 4) array."""
    with open(path) as fh:
        header = fh.readline().strip()
        equal("csv header", header, "t,y,ydot,eps")
        cells = fh.read().replace("\n", ",").split(",")
    if cells and cells[-1] == "":
        cells.pop()
    if len(cells) % 4:
        raise CheckFailed(f"csv has {len(cells)} cells, not a multiple of 4")
    return np.array(cells, dtype=float).reshape(-1, 4)


def check_svg(path: str, n_points: int) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"svg does not parse: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    equal("svg root", root.tag, ns + "svg")
    x0, y0, width, height = (float(v) for v in root.get("viewBox", "").split())
    lines = root.findall(f".//{ns}polyline")
    equal("svg polylines", len(lines), 1)
    pts = np.array(lines[0].get("points").replace(",", " ").split(), dtype=float)
    equal("svg points", pts.size, 2 * n_points)
    xs, ys = pts[0::2], pts[1::2]
    inside = (xs >= x0) & (xs <= x0 + width) & (ys >= y0) & (ys <= y0 + height)
    if not inside.all():
        raise CheckFailed(f"svg has {int((~inside).sum())} points outside the viewBox")


def write_series_csv(path: str, dt: float, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("t,y\n")
        fh.writelines("%.17g,%.17g\n" % (i * dt, v) for i, v in enumerate(values.tolist()))


# -- estimation -------------------------------------------------------------------

def exact_phi(gamma: float, alpha: float, dt: float) -> tuple[float, float]:
    """Lag coefficients of the exactly sampled recursion: lam_i = exp(r_i dt)."""
    disc = complex(0.25 * gamma * gamma - alpha) ** 0.5
    lam1 = np.exp((-0.5 * gamma + disc) * dt)
    lam2 = np.exp((-0.5 * gamma - disc) * dt)
    return float((lam1 + lam2).real), float(-(lam1 * lam2).real)


def ar2_series(gamma: float, alpha: float, dt: float, sigma: float, n: int,
               seed: int, burn: int = 500) -> np.ndarray:
    """n samples of y[i] = phi1 y[i-1] + phi2 y[i-2] + sigma sqrt(dt) e[i]."""
    phi1, phi2 = exact_phi(gamma, alpha, dt)
    shocks = (sigma * math.sqrt(dt) * np.random.default_rng(seed).standard_normal(n + burn)).tolist()
    y1 = y2 = 0.0
    out = []
    for e in shocks:
        y1, y2 = phi1 * y1 + phi2 * y2 + e, y1
        out.append(y1)
    return np.array(out[burn:])


def _gamma_alpha(phi1: float, phi2: float, dt: float) -> tuple[float, float]:
    disc = complex(0.25 * phi1 * phi1 + phi2) ** 0.5
    r1 = np.log(0.5 * phi1 + disc) / dt
    r2 = np.log(0.5 * phi1 - disc) / dt
    return -math.log(-phi2) / dt, float((r1 * r2).real)


def ols_fit(values: np.ndarray, dt: float) -> dict:
    """Normal-equation AR(2) fit, its (gamma, alpha) and delta-method errors."""
    lag2, lag1, target = values[:-2], values[1:-1], values[2:]
    design = np.column_stack([lag1, lag2])
    xtx = design.T @ design
    phi1, phi2 = np.linalg.solve(xtx, design.T @ target)
    resid = target - design @ np.array([phi1, phi2])
    ssr = float(resid @ resid)
    m = target.size
    gamma, alpha = _gamma_alpha(phi1, phi2, dt)
    cov = ssr / (m - 2) * np.linalg.inv(xtx)
    jac = np.empty((2, 2))
    for j, step in enumerate(np.sqrt(np.diag(cov)) * 1e-3):
        hi = [phi1, phi2]
        lo = [phi1, phi2]
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (np.array(_gamma_alpha(*hi, dt)) - np.array(_gamma_alpha(*lo, dt))) / (2 * step)
    se = np.sqrt(np.diag(jac @ cov @ jac.T))
    return {"gamma": gamma, "alpha": alpha, "ssr": ssr, "m": m,
            "sigma": math.sqrt(ssr / m / dt), "se_gamma": float(se[0]), "se_alpha": float(se[1])}


def profile_loglik(values: np.ndarray, dt: float, gamma: float, alpha: float) -> float:
    """Conditional Gaussian log-likelihood with the variance concentrated out."""
    phi1, phi2 = exact_phi(gamma, alpha, dt)
    resid = values[2:] - phi1 * values[1:-1] - phi2 * values[:-2]
    m = resid.size
    return -0.5 * m * (math.log(2.0 * math.pi * float(resid @ resid) / m) + 1.0)


_ESTIMATE_KEYS = ("gamma_hat", "alpha_hat", "sigma_hat", "loglik", "method", "converged", "n_obs")


def check_estimate(out: str, method: str, values: np.ndarray, dt: float,
                   truth: tuple[float, float], fit: dict) -> None:
    kv = expect_keys(out, _ESTIMATE_KEYS)
    equal("method", kv["method"], method)
    equal("n_obs", int(kv["n_obs"]), values.size)
    gamma_hat, alpha_hat = float(kv["gamma_hat"]), float(kv["alpha_hat"])
    if method == "ar2":
        close("ar2 gamma_hat", gamma_hat, fit["gamma"], rtol=1e-8)
        close("ar2 alpha_hat", alpha_hat, fit["alpha"], rtol=1e-7)
        close("ar2 sigma_hat", float(kv["sigma_hat"]), fit["sigma"], rtol=1e-8)
        equal("ar2 converged", kv["converged"], "true" if fit["alpha"] > 0.0 else "false")
    else:
        floor = profile_loglik(values, dt, fit["gamma"], fit["alpha"])
        loglik = float(kv["loglik"])
        if not loglik >= floor - 1e-9 * abs(floor):
            raise CheckFailed(f"mle loglik {loglik!r} below the ar2 point's {floor!r}")
        close("mle loglik at its own estimate", loglik,
              profile_loglik(values, dt, gamma_hat, alpha_hat), rtol=1e-9)
    close(f"{method} gamma vs truth", gamma_hat, truth[0], rtol=0.0,
          atol=TRUTH_SIGMAS * fit["se_gamma"])
    close(f"{method} alpha vs truth", alpha_hat, truth[1], rtol=0.0,
          atol=TRUTH_SIGMAS * fit["se_alpha"])
