"""Recovery of damping and adjustment frequency from a sampled gap series.

Sampling the unforced oscillator at interval dt gives an exact second-order
recursion.  With r1, r2 the roots of r^2 + gamma r + alpha = 0 and
lam_i = exp(r_i dt),

    y[i] = phi1 y[i-1] + phi2 y[i-2],
    phi1 = lam1 + lam2,      phi2 = -lam1 lam2 = -exp(-gamma dt).

Both estimators fit this representation.  Innovations are modeled as
i.i.d. N(0, sigma^2 dt), which keeps the fitted sigma comparable across
sampling intervals.  That is the AR(2) recursion's assumption: it holds for
AR(2) data and Euler white-noise runs, not for RK4 runs, whose forcing held
over each step samples to ARMA(2,1) with correlated innovations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (Degenerate, InvariantViolation, NonStationary, _check, _check_array_field,
                     _check_field, _Record)
from .oscillator import OscillatorParams, _flow_parts

# Relative width of the discriminant band treated as a repeated root when
# mapping fitted lag coefficients back to (gamma, alpha).
_REPEATED_ROOT_GUARD = 1e-10

_EPS = 2.0**-52

# How far the MLE moves a boundary point that no finite gamma >= 0, alpha > 0
# reaches into the admissible set, in lag-coefficient units.
_EDGE_NUDGE = 1e-12


class ObservedSeries(_Record):
    """Uniformly sampled gap observations: sampling interval and values."""

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_field(self, "dt", low=0, low_strict=True)
        _check_array_field(self, "values", min_size=2)


class EstimationResult(_Record):
    """A fit of (gamma, alpha); `method` names its estimator, "ar2" or "mle"."""

    gamma_hat: float
    alpha_hat: float
    sigma_hat: float
    loglik: float
    method: str
    converged: bool
    n_obs: int


def discretize_exact(params: OscillatorParams, dt: float) -> tuple[float, float]:
    """Lag coefficients (phi1, phi2) of the exactly sampled recursion.

    phi2 = -exp(-gamma dt) regardless of regime; phi1, the trace of the step's
    flow e^(A dt), is 2 e^(-gamma dt/2) cos(wd dt) for complex roots and
    e^(r1 dt) + e^(r2 dt) for real ones.
    """
    dt = _check("dt", dt, low=0, low_strict=True)
    return _phi_pair(params.gamma, params.alpha, dt)


def _phi_pair(g: float, a: float, dt: float) -> tuple[float, float]:
    return 2.0 * _flow_parts(g, a, dt)[0], -math.exp(-g * dt)


def estimate_ar2(series: ObservedSeries) -> EstimationResult:
    """Least-squares fit of the two-lag recursion, mapped back to (gamma, alpha).

    Regresses y[i] on (y[i-1], y[i-2]) with no intercept, then inverts the
    exact discretization: gamma_hat = -ln(-phi2)/dt, and alpha_hat is the
    product of the continuous roots ln(lam)/dt.  The least-squares point and
    its SSR come from `_LagFit`: a Gram-Schmidt factor of the lag design and
    one step of iterative refinement, from elementwise products summed by
    np.sum, so no BLAS kernel choice moves the digits.  Raises Degenerate
    when the regression is rank-deficient (an all-zero or too-short series)
    and NonStationary when -phi2 lands outside (0, 1), where no damping
    coefficient exists.  converged is True only when alpha_hat > 0.
    """
    fit = _LagFit(series.values)
    phi1, phi2 = fit.phi
    mag2 = -phi2
    if not (0.0 < mag2 < 1.0):
        raise NonStationary(f"-phi2 = {mag2!r} outside (0, 1)")
    dt = series.dt
    alpha_hat = _root_product(phi1, phi2, dt)
    converged = math.isfinite(alpha_hat) and alpha_hat > 0.0
    return fit.result("ar2", -math.log(mag2) / dt, alpha_hat, fit.ssr, dt, converged)


def estimate_mle(series: ObservedSeries) -> EstimationResult:
    """Maximum-likelihood fit of (gamma, alpha) with sigma concentrated out.

    The profile likelihood falls as the residual sum of squares (SSR) rises,
    SSR is a convex quadratic in the lag coefficients (phi1, phi2), and the
    set the continuous model reaches with gamma >= 0, alpha > 0,

        S = {-1 <= phi2 < 0,  -2 sqrt(-phi2) <= phi1 < 1 - phi2},

    is convex, so the fit is solved exactly rather than searched for.  Both
    branches rank points by the exact excess SSR(phi) - SSR(phi*) =
    |R (phi - phi*)|^2 from the lag design's 2x2 factor R (see `_LagFit`):

    - Interior: when the least-squares point lies in S it is the MLE.  It is
      mapped to (gamma, alpha) as in estimate_ar2, and `_ulp_polish` on the
      excess undoes the rounding of that map: no point of its stencil
      around the returned (gamma, alpha) has a lower excess.  Where the SSR
      is at the data's rounding floor (a noise-free series) the exact excess
      says nothing about the float residual, and the same polish runs once
      more on the float SSR.  converged=True.
    - Boundary: otherwise the MLE lies on the boundary of S's closure: the
      aliasing curve phi = (-2s, -s^2), 0 <= s <= 1 (complex roots at the
      Nyquist angle, alpha = gamma^2/4 + (pi/dt)^2), or one of the edges
      alpha -> 0 (phi1 = 1 - phi2), gamma -> infinity (phi2 = 0) and
      gamma = 0 (phi2 = -1).  Each piece is minimized in closed form and the
      candidate with the lowest excess is returned.  An edge point that no
      finite gamma >= 0, alpha > 0 reaches is moved just inside S.
      converged=False: the likelihood has no interior maximum there.

    loglik (the Gaussian likelihood given the first two observations, with
    sigma^2 concentrated out at SSR/m) and sigma_hat come from the float
    residual at the returned (gamma, alpha).  A rank-deficient series raises
    Degenerate.
    """
    fit = _LagFit(series.values)
    phi1, phi2 = fit.phi
    dt = series.dt

    def float_ssr(gamma: float, alpha: float) -> float:
        return fit.ssr_at(*_phi_pair(gamma, alpha, dt))

    def excess(gamma: float, alpha: float) -> float:
        z1, z2 = fit.offset(*_phi_pair(gamma, alpha, dt))
        return z1 * z1 + z2 * z2

    interior = -1.0 <= phi2 < 0.0 and -2.0 * math.sqrt(-phi2) <= phi1 < 1.0 - phi2
    if interior:
        gamma, alpha = -math.log(-phi2) / dt, _root_product(phi1, phi2, dt)
        # Rounding can map a point of S that hugs its boundary to alpha <= 0;
        # the boundary search then finds the admissible optimum.
        interior = math.isfinite(alpha) and alpha > 0.0
    if interior:
        gamma, alpha = _ulp_polish(excess, gamma, alpha)
        if fit.ssr <= fit.m * (64.0 * _EPS * fit.peak) ** 2:
            gamma, alpha = _ulp_polish(float_ssr, gamma, alpha)
    else:
        gamma, alpha = min(_boundary_candidates(fit, dt), key=lambda cand: excess(*cand))
    return fit.result("mle", gamma, alpha, float_ssr(gamma, alpha), dt, interior)


def _boundary_candidates(fit: _LagFit, dt: float) -> list[tuple[float, float]]:
    """(gamma, alpha) at the SSR minimum of each piece of S's boundary.

    A piece phi(t) = phi0 + t d1 + t^2 d2 has excess |e0 + t e1 + t^2 e2|^2
    over the least-squares SSR, with e0 = fit.offset(phi0) and e1, e2 =
    R d1, R d2 (as X^T X = R^T R): 2-vectors, so no piece sums over the
    series.  Edge points outside S are moved _EDGE_NUDGE inside it: phi2 up
    to -_EDGE_NUDGE (a finite gamma) and alpha down to _EDGE_NUDGE / dt^2.
    A candidate's alpha is at most gamma^2/4 + (pi/dt)^2 with gamma =
    -ln(_EDGE_NUDGE)/dt, about 200/dt^2; a dt (below about 1e-153) that puts
    it past the float range raises InvariantViolation.
    """
    top = -math.log(_EDGE_NUDGE) / dt
    nyquist = math.pi / dt
    if not 0.25 * top * top + nyquist * nyquist < math.inf:
        raise InvariantViolation(
            f"dt = {dt!r} is too small for the MLE: alpha would pass the float range"
        )
    nudge_alpha = _EDGE_NUDGE / (dt * dt)
    out = []

    # Aliasing curve phi = (-2s, -s^2): the quartic |a + s b + s^2 c|^2 is
    # least at an end of [0, 1] or at a real root of its cubic derivative.
    a, b, c = fit.offset(0.0, 0.0), fit.r_times(-2.0, 0.0), fit.r_times(0.0, -1.0)
    cubic = [2.0 * _dot2(c, c), 3.0 * _dot2(b, c), _dot2(b, b) + 2.0 * _dot2(a, c), _dot2(a, b)]
    # Real parts of complex roots are harmless extra candidates.
    roots = np.clip(np.roots(cubic).real, 0.0, 1.0)
    for s in (0.0, 1.0, *roots.tolist()):
        gamma = -2.0 * math.log(max(s, math.sqrt(_EDGE_NUDGE))) / dt
        out.append((gamma, 0.25 * gamma * gamma + (math.pi / dt) ** 2))

    # Edge alpha -> 0: phi = (1 + u, -u), a unit root beside the root u.
    u = _segment_min(fit.offset(1.0, 0.0), fit.r_times(1.0, -1.0), 0.0, 1.0)
    out.append((-math.log(max(u, _EDGE_NUDGE)) / dt, nudge_alpha))
    # Edge gamma -> infinity: phi = (u, 0), held at phi2 = -_EDGE_NUDGE.
    u = _segment_min(a, fit.r_times(1.0, 0.0), 0.0, 1.0)
    out.append((-math.log(_EDGE_NUDGE) / dt, max(_root_product(u, -_EDGE_NUDGE, dt), nudge_alpha)))
    # Edge gamma = 0: phi = (u, -1), an undamped oscillation of angle acos(u/2).
    u = _segment_min(fit.offset(0.0, -1.0), fit.r_times(1.0, 0.0), -2.0, 2.0)
    out.append((0.0, max((math.acos(0.5 * u) / dt) ** 2, nudge_alpha)))
    return out


def _segment_min(e0: tuple[float, float], e1: tuple[float, float], lo: float, hi: float) -> float:
    """argmin over u in [lo, hi] of |e0 + u e1|^2."""
    return min(max(-_dot2(e0, e1) / _dot2(e1, e1), lo), hi)


def _dot2(u: tuple[float, float], v: tuple[float, float]) -> float:
    return u[0] * v[0] + u[1] * v[1]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # Elementwise products summed by np.sum, never `a @ b`: on 1-d arrays `@`
    # is BLAS ddot, whose rounding depends on the kernel OpenBLAS picks.
    return float(np.sum(a * b))


class _LagFit:
    """Least-squares fit of y[i] on (y[i-1], y[i-2]), with an O(1) SSR.

    The lag rows (y[i-2], y[i-1], y[i]) are scaled by 2^-shift, shift the
    binary exponent of max|y|, so they peak at `peak` in [0.5, 1), exactly:
    no sum of squares overflows or underflows, whatever the data's scale.
    Every SSR here is 2^(-2 shift) times the data's; `result` and `loglik`
    carry sigma and the log-likelihood back analytically.

    The scaled lag design X = [y[i-1], y[i-2]] is factored X = QR by
    Gram-Schmidt, R = [[r11, r12], [0, r22]].  The least-squares point phi*
    is held in two parts, phi_hat + delta: phi_hat solves R^T R phi =
    X^T target, and delta is one step of iterative refinement from the float
    residual at phi_hat (Björck, BIT 7, 1967).  As X^T r = 0 at phi*, for
    every phi

        SSR(phi) = ssr + |R (phi - phi_hat - delta)|^2,

    and `offset(phi)` is that 2-vector, formed as ((phi - phi_hat) - delta)
    so it keeps digits below phi*'s last bit; `r_times(d)` is R d.  The
    factor, the refinement and `ssr_at` are the estimators' only passes
    over the series.
    """

    def __init__(self, values: np.ndarray) -> None:
        if values.size < 3:
            raise Degenerate("a two-sample series has no lag rows")
        peak, shift = math.frexp(float(np.max(np.abs(values))))
        y = np.ldexp(values, -shift)
        lag2, lag1, target = self.lag2, self.lag1, self.target = y[:-2], y[1:-1], y[2:]
        self.m, self.peak, self.shift = y.size - 2, peak, shift
        s11 = _dot(lag1, lag1)
        if not s11 > 0.0:
            raise Degenerate(f"lag regression has rank {int(np.any(lag2))} < 2")
        c = _dot(lag1, lag2) / s11
        w = lag2 - c * lag1
        ww = _dot(w, w)
        r11, r22 = math.sqrt(s11), math.sqrt(ww)
        r12 = c * r11
        # np.linalg.lstsq's singular-value cutoff, within a factor of two.
        if not r11 * r22 > _EPS * max(target.size, 2) * (s11 + r12 * r12 + ww):
            raise Degenerate("lag regression has rank 1 < 2")

        def solve(rhs: np.ndarray) -> tuple[float, float, float]:
            # (p1, p2) with R^T R p = X^T rhs, and |R p|^2.  Modified
            # Gram-Schmidt: rhs loses its lag1 part before it meets w, so
            # w's small error along lag1 is not multiplied by all of rhs.
            u1 = _dot(lag1, rhs) / s11
            u2 = _dot(w, rhs - u1 * lag1) / ww
            return u1 - c * u2, u2, u1 * u1 * s11 + u2 * u2 * ww

        b1, b2, _ = solve(target)
        resid = target - b1 * lag1 - b2 * lag2
        d1, d2, shrink = solve(resid)
        self.phi = (b1 + d1, b2 + d2)
        self.ssr = max(_dot(resid, resid) - shrink, 0.0)
        self._centre = (b1, b2, d1, d2)
        self._r = (r11, r12, r22)

    def r_times(self, d1: float, d2: float) -> tuple[float, float]:
        r11, r12, r22 = self._r
        return r11 * d1 + r12 * d2, r22 * d2

    def offset(self, phi1: float, phi2: float) -> tuple[float, float]:
        b1, b2, d1, d2 = self._centre
        return self.r_times((phi1 - b1) - d1, (phi2 - b2) - d2)

    def ssr_at(self, phi1: float, phi2: float) -> float:
        """Float SSR of the recursion's residuals at (phi1, phi2), one O(n) pass."""
        resid = self.target - phi1 * self.lag1 - phi2 * self.lag2
        return _dot(resid, resid)

    def loglik(self, ssr: float) -> float:
        """-m/2 (ln(2 pi SSR/m) + 1) in the data's units; the clamp keeps it finite."""
        log_var = math.log(2.0 * math.pi * max(ssr, 1e-300) / self.m)
        return -0.5 * self.m * (log_var + 2.0 * self.shift * math.log(2.0) + 1.0)

    def result(self, method: str, gamma: float, alpha: float, ssr: float, dt: float,
               converged: bool) -> EstimationResult:
        sigma = math.sqrt(ssr / self.m / dt)
        # math.ldexp raises OverflowError past the float range: sigma_hat is inf there.
        in_range = math.frexp(sigma)[1] + self.shift <= 1024
        sigma = math.ldexp(sigma, self.shift) if in_range else math.inf
        return EstimationResult(gamma, alpha, sigma, self.loglik(ssr), method, converged,
                                self.m + 2)


def _root_product(phi1: float, phi2: float, dt: float) -> float:
    """Product of the continuous roots ln(lam)/dt of lam^2 - phi1 lam - phi2.

    Complex pairs go through modulus and argument, |lam|^2 = -phi2.  The guard
    band around the repeated-root boundary serves this inverse map alone (the
    forward map `_phi_pair` branches on the exact sign): there the split into
    two nearby roots is ill-conditioned, so the band uses the modulus and the
    split's first-order term -disc4/half^2, on which the real and complex
    branches agree (without it alpha is off by up to 1e-10/(alpha dt^2)
    relative).  For phi1 < 0 that boundary is the Nyquist angle: complex
    roots (disc4 <= 0) keep their argument there, and only a negative real
    pair in the band takes the value on the aliasing curve,
    alpha = gamma^2/4 + (pi/dt)^2.
    Principal-branch logarithms are used throughout.
    """
    half = 0.5 * phi1
    disc4 = half * half + phi2
    scale = max(phi1 * phi1, 4.0 * abs(phi2))
    band = scale > 0.0 and abs(4.0 * disc4) <= _REPEATED_ROOT_GUARD * scale
    if band and (phi1 > 0.0 or disc4 > 0.0):
        ln_mod = 0.5 * math.log(-phi2)
        if phi1 < 0.0:
            return _per_dt2(ln_mod * ln_mod + math.pi * math.pi, dt)
        return _per_dt2(ln_mod * ln_mod - disc4 / (half * half), dt)
    if disc4 <= 0.0:
        ln_mod = 0.5 * math.log(-phi2)
        theta = math.atan2(math.sqrt(-disc4), half)
        return _per_dt2(ln_mod * ln_mod + theta * theta, dt)
    s = math.sqrt(disc4)
    lam_big = half + math.copysign(s, half)
    lam_small = -phi2 / lam_big
    if lam_big > 0.0:
        return _per_dt2(math.log(lam_big) * math.log(lam_small), dt)
    # Negative real pair: principal logs carry an i*pi each.
    return _per_dt2(math.log(-lam_big) * math.log(-lam_small) - math.pi * math.pi, dt)


def _per_dt2(x: float, dt: float) -> float:
    """x / dt^2.  Where dt^2 underflows to 0, and Python's float division
    would raise, x / +0 as IEEE-754 defines it: +-inf, or nan for x = 0."""
    dt2 = dt * dt
    return x / dt2 if dt2 > 0.0 else x * math.inf


def _ulp_polish(objective, gamma: float, alpha: float) -> tuple[float, float]:
    """Greedy machine-precision descent of objective(gamma, alpha).

    Scans multiplicative perturbations of a few ulps up to ~1e-12 relative in
    the eight axis and diagonal directions, moving to the best improvement
    until none remains.  Deterministic, at most a few thousand evaluations.
    """
    value = objective(gamma, alpha)
    for _ in range(40):
        best = (value, gamma, alpha)
        for k in (4096.0, 1024.0, 256.0, 64.0, 16.0, 4.0, 1.0):
            step = k * _EPS
            for dg, da in (
                (step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                (step, step), (-step, -step), (step, -step), (-step, step),
            ):
                cand_g = gamma * (1.0 + dg)
                cand_a = alpha * (1.0 + da)
                cand_v = objective(cand_g, cand_a)
                if cand_v < best[0]:
                    best = (cand_v, cand_g, cand_a)
        if best[0] >= value:
            break
        value, gamma, alpha = best
    return gamma, alpha
