"""Damping recovery from sampled series: exact discretization, OLS, and MLE.

Property tests use hypothesis (MacIver et al., "Hypothesis: A new approach
to property-based testing", JOSS 4(43), 2019).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdyn import (
    Degenerate,
    InvariantViolation,
    NonStationary,
    ObservedSeries,
    OscState,
    OscillatorParams,
    TimeGrid,
    analytic_trajectory,
    discretize_exact,
    estimate_ar2,
    estimate_mle,
    standard_normals,
)
from gapdyn.estimation import _boundary_candidates, _LagFit, _root_product

UNDER = OscillatorParams(gamma=0.5, alpha=1.0)
CRITICAL = OscillatorParams(gamma=2.0, alpha=1.0)
OVER = OscillatorParams(gamma=3.0, alpha=1.0)


def _loglik_at(series: ObservedSeries, params: OscillatorParams) -> float:
    """The MLE's Gaussian log-likelihood of the sampled recursion at (gamma,
    alpha): conditioned on the first two observations, sigma concentrated out."""
    fit = _LagFit(series.values)
    return fit.loglik(fit.ssr_at(*discretize_exact(params, series.dt)))


def _analytic_series(params: OscillatorParams, n: int = 201, dt: float = 0.1,
                     init: OscState = OscState(1.0, 0.0)) -> ObservedSeries:
    traj = analytic_trajectory(params, init, TimeGrid(dt, n))
    return ObservedSeries(dt=dt, values=traj.y)


def _float_ssr(y: np.ndarray, phi1: float, phi2: float) -> float:
    # the recursion's float SSR on the unscaled series, the lag fit's reference
    resid = y[2:] - phi1 * y[1:-1] - phi2 * y[:-2]
    return float(np.sum(resid * resid))


def _recursion_series(params: OscillatorParams, sigma: float, seed: int,
                      n: int = 2001, dt: float = 0.1) -> ObservedSeries:
    # data generated by the sampled recursion itself, innovations N(0, sigma^2 dt)
    phi1, phi2 = discretize_exact(params, dt)
    eta = standard_normals(seed, n)
    scale = sigma * math.sqrt(dt)
    y = np.zeros(n)
    for i in range(2, n):
        y[i] = phi1 * y[i - 1] + phi2 * y[i - 2] + scale * eta[i]
    return ObservedSeries(dt=dt, values=y)


class TestObservedSeries:
    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            ObservedSeries(dt=0.0, values=[1.0, 2.0, 3.0])
        with pytest.raises(InvariantViolation):
            ObservedSeries(dt=0.1, values=[1.0])
        with pytest.raises(InvariantViolation):
            ObservedSeries(dt=0.1, values=[1.0, math.nan, 2.0])

    def test_values_are_read_only(self):
        s = ObservedSeries(dt=0.1, values=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_caller_array_stays_writable(self):
        a = np.array([1.0, 2.0, 3.0])
        s = ObservedSeries(dt=0.1, values=a)
        a[0] = 5.0
        assert s.values[0] == 1.0


class TestDiscretizeExact:
    def test_pure_oscillator_half_turn(self):
        phi1, phi2 = discretize_exact(OscillatorParams(0.0, 1.0), math.pi)
        assert phi1 == pytest.approx(-2.0, rel=1e-15)
        assert phi2 == pytest.approx(-1.0, rel=1e-15)

    def test_repeated_root_case(self):
        phi1, phi2 = discretize_exact(CRITICAL, 1.0)
        assert phi1 == pytest.approx(0.7357588823428847, rel=1e-15)
        assert phi2 == pytest.approx(-0.1353352832366127, rel=1e-15)

    def test_phi2_depends_only_on_gamma(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g = float(rng.uniform(0.0, 4.0))
            dt = float(rng.uniform(0.01, 1.0))
            _, phi2_a = discretize_exact(OscillatorParams(g, float(rng.uniform(0.1, 4.0))), dt)
            _, phi2_b = discretize_exact(OscillatorParams(g, float(rng.uniform(0.1, 4.0))), dt)
            assert phi2_a == phi2_b == -math.exp(-g * dt)

    def test_analytic_samples_satisfy_recursion(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            params = OscillatorParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.1, 3.0)))
            series = _analytic_series(params, n=100)
            phi1, phi2 = discretize_exact(params, series.dt)
            y = series.values
            residual = y[2:] - phi1 * y[1:-1] - phi2 * y[:-2]
            assert np.max(np.abs(residual)) < 1e-10

    def test_dt_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            discretize_exact(CRITICAL, 0.0)

    def test_overflowed_phase_is_an_invariant_violation(self):
        # w dt = 1e150 * 1e300 passes the float range; math.cos would raise
        # a bare ValueError
        with pytest.raises(InvariantViolation, match=r"^phase w\*t must be finite, got inf$"):
            discretize_exact(OscillatorParams(0.0, 1e300), 1e300)

    # Below the aliasing limit (wd dt < 0.9 pi) and with gamma dt <= 30, the
    # sampled lag pair maps back to alpha in every regime, the exact critical
    # line included; share places gamma inside its regime's range.
    @pytest.mark.parametrize("regime", ["under", "critical", "over"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dt=st.floats(0.01, 1.0), alpha=st.floats(0.01, 100.0),
           share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_root_product_recovers_alpha(self, regime, dt, alpha, share):
        critical = 2.0 * math.sqrt(alpha)
        if regime == "under":
            wd = share * min(math.sqrt(alpha), 0.9 * math.pi / dt)
            gamma = 2.0 * math.sqrt(alpha - wd * wd)
        elif regime == "critical":
            gamma = critical
        else:
            gamma = critical + share * (30.0 / dt - critical)
        phi1, phi2 = discretize_exact(OscillatorParams(gamma, alpha), dt)
        assert _root_product(phi1, phi2, dt) == pytest.approx(alpha, rel=1e-8)


class TestEstimateAr2:
    def test_noise_free_round_trip(self):
        r = estimate_ar2(_analytic_series(UNDER))
        assert r.gamma_hat == pytest.approx(0.5, rel=1e-6)
        assert r.alpha_hat == pytest.approx(1.0, rel=1e-6)
        assert r.method == "ar2"
        assert r.converged
        assert r.n_obs == 201

    def test_all_zero_series_is_degenerate(self):
        with pytest.raises(Degenerate):
            estimate_ar2(ObservedSeries(dt=0.1, values=np.zeros(50)))

    def test_two_point_series_is_degenerate(self):
        # parses as a series but offers no lagged regressor rows
        with pytest.raises(Degenerate):
            estimate_ar2(ObservedSeries(dt=0.1, values=[1.0, 0.5]))

    def test_rank_one_series_is_degenerate(self):
        # one lag already predicts the next sample exactly
        for values in (0.9 ** np.arange(50.0), np.ones(3)):
            with pytest.raises(Degenerate, match=r"^lag regression has rank 1 < 2$"):
                estimate_ar2(ObservedSeries(dt=0.1, values=values))

    def test_positive_phi2_is_non_stationary(self):
        # build data obeying y[i] = 0.1 y[i-1] + 0.5 y[i-2]: no damping maps to it
        y = np.empty(60)
        y[0] = y[1] = 1.0
        for i in range(2, 60):
            y[i] = 0.1 * y[i - 1] + 0.5 * y[i - 2]
        with pytest.raises(NonStationary):
            estimate_ar2(ObservedSeries(dt=0.1, values=y))

    def test_nyquist_repeated_root_keeps_the_angle(self):
        # noise-free damped oscillation a hair below the Nyquist angle: the
        # fitted lag roots are a near-repeated negative pair
        i = np.arange(400)
        y = 0.99 ** i * np.cos(math.pi * (1 - 1e-7) * i)
        r = estimate_ar2(ObservedSeries(dt=0.1, values=y))
        truth = (math.log(0.99) / 0.1) ** 2 + (math.pi * (1 - 1e-7) / 0.1) ** 2
        assert r.converged
        assert r.alpha_hat == pytest.approx(truth, rel=1e-6)

    def test_negative_real_pair_maps_through_principal_logs(self):
        # Noise-free y[i] = -1.4 y[i-1] - 0.45 y[i-2]: lag roots -0.9 and -0.5,
        # each principal log carrying an i*pi, so alpha_hat is negative.
        y = [1.0, 0.3]
        for _ in range(198):
            y.append(-1.4 * y[-1] - 0.45 * y[-2])
        r = estimate_ar2(ObservedSeries(dt=0.1, values=y))
        alpha = (math.log(0.9) * math.log(0.5) - math.pi * math.pi) / 0.01
        assert r.gamma_hat == pytest.approx(-math.log(0.45) / 0.1, rel=1e-12, abs=0)
        assert r.alpha_hat == pytest.approx(alpha, rel=1e-12, abs=0)
        assert alpha == pytest.approx(-979.657, abs=1e-3)
        assert not r.converged

    @pytest.mark.parametrize("estimator", [estimate_ar2, estimate_mle])
    def test_complex_roots_inside_the_nyquist_band(self, estimator):
        # Within about 1e-5 rad of the Nyquist angle the fitted lag roots fall
        # in the repeated-root guard band.  Complex roots keep their argument
        # there; read off the aliasing curve, alpha was off by up to 6.4e-6
        # relative (dt 1, gamma 0.05, offset 5e-6 gave 9.87022940109
        # against 9.87019798519).
        worst = 0.0
        for dt in (0.1, 0.5, 1.0, 2.0):
            for gamma in (0.01, 0.05):
                for offset in (2e-6, 5e-6, 9e-6):
                    theta = math.pi - offset
                    phi1 = 2.0 * math.exp(-0.5 * gamma * dt) * math.cos(theta)
                    phi2 = -math.exp(-gamma * dt)
                    eta = 1e-13 * standard_normals(1, 200)
                    y = [1.0, 0.2]
                    for i in range(2, 200):
                        y.append(phi1 * y[-1] + phi2 * y[-2] + eta[i])
                    truth = 0.25 * gamma * gamma + (theta / dt) ** 2
                    r = estimator(ObservedSeries(dt=dt, values=y))
                    worst = max(worst, abs(r.alpha_hat - truth) / truth)
        assert worst <= 1e-8

    def test_round_trip_property_randomized(self):
        # 100 random parameterizations, 500-point noise-free series; the
        # near-critical band is ill-conditioned and gets a looser tolerance
        rng = np.random.default_rng(31)
        checked_tight = checked_band = 0
        while checked_tight < 100 or checked_band < 5:
            if checked_tight < 100:
                gamma = float(rng.uniform(0.05, 4.0))
                alpha = float(rng.uniform(0.05, 4.0))
            else:
                alpha = float(rng.uniform(0.2, 3.0))
                gamma = 2.0 * math.sqrt(alpha) * (1.0 + float(rng.uniform(-5e-7, 5e-7)))
            params = OscillatorParams(gamma, alpha)
            near_critical = abs(params.discriminant) <= 1e-6 * max(gamma * gamma, 4.0 * alpha)
            tol = 1e-3 if near_critical else 1e-6
            init = OscState(1.0, float(rng.uniform(-1.0, 1.0)))
            r = estimate_ar2(_analytic_series(params, n=500, init=init))
            assert r.gamma_hat == pytest.approx(gamma, rel=tol)
            assert r.alpha_hat == pytest.approx(alpha, rel=tol)
            assert r.converged
            if near_critical:
                checked_band += 1
            else:
                checked_tight += 1

    def test_converged_implies_admissible_estimates(self):
        rng = np.random.default_rng(37)
        for seed in range(10):
            params = OscillatorParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
            r = estimate_ar2(_recursion_series(params, sigma=0.05, seed=seed, n=800))
            if r.converged:
                assert r.gamma_hat >= 0.0
                assert r.alpha_hat > 0.0
                assert r.sigma_hat >= 0.0

    def test_scale_equivariance(self):
        base = _recursion_series(CRITICAL, sigma=0.05, seed=3)
        scaled = ObservedSeries(dt=base.dt, values=3.7 * base.values)
        a = estimate_ar2(base)
        b = estimate_ar2(scaled)
        assert b.gamma_hat == pytest.approx(a.gamma_hat, rel=1e-9)
        assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-9)
        assert b.sigma_hat == pytest.approx(3.7 * a.sigma_hat, rel=1e-9)


class TestEstimateMle:
    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER], ids=["under", "critical", "over"])
    def test_noise_free_round_trip_beats_truth(self, params):
        series = _analytic_series(params)
        r = estimate_mle(series)
        assert r.gamma_hat == pytest.approx(params.gamma, rel=1e-4)
        assert r.alpha_hat == pytest.approx(params.alpha, rel=1e-4)
        assert r.method == "mle"
        # the optimizer must not degrade the exact fit
        assert r.loglik >= _loglik_at(series, params)

    @pytest.mark.parametrize("params", [UNDER, CRITICAL, OVER], ids=["under", "critical", "over"])
    def test_no_polish_stencil_point_beats_an_interior_fit(self, params):
        # An interior fit above the rounding floor is the mapped least-squares
        # point polished on the exact excess |R (phi - phi*)|^2: no point of
        # the polish's stencil (eight directions, k 2^-52 relative for k =
        # 4096, 1024, ..., 1) around it has a lower excess.  Floor fits are
        # polished on the float SSR instead, and boundary fits not at all.
        clean = _analytic_series(params).values
        checked = 0
        for rel in (1e-12, 1e-10, 1e-3):
            for seed in range(4):
                y = clean + rel * np.max(np.abs(clean)) * standard_normals(seed, clean.size)
                fit = _LagFit(y)
                r = estimate_mle(ObservedSeries(dt=0.1, values=y))
                if not r.converged or fit.ssr <= fit.m * (64.0 * 2.0**-52 * fit.peak) ** 2:
                    continue

                def excess(gamma, alpha):
                    z1, z2 = fit.offset(*discretize_exact(OscillatorParams(gamma, alpha), 0.1))
                    return z1 * z1 + z2 * z2

                least = excess(r.gamma_hat, r.alpha_hat)
                for k in (4096.0, 1024.0, 256.0, 64.0, 16.0, 4.0, 1.0):
                    for dg in (-1.0, 0.0, 1.0):
                        for da in (-1.0, 0.0, 1.0):
                            point = (r.gamma_hat * (1.0 + dg * k * 2.0**-52),
                                     r.alpha_hat * (1.0 + da * k * 2.0**-52))
                            assert excess(*point) >= least, (rel, seed, k, dg, da)
                checked += 1
        assert checked >= 9

    def test_white_noise_reports_instead_of_raising(self):
        # seed 0 drives the OLS initializer non-stationary; MLE falls back
        series = ObservedSeries(dt=0.1, values=standard_normals(0, 300))
        with pytest.raises(NonStationary):
            estimate_ar2(series)
        r = estimate_mle(series)
        assert math.isfinite(r.loglik)
        assert r.gamma_hat > 0.0

    def test_degenerate_series_still_raises(self):
        with pytest.raises(Degenerate):
            estimate_mle(ObservedSeries(dt=0.1, values=np.zeros(50)))

    def test_two_samples_are_degenerate(self):
        # no residual to condition on, as for estimate_ar2
        with pytest.raises(Degenerate):
            estimate_mle(ObservedSeries(dt=0.1, values=[1.0, 2.0]))

    def test_dominates_ols_likelihood(self):
        series = _recursion_series(CRITICAL, sigma=0.05, seed=3)
        a = estimate_ar2(series)
        m = estimate_mle(series)
        assert a.converged and m.converged
        assert m.loglik >= a.loglik - 1e-9

    def test_scale_equivariance(self):
        # the profile likelihood is float-flat within ~1e-7 of its argmin, so
        # rescaled data can land the optimizer a few 1e-8 away; the tolerance
        # here is pinned from that measured plateau width, not from theory
        base = _recursion_series(CRITICAL, sigma=0.05, seed=3)
        scaled = ObservedSeries(dt=base.dt, values=2.5 * base.values)
        a = estimate_mle(base)
        b = estimate_mle(scaled)
        assert b.gamma_hat == pytest.approx(a.gamma_hat, rel=1e-6)
        assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-6)
        assert b.sigma_hat == pytest.approx(2.5 * a.sigma_hat, rel=1e-9)

    def test_pure_noise_is_a_boundary_fit(self):
        # no admissible (gamma, alpha) maximizes the likelihood of white
        # noise; the fit is a finite point at the edge of the admissible set
        r = estimate_mle(ObservedSeries(dt=0.1, values=standard_normals(0, 300)))
        assert not r.converged
        assert math.isfinite(r.loglik)
        assert r.gamma_hat > 0.0

    def test_admissible_least_squares_point_is_the_mle(self):
        checked = 0
        for seed in range(60):
            series = _recursion_series((UNDER, CRITICAL, OVER)[seed % 3], sigma=0.05,
                                       seed=seed, n=400)
            y = series.values
            design = np.column_stack([y[1:-1], y[:-2]])
            phi1, phi2 = np.linalg.lstsq(design, y[2:], rcond=None)[0]
            if not (-1.0 <= phi2 < 0.0 and -2.0 * math.sqrt(-phi2) <= phi1 < 1.0 - phi2):
                continue
            a = estimate_ar2(series)
            m = estimate_mle(series)
            assert m.converged
            assert m.gamma_hat == pytest.approx(a.gamma_hat, rel=1e-9)
            assert m.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-9)
            assert m.loglik >= a.loglik - 1e-9
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    def test_noisy_recovery_single_seed(self):
        r = estimate_mle(_recursion_series(CRITICAL, sigma=0.05, seed=7))
        assert abs(r.gamma_hat - 2.0) / 2.0 <= 0.15
        assert r.sigma_hat == pytest.approx(0.05, rel=0.1)


# Noisy series from the sampled recursion, at any scale: the lag fit's inputs.
_noisy_series = st.builds(
    lambda g, a, dt, seed, n, exp10: ObservedSeries(
        dt=dt,
        values=10.0 ** exp10 * _recursion_series(OscillatorParams(g, a), 0.05, seed, n, dt).values,
    ),
    g=st.floats(0.0, 4.0), a=st.floats(0.05, 4.0), dt=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31), n=st.integers(20, 400), exp10=st.integers(-150, 150),
)


class TestLagFit:
    # SSR(phi) = SSR* + |R (phi - phi*)|^2 holds exactly when X^T r* = 0.  In
    # floats each residual r_i = y[i] - phi1 y[i-1] - phi2 y[i-2] is within
    # 2 eps K max|y| of exact, K = 1 + |phi1| + |phi2|, and |r_i| <= K max|y|,
    # so a float SSR errs by at most about 5 n eps K^2 max|y|^2.  The fit's
    # side is such a sum at its own point, plus the 2x2 terms; one bound with
    # K over both points and a factor 16 covers the two.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(series=_noisy_series, phi1=st.floats(-2.5, 2.5), phi2=st.floats(-1.5, 1.5))
    def test_ssr_identity(self, series, phi1, phi2):
        y = series.values
        fit = _LagFit(y)
        z1, z2 = fit.offset(phi1, phi2)
        identity = math.ldexp(fit.ssr + z1 * z1 + z2 * z2, 2 * fit.shift)
        k = 1.0 + abs(phi1) + abs(phi2) + abs(fit.phi[0]) + abs(fit.phi[1])
        peak = float(np.max(np.abs(y)))
        bound = 16.0 * (y.size - 2) * 2.0**-52 * (k * peak) ** 2
        assert abs(identity - _float_ssr(y, phi1, phi2)) <= bound

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(series=_noisy_series)
    def test_mle_loglik_is_conditional_loglik_at_its_estimate(self, series):
        r = estimate_mle(series)
        assert r.loglik == _loglik_at(series, OscillatorParams(r.gamma_hat, r.alpha_hat))


    def test_boundary_fit_has_the_least_float_ssr_of_its_candidates(self):
        # candidates are ranked by the excess |R (phi - phi*)|^2; the float
        # SSR at the winner may exceed the least candidate's only by the
        # rounding bound of test_ssr_identity
        dt = 0.1
        checked = 0
        for seed in range(40):
            for y in (standard_normals(seed, 300), np.cumsum(standard_normals(seed, 300))):
                r = estimate_mle(ObservedSeries(dt=dt, values=y))
                if r.converged:
                    continue
                fit = _LagFit(y)
                phis = [discretize_exact(OscillatorParams(g, a), dt)
                        for g, a in _boundary_candidates(fit, dt)]
                chosen = discretize_exact(OscillatorParams(r.gamma_hat, r.alpha_hat), dt)
                assert chosen in phis
                k = 1.0 + max(abs(p1) + abs(p2) for p1, p2 in phis)
                k += abs(fit.phi[0]) + abs(fit.phi[1])
                peak = float(np.max(np.abs(y)))
                bound = 16.0 * (y.size - 2) * 2.0**-52 * (k * peak) ** 2
                least = min(_float_ssr(y, *phi) for phi in phis)
                assert _float_ssr(y, *chosen) - least <= bound
                checked += 1
        assert checked >= 20


# White noise, a random walk and the sampled recursion: series whose fits are
# interior, on the boundary, or NonStationary for the AR(2) fit.
_scale_series = st.builds(
    lambda kind, g, a, dt, seed, n: ObservedSeries(
        dt=dt,
        values=(standard_normals(seed, n), np.cumsum(standard_normals(seed, n)),
                _recursion_series(OscillatorParams(g, a), 0.05, seed, n, dt).values)[kind],
    ),
    kind=st.integers(0, 2), g=st.floats(0.0, 4.0), a=st.floats(0.05, 4.0),
    dt=st.floats(0.05, 1.0), seed=st.integers(0, 2**31), n=st.integers(20, 400),
)


def _fit_or_error(estimator, series):
    try:
        return estimator(series)
    except (Degenerate, NonStationary) as exc:
        return type(exc)


class TestPowerOfTwoScaling:
    # Both estimators work on the series scaled by 2^-shift, shift the binary
    # exponent of max|y|, so multiplying the data by 2^k leaves every sum
    # unchanged as long as no value leaves the normal range: the fit is the
    # same bits, sigma moves by exactly 2^k and loglik by -m k ln 2 up to
    # the rounding of the shift term.
    @pytest.mark.parametrize("estimator", [estimate_ar2, estimate_mle])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(series=_scale_series, data=st.data())
    def test_fit_is_scale_free(self, estimator, series, data):
        y = series.values
        exponents = np.frexp(y[y != 0.0])[1]
        k = data.draw(st.integers(-1021 - int(exponents.min()), 1024 - int(exponents.max())))
        base = _fit_or_error(estimator, series)
        scaled = _fit_or_error(estimator, ObservedSeries(dt=series.dt, values=np.ldexp(y, k)))
        if isinstance(base, type):
            assert scaled is base
            return
        assert (scaled.gamma_hat, scaled.alpha_hat, scaled.converged) == (
            base.gamma_hat, base.alpha_hat, base.converged)
        with np.errstate(over="ignore"):
            assert scaled.sigma_hat == float(np.ldexp(base.sigma_hat, k))
        m = y.size - 2
        tol = 4.0 * m * 2.0**-52 * (abs(base.loglik) / m + abs(k) + 1.0)
        assert abs(scaled.loglik - (base.loglik - m * k * math.log(2.0))) <= tol

    def test_sigma_past_the_float_range_is_inf(self):
        # a random walk at the top of the float range, sampled finely: the
        # innovation scale sigma exceeds the largest float, the fit does not
        y = np.cumsum(standard_normals(1, 300))
        series = ObservedSeries(dt=1e-5, values=1.7e308 / np.max(np.abs(y)) * y)
        for r in (estimate_ar2(series), estimate_mle(series)):
            assert r.sigma_hat == math.inf
            assert math.isfinite(r.loglik) and math.isfinite(r.gamma_hat)
