"""Intertemporal optimality block: utility, Euler condition, budget, production."""

import math

import numpy as np
import pytest

from gapdyn import (
    DsgeBlockParams,
    DsgePoint,
    InvariantViolation,
    budget_residual,
    euler_residual,
    production,
    profit,
    steady_state_rate,
    utility,
)

LOG_UTILITY = DsgeBlockParams(beta=0.99, sigma_c=1.0, theta=0.3, a_tfp=1.0)
CRRA2 = DsgeBlockParams(beta=0.99, sigma_c=2.0, theta=0.3, a_tfp=1.0)


def _point(**overrides) -> DsgePoint:
    return DsgePoint(**({"r": 0.05} | overrides))


class TestParamInvariants:
    def test_beta_bounds(self):
        with pytest.raises(InvariantViolation):
            DsgeBlockParams(beta=0.0, sigma_c=1.0, theta=0.3, a_tfp=1.0)
        with pytest.raises(InvariantViolation):
            DsgeBlockParams(beta=1.01, sigma_c=1.0, theta=0.3, a_tfp=1.0)
        DsgeBlockParams(beta=1.0, sigma_c=1.0, theta=0.3, a_tfp=1.0)

    def test_other_bounds(self):
        with pytest.raises(InvariantViolation):
            DsgeBlockParams(beta=0.99, sigma_c=0.0, theta=0.3, a_tfp=1.0)
        with pytest.raises(InvariantViolation):
            DsgeBlockParams(beta=0.99, sigma_c=1.0, theta=1.0, a_tfp=1.0)
        with pytest.raises(InvariantViolation):
            DsgeBlockParams(beta=0.99, sigma_c=1.0, theta=0.3, a_tfp=0.0)

    def test_point_sign_constraints(self):
        with pytest.raises(InvariantViolation):
            _point(c=0.0)
        with pytest.raises(InvariantViolation):
            _point(r=-1.0)
        with pytest.raises(InvariantViolation):
            _point(p=0.0)


class TestUtility:
    def test_crra_at_unit_consumption(self):
        assert utility(1.0, 0.0, CRRA2) == -1.0

    def test_log_limit(self):
        assert utility(1.0, 0.0, LOG_UTILITY) == 0.0
        assert utility(math.e, 0.0, LOG_UTILITY) == pytest.approx(1.0, rel=1e-15)

    def test_leisure_term(self):
        assert utility(1.0, math.e - 1.0, LOG_UTILITY) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_nonpositive_consumption(self):
        with pytest.raises(InvariantViolation):
            utility(0.0, 0.0, LOG_UTILITY)

    def test_overflowing_power_is_infinite(self):
        # 1e-200^(1-3) / (1-3): the power overflows to +inf, as in IEEE-754.
        sigma3 = DsgeBlockParams(beta=0.99, sigma_c=3.0, theta=0.3, a_tfp=1.0)
        assert utility(1e-200, 0.5, sigma3) == -math.inf

    def test_strictly_increasing_in_consumption(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = DsgeBlockParams(beta=0.95, sigma_c=float(rng.uniform(0.5, 4.0)),
                                     theta=0.3, a_tfp=1.0)
            c = float(rng.uniform(0.1, 5.0))
            assert utility(c + 1e-6, 1.0, params) > utility(c, 1.0, params)

    def test_marginal_utility_matches_euler_kernel(self):
        # central difference of utility in c reproduces c^(-sigma_c)
        rng = np.random.default_rng(43)
        h = 1e-6
        for _ in range(100):
            sigma_c = float(rng.uniform(0.5, 4.0))
            params = DsgeBlockParams(beta=0.97, sigma_c=sigma_c, theta=0.3, a_tfp=1.0)
            c = float(rng.uniform(0.2, 4.0))
            diff = (utility(c + h, 0.0, params) - utility(c - h, 0.0, params)) / (2.0 * h)
            assert diff == pytest.approx(c ** (-sigma_c), rel=1e-6)


class TestEulerResidual:
    def test_steady_state_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            params = DsgeBlockParams(beta=float(rng.uniform(0.8, 1.0)),
                                     sigma_c=float(rng.uniform(0.5, 4.0)),
                                     theta=0.3, a_tfp=1.0)
            c = float(rng.uniform(0.1, 5.0))
            r_star = steady_state_rate(params)
            assert abs(euler_residual(c, c, r_star, params)) < 1e-12

    def test_hand_worked_log_case(self):
        assert euler_residual(1.0, 1.0, 0.0, LOG_UTILITY) == pytest.approx(0.01, rel=1e-12)

    def test_hand_worked_crra_case(self):
        # 1 - 0.99 * 1.05 * 1.1^-2
        value = euler_residual(1.0, 1.1, 0.05, CRRA2)
        assert value == pytest.approx(0.14090909090909087, rel=1e-14)

    def test_strictly_decreasing_in_future_consumption(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            c_next = float(rng.uniform(0.2, 4.0))
            a = euler_residual(1.0, c_next, 0.02, CRRA2)
            b = euler_residual(1.0, c_next + 1e-6, 0.02, CRRA2)
            assert b > a

    def test_overflowing_marginal_utility_is_infinite(self):
        assert euler_residual(1e-200, 1.0, 0.0, CRRA2) == math.inf
        assert euler_residual(1.0, 1e-200, 0.0, CRRA2) == -math.inf
        assert math.isnan(euler_residual(1e-200, 1e-200, 0.0, CRRA2))

    def test_domain_violations(self):
        with pytest.raises(InvariantViolation):
            euler_residual(0.0, 1.0, 0.0, CRRA2)
        with pytest.raises(InvariantViolation):
            euler_residual(1.0, 1.0, -1.0, CRRA2)


class TestBudgetResidual:
    def test_labor_income_consumed(self):
        pt = _point(c=1.0, b_next=0.0, b=0.0, r=0.0, w=1.0, n=1.0)
        assert budget_residual(pt) == 0.0

    def test_hand_worked_case(self):
        pt = _point(c=1.0, b_next=1.0, b=1.0, r=0.05, w=1.0, n=1.0)
        assert budget_residual(pt) == pytest.approx(-0.05, abs=1e-15)

    def test_linear_in_money_entries(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            lam = float(rng.uniform(0.5, 4.0))
            c, b, bn, w = (float(v) for v in rng.uniform(0.1, 2.0, size=4))
            base = _point(c=c, b=b, b_next=bn, w=w, n=1.5, r=0.03)
            scaled = _point(c=lam * c, b=lam * b, b_next=lam * bn, w=lam * w, n=1.5, r=0.03)
            assert budget_residual(scaled) == pytest.approx(lam * budget_residual(base), rel=1e-12, abs=1e-15)


class TestProduction:
    def test_unit_inputs(self):
        assert production(1.0, 1.0, DsgeBlockParams(0.99, 1.0, 0.3, 1.0)) == 1.0

    def test_tfp_scales_output(self):
        assert production(1.0, 1.0, DsgeBlockParams(0.99, 1.0, 0.3, 2.0)) == 2.0

    def test_cube_root_capital(self):
        p = DsgeBlockParams(0.99, 1.0, 1.0 / 3.0, 1.0)
        assert production(8.0, 1.0, p) == pytest.approx(2.0, rel=1e-15)

    def test_zero_input_convention(self):
        p = DsgeBlockParams(0.99, 1.0, 0.3, 1.0)
        assert production(0.0, 1.0, p) == 0.0
        assert production(1.0, 0.0, p) == 0.0

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = DsgeBlockParams(0.99, 1.0, float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 3.0)))
            k = float(rng.uniform(0.1, 10.0))
            n = float(rng.uniform(0.1, 10.0))
            lam = float(rng.uniform(0.1, 10.0))
            assert production(lam * k, lam * n, p) == pytest.approx(lam * production(k, n, p), rel=1e-12)


class TestProfit:
    def test_zero_profit_point(self):
        assert profit(_point(p=1.0, y=1.0, w=1.0, n=1.0, r_k=0.0, k=0.0)) == 0.0

    def test_hand_worked_case(self):
        assert profit(_point(p=1.0, y=2.0, w=1.0, n=1.0, r_k=0.1, k=5.0)) == pytest.approx(0.5, abs=1e-15)

    def test_linear_in_each_argument(self):
        base = _point(p=1.2, y=2.0, w=0.7, n=1.1, r_k=0.2, k=3.0)
        doubled_output = _point(p=1.2, y=4.0, w=0.7, n=1.1, r_k=0.2, k=3.0)
        revenue = 1.2 * 2.0
        assert profit(doubled_output) - profit(base) == pytest.approx(revenue, rel=1e-14)


class TestSteadyStateRate:
    def test_patience_extremes(self):
        assert steady_state_rate(DsgeBlockParams(1.0, 1.0, 0.3, 1.0)) == 0.0

    def test_hand_worked_values(self):
        assert steady_state_rate(LOG_UTILITY) == pytest.approx(0.010101010101010102, rel=1e-13)
        r = steady_state_rate(DsgeBlockParams(0.96, 1.0, 0.3, 1.0))
        assert r == pytest.approx(0.041666666666666664, rel=1e-13)
