"""
Optimality residuals around a steady state
==========================================

The micro-founded block behind the gap dynamics: a household Euler
condition, a budget identity, and a constant-returns technology.  At the
steady-state interest rate every residual vanishes; away from it the Euler
residual signs the direction consumption wants to move.
"""

from gapdyn import (
    DsgeBlockParams,
    DsgePoint,
    budget_residual,
    euler_residual,
    production,
    profit,
    steady_state_rate,
)

params = DsgeBlockParams(beta=0.99, sigma_c=2.0)
r_star = steady_state_rate(params)
print(f"discounting at beta={params.beta} pins the interest rate at {r_star:.6f}")

# A flat consumption path at the steady-state rate is optimal.
print(f"residual on the steady path:  {euler_residual(1.0, 1.0, r_star, params):+.2e}")
print(f"residual if rates are higher: {euler_residual(1.0, 1.0, 0.05, params):+.2e}")
print(f"residual if rates are lower:  {euler_residual(1.0, 1.0, 0.00, params):+.2e}")

# Competitive accounts at the unit allocation: income covers spending,
# technology earns no rent.
point = DsgePoint(r=r_star)
print(f"budget residual {budget_residual(point):+.2e}, profit {profit(point):+.2e}")

# Constant returns: doubling both inputs doubles output.
y1 = production(k=1.0, n=1.0, params=params)
y2 = production(k=2.0, n=2.0, params=params)
print(f"production scales {y2 / y1:.1f}x when inputs double")
