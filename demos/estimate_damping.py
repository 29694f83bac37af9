"""
Recovering damping parameters from a noisy series
=================================================

Simulate a persistently shocked economy with known frictions, persist the
run as CSV, then ask both estimators to recover the parameters from the
sampled gap alone.  The lag-regression route is fast and exact on clean
data; the likelihood route also reports a fit quality and stays usable
when the regression route rejects the sample.
"""

from gapdyn import (
    OscillatorParams,
    OscState,
    TimeGrid,
    WhiteNoise,
    estimate_ar2,
    estimate_mle,
    integrate_euler,
    read_series_csv,
    realize,
    write_trajectory_csv,
)

TRUE_GAMMA, TRUE_ALPHA = 2.0, 1.0

# A long sample keeps the estimators honest: 200 years, 2001 observations.
grid = TimeGrid(dt=0.1, n_steps=2001)
params = OscillatorParams(TRUE_GAMMA, TRUE_ALPHA)
eps = realize(WhiteNoise(sigma=0.05, seed=3), grid)
traj = integrate_euler(params, OscState(0.0, 0.0), eps, grid)

write_trajectory_csv("noisy_run.csv", traj)
series = read_series_csv("noisy_run.csv")
print(f"loaded {series.values.size} observations at dt={series.dt}")

# Percent-level bias is the stepping scheme talking, not the estimators:
# they fit the exactly sampled recursion, the data came from a first-order
# integrator.  sigma_hat is the innovation scale of that recursion, which
# sees the forcing only after one integration step, hence the smaller number.
for fit in (estimate_ar2(series), estimate_mle(series)):
    gamma_err = abs(fit.gamma_hat - TRUE_GAMMA) / TRUE_GAMMA
    print(f"{fit.method}: gamma_hat={fit.gamma_hat:.4f} "
          f"({100 * gamma_err:.1f}% off), alpha_hat={fit.alpha_hat:.4f}, "
          f"sigma_hat={fit.sigma_hat:.4f}, loglik={fit.loglik:.2f}")
