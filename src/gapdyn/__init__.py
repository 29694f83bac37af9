"""Output-gap dynamics: a damped-oscillator toolkit for business-cycle analysis.

The package models the output gap as a damped harmonic oscillator

    y'' + gamma y' + alpha y = eps(t)

and provides closed-form solutions, two fixed-step integrators, reproducible
shock processes, damping estimation from sampled data, a small intertemporal
consistency block, and a CLI with CSV/SVG input and output.
"""

from . import errors
from .config import Integrator, ScenarioConfig, parse_config
from .dsge import (
    DsgeBlockParams,
    DsgePoint,
    budget_residual,
    euler_residual,
    production,
    profit,
    steady_state_rate,
    utility,
)
from .errors import (
    BadEncoding,
    BadNumber,
    BadValue,
    Degenerate,
    Divergence,
    GapdynError,
    ImpulseOutsideGrid,
    InvariantViolation,
    MissingHeader,
    NonStationary,
    NonUniformSpacing,
    UnknownKey,
)
from .estimation import (
    EstimationResult,
    Method,
    ObservedSeries,
    conditional_loglik,
    discretize_exact,
    estimate_ar2,
    estimate_mle,
)
from .integrate import (
    RecoveryMetrics,
    TimeGrid,
    Trajectory,
    analytic_trajectory,
    integrate_euler,
    integrate_rk4,
    recovery_metrics,
)
from .oscillator import (
    DEFAULT_REL_TOL,
    OscillatorParams,
    OscState,
    PhysicalOscillator,
    Regime,
    classify,
    energy,
    from_physical,
    solve_analytic,
)
from .seriesio import read_series_csv, write_trajectory_csv
from .shocks import (
    Ar1,
    Impulse,
    NoShock,
    ShockSpec,
    WhiteNoise,
    realize,
    standard_normals,
)
from .svgplot import write_svg

__version__ = "0.1.0"

__all__ = [
    "Ar1",
    "BadEncoding",
    "BadNumber",
    "BadValue",
    "DEFAULT_REL_TOL",
    "Degenerate",
    "Divergence",
    "DsgeBlockParams",
    "DsgePoint",
    "EstimationResult",
    "GapdynError",
    "Impulse",
    "ImpulseOutsideGrid",
    "Integrator",
    "InvariantViolation",
    "Method",
    "MissingHeader",
    "NoShock",
    "NonStationary",
    "NonUniformSpacing",
    "ObservedSeries",
    "OscState",
    "OscillatorParams",
    "PhysicalOscillator",
    "RecoveryMetrics",
    "Regime",
    "ScenarioConfig",
    "ShockSpec",
    "TimeGrid",
    "Trajectory",
    "UnknownKey",
    "WhiteNoise",
    "analytic_trajectory",
    "budget_residual",
    "classify",
    "conditional_loglik",
    "discretize_exact",
    "energy",
    "errors",
    "estimate_ar2",
    "estimate_mle",
    "euler_residual",
    "from_physical",
    "integrate_euler",
    "integrate_rk4",
    "parse_config",
    "production",
    "profit",
    "read_series_csv",
    "realize",
    "recovery_metrics",
    "solve_analytic",
    "standard_normals",
    "steady_state_rate",
    "utility",
    "write_svg",
    "write_trajectory_csv",
]
