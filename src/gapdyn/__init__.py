"""Output-gap dynamics: a damped-oscillator toolkit for business-cycle analysis.

The package models the output gap as a damped harmonic oscillator

    y'' + gamma y' + alpha y = eps(t)

and provides closed-form solutions, two fixed-step integrators, reproducible
shock processes, damping estimation from sampled data, a small intertemporal
consistency block, and a CLI with CSV/SVG input and output.

Exports load on first access (PEP 562): `import gapdyn` loads only `errors`,
and each other name, or submodule, imports the module that owns it when it
is first read.  So code that uses only `classify` or the consumption block
never imports numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# The public names, by the submodule that defines them: every error class
# in `errors`, and the names listed for the others.
_EXPORTS = {
    "config": ("ScenarioConfig", "parse_config"),
    "dsge": (
        "DsgeBlockParams", "DsgePoint", "budget_residual", "euler_residual",
        "production", "profit", "steady_state_rate", "utility",
    ),
    "errors": tuple(
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.GapdynError)
    ),
    "estimation": (
        "EstimationResult", "ObservedSeries", "discretize_exact", "estimate_ar2",
        "estimate_mle",
    ),
    "integrate": (
        "RecoveryMetrics", "TimeGrid", "Trajectory", "analytic_trajectory",
        "integrate_euler", "integrate_rk4", "recovery_metrics",
    ),
    "oscillator": (
        "OscillatorParams", "OscState", "classify", "energy", "solve_analytic",
    ),
    "seriesio": ("read_series_csv", "write_trajectory_csv"),
    "shocks": (
        "Ar1", "Impulse", "NoShock", "ShockSpec", "WhiteNoise", "realize",
        "standard_normals",
    ),
    "svgplot": ("write_svg",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["errors", *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
