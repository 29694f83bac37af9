"""Command line for simulation, classification, estimation, and model checks.

All numeric results go to standard output as `key=value` lines so shell
pipelines can consume them without parsing tables.  Any failure prints a
single machine-parseable `error=<Name> detail=<text>` line on standard error,
and the exit status separates failure families:

    0  success
    1  usage error (bad flags, missing subcommand)
    2  data error (config, CSV, or filesystem problems)
    3  numerical error (degenerate or non-stationary fits, divergence)

Seed precedence for seeded shocks: the --seed flag beats the GAPDYN_SEED
environment variable, which beats shock_seed in the config file.

Every layer is imported inside the functions that use it, so a command loads
only its own layers, and `classify`, `check` and usage errors start without
loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .errors import (
    BadEncoding,
    BadNumber,
    BadValue,
    Degenerate,
    Divergence,
    ImpulseOutsideGrid,
    InvariantViolation,
    MissingHeader,
    NonStationary,
    NonUniformSpacing,
    UnknownKey,
)

_NUMERICAL_ERRORS = (Degenerate, NonStationary, Divergence)
_DATA_ERRORS = (
    UnknownKey,
    BadValue,
    InvariantViolation,
    MissingHeader,
    NonUniformSpacing,
    BadNumber,
    BadEncoding,
    ImpulseOutsideGrid,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems through the error protocol."""

    def error(self, message: str):  # noqa: D102
        raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        _fail("Usage", str(exc))
        return 1
    except _NUMERICAL_ERRORS as exc:
        _fail(type(exc).__name__, str(exc))
        return 3
    except _DATA_ERRORS as exc:
        _fail(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _fail("IoError", str(exc))
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every main() call can share it."""
    parser = _Parser(prog="gapdyn", description="Output-gap dynamics toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sim = sub.add_parser("simulate", help="run one scenario and print recovery metrics")
    sim.add_argument("--config", required=True, metavar="FILE")
    sim.add_argument("--out", metavar="CSV", help="write the trajectory as CSV")
    sim.add_argument("--svg", metavar="SVG", help="render the trajectory as SVG")
    sim.add_argument("--seed", type=int, metavar="N", help="override the shock seed")
    sim.set_defaults(handler=_cmd_simulate)

    cls = sub.add_parser("classify", help="print the damping regime and discriminant")
    cls.add_argument("--gamma", type=float, required=True)
    cls.add_argument("--alpha", type=float, required=True)
    cls.set_defaults(handler=_cmd_classify)

    est = sub.add_parser("estimate", help="fit damping parameters to a CSV series")
    est.add_argument("--in", dest="input", required=True, metavar="CSV")
    est.add_argument("--method", choices=("ar2", "mle"), default="ar2")
    est.set_defaults(handler=_cmd_estimate)

    imp = sub.add_parser("impulse", help="simulate the response to a one-time shock")
    imp.add_argument("--config", required=True, metavar="FILE")
    imp.add_argument("--magnitude", type=float, required=True)
    imp.add_argument("--at", type=float, required=True)
    imp.add_argument("--out", metavar="CSV")
    imp.add_argument("--svg", metavar="SVG")
    imp.set_defaults(handler=_cmd_impulse)

    swp = sub.add_parser("sweep", help="recovery metrics across a range of damping values")
    swp.add_argument("--config", required=True, metavar="FILE")
    swp.add_argument("--gamma-from", type=float, required=True, dest="gamma_from")
    swp.add_argument("--gamma-to", type=float, required=True, dest="gamma_to")
    swp.add_argument("--gamma-steps", type=int, required=True, dest="gamma_steps")
    swp.add_argument("--seed", type=int, metavar="N", help="override the shock seed")
    swp.set_defaults(handler=_cmd_sweep)

    chk = sub.add_parser("check", help="evaluate optimality residuals at a point")
    chk.add_argument("--beta", type=float, required=True)
    chk.add_argument("--sigma-c", type=float, required=True, dest="sigma_c")
    chk.add_argument("--theta", type=float, default=1.0 / 3.0)
    chk.add_argument("--a-tfp", type=float, default=1.0, dest="a_tfp")
    chk.add_argument("--point", metavar="K=V[,K=V...]", help="override allocation fields")
    chk.set_defaults(handler=_cmd_check)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .integrate import recovery_metrics

    cfg = _load_config(args.config, seed_flag=args.seed)
    traj = _trajectory_for(cfg)
    _emit_outputs(cfg, traj, args.out, args.svg)
    _print_metrics(recovery_metrics(traj))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .oscillator import OscillatorParams, classify

    params = OscillatorParams(gamma=args.gamma, alpha=args.alpha)
    regime = classify(params)
    print(f"regime={regime.value} discriminant={_num(params.discriminant)}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .estimation import estimate_ar2, estimate_mle
    from .seriesio import read_series_csv

    series = read_series_csv(args.input)
    result = estimate_ar2(series) if args.method == "ar2" else estimate_mle(series)
    print(f"gamma_hat={_num(result.gamma_hat)}")
    print(f"alpha_hat={_num(result.alpha_hat)}")
    print(f"sigma_hat={_num(result.sigma_hat)}")
    print(f"loglik={_num(result.loglik)}")
    print(f"method={result.method.value}")
    print(f"converged={'true' if result.converged else 'false'}")
    print(f"n_obs={result.n_obs}")
    return 0


def _cmd_impulse(args: argparse.Namespace) -> int:
    from .integrate import recovery_metrics
    from .shocks import Impulse

    cfg = _load_config(args.config, seed_flag=None)
    cfg = dataclasses.replace(cfg, shock=Impulse(at=args.at, magnitude=args.magnitude))
    traj = _trajectory_for(cfg)
    _emit_outputs(cfg, traj, args.out, args.svg)
    _print_metrics(recovery_metrics(traj))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    from .integrate import sweep_metrics
    from .oscillator import OscillatorParams
    from .shocks import realize

    cfg = _load_config(args.config, seed_flag=args.seed)
    if args.gamma_steps < 1:
        raise InvariantViolation(f"gamma-steps must be >= 1, got {args.gamma_steps}")
    if args.gamma_steps > 1 and not (args.gamma_to > args.gamma_from):
        raise InvariantViolation(
            "gamma-to must exceed gamma-from when gamma-steps > 1"
        )
    try:
        gammas = np.linspace(args.gamma_from, args.gamma_to, args.gamma_steps)
    except (ValueError, IndexError, MemoryError) as exc:
        raise InvariantViolation(
            f"cannot build a grid of {args.gamma_steps} gammas: {exc}"
        ) from None
    # Every gamma is checked and run before anything is printed, so a sweep
    # that fails at any gamma leaves stdout empty.  A variant differs from
    # cfg only in gamma, so checking its OscillatorParams checks the variant.
    # The forcing does not depend on gamma: it is realized once for all.
    params = [OscillatorParams(gamma=float(g), alpha=cfg.alpha) for g in gammas]
    grid = cfg.grid()
    try:
        eps = realize(cfg.shock, grid, cfg.shock_scaling)
        metrics = sweep_metrics(params, cfg.initial_state(), eps, grid, cfg.integrator.value)
    except MemoryError:
        raise _too_large(cfg) from None
    rows = ["gamma,settling_time,overshoot,zero_crossings,terminal_abs\n"]
    rows += [
        "%.17g,%.17g,%.17g,%d,%.17g\n" % row
        for row in zip(gammas.tolist(), *(column.tolist() for column in metrics))
    ]
    sys.stdout.write("".join(rows))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .dsge import (
        DsgeBlockParams,
        DsgePoint,
        budget_residual,
        euler_residual,
        profit,
        steady_state_rate,
    )

    params = DsgeBlockParams(
        beta=args.beta, sigma_c=args.sigma_c, theta=args.theta, a_tfp=args.a_tfp
    )
    rate = steady_state_rate(params)
    # Defaults sit on a flat consumption path with a balanced budget and
    # zero profit, so every residual is exactly zero until overridden.
    fields: dict[str, float] = {
        "c": 1.0, "l": 1.0, "b": 0.0, "b_next": 0.0, "r": rate,
        "w": 1.0, "n": 1.0, "k": 1.0, "y": 1.0, "p": 1.0, "r_k": 0.0,
    }
    for key, value in _parse_point(args.point or ""):
        if key not in fields:
            raise UnknownKey(f"unknown point key {key!r}")
        fields[key] = value
    point = DsgePoint(**fields)
    print(f"euler_residual={_num(euler_residual(point.c, point.c, point.r, params))}")
    print(f"budget_residual={_num(budget_residual(point))}")
    print(f"profit={_num(profit(point))}")
    print(f"steady_state_rate={_num(rate)}")
    return 0


def _load_config(path: str, seed_flag: int | None) -> ScenarioConfig:
    from .config import parse_config
    from .seriesio import read_text

    cfg = parse_config(read_text(path))
    shock = _resolve_seed(seed_flag, cfg.shock)
    if shock is not cfg.shock:
        cfg = dataclasses.replace(cfg, shock=shock)
    return cfg


def _resolve_seed(flag_seed: int | None, shock):
    from .shocks import Ar1, WhiteNoise

    if not isinstance(shock, (WhiteNoise, Ar1)):
        return shock
    if flag_seed is not None:
        return dataclasses.replace(shock, seed=flag_seed)
    env = os.environ.get("GAPDYN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise BadValue(f"GAPDYN_SEED must be an integer, got {env!r}") from None
        return dataclasses.replace(shock, seed=seed)
    return shock


def _trajectory_for(cfg: ScenarioConfig) -> Trajectory:
    from .shocks import realize

    try:
        return _integrate(cfg, realize(cfg.shock, cfg.grid(), cfg.shock_scaling))
    except MemoryError:
        raise _too_large(cfg) from None


def _too_large(cfg: ScenarioConfig) -> InvariantViolation:
    """The error for a grid whose forcing or path cannot be allocated."""
    return InvariantViolation(f"cannot allocate a grid of n_steps={cfg.n_steps} nodes")


def _integrate(cfg: ScenarioConfig, eps: np.ndarray) -> Trajectory:
    """Step cfg's oscillator under a forcing already realized on cfg.grid()."""
    from .config import Integrator
    from .integrate import integrate_euler, integrate_rk4

    step = integrate_euler if cfg.integrator is Integrator.EULER else integrate_rk4
    return step(cfg.params(), cfg.initial_state(), eps, cfg.grid())


def _emit_outputs(
    cfg: ScenarioConfig, traj: Trajectory, out_path: str | None, svg_path: str | None
) -> None:
    if out_path:
        from .seriesio import write_trajectory_csv

        write_trajectory_csv(out_path, traj)
    if svg_path:
        from .oscillator import classify
        from .svgplot import write_svg

        label = classify(cfg.params()).value
        write_svg(
            svg_path,
            traj.grid.times(),
            [(label, traj.y)],
            x_label="time",
            y_label="output gap",
        )


def _print_metrics(metrics: RecoveryMetrics) -> None:
    print(f"settling_time={_num(metrics.settling_time)}")
    print(f"overshoot={_num(metrics.overshoot)}")
    print(f"zero_crossings={metrics.zero_crossings}")
    print(f"terminal_abs={_num(metrics.terminal_abs)}")


def _parse_point(text: str) -> list[tuple[str, float]]:
    pairs: list[tuple[str, float]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise BadValue(f"point entries must look like key=value, got {chunk!r}")
        key, _, raw = chunk.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            value = float(raw)
        except ValueError:
            raise BadValue(f"point key {key!r} expects a number, got {raw!r}") from None
        pairs.append((key, value))
    return pairs


def _num(x: float) -> str:
    text = "%.12g" % x
    return "0" if text == "-0" else text


def _fail(name: str, detail: str) -> None:
    clean = " ".join(str(detail).splitlines()) or "unspecified"
    print(f"error={name} detail={clean}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
