"""Command line for simulation, classification, estimation, and model checks.

All numeric results go to standard output as `key=value` lines so shell
pipelines can consume them without parsing tables.  Any failure prints a
single machine-parseable `error=<Name> detail=<text>` line on standard error,
and the exit status separates failure families:

    0  success
    1  usage error (bad flags, missing subcommand)
    2  data error (config, CSV, or filesystem problems)
    3  numerical error (degenerate or non-stationary fits, divergence)

Each error class in errors.py owns its family as `exit_code`; main maps an
OSError to 2, a usage error to 1, and a MemoryError, an input too large for
memory, to InvariantViolation's 2.

Seed precedence for seeded shocks: the --seed flag beats shock_seed in the
config file; with a shock kind that draws nothing, --seed is BadValue.  A
run reads its arguments and files, no environment variable.

Every layer is imported inside the functions that use it, so a command loads
only its own layers, and `classify`, `check` and usage errors start without
loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from .errors import (
    BadValue,
    GapdynError,
    InvariantViolation,
    UnknownKey,
    _allocating,
    _check,
    _check_int,
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
    except GapdynError as exc:
        _fail(type(exc).__name__, str(exc))
        return exc.exit_code
    except OSError as exc:
        _fail("IoError", str(exc))
        return 2
    except MemoryError:
        _fail("InvariantViolation", "input too large for memory")
        return InvariantViolation.exit_code


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
    chk.add_argument("--point", metavar="K=V[,K=V...]", help="override allocation fields")
    chk.set_defaults(handler=_cmd_check)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run_scenario(_load_config(args.config, seed_flag=args.seed), args)


def _cmd_classify(args: argparse.Namespace) -> int:
    from .oscillator import OscillatorParams, classify

    params = OscillatorParams(gamma=args.gamma, alpha=args.alpha)
    print(f"regime={classify(params)} discriminant={_num(params.discriminant)}")
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
    print(f"method={result.method}")
    print(f"converged={'true' if result.converged else 'false'}")
    print(f"n_obs={result.n_obs}")
    return 0


def _cmd_impulse(args: argparse.Namespace) -> int:
    from .shocks import Impulse

    # The impulse replaces the config's shock, so no seed is resolved.
    cfg = _load_config(args.config, seed_flag=None)
    shock = Impulse(at=args.at, magnitude=args.magnitude)
    return _run_scenario(dataclasses.replace(cfg, shock=shock), args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    from .integrate import sweep_metrics
    from .oscillator import OscillatorParams
    from .shocks import realize

    cfg = _load_config(args.config, seed_flag=args.seed)
    _check_int("gamma-steps", args.gamma_steps, 1)
    # Both ends finite and >= 0, so np.linspace cannot overflow.
    gamma_from = _check("gamma-from", args.gamma_from, low=0)
    gamma_to = _check("gamma-to", args.gamma_to, low=0)
    if args.gamma_steps > 1 and not (gamma_to > gamma_from):
        raise InvariantViolation(
            "gamma-to must exceed gamma-from when gamma-steps > 1"
        )
    # Every gamma is checked and run before anything is printed, so a sweep
    # that fails at any gamma leaves stdout empty.  A variant differs from
    # cfg only in gamma, so checking its OscillatorParams checks the variant.
    # The forcing does not depend on gamma: it is realized once for all.
    grid = cfg.grid()
    with _allocating(f"{args.gamma_steps} gammas on a grid of n_steps={cfg.n_steps} nodes"):
        gammas = np.linspace(gamma_from, gamma_to, args.gamma_steps).tolist()
        params = [OscillatorParams(gamma=g, alpha=cfg.alpha) for g in gammas]
        eps = realize(cfg.shock, grid)
        metrics = sweep_metrics(params, cfg.initial_state(), eps, grid, cfg.integrator)
        rows = ["gamma,settling_time,overshoot,zero_crossings,terminal_abs\n"]
        rows += [
            "%.17g,%.17g,%.17g,%d,%.17g\n" % row
            for row in zip(gammas, *(column.tolist() for column in metrics))
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

    params = DsgeBlockParams(beta=args.beta, sigma_c=args.sigma_c)
    rate = steady_state_rate(params)
    given = _parse_point(args.point or "")
    keys = {f.name for f in dataclasses.fields(DsgePoint)}
    for key in given:
        if key not in keys:
            raise UnknownKey(f"unknown point key {key!r}")
    if "r" not in given and not math.isfinite(rate):
        raise InvariantViolation(f"beta={args.beta!r} overflows r = 1/beta - 1; --point r= sets r")
    point = DsgePoint(**({"r": rate} | given))
    print(f"euler_residual={_num(euler_residual(point.c, point.c, point.r, params))}")
    print(f"budget_residual={_num(budget_residual(point))}")
    print(f"profit={_num(profit(point))}")
    print(f"steady_state_rate={_num(rate)}")
    return 0


def _load_config(path: str, seed_flag: int | None) -> ScenarioConfig:
    """The scenario in `path`, with `seed_flag`, if given, as its shock's
    seed; a shock kind without a seed makes the flag BadValue."""
    from .config import _SHOCK_KINDS, parse_config
    from .seriesio import read_text

    cfg = parse_config(read_text(path))
    if seed_flag is None:
        return cfg
    if not hasattr(cfg.shock, "seed"):
        name = next(name for name, kind in _SHOCK_KINDS.items() if type(cfg.shock) is kind)
        raise BadValue(f"--seed does not apply to shock = {name}")
    return dataclasses.replace(cfg, shock=dataclasses.replace(cfg.shock, seed=seed_flag))


def _run_scenario(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    """Step cfg's scenario, write args.out and args.svg, and print its
    recovery metrics: `simulate` and `impulse` differ only in cfg."""
    from .integrate import recovery_metrics
    from .shocks import realize

    grid = cfg.grid()
    with grid._allocating():
        traj = _integrate(cfg, realize(cfg.shock, grid))
    if args.out:
        from .seriesio import write_trajectory_csv

        write_trajectory_csv(args.out, traj)
    if args.svg:
        from .oscillator import classify
        from .svgplot import write_svg

        label = classify(cfg.params())
        write_svg(args.svg, traj.grid.times(), [(label, traj.y)], y_label="output gap")
    metrics = recovery_metrics(traj)
    print(f"settling_time={_num(metrics.settling_time)}")
    print(f"overshoot={_num(metrics.overshoot)}")
    print(f"zero_crossings={metrics.zero_crossings}")
    print(f"terminal_abs={_num(metrics.terminal_abs)}")
    return 0


def _integrate(cfg: ScenarioConfig, eps: np.ndarray) -> Trajectory:
    """Step cfg's oscillator under a forcing already realized on cfg.grid()."""
    from . import integrate

    # integrate_<scheme> is read from the module on each call, so a stepper
    # replaced there (a tracing wrapper, say) is the one that runs.
    step = getattr(integrate, f"integrate_{cfg.integrator}")
    return step(cfg.params(), cfg.initial_state(), eps, cfg.grid())


def _parse_point(text: str) -> dict[str, float]:
    """The `key=value` entries of a --point list; a key may appear once."""
    pairs: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise BadValue(f"point entries must look like key=value, got {chunk!r}")
        key, _, raw = chunk.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in pairs:
            raise BadValue(f"duplicate point key {key!r}")
        try:
            pairs[key] = float(raw)
        except ValueError:
            raise BadValue(f"point key {key!r} expects a number, got {raw!r}") from None
    return pairs


def _num(x: float) -> str:
    text = "%.12g" % x
    return "0" if text == "-0" else text


def _fail(name: str, detail: str) -> None:
    clean = " ".join(str(detail).splitlines()) or "unspecified"
    print(f"error={name} detail={clean}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
