"""Forcing-term constructors: deterministic impulses and seeded noise processes.

Random sequences come from the counter-based Philox engine keyed directly by
the 64-bit seed; its raw words are exact on every platform.  Gaussian
variates come from an explicit Box-Muller transform of the raw uniform bits,
whose numpy log, cos and sin can differ in the last bit between CPU dispatch
levels, since numpy picks their kernels per CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpulseOutsideGrid, InvariantViolation, _check
from .integrate import TimeGrid

_SEED_LIMIT = 2**64
_TWO_NEG53 = 2.0**-53


def _check_seed(seed: int) -> None:
    if not (isinstance(seed, int) and 0 <= seed < _SEED_LIMIT):
        raise InvariantViolation(f"seed must be an integer in [0, 2^64), got {seed!r}")


@dataclass(frozen=True)
class NoShock:
    """Zero forcing at every node."""


@dataclass(frozen=True)
class Impulse:
    """A one-time shock of size `magnitude` at the grid node nearest `at`."""

    at: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        _check("at", self.at)
        _check("magnitude", self.magnitude)


@dataclass(frozen=True)
class WhiteNoise:
    """Independent Gaussian forcing with level sigma, drawn from `seed`.

    The draws are scaled by sigma/sqrt(dt): the per-step velocity impulse then
    has standard deviation sigma*sqrt(dt), so refining dt does not change the
    energy injected per unit time.  A level s applied per step with no dt
    factor is sigma = s*sqrt(dt).
    """

    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _check("sigma", self.sigma, low=0)
        _check_seed(self.seed)


@dataclass(frozen=True)
class Ar1:
    """First-order autoregressive forcing with persistence rho (|rho| < 1).

    The process is scaled so its stationary standard deviation is sigma, and
    the first draw comes from the stationary distribution.
    """

    rho: float = 0.9
    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _check("rho", self.rho, low=-1, low_strict=True, high=1, high_strict=True)
        _check("sigma", self.sigma, low=0)
        _check_seed(self.seed)


ShockSpec = NoShock | Impulse | WhiteNoise | Ar1


def standard_normals(seed: int, n: int) -> np.ndarray:
    """n deterministic standard-normal draws from a Philox stream.

    The generator is frozen for reproducibility: raw 64-bit words are mapped
    to uniforms by u = (bits >> 11) * 2^-53 (u1 gets +1 before scaling so it
    lies in (0, 1]), then paired through Box-Muller with r = sqrt(-2 ln u1)
    and angles 2 pi u2; cosines fill the even output slots, sines the odd.
    Pair k consumes raw words 2k and 2k+1, so a longer request extends a
    shorter one without disturbing its draws.
    """
    _check_seed(seed)
    if not (isinstance(n, int) and n >= 0):
        raise InvariantViolation(f"n must be an integer >= 0, got {n!r}")
    pairs = (n + 1) // 2
    raw = np.random.Philox(key=seed).random_raw(2 * pairs)
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
    u2 = (raw[1::2] >> np.uint64(11)) * _TWO_NEG53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def realize(spec: ShockSpec, grid: TimeGrid) -> np.ndarray:
    """Forcing sequence for `spec` on `grid`, one value per node."""
    n = grid.n_steps
    if isinstance(spec, NoShock):
        return np.zeros(n)
    if isinstance(spec, Impulse):
        if spec.at < 0.0 or spec.at > grid.t_end:
            raise ImpulseOutsideGrid(
                f"impulse at t={spec.at!r} outside grid span [0.0, {grid.t_end!r}]"
            )
        # Nearest node; an exact midpoint resolves to the earlier node.
        idx = math.ceil(spec.at / grid.dt - 0.5)
        idx = min(max(idx, 0), n - 1)
        out = np.zeros(n)
        out[idx] = spec.magnitude
        return out
    if isinstance(spec, WhiteNoise):
        return standard_normals(spec.seed, n) * (spec.sigma / math.sqrt(grid.dt))
    if isinstance(spec, Ar1):
        draws = standard_normals(spec.seed, n)
        innov = spec.sigma * math.sqrt(1.0 - spec.rho * spec.rho) * draws
        innov[0] = spec.sigma * draws[0]
        out = []
        prev = 0.0
        rho = spec.rho
        for e in innov.tolist():
            prev = e + rho * prev
            out.append(prev)
        return np.array(out, dtype=np.float64)
    raise InvariantViolation(f"unknown shock spec {spec!r}")
