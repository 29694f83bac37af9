"""Forcing-term constructors: deterministic impulses and seeded noise processes.

Random sequences come from the package's own counter-based Philox4x64-10,
with counter (j, 0, 0, 0) for block j = 1, 2, ... and key (seed, 0); its raw
words are numpy's Philox(key=seed) stream, computed in uint64 integer
arithmetic that is exact on every platform, without numpy's random module.
Gaussian variates come from an explicit Box-Muller transform of the raw
uniform bits, whose numpy log, cos and sin can differ in the last bit between
CPU dispatch levels, since numpy picks their kernels per CPU.

A forcing sequence is one float64 array, one entry per node, and no
per-node Python object outlives a pass over integrate._CHUNK nodes (see
realize).  An allocation that fails raises InvariantViolation naming the
count: n for the draws of a noise process, else the grid's n_steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpulseOutsideGrid, InvariantViolation, _allocating, _check_field, _check_int
from .integrate import _CHUNK, TimeGrid

_SEED_LIMIT = 2**64
_TWO_NEG53 = 2.0**-53
# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): round multipliers and
# the Weyl increments of the key between rounds.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class NoShock:
    """Zero forcing at every node."""


@dataclass(frozen=True)
class Impulse:
    """A one-time shock of size `magnitude` at the grid node nearest `at`."""

    at: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        _check_field(self, "at")
        _check_field(self, "magnitude")


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
        _check_field(self, "sigma", low=0)
        _check_int("seed", self.seed, 0, _SEED_LIMIT)


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
        _check_field(self, "rho", low=-1, low_strict=True, high=1, high_strict=True)
        _check_field(self, "sigma", low=0)
        _check_int("seed", self.seed, 0, _SEED_LIMIT)


ShockSpec = NoShock | Impulse | WhiteNoise | Ar1


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x for each entry of the uint64 array x.

    The low word is the wrapping uint64 product.  The high word sums four
    32 x 32-bit partial products, each exact in uint64, with their carries.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox_words(seed: int, n: int) -> np.ndarray:
    """The first n raw 64-bit words of Philox4x64-10 keyed by (seed, 0).

    Block j = 1, 2, ... encrypts the counter (j, 0, 0, 0) and yields words
    4(j-1) .. 4(j-1)+3 in order, as numpy's Philox(key=seed).random_raw does,
    since numpy bumps its counter before the first block.  A round maps
    (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1,
    lo(M0 x0)), and the key (k0, k1) grows by the Weyl increments, modulo
    2^64 in Python ints, between rounds.  Every uint64 operation acts on
    arrays with one entry per block, where overflow wraps without a warning.
    """
    blocks = -(-n // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)
    x1, x2, x3 = (np.zeros(blocks, dtype=np.uint64) for _ in range(3))
    k0, k1 = seed, 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) % _SEED_LIMIT, (k1 + _PHILOX_W[1]) % _SEED_LIMIT
    return np.stack((x0, x1, x2, x3), axis=1).ravel()[:n]


def standard_normals(seed: int, n: int) -> np.ndarray:
    """n deterministic standard-normal draws from a Philox stream.

    The generator is frozen for reproducibility.  The raw 64-bit words come
    from `_philox_words`, the package's Philox4x64-10 with counter (j, 0, 0, 0)
    for block j = 1, 2, ... and key (seed, 0), which equals numpy's
    Philox(key=seed).random_raw stream word for word.  They are mapped
    to uniforms by u = (bits >> 11) * 2^-53 (u1 gets +1 before scaling so it
    lies in (0, 1]), then paired through Box-Muller with r = sqrt(-2 ln u1)
    and angles 2 pi u2; cosines fill the even output slots, sines the odd.
    Pair k consumes raw words 2k and 2k+1, so a longer request extends a
    shorter one without disturbing its draws.
    """
    _check_int("seed", seed, 0, _SEED_LIMIT)
    _check_int("n", n, 0)
    with _allocating(f"n={n} draws"):
        pairs = (n + 1) // 2
        raw = _philox_words(seed, 2 * pairs)
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
        u2 = (raw[1::2] >> np.uint64(11)) * _TWO_NEG53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


def realize(spec: ShockSpec, grid: TimeGrid) -> np.ndarray:
    """Forcing sequence for `spec` on `grid`, one value per node.

    AR(1) scales its draws into innovations in place, then overwrites each
    innovation with the process value through a memoryview, as the
    integrators store their nodes, taking _CHUNK innovations a pass as
    Python floats.
    """
    n = grid.n_steps
    with grid._allocating():
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
            out = standard_normals(spec.seed, n)
            first = spec.sigma * out[0]  # the stationary draw
            out *= spec.sigma * math.sqrt(1.0 - spec.rho * spec.rho)
            out[0] = first
            store, prev, rho = memoryview(out), 0.0, spec.rho
            for start in range(0, n, _CHUNK):
                for i, e in enumerate(out[start : start + _CHUNK].tolist(), start):
                    prev = e + rho * prev
                    store[i] = prev
            return out
    raise InvariantViolation(f"unknown shock spec {spec!r}")
