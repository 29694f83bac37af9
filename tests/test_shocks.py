"""Forcing construction: impulses, seeded white noise, and AR(1) shocks."""

import math

import numpy as np
import pytest

from gapdyn import (
    Ar1,
    Impulse,
    ImpulseOutsideGrid,
    InvariantViolation,
    NoShock,
    TimeGrid,
    WhiteNoise,
    realize,
    standard_normals,
)
from gapdyn import shocks
from gapdyn.shocks import _philox_words

GRID = TimeGrid(dt=0.1, n_steps=201)

# First draws of the frozen generator.  These values pin the exact algorithm
# (counter-based keyed stream + polar transform); any change to it is a
# reproducibility break and must fail here.
PINNED_SEED0 = [
    0.15853383451844166,
    2.9828792826170734,
    -1.925691981917186,
    -0.8249255452762637,
]
PINNED_SEED42 = [0.2345499249868942, 0.5842987087552288, -0.4201587892586172]


class TestShockFieldInvariants:
    def test_sigma_bounds(self):
        with pytest.raises(InvariantViolation):
            WhiteNoise(sigma=-0.1, seed=0)
        with pytest.raises(InvariantViolation):
            Ar1(rho=0.5, sigma=-1.0, seed=0)

    def test_rho_strictly_inside_unit_interval(self):
        with pytest.raises(InvariantViolation):
            Ar1(rho=1.0, sigma=0.1, seed=0)
        with pytest.raises(InvariantViolation):
            Ar1(rho=-1.0, sigma=0.1, seed=0)
        Ar1(rho=0.999, sigma=0.1, seed=0)

    def test_seed_is_unsigned_64_bit(self):
        with pytest.raises(InvariantViolation):
            WhiteNoise(sigma=0.1, seed=-1)
        with pytest.raises(InvariantViolation):
            WhiteNoise(sigma=0.1, seed=2**64)
        WhiteNoise(sigma=0.1, seed=2**64 - 1)

    def test_impulse_magnitude_finite(self):
        with pytest.raises(InvariantViolation):
            Impulse(at=0.0, magnitude=math.inf)


class TestStandardNormals:
    def test_pinned_first_draws(self):
        assert standard_normals(0, 4) == pytest.approx(PINNED_SEED0, rel=0, abs=0)
        assert standard_normals(42, 3) == pytest.approx(PINNED_SEED42, rel=0, abs=0)

    def test_prefix_stability(self):
        # a longer request must extend, not reshuffle, a shorter one
        short = standard_normals(7, 10)
        long = standard_normals(7, 1000)
        assert np.array_equal(short, long[:10])

    def test_mean_zero_within_four_standard_errors(self):
        n = 1_000_000
        draws = standard_normals(9, n)
        assert abs(draws.mean()) < 4.0 / math.sqrt(n)

    def test_unit_variance(self):
        draws = standard_normals(9, 1_000_000)
        assert draws.var() == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_count_must_be_a_natural_number(self, n):
        with pytest.raises(InvariantViolation) as excinfo:
            standard_normals(0, n)
        assert str(excinfo.value) == f"n must be an integer >= 0, got {n!r}"


# numpy's Philox(key=seed).random_raw is the reference for the package's own
# Philox4x64-10 words: seeds at both ends of the 64-bit key and across the
# top bit, lengths on and off the 4-word block boundary.
WORD_SEEDS = [0, 1, 11, 2**63 + 5, 2**64 - 1]
WORD_LENGTHS = [0, 1, 2, 3, 4, 5, 7, 20_002]


@pytest.mark.filterwarnings("error")
class TestPhiloxWords:
    @pytest.mark.parametrize("seed", WORD_SEEDS)
    @pytest.mark.parametrize("n", WORD_LENGTHS)
    def test_words_equal_numpy_philox(self, seed, n):
        words = _philox_words(seed, n)
        assert words.dtype == np.uint64
        assert words.tobytes() == np.random.Philox(key=seed).random_raw(n).tobytes()

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_prefix_stability(self, seed):
        longest = _philox_words(seed, max(WORD_LENGTHS))
        for n in WORD_LENGTHS:
            assert _philox_words(seed, n).tobytes() == longest[:n].tobytes(), n


class TestRealize:
    def test_no_shock_is_all_zeros(self):
        assert np.all(realize(NoShock(), GRID) == 0.0)

    def test_kind_name_is_not_a_spec(self):
        with pytest.raises(InvariantViolation) as excinfo:
            realize("impulse", TimeGrid(0.1, 3))
        assert str(excinfo.value) == "unknown shock spec 'impulse'"

    def test_impulse_at_origin(self):
        eps = realize(Impulse(at=0.0, magnitude=1.0), GRID)
        assert eps[0] == 1.0
        assert np.count_nonzero(eps) == 1

    def test_impulse_snaps_to_nearest_node(self):
        eps = realize(Impulse(at=0.26, magnitude=3.0), GRID)
        assert eps[3] == 3.0

    def test_impulse_tie_resolves_to_earlier_node(self):
        grid = TimeGrid(dt=1.0, n_steps=5)
        eps = realize(Impulse(at=2.5, magnitude=1.0), grid)
        assert eps[2] == 1.0

    def test_impulse_outside_span_rejected(self):
        with pytest.raises(ImpulseOutsideGrid):
            realize(Impulse(at=-0.1, magnitude=1.0), GRID)
        with pytest.raises(ImpulseOutsideGrid):
            realize(Impulse(at=20.05, magnitude=1.0), GRID)

    def test_white_noise_is_deterministic(self):
        spec = WhiteNoise(sigma=0.1, seed=42)
        assert np.array_equal(realize(spec, GRID), realize(spec, GRID))

    def test_white_noise_diffusion_variance(self):
        # draws are scaled sigma/sqrt(dt): variance sigma^2/dt, n=201 is noisy
        eps = realize(WhiteNoise(sigma=0.1, seed=42), GRID)
        target = 0.1 * 0.1 / 0.1
        assert abs(eps.var() - target) < 0.2 * target

    def test_white_noise_diffusion_scale(self):
        eps = realize(WhiteNoise(sigma=0.25, seed=5), GRID)
        assert np.array_equal(eps, standard_normals(5, 201) * (0.25 / math.sqrt(0.1)))

    def test_zero_sigma_is_exactly_zero(self):
        assert np.all(realize(WhiteNoise(sigma=0.0, seed=3), GRID) == 0.0)
        assert np.all(realize(Ar1(rho=0.9, sigma=0.0, seed=3), GRID) == 0.0)

    def test_different_seeds_differ(self):
        a = realize(WhiteNoise(sigma=0.1, seed=0), GRID)
        b = realize(WhiteNoise(sigma=0.1, seed=1), GRID)
        assert not np.array_equal(a, b)


class TestAr1:
    def test_stationary_variance_over_long_run(self):
        grid = TimeGrid(dt=1.0, n_steps=1_000_000)
        eps = realize(Ar1(rho=0.9, sigma=0.3, seed=7), grid)
        assert abs(eps.var() - 0.09) < 0.02 * 0.09

    def test_lag_one_autocorrelation(self):
        grid = TimeGrid(dt=1.0, n_steps=1_000_000)
        eps = realize(Ar1(rho=0.9, sigma=0.3, seed=7), grid)
        corr = np.corrcoef(eps[:-1], eps[1:])[0, 1]
        assert abs(corr - 0.9) < 0.005

    def test_recursion_structure(self):
        # eps[i] = rho*eps[i-1] + sigma*sqrt(1-rho^2)*eta[i]
        rho, sigma, seed = 0.7, 0.4, 11
        eps = realize(Ar1(rho=rho, sigma=sigma, seed=seed), GRID)
        eta = standard_normals(seed, 201)
        expected = np.empty(201)
        expected[0] = sigma * eta[0]
        innov_scale = sigma * math.sqrt(1.0 - rho * rho)
        for i in range(1, 201):
            expected[i] = rho * expected[i - 1] + innov_scale * eta[i]
        assert np.allclose(eps, expected, rtol=1e-12, atol=1e-14)

    def test_deterministic(self):
        spec = Ar1(rho=0.5, sigma=1.0, seed=100)
        assert np.array_equal(realize(spec, GRID), realize(spec, GRID))

    @pytest.mark.parametrize("rho", [-0.95, 0.0, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 201, 20001])
    def test_bytes_match_reference_recursion(self, rho, n):
        sigma, seed = 0.3, 5
        eta = standard_normals(seed, n)
        innov_scale = sigma * math.sqrt(1.0 - rho * rho)
        expected = np.empty(n)
        expected[0] = sigma * eta[0]
        for i in range(1, n):
            expected[i] = innov_scale * eta[i] + rho * expected[i - 1]
        eps = realize(Ar1(rho=rho, sigma=sigma, seed=seed), TimeGrid(0.1, n))
        assert eps.dtype == np.float64
        assert eps.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [WhiteNoise(0.1, 7), Ar1(0.8, 0.1, 7)], ids=["white-noise", "ar1"])
def test_realize_draws_through_the_module_function(monkeypatch, spec):
    # realize reads standard_normals from gapdyn.shocks when it draws, so a
    # wrapper put there (a tracer's draw counter, say) sees every draw.
    calls = []
    draw = shocks.standard_normals

    def counted(seed, n):
        calls.append(n)
        return draw(seed, n)

    monkeypatch.setattr(shocks, "standard_normals", counted)
    realize(spec, GRID)
    assert calls == [GRID.n_steps]
