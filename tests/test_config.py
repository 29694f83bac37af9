"""Scenario config grammar: defaults, shock wiring, and rejection paths."""

from dataclasses import fields

import pytest

from gapdyn import (
    Ar1,
    BadValue,
    Impulse,
    InvariantViolation,
    NoShock,
    ScenarioConfig,
    UnknownKey,
    WhiteNoise,
    parse_config,
)
from gapdyn.config import _SHOCK_KINDS


class TestDefaults:
    def test_empty_document_is_the_critical_scenario(self):
        cfg = parse_config("")
        assert cfg.gamma == 2.0
        assert cfg.alpha == 1.0
        assert cfg.y0 == 1.0
        assert cfg.ydot0 == 0.0
        assert cfg.t_end == 20.0
        assert cfg.dt == 0.1
        assert cfg.shock == NoShock()
        assert cfg.integrator == "euler"

    def test_inclusive_grid_has_201_samples(self):
        cfg = parse_config("")
        assert cfg.n_steps == 201
        grid = cfg.grid()
        assert grid.times()[0] == 0.0
        assert grid.n_steps == 201

    def test_partial_step_is_dropped(self):
        # floor(1.0/0.3) + 1
        assert parse_config("t_end = 1.0\ndt = 0.3").n_steps == 4

    def test_single_override_keeps_other_defaults(self):
        cfg = parse_config("gamma = 0.5")
        assert cfg.gamma == 0.5
        assert cfg.alpha == 1.0
        assert cfg.dt == 0.1


class TestGrammar:
    def test_comments_and_blank_lines(self):
        text = "# scenario\n\ngamma = 0.5  # under-damped\n   \nalpha = 2.0\n"
        cfg = parse_config(text)
        assert cfg.gamma == 0.5
        assert cfg.alpha == 2.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(UnknownKey) as excinfo:
            parse_config("gamma = 1.0\nfrequency = 2.0\n")
        assert "line 2" in str(excinfo.value)
        assert "frequency" in str(excinfo.value)

    def test_bad_number_reports_line(self):
        with pytest.raises(BadValue) as excinfo:
            parse_config("gamma = 1.0\nalpha = fast\n")
        assert "line 2" in str(excinfo.value)

    def test_missing_equals_sign(self):
        with pytest.raises(BadValue) as excinfo:
            parse_config("gamma 1.0")
        assert "line 1" in str(excinfo.value)

    def test_bad_enum_token(self):
        with pytest.raises(BadValue):
            parse_config("integrator = leapfrog")
        with pytest.raises(BadValue):
            parse_config("shock = earthquake")

    def test_seed_must_be_integer(self):
        with pytest.raises(BadValue):
            parse_config("shock = white-noise\nshock_seed = 1.5")

    # A repeated key is an error, not an override: its first value would
    # be an input that changes nothing.
    @pytest.mark.parametrize("text, key", [
        ("gamma = 1\ngamma = 3\n", "gamma"),
        ("shock = ar1\nshock = ar1\n", "shock"),
        ("shock_seed = 1\nshock_seed = x\n", "shock_seed"),
    ])
    def test_repeated_key_is_rejected(self, text, key):
        with pytest.raises(BadValue) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == f"line 2: duplicate key {key!r}"


class TestInvariants:
    def test_negative_dt_names_the_field(self):
        with pytest.raises(InvariantViolation) as excinfo:
            parse_config("dt = -1")
        assert "dt" in str(excinfo.value)

    def test_dt_cannot_exceed_t_end(self):
        with pytest.raises(InvariantViolation):
            parse_config("t_end = 1.0\ndt = 2.0")

    def test_param_invariants_apply(self):
        with pytest.raises(InvariantViolation):
            parse_config("alpha = -1")
        with pytest.raises(InvariantViolation):
            parse_config("gamma = -0.5")

    def test_overflowing_grid_is_rejected(self):
        with pytest.raises(InvariantViolation) as excinfo:
            parse_config("t_end = 1e300\ndt = 1e-300")
        assert "t_end / dt" in str(excinfo.value)
        with pytest.raises(InvariantViolation):
            ScenarioConfig(t_end=1.7e308, dt=0.5)

    def test_direct_construction_checks_too(self):
        with pytest.raises(InvariantViolation):
            ScenarioConfig(dt=0.0)
        with pytest.raises(InvariantViolation):
            ScenarioConfig(shock="white-noise")

    @pytest.mark.parametrize("shock", ["impulse", None, Impulse], ids=["str", "None", "class"])
    def test_shock_must_be_a_shock_spec(self, shock):
        # shocks.realize would reject it only when the scenario is run.
        want = f"shock must be NoShock, Impulse, WhiteNoise or Ar1, got {shock!r}"
        with pytest.raises(InvariantViolation) as excinfo:
            ScenarioConfig(shock=shock)
        assert str(excinfo.value) == want

    @pytest.mark.parametrize(
        "integrator", ["leapfrog", "RK4", None, ["rk4"]], ids=["leapfrog", "RK4", "None", "list"]
    )
    def test_integrator_names_a_scheme(self, integrator):
        # cli._integrate steps integrate_<integrator>, so any other value
        # must not get that far.
        want = f"integrator must be 'euler' or 'rk4', got {integrator!r}"
        with pytest.raises(InvariantViolation) as excinfo:
            ScenarioConfig(integrator=integrator)
        assert str(excinfo.value) == want


class TestShockWiring:
    def test_impulse(self):
        cfg = parse_config("shock = impulse\nshock_at = 5.0\nshock_magnitude = 3.0")
        assert cfg.shock == Impulse(at=5.0, magnitude=3.0)

    def test_impulse_defaults(self):
        cfg = parse_config("shock = impulse")
        assert cfg.shock == Impulse(at=0.0, magnitude=1.0)

    def test_white_noise(self):
        cfg = parse_config("shock = white-noise\nshock_sigma = 0.2\nshock_seed = 9")
        assert cfg.shock == WhiteNoise(sigma=0.2, seed=9)

    def test_ar1(self):
        cfg = parse_config("shock = ar1\nshock_rho = 0.8\nshock_sigma = 0.3\nshock_seed = 4")
        assert cfg.shock == Ar1(rho=0.8, sigma=0.3, seed=4)

    def test_shock_scaling_is_an_unknown_key(self):
        # White noise is always scaled by sigma/sqrt(dt); a per-step level s
        # is shock_sigma = s*sqrt(dt).
        with pytest.raises(UnknownKey, match=r"^line 2: unknown key 'shock_scaling'$"):
            parse_config("shock = white-noise\nshock_scaling = literal")

    @pytest.mark.parametrize("name", sorted(_SHOCK_KINDS))
    def test_bare_kind_takes_its_field_defaults(self, name):
        assert parse_config(f"shock = {name}").shock == _SHOCK_KINDS[name]()

    def test_kinds_sharing_a_field_share_its_default(self):
        # Key shock_f has one default, so every kind with a field f must agree
        # on its value and type (the type picks the key's parser).
        defaults = {}
        for kind in _SHOCK_KINDS.values():
            for f in fields(kind):
                defaults.setdefault(f.name, []).append((type(f.default), f.default))
        shared = {name: values for name, values in defaults.items() if len(values) > 1}
        assert sorted(shared) == ["seed", "sigma"]
        for name, values in shared.items():
            assert len(set(values)) == 1, name

    @pytest.mark.parametrize("name", sorted(_SHOCK_KINDS))
    def test_key_of_another_kind_is_rejected(self, name):
        # The chosen kind would ignore it, so the key would change nothing.
        taken = {f.name for f in fields(_SHOCK_KINDS[name])}
        stray = {f.name for kind in _SHOCK_KINDS.values() for f in fields(kind)} - taken
        assert stray
        for field in sorted(stray):
            want = f"^line 2: shock_{field} does not apply to shock = {name}$"
            with pytest.raises(BadValue, match=want):
                parse_config(f"shock = {name}\nshock_{field} = 1\n")

    def test_shock_keys_without_a_shock_line_are_rejected(self):
        with pytest.raises(BadValue, match="^line 1: shock_sigma does not apply to shock = none$"):
            parse_config("shock_sigma = 0.2\n")

    def test_lowest_stray_key_is_reported_after_a_later_shock_line(self):
        text = "shock_rho = 0.5\nshock_at = 3\nshock_magnitude = 2\nshock = ar1\n"
        with pytest.raises(BadValue, match="^line 2: shock_at does not apply to shock = ar1$"):
            parse_config(text)

    def test_keys_may_precede_their_shock_line(self):
        cfg = parse_config("shock_sigma = 0.3\nshock_seed = 5\nshock = white-noise\n")
        assert cfg.shock == WhiteNoise(sigma=0.3, seed=5)

    def test_rk4_integrator_token(self):
        assert parse_config("integrator = rk4").integrator == "rk4"

    def test_shock_invariants_surface(self):
        with pytest.raises(InvariantViolation):
            parse_config("shock = ar1\nshock_rho = 1.0")
        with pytest.raises(InvariantViolation):
            parse_config("shock = white-noise\nshock_seed = -1")
