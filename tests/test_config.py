"""Config loading: JSON merge, validation, presets, shipped default file."""

import dataclasses
import json
import os

import numpy as np
import pytest

from d2dsim.config import (MAX_LENGTH_M, MAX_MICRO_SITES_PER_GRID, MAX_SECTORS_PER_SITE,
                           MAX_USERS_PER_DROP, SCENARIO_PRESETS, ConfigError, ScenarioConfig,
                           apply_scenario, config_from_dict, load_config, validate_config)

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_defaults_validate():
    validate_config(ScenarioConfig())


def test_dict_round_trip():
    cfg = ScenarioConfig()
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_shipped_default_file_matches_dataclass_defaults():
    path = os.path.join(ROOT, "configs", "default.json")
    assert load_config(path) == ScenarioConfig()


def test_partial_override():
    cfg = config_from_dict({"gamma_cell_db": 4.0,
                            "channel": {"ue_link": {"intercept_db": 50.0}}})
    assert cfg.gamma_cell_db == 4.0
    assert cfg.channel.ue_link.intercept_db == 50.0
    # untouched siblings keep defaults
    assert cfg.channel.ue_link.slope_los_db == ScenarioConfig().channel.ue_link.slope_los_db


def test_unknown_key_reports_dotted_path():
    with pytest.raises(ConfigError, match="channel.macro_link.bogus"):
        config_from_dict({"channel": {"macro_link": {"bogus": 1.0}}})


def test_type_errors():
    with pytest.raises(ConfigError, match="expected a number"):
        config_from_dict({"gamma_cell_db": "six"})
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"num_drops": 2.5})
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"num_drops": True})
    with pytest.raises(ConfigError, match="expected true/false"):
        config_from_dict({"micro_enabled": 1})
    with pytest.raises(ConfigError, match="expected an object"):
        config_from_dict({"channel": 3})
    with pytest.raises(ConfigError, match="gamma_cell_db: expected a number"):
        config_from_dict({"gamma_cell_db": None})
    with pytest.raises(ConfigError, match="micro_enabled: expected true/false"):
        config_from_dict({"micro_enabled": None})
    for bad in (float("nan"), float("inf"), 10**400, -10**400):
        with pytest.raises(ConfigError, match="intercept_db: expected a finite number"):
            config_from_dict({"channel": {"ue_link": {"intercept_db": bad}}})


def test_interval_fields():
    cfg = config_from_dict({"d2d_snr_target_db": [2, 8]})
    assert cfg.d2d_snr_target_db == (2.0, 8.0)
    with pytest.raises(ConfigError, match="low, high"):
        config_from_dict({"d2d_snr_target_db": [2.0]})
    for bad in (["a", 1], [True, 1], [None, 1]):
        with pytest.raises(ConfigError, match="d2d_snr_target_db: expected a number"):
            config_from_dict({"d2d_snr_target_db": bad})
    with pytest.raises(ConfigError, match="low must be <= high"):
        config_from_dict({"d2d_snr_target_db": [9.0, 2.0]})


def test_nullable_fixed_user_count():
    assert config_from_dict({"fixed_user_count": None}).fixed_user_count is None
    assert config_from_dict({"fixed_user_count": 25}).fixed_user_count == 25
    for bad in (2.5, True):
        with pytest.raises(ConfigError, match="fixed_user_count: expected an integer"):
            config_from_dict({"fixed_user_count": bad})


def test_json_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "seed": 1,\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(p))


def test_json_beyond_parser_limits_is_a_config_error(tmp_path):
    p = tmp_path / "deep.json"
    for value in ("[" * 10_000 + "]" * 10_000, "1" + "0" * 5000):
        p.write_text('{"seed": ' + value + "}")
        with pytest.raises(ConfigError, match="deep.json: JSON beyond parser limits"):
            load_config(str(p))


def test_top_level_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(p))


@pytest.mark.parametrize("patch,msg", [
    ({"gamma_cell_db": -1.0}, "gamma_cell_db"),
    ({"d2d_fraction": 1.5}, "d2d_fraction"),
    # min_floors, max_floors, shadow_decorrelation_m and the keys at the end
    # were removed (no output read them): refused as unknown keys, by name
    ({"min_floors": 0}, "floor"),
    ({"min_floors": 9, "max_floors": 8}, "floor"),
    ({"replica_rings": 2}, "replica_rings"),
    ({"micro_sites_per_grid": -1}, "micro_sites_per_grid"),
    ({"channel": {"shadow_decorrelation_m": 5.0}}, "shadow_decorrelation_m"),
    ({"channel": {"ue_link": {"slope_nlos_db": 1.0}}}, "slope_nlos_db"),
    ({"macro": {"sectors_per_site": 0}}, "sectors_per_site"),
    ({"num_drops": 0}, "num_drops"),
    ({"seed": -4}, "seed"),
    ({"macro": {"carrier_hz": 8e8}}, "unknown config key: 'macro.carrier_hz'"),
    ({"micro": {"carrier_hz": 2.6e9}}, "unknown config key: 'micro.carrier_hz'"),
    ({"macro": {"height_m": 25.0}}, "unknown config key: 'macro.height_m'"),
    ({"micro": {"height_m": 10.0}}, "unknown config key: 'micro.height_m'"),
    ({"floor_height_m": 3.5}, "unknown config key: 'floor_height_m'"),
    ({"ue_height_m": 1.5}, "unknown config key: 'ue_height_m'"),
])
def test_validation_rejects(patch, msg):
    with pytest.raises(ConfigError, match=msg):
        config_from_dict(patch)


def test_validate_config_caps_users_per_drop():
    """A fixed count, or else the mean count over every replica grid, above
    MAX_USERS_PER_DROP is refused before any drop allocates positions."""
    validate_config(ScenarioConfig(fixed_user_count=MAX_USERS_PER_DROP))
    with pytest.raises(ConfigError, match=f"fixed_user_count must be <= {MAX_USERS_PER_DROP}"):
        validate_config(ScenarioConfig(fixed_user_count=MAX_USERS_PER_DROP + 1))
    # a fixed count overrides the density, which then draws nobody
    validate_config(ScenarioConfig(fixed_user_count=10, user_density_per_km2=1e12))
    for rings, grids in ((0, 1), (1, 9)):
        cfg = ScenarioConfig(replica_rings=rings, grid_width_m=1000.0, grid_height_m=1000.0)
        validate_config(dataclasses.replace(cfg, user_density_per_km2=MAX_USERS_PER_DROP / grids))
        with pytest.raises(ConfigError, match=f"per drop on average over {grids} grid"):
            validate_config(dataclasses.replace(
                cfg, user_density_per_km2=1.001 * MAX_USERS_PER_DROP / grids))


def test_validate_config_caps_sites_and_sectors():
    """Micro sites per grid and sectors per site are accepted up to their
    caps and refused one past them, before the environment is built."""
    validate_config(ScenarioConfig(micro_sites_per_grid=MAX_MICRO_SITES_PER_GRID))
    with pytest.raises(ConfigError, match=r"micro_sites_per_grid must lie in \[0, 32\]"):
        validate_config(ScenarioConfig(micro_sites_per_grid=MAX_MICRO_SITES_PER_GRID + 1))
    for name in ("macro", "micro"):
        site = getattr(ScenarioConfig(), name)

        def with_sectors(n):
            return dataclasses.replace(
                ScenarioConfig(), **{name: dataclasses.replace(site, sectors_per_site=n)})

        validate_config(with_sectors(MAX_SECTORS_PER_SITE))
        with pytest.raises(ConfigError, match=rf"{name}.sectors_per_site must lie in \[1, 12\]"):
            validate_config(with_sectors(MAX_SECTORS_PER_SITE + 1))


def test_validate_config_caps_lengths():
    """Grid sides and channel distances are accepted up to MAX_LENGTH_M,
    all four at once, and refused one float past it, each on its own."""
    cfg = config_from_dict({
        "fixed_user_count": 30, "grid_width_m": MAX_LENGTH_M, "grid_height_m": MAX_LENGTH_M,
        "channel": {"los_max_distance_m": MAX_LENGTH_M, "min_distance_m": MAX_LENGTH_M}})
    assert cfg.grid_height_m == cfg.channel.min_distance_m == MAX_LENGTH_M
    past = float(np.nextafter(MAX_LENGTH_M, np.inf))
    for name, tree in (("grid_width_m", {"grid_width_m": past}),
                       ("grid_height_m", {"grid_height_m": past}),
                       ("channel.los_max_distance_m", {"channel": {"los_max_distance_m": past}}),
                       ("channel.min_distance_m", {"channel": {"min_distance_m": past}})):
        with pytest.raises(ConfigError, match=rf"^{name} must be <= 1e\+07 m$"):
            config_from_dict({"fixed_user_count": 30, **tree})


def test_presets():
    base = ScenarioConfig()
    s1 = apply_scenario(base, "macro-scheme1")
    assert not s1.micro_enabled and s1.d2d_snr_target_db == (0.0, 10.0)
    s2 = apply_scenario(base, "macro-scheme2")
    assert not s2.micro_enabled and s2.d2d_snr_target_db == (7.0, 12.0)
    het = apply_scenario(dataclasses.replace(base, micro_enabled=False), "hetnet")
    assert het.micro_enabled and het.d2d_snr_target_db == (0.0, 10.0)
    # presets only touch the scenario switches
    assert s1.channel == base.channel and s1.gamma_cell_db == base.gamma_cell_db
    with pytest.raises(ConfigError, match="unknown scenario"):
        apply_scenario(base, "nonsense")
    assert set(SCENARIO_PRESETS) == {"macro-scheme1", "macro-scheme2", "hetnet"}
