"""Config loading: JSON merge, validation, presets, shipped default file."""

import dataclasses
import json
import os

import pytest

from d2dsim.config import (SCENARIO_PRESETS, ConfigError, ScenarioConfig,
                           apply_scenario, config_from_dict,
                           load_config, validate_config)

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
