"""Config loading: JSON merge, validation, presets, shipped default file."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from conftest import config_leaves
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dsim import cli, engine
from d2dsim.config import (MAX_USERS_PER_DROP, RANGES, SCENARIO_PRESETS, ConfigError,
                           ScenarioConfig, _merge, apply_scenario, config_from_dict, load_config,
                           validate_config)

ROOT = os.path.join(os.path.dirname(__file__), "..")
# (dotted key, field name, default) of every leaf but the true/false one
NUMERIC = [leaf for leaf in config_leaves(ScenarioConfig()) if not isinstance(leaf[2], bool)]


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
    with pytest.raises(ConfigError, match=r"fixed_user_count must lie in \[0, 1000000\]"):
        validate_config(ScenarioConfig(fixed_user_count=MAX_USERS_PER_DROP + 1))
    # a fixed count overrides the density, which then draws nobody
    validate_config(ScenarioConfig(fixed_user_count=10,
                                   user_density_per_km2=RANGES["user_density_per_km2"][1]))
    for rings, grids in ((0, 1), (1, 9)):
        cfg = ScenarioConfig(replica_rings=rings, grid_width_m=1000.0, grid_height_m=1000.0)
        validate_config(dataclasses.replace(cfg, user_density_per_km2=MAX_USERS_PER_DROP / grids))
        with pytest.raises(ConfigError, match=f"per drop on average over {grids} grid"):
            validate_config(dataclasses.replace(
                cfg, user_density_per_km2=1.001 * MAX_USERS_PER_DROP / grids))


def test_validate_config_caps_sites_and_sectors():
    """Micro sites per grid and sectors per site are accepted up to their
    table rows' caps and refused one past them, before the environment is built."""
    max_sites, max_sectors = RANGES["micro_sites_per_grid"][1], RANGES["sectors_per_site"][1]
    validate_config(ScenarioConfig(micro_sites_per_grid=max_sites))
    with pytest.raises(ConfigError, match=r"micro_sites_per_grid must lie in \[0, 32\]"):
        validate_config(ScenarioConfig(micro_sites_per_grid=max_sites + 1))
    for name in ("macro", "micro"):
        site = getattr(ScenarioConfig(), name)

        def with_sectors(n):
            return dataclasses.replace(
                ScenarioConfig(), **{name: dataclasses.replace(site, sectors_per_site=n)})

        validate_config(with_sectors(max_sectors))
        with pytest.raises(ConfigError, match=rf"{name}.sectors_per_site must lie in \[1, 12\]"):
            validate_config(with_sectors(max_sectors + 1))


def test_validate_config_caps_lengths():
    """Grid sides and channel distances are accepted up to their table rows'
    high bound, all four at once, and refused one float past it, each on its own."""
    cap = RANGES["grid_width_m"][1]
    assert cap == RANGES["grid_height_m"][1] == RANGES["los_max_distance_m"][1] \
        == RANGES["min_distance_m"][1] == 1e7
    cfg = config_from_dict({
        "fixed_user_count": 30, "grid_width_m": cap, "grid_height_m": cap,
        "channel": {"los_max_distance_m": cap, "min_distance_m": cap}})
    assert cfg.grid_height_m == cfg.channel.min_distance_m == cap
    past = float(np.nextafter(cap, np.inf))
    for name, tree in (("grid_width_m", {"grid_width_m": past}),
                       ("grid_height_m", {"grid_height_m": past}),
                       ("channel.los_max_distance_m", {"channel": {"los_max_distance_m": past}}),
                       ("channel.min_distance_m", {"channel": {"min_distance_m": past}})):
        with pytest.raises(ConfigError, match=rf"^{name} must lie in \[0\.001, 1e\+07\]$"):
            config_from_dict({"fixed_user_count": 30, **tree})


def test_range_table_has_one_row_per_numeric_field_name():
    """A config field cannot land without a range, nor leave a stale row."""
    leaves = list(config_leaves(ScenarioConfig()))
    assert len(leaves) == 52
    assert [dotted for dotted, _, value in leaves if isinstance(value, bool)] == ["micro_enabled"]
    assert set(RANGES) == {name for _, name, _ in NUMERIC}
    assert len(RANGES) == 33


def test_presets_and_default_file_lie_inside_the_table():
    cfgs = [apply_scenario(ScenarioConfig(), name) for name in SCENARIO_PRESETS]
    with open(os.path.join(ROOT, "configs", "default.json"), encoding="utf-8") as fh:
        cfgs.append(_merge(ScenarioConfig(), json.load(fh), ""))
    for cfg in cfgs:
        for dotted, name, value in config_leaves(cfg):
            if name in RANGES and value is not None:
                low, high = RANGES[name]
                assert all(low <= v <= high for v in np.atleast_1d(value)), dotted


def _with_leaves(cfg, values):
    """cfg with each dotted key of values set, the way --set sets it."""
    for dotted, value in values.items():
        for part in reversed(dotted.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value, "")
    return cfg


def _at_bound(end, leaves=NUMERIC):
    """Each leaf (both ends of an interval) at its low (0) or high (1) bound."""
    return {dotted: [RANGES[name][end]] * 2 if isinstance(default, tuple) else RANGES[name][end]
            for dotted, name, default in leaves}


@pytest.mark.parametrize("end", [0, 1])
def test_every_leaf_at_its_bound_is_accepted(end):
    validate_config(_with_leaves(ScenarioConfig(), _at_bound(end)))


def _shown(bound):
    """A bound as the refusal prints it: an integer exactly, a float by :g."""
    return str(bound) if isinstance(bound, int) else f"{bound:g}"


def _beyond(bound, way):
    """One step past a bound: the next float, or the next integer."""
    return bound + way if isinstance(bound, int) else float(np.nextafter(bound, way * np.inf))


@pytest.mark.parametrize("dotted, name, default", NUMERIC, ids=[leaf[0] for leaf in NUMERIC])
def test_one_step_outside_a_bound_is_refused_in_one_line(tmp_path, capsys,
                                                         dotted, name, default):
    """Each leaf one step below its low bound and one step above its high
    bound (each end of an interval in turn) is refused by `run` with exit
    status 2 and the one message, before any output directory exists."""
    low, high = RANGES[name]
    below, above = _beyond(low, -1), _beyond(high, 1)
    values = ([[below, low], [low, below], [above, high], [high, above]]
              if isinstance(default, tuple) else [below, above])
    out = tmp_path / "out"
    for value in values:
        code = cli.main(["run", "--scenario", "hetnet", "--set", "fixed_user_count=30",
                         "--set", f"{dotted}={json.dumps(value)}", "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {dotted} must lie in [{_shown(low)}, {_shown(high)}]\n"
        assert not out.exists()


# the leaves a drop reads: a fixed user count overrides the density
_DRAWN = [leaf for leaf in NUMERIC if leaf[1] not in ("fixed_user_count", "user_density_per_km2")]


@st.composite
def _box_values(draw):
    """A few leaves drawn from their rows, ends included, each link's
    slopes kept in order."""
    values = {}
    for dotted, name, default in draw(st.lists(st.sampled_from(_DRAWN), min_size=1, max_size=8,
                                               unique=True)):
        low, high = RANGES[name]
        number = st.sampled_from([low, high]) | (
            st.integers(low, high) if isinstance(low, int) else st.floats(low, high))
        values[dotted] = (sorted([draw(number), draw(number)]) if isinstance(default, tuple)
                          else draw(number))
    for link in ("macro_link", "micro_link", "ue_link"):
        pl = getattr(ScenarioConfig().channel, link)
        los, nlos = f"channel.{link}.slope_los_db", f"channel.{link}.slope_nlos_db"
        values[los], values[nlos] = sorted([values.get(los, pl.slope_los_db),
                                            values.get(nlos, pl.slope_nlos_db)])
    return values


@settings(max_examples=100, deadline=None)
@given(values=_box_values(), seed=st.integers(0, 2 ** 32 - 1))
@example(values=_at_bound(0, _DRAWN), seed=0)
@example(values=_at_bound(1, _DRAWN), seed=0)
@example(values={"cell_snr_target_db": [0.0, -0.0], "d2d_snr_target_db": [0.0, -0.0]}, seed=0)
def test_a_drop_anywhere_in_the_table_completes_with_finite_reports(values, seed):
    cfg = _with_leaves(apply_scenario(ScenarioConfig(fixed_user_count=12), "hetnet"), values)
    validate_config(cfg)
    for report in engine.run_drop(cfg, seed).reports.values():
        numbers = [v for key, v in dataclasses.asdict(report).items() if key != "by_kind"]
        numbers += [v for kind in report.by_kind.values() for v in kind.values()]
        assert all(math.isfinite(v) for v in numbers)


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
