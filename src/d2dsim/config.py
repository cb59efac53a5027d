"""Simulation configuration: dataclasses, JSON loading, validation, presets.

Config files are plain JSON mirroring the dataclass tree; every leaf has a
default so a file only needs the keys it overrides.  Unknown keys are errors
(they are almost always typos) and report the full dotted path.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "AntennaPattern",
    "SiteParams",
    "PathlossParams",
    "ChannelParams",
    "NoiseParams",
    "ScenarioConfig",
    "ConfigError",
    "load_config",
    "config_from_dict",
    "validate_config",
    "apply_scenario",
    "SCENARIO_PRESETS",
]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class AntennaPattern:
    """Parabolic-in-dB sector pattern: G(a) = max_gain - min(12*(a/bw)^2, fbr)."""

    max_gain_dbi: float = 17.0
    beamwidth_deg: float = 65.0  # 3 dB beamwidth
    front_to_back_db: float = 25.0


@dataclass(frozen=True)
class SiteParams:
    uplink_bandwidth_hz: float = 10.0e6
    sectors_per_site: int = 3
    dl_power_dbm: float = 46.0  # reference signal power used for association
    selection_offset_db: float = 0.0  # cell-range-expansion bias, association only
    sector_rotation_deg: float = 0.0  # boresight of sector 0; others spaced evenly
    antenna: AntennaPattern = field(default_factory=AntennaPattern)


def _macro_site() -> SiteParams:
    # boresight 90 deg points sector 0 up the long grid axis, away from the
    # main street, so street-level D2D pairs sit off the macro main lobes
    return SiteParams(sector_rotation_deg=90.0)


def _micro_site() -> SiteParams:
    return SiteParams(
        uplink_bandwidth_hz=40.0e6,
        sectors_per_site=2,
        dl_power_dbm=30.0,
        selection_offset_db=15.0,
        antenna=AntennaPattern(max_gain_dbi=7.0, beamwidth_deg=70.0, front_to_back_db=20.0),
    )


@dataclass(frozen=True)
class PathlossParams:
    """Log-distance model: PL_los = A + S_los*log10(d); NLOS adds slope + penalty."""

    intercept_db: float
    slope_los_db: float
    slope_nlos_db: float
    nlos_penalty_db: float
    shadow_sigma_db: float


@dataclass(frozen=True)
class ChannelParams:
    macro_link: PathlossParams = field(
        default_factory=lambda: PathlossParams(26.0, 22.0, 30.0, 2.0, 6.0)
    )
    micro_link: PathlossParams = field(
        default_factory=lambda: PathlossParams(38.5, 21.0, 35.0, 12.0, 4.0)
    )
    ue_link: PathlossParams = field(
        default_factory=lambda: PathlossParams(42.0, 22.0, 44.0, 14.0, 7.0)
    )
    los_max_distance_m: float = 300.0  # beyond this a link is NLOS outright
    min_distance_m: float = 1.0


@dataclass(frozen=True)
class NoiseParams:
    thermal_density_dbm_hz: float = -174.0
    bs_noise_figure_db: float = 5.0
    ue_noise_figure_db: float = 9.0


@dataclass(frozen=True)
class ScenarioConfig:
    # urban grid
    grid_width_m: float = 387.0
    grid_height_m: float = 552.0
    replica_rings: int = 1  # 1 -> 3x3 tiling, central grid measured
    # users
    user_density_per_km2: float = 1000.0
    fixed_user_count: int | None = None  # override Poisson draw (tests)
    ue_max_power_dbm: float = 24.0
    # D2D candidates
    d2d_fraction: float = 0.85  # fraction of users eligible for pairing
    max_pair_distance_m: float = 35.0
    # radio sites
    macro: SiteParams = field(default_factory=_macro_site)
    micro: SiteParams = field(default_factory=_micro_site)
    micro_enabled: bool = True
    micro_sites_per_grid: int = 3
    # targets and admission
    cell_snr_target_db: tuple[float, float] = (10.0, 15.0)
    d2d_snr_target_db: tuple[float, float] = (0.0, 10.0)
    gamma_cell_db: float = 10.0  # tolerated cellular SINR degradation
    distance_ratio_threshold: float = 1.0
    # channel / noise
    channel: ChannelParams = field(default_factory=ChannelParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    # campaign
    num_drops: int = 200
    seed: int = 0


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing

_TUPLE_FIELDS = {"cell_snr_target_db", "d2d_snr_target_db"}
_NULLABLE_FIELDS = {"fixed_user_count"}


def _coerced(current: Any, value: Any, dotted: str) -> Any:
    """Light type check of a JSON leaf against the default it replaces."""
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{dotted}: expected true/false")
        return value
    if isinstance(current, int) and not isinstance(current, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{dotted}: expected an integer")
        return value
    if isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{dotted}: expected a number")
        # json.loads accepts NaN, Infinity and integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{dotted}: expected a finite number")
        return float(value)
    raise ConfigError(f"{dotted}: unsupported value {value!r}")


def _merge(base: Any, data: dict[str, Any], path: str) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(base)}
    updates: dict[str, Any] = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config key: {dotted!r}")
        current = getattr(base, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected an object")
            updates[key] = _merge(current, value, dotted)
        elif key in _TUPLE_FIELDS:
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"{dotted}: expected [low, high]")
            updates[key] = tuple(_coerced(0.0, v, dotted) for v in value)
        elif key in _NULLABLE_FIELDS:
            updates[key] = None if value is None else _coerced(0, value, dotted)
        else:
            updates[key] = _coerced(current, value, dotted)
    return dataclasses.replace(base, **updates)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    cfg = _merge(ScenarioConfig(), data, "")
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an integer too long
        raise ConfigError(f"{path}: JSON beyond parser limits: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(data)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg: ScenarioConfig) -> None:
    _check(cfg.grid_width_m > 0 and cfg.grid_height_m > 0, "grid dimensions must be positive")
    _check(cfg.user_density_per_km2 >= 0, "user_density_per_km2 must be >= 0")
    if cfg.fixed_user_count is not None:
        _check(cfg.fixed_user_count >= 0, "fixed_user_count must be >= 0")
    _check(0.0 <= cfg.d2d_fraction <= 1.0, "d2d_fraction must lie in [0, 1]")
    _check(cfg.max_pair_distance_m > 0, "max_pair_distance_m must be positive")
    _check(cfg.micro_sites_per_grid >= 0, "micro_sites_per_grid must be >= 0")
    for name, interval in (("cell_snr_target_db", cfg.cell_snr_target_db),
                           ("d2d_snr_target_db", cfg.d2d_snr_target_db)):
        _check(interval[0] <= interval[1], f"{name}: low must be <= high")
    _check(cfg.gamma_cell_db >= 0, "gamma_cell_db must be >= 0")
    _check(cfg.distance_ratio_threshold >= 0, "distance_ratio_threshold must be >= 0")
    for site_name, site in (("macro", cfg.macro), ("micro", cfg.micro)):
        _check(site.uplink_bandwidth_hz > 0, f"{site_name}.uplink_bandwidth_hz must be positive")
        _check(site.sectors_per_site >= 1, f"{site_name}.sectors_per_site must be >= 1")
        _check(site.antenna.beamwidth_deg > 0, f"{site_name}.antenna.beamwidth_deg must be positive")
        _check(site.antenna.front_to_back_db >= 0,
               f"{site_name}.antenna.front_to_back_db must be >= 0")
    for link_name, pl in (("macro_link", cfg.channel.macro_link),
                          ("micro_link", cfg.channel.micro_link),
                          ("ue_link", cfg.channel.ue_link)):
        _check(pl.slope_los_db > 0, f"channel.{link_name}.slope_los_db must be positive")
        _check(pl.slope_nlos_db >= pl.slope_los_db,
               f"channel.{link_name}: slope_nlos_db must be >= slope_los_db")
        _check(pl.nlos_penalty_db > 0, f"channel.{link_name}.nlos_penalty_db must be positive")
        _check(pl.shadow_sigma_db >= 0, f"channel.{link_name}.shadow_sigma_db must be >= 0")
    _check(cfg.channel.los_max_distance_m > 0, "channel.los_max_distance_m must be positive")
    _check(cfg.channel.min_distance_m > 0, "channel.min_distance_m must be positive")
    _check(cfg.replica_rings in (0, 1), "replica_rings must be 0 or 1")
    _check(cfg.num_drops >= 1, "num_drops must be >= 1")
    _check(cfg.seed >= 0, "seed must be >= 0")


# ---------------------------------------------------------------------------
# named scenario presets

SCENARIOS = {
    "macro-scheme1": {"micro_enabled": False, "d2d_snr_target_db": [0.0, 10.0]},
    "macro-scheme2": {"micro_enabled": False, "d2d_snr_target_db": [7.0, 12.0]},
    "hetnet": {"micro_enabled": True, "d2d_snr_target_db": [0.0, 10.0]},
}
SCENARIO_PRESETS = tuple(SCENARIOS)


def apply_scenario(cfg: ScenarioConfig, name: str) -> ScenarioConfig:
    """Return a copy of `cfg` with a named preset's override tree merged in,
    the way a config file or --set merges one."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIO_PRESETS}")
    return _merge(cfg, SCENARIOS[name], "")
