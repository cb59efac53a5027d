"""Simulation configuration: dataclasses, JSON loading, validation, presets.

Config files are plain JSON mirroring the dataclass tree; every leaf has a
default so a file only needs the keys it overrides.  Unknown keys are errors
(they are almost always typos) and report the full dotted path.  The range
of every numeric leaf lives in one table, RANGES, keyed by field name.
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
    "MAX_USERS_PER_DROP",
    "RANGES",
    "load_config",
    "config_from_dict",
    "validate_config",
    "apply_scenario",
    "SCENARIO_PRESETS",
]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


# The most users a drop may hold, fixed or on average: ~130 times the
# hetnet preset at 4x density, far below where positions alone exhaust memory.
MAX_USERS_PER_DROP = 10**6


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
    # radio sites; the macro boresight of 90 deg points sector 0 up the long
    # grid axis, away from the main street, so street-level D2D pairs sit off
    # the macro main lobes
    macro: SiteParams = field(default_factory=lambda: SiteParams(sector_rotation_deg=90.0))
    micro: SiteParams = field(default_factory=lambda: SiteParams(
        uplink_bandwidth_hz=40.0e6, sectors_per_site=2, dl_power_dbm=30.0,
        selection_offset_db=15.0,
        antenna=AntennaPattern(max_gain_dbi=7.0, beamwidth_deg=70.0, front_to_back_db=20.0)))
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


# The closed range of each numeric leaf, by field name: macro and micro share
# the SiteParams rows, the three links the PathlossParams rows.  The bounds are
# physical and keep every dB sum a drop forms within a few thousand dB, so no
# sum leaves the float range or absorbs another term.
RANGES = {
    "grid_width_m": (1e-3, 1e7),  # 10,000 km: a drop's squared lengths, the k-d tree's
    "grid_height_m": (1e-3, 1e7),  # bounds and the outdoor slot table stay finite far past it
    "replica_rings": (0, 1),
    "user_density_per_km2": (0.0, 1e7),  # ten users per m2, past any crowd
    "fixed_user_count": (0, MAX_USERS_PER_DROP),
    "ue_max_power_dbm": (-100.0, 100.0),
    "d2d_fraction": (0.0, 1.0),
    "max_pair_distance_m": (1e-3, 1e7),
    "micro_sites_per_grid": (0, 32),  # the environment build's memory grows with the
    "sectors_per_site": (1, 12),  # sites; at both caps it peaks at ~23 MB
    "uplink_bandwidth_hz": (1.0, 1e12),
    "dl_power_dbm": (-100.0, 100.0),
    "selection_offset_db": (-100.0, 100.0),
    "sector_rotation_deg": (-3600.0, 3600.0),  # ten turns either way
    "max_gain_dbi": (-50.0, 50.0),
    "beamwidth_deg": (1e-3, 1e4),
    "front_to_back_db": (0.0, 100.0),
    "cell_snr_target_db": (-50.0, 50.0),  # both ends of the interval
    "d2d_snr_target_db": (-50.0, 50.0),
    "gamma_cell_db": (0.0, 100.0),
    "distance_ratio_threshold": (0.0, 100.0),
    "intercept_db": (-100.0, 200.0),
    "slope_los_db": (1.0, 100.0),  # dB per decade of distance
    "slope_nlos_db": (1.0, 100.0),
    "nlos_penalty_db": (1e-3, 100.0),
    "shadow_sigma_db": (0.0, 30.0),
    "los_max_distance_m": (1e-3, 1e7),
    "min_distance_m": (1e-3, 1e7),
    "thermal_density_dbm_hz": (-200.0, -100.0),  # kT is -174 dBm/Hz at 290 K
    "bs_noise_figure_db": (0.0, 50.0),
    "ue_noise_figure_db": (0.0, 50.0),
    "num_drops": (1, 10**6),  # every drop's reports and grants stay in memory
    "seed": (0, 2**64 - 1),
}


def _numeric_leaves(obj: Any, path: str = ""):
    """(dotted key, field name, value) of each numeric leaf of a config tree;
    a null fixed_user_count is none."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_leaves(value, f"{path}{f.name}.")
        elif not isinstance(value, bool) and value is not None:
            yield f"{path}{f.name}", f.name, value


def validate_config(cfg: ScenarioConfig) -> None:
    for dotted, name, value in _numeric_leaves(cfg):
        low, high = RANGES[name]
        ends = value if isinstance(value, tuple) else (value,)
        if not all(low <= v <= high for v in ends):
            fmt = "d" if isinstance(low, int) and isinstance(high, int) else "g"
            raise ConfigError(f"{dotted} must lie in [{low:{fmt}}, {high:{fmt}}]")
        if isinstance(value, tuple) and value[0] > value[1]:
            raise ConfigError(f"{dotted}: low must be <= high")
    for link in ("macro_link", "micro_link", "ue_link"):
        pl = getattr(cfg.channel, link)
        if pl.slope_nlos_db < pl.slope_los_db:
            raise ConfigError(f"channel.{link}: slope_nlos_db must be >= slope_los_db")
    grids = (2 * cfg.replica_rings + 1) ** 2
    mean = cfg.user_density_per_km2 * grids * cfg.grid_width_m * cfg.grid_height_m * 1e-6
    if cfg.fixed_user_count is None and mean > MAX_USERS_PER_DROP:
        raise ConfigError(f"user_density_per_km2 gives {mean:.3g} users per drop on average "
                          f"over {grids} grid(s); at most {MAX_USERS_PER_DROP} are allowed")


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
