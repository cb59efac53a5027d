"""Open-loop uplink power control: invert the link gain to hit an SNR target.

Interference is ignored by design (targets are SNRs, not SINRs); transmit
power is clipped at the device maximum and the clip is flagged so campaigns
can report how often the budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import db_to_linear, dbm_to_watts


@dataclass(frozen=True)
class PowerAssignment:
    power_w: float
    snr_target_db: float
    clipped: bool


def open_loop_power_w(
    target_snr_db, gain_linear, sigma2_w: float, max_power_dbm: float
) -> tuple[np.ndarray, np.ndarray]:
    """P = sigma^2 * 10^(target/10) / gain, clipped at the device maximum.

    Returns (power_w, clipped) arrays of the broadcast shape.
    """
    target = np.asarray(target_snr_db, dtype=float)
    gain = np.asarray(gain_linear, dtype=float)
    if np.any(gain <= 0):
        raise ValueError("link gain must be positive")
    if sigma2_w <= 0:
        raise ValueError("noise power must be positive")
    p_max = float(dbm_to_watts(max_power_dbm))
    wanted = sigma2_w * db_to_linear(target) / gain
    clipped = wanted > p_max
    return np.where(clipped, p_max, wanted), clipped


def open_loop_power(
    target_snr_db: float, gain_linear: float, sigma2_w: float, max_power_dbm: float
) -> PowerAssignment:
    """Scalar convenience wrapper around open_loop_power_w."""
    p, c = open_loop_power_w(target_snr_db, gain_linear, sigma2_w, max_power_dbm)
    return PowerAssignment(float(p), float(target_snr_db), bool(c))


def draw_snr_targets(
    interval_db: tuple[float, float], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-link SNR targets, uniform over [low, high] dB."""
    lo, hi = interval_db
    if lo > hi:
        raise ValueError("target interval low must be <= high")
    return rng.uniform(lo, hi, size=count)


def power_dump_csv(link_ids, power_w, clipped) -> str:
    """Debug dump: one line per transmitter as ``link_id,power_dbm,clipped``."""
    p = np.atleast_1d(np.asarray(power_w, dtype=float))
    c = np.atleast_1d(np.asarray(clipped, dtype=bool))
    ids = list(link_ids)
    if not (len(ids) == len(p) == len(c)):
        raise ValueError("link_ids, power_w and clipped must have equal length")
    lines = ["link_id,power_dbm,clipped"]
    for i, lid in enumerate(ids):
        dbm = 10.0 * np.log10(p[i] * 1e3)
        lines.append(f"{lid},{dbm:.6f},{int(c[i])}")
    return "\n".join(lines) + "\n"
