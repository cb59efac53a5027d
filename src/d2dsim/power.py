"""Open-loop uplink power control: invert the link gain to hit an SNR target.

Interference is ignored by design (targets are SNRs, not SINRs); transmit
power is clipped at the device maximum and the clip is flagged so campaigns
can report how often the budget ran out.
"""

from __future__ import annotations

import numpy as np

from .units import db_to_linear, dbm_to_watts


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
    if (np.asarray(sigma2_w) <= 0).any():
        raise ValueError("noise power must be positive")
    p_max = float(dbm_to_watts(max_power_dbm))
    wanted = sigma2_w * db_to_linear(target) / gain
    clipped = wanted > p_max
    return np.where(clipped, p_max, wanted), clipped


def draw_snr_targets(
    interval_db: tuple[float, float], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-link SNR targets, uniform over [low, high] dB."""
    lo, hi = interval_db
    if lo > hi:
        raise ValueError("target interval low must be <= high")
    # numpy refuses a high that is -0.0 over a 0.0 low; + 0.0 makes it 0.0
    return rng.uniform(lo, hi + 0.0, size=count)
