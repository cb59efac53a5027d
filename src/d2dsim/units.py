"""dB / dBm / linear conversions used at every module boundary.

All internal math runs in linear units (watts, power gains); dB appears
only in configs and reports, converted exactly once at the boundary.
"""

from __future__ import annotations

import numpy as np


def db_to_linear(value_db):
    """10^(x/10). Works element-wise on arrays."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def dbm_to_watts(value_dbm):
    return db_to_linear(value_dbm) * 1e-3
