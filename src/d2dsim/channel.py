"""Radio channel: log-distance pathloss, hashed shadowing, sector antennas, gains.

A link is line-of-sight when the straight 2D segment between the ends crosses
no building footprint and is shorter than los_max_distance_m; otherwise the
NLOS slope and penalty apply.  Lognormal shadowing is *hashed* from
(drop shadow seed, node keys, link class) instead of drawn sequentially, so
every link's fade is frozen for the drop and independent of evaluation order;
swapping the ends returns the same value.

Linear channel gain = 10^(-(pathloss + shadow - antenna)/10); every consumer
works on these linear gains.

A drop's site links are built in one pass, a few sites at a time, into
(sites x users) arrays; a sector reads its site's row and adds its antenna
term; the per-site pathloss parameters, shadow classes and keys depend on the
config alone and come from the Environment.  UE-UE gains are built only where
read: one user_user_gain_db call over the D2D links of every evaluated sector,
and one over the cross link of every reuse that some scheme schedules, in
scheme -> sector -> pair order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import ndtri

from .config import AntennaPattern, PathlossParams
from .geometry import segments_blocked
from .units import db_to_linear, dbm_to_watts

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import Environment, Sector

_USER_KEY_BASE = np.uint64(1) << np.uint64(32)
_SITE_KEY_BASE = np.uint64(1) << np.uint64(33)

LINK_CLASS = {"macro": 1, "micro": 2, "ue": 3}

# Sites per slab of the site pass: a slab's (sites x users) temporaries stay
# small, and its LOS call covers whole sites.
_SITE_SLAB = 4


def user_keys(user_ids) -> np.ndarray:
    return np.asarray(user_ids, dtype=np.uint64) + _USER_KEY_BASE


def site_key(site_id: int) -> np.ndarray:
    return np.uint64(site_id) + _SITE_KEY_BASE


def _splitmix(x: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps modulo 2**64
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class ShadowField:
    """Deterministic per-link lognormal shadowing, symmetric in the endpoints."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def key_round(self, keys) -> np.ndarray:
        """The first hash round, which reads only a link's smaller key."""
        return _splitmix(self.seed ^ np.asarray(keys, dtype=np.uint64))

    def sample_db(self, link_class, keys_a, keys_b, sigma_db) -> np.ndarray:
        """Shadowing (dB) of the links keys_a[i] - keys_b[i]; link_class and
        sigma_db broadcast against the keys."""
        a = np.asarray(keys_a, dtype=np.uint64)
        b = np.asarray(keys_b, dtype=np.uint64)
        return self.sample_rounded_db(link_class, self.key_round(np.minimum(a, b)),
                                      np.maximum(a, b), sigma_db)

    def sample_rounded_db(self, link_class, lo_round, keys_hi, sigma_db) -> np.ndarray:
        """sample_db of the links whose smaller key has key_round lo_round[i]
        and whose larger key is keys_hi[i]."""
        h = _splitmix(lo_round ^ np.asarray(keys_hi, dtype=np.uint64))
        h = _splitmix(h ^ np.asarray(link_class, dtype=np.uint64))
        # top 53 bits -> uniform strictly inside (0, 1) -> standard normal
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
        return sigma_db * ndtri(u)


def pathloss_db(
    distance_m, los, params: PathlossParams, min_distance_m: float = 1.0
) -> np.ndarray:
    """Log-distance pathloss; NLOS adds a steeper slope plus a fixed penalty.

    The fields of params may be arrays that broadcast against distance_m.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), min_distance_m)
    logd = np.log10(d)
    pl_los = params.intercept_db + params.slope_los_db * logd
    pl_nlos = params.intercept_db + params.slope_nlos_db * logd + params.nlos_penalty_db
    return np.where(np.asarray(los, dtype=bool), pl_los, pl_nlos)


def antenna_gain_db(pattern: AntennaPattern, off_boresight_deg) -> np.ndarray:
    """Parabolic-in-dB pattern with a front-to-back floor."""
    # (x + 180) % 360 - 180, bit for bit: numpy's float remainder is fmod
    # plus the divisor when negative, and +0.0 when zero (-0.0 + 0.0 = +0.0)
    a = np.fmod(np.asarray(off_boresight_deg, dtype=float) + 180.0, 360.0)
    a += 360.0 * (a < 0.0)
    a -= 180.0
    att = 12.0 * (a / pattern.beamwidth_deg) ** 2
    return pattern.max_gain_dbi - np.minimum(att, pattern.front_to_back_db)


def noise_power_watts(
    bandwidth_hz: float, noise_figure_db: float, thermal_density_dbm_hz: float = -174.0
) -> float:
    """sigma^2 = 10^((N0 + NF + 10 log10 B)/10) mW -> W."""
    dbm = thermal_density_dbm_hz + noise_figure_db + 10.0 * np.log10(bandwidth_hz)
    return float(dbm_to_watts(dbm))


@dataclass
class GainSet:
    """Linear uplink gains a sector's scheduler works with.

    Rows index the sector's D2D pairs (m), columns its cellular users (n):
    h_cross[m, n] is cellular transmitter n into pair m's receiving end.  The
    engine leaves it unset (only exact-admission oracles read it in full).
    """

    sector_id: int
    h_cell: np.ndarray  # (M,) cellular UE -> serving sector
    h_d2d: np.ndarray  # (N,) pair tx end -> pair rx end
    h_d2d_bs: np.ndarray  # (N,) pair tx end -> sector
    h_cross: np.ndarray | None = None  # (N, M)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.h_d2d), len(self.h_cell)


class DropChannel:
    """Frozen per-drop channel: geometry, LOS, shadowing and site links.

    The channel model is env.channel.  A user is its row of users_xy, and its
    shadowing key is built from that row.
    """

    def __init__(
        self,
        env: Environment,
        shadow_seed: int,
        users_xy: np.ndarray,
    ):
        self.env = env
        self.params = env.channel
        self.shadow = ShadowField(shadow_seed)
        self.users_xy = np.atleast_2d(np.asarray(users_xy, dtype=float))
        self.user_keys = user_keys(np.arange(len(self.users_xy)))
        # a user's key is the smaller key of every link it ends
        self.user_rounds = self.shadow.key_round(self.user_keys)

    # -- geometry helpers ---------------------------------------------------

    def _los_mask(self, dist: np.ndarray, blocked) -> np.ndarray:
        """Links within los_max_distance_m whose segment no building blocks;
        blocked(i) tests the links at flat indices i."""
        los = dist <= self.params.los_max_distance_m
        los_idx = np.flatnonzero(los)
        if len(los_idx):
            los.flat[los_idx[blocked(los_idx)]] = False
        return los

    @cached_property
    def site_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Negated pathloss, azimuth (deg) and shadowing of every link from a
        user to a site, as (sites x users) arrays indexed by site id.

        All three depend on the site alone (every sector of a site shares its
        position and kind), so the sectors of a site differ only in the
        antenna term that user_sector_gain_db adds.  Built on first use,
        _SITE_SLAB sites at a time, with one LOS call and one shadow hash per
        slab.  The LOS test reads the environment's SiteWedges, so it
        slab-tests only the buildings in each link's azimuth bin; the link
        parameters, classes and keys are the environment's per-site columns.
        """
        env = self.env
        wedges = env.site_wedges
        site_xy = wedges.sites  # row s is site id s
        n = len(self.users_xy)
        x, y = self.users_xy.T
        neg_pl, azimuth, shadow = (np.empty((len(site_xy), n)) for _ in range(3))
        for s0 in range(0, len(site_xy), _SITE_SLAB):
            rows = slice(s0, s0 + _SITE_SLAB)
            dx = x - site_xy[rows, 0:1]
            dy = y - site_xy[rows, 1:2]
            dist = np.hypot(dx, dy)
            azimuth[rows] = np.degrees(np.arctan2(dy, dx))
            los = self._los_mask(dist, lambda i: wedges.blocked(
                s0 + i // n, self.users_xy[i % n], azimuth[rows].flat[i]))
            pl = PathlossParams(*env.site_pathloss[:, rows])
            neg_pl[rows] = -pathloss_db(dist, los, pl, self.params.min_distance_m)
            shadow[rows] = self.shadow.sample_rounded_db(
                env.site_link_class[rows], self.user_rounds, env.site_keys[rows],
                pl.shadow_sigma_db)
        return neg_pl, azimuth, shadow

    # -- gains ----------------------------------------------------------------

    def user_sector_gain_db(self, user_idx, sector: Sector) -> np.ndarray:
        """Channel gain (dB, antenna included) between users and a sector.

        user_idx is any numpy index of users; slice(None) takes them all.
        """
        neg_pl, azimuth, shadow = self.site_links
        s = sector.site_id
        ant = antenna_gain_db(sector.antenna, azimuth[s, user_idx] - sector.boresight_deg)
        return neg_pl[s, user_idx] + ant + shadow[s, user_idx]

    def user_user_gain_db(self, idx_a, idx_b) -> tuple[np.ndarray, np.ndarray]:
        """Element-wise UE-to-UE gains (dB, no antenna directivity) and
        distances (m) of the links idx_a[i] - idx_b[i]."""
        a = np.asarray(idx_a, dtype=int)
        b = np.asarray(idx_b, dtype=int)
        pa, pb = self.users_xy[a], self.users_xy[b]
        dist = np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])
        los = self._los_mask(
            dist, lambda i: segments_blocked(pa[i], pb[i], self.env.building_rects))
        pl = pathloss_db(dist, los, self.params.ue_link, self.params.min_distance_m)
        # user keys ascend with the user row
        shadow = self.shadow.sample_rounded_db(
            LINK_CLASS["ue"], self.user_rounds[np.minimum(a, b)],
            self.user_keys[np.maximum(a, b)], self.params.ue_link.shadow_sigma_db)
        return -pl + shadow, dist

    def distance_matrix(self, idx_a, idx_b) -> np.ndarray:
        """(A, B) distances (m) between users idx_a and idx_b, bit for bit the
        ones user_user_gain_db gives for the links idx_a[i] - idx_b[j]."""
        pa, pb = self.users_xy[idx_a], self.users_xy[idx_b]
        return np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])


def build_gain_set(
    channel: DropChannel,
    sector: Sector,
    cell_user_idx: np.ndarray,
    pair_tx_idx: np.ndarray,
    d2d_gain_db: np.ndarray,
) -> GainSet:
    """Assemble the linear gains a sector needs to schedule reuse, h_cross
    left unset.

    cell_user_idx are the sector's cellular uplink users and pair_tx_idx the
    transmitting ends of its D2D pairs; d2d_gain_db is the gains that
    user_user_gain_db gives over the pairs' tx -> rx links.
    """
    cell_idx = np.asarray(cell_user_idx, dtype=int)
    tx = np.asarray(pair_tx_idx, dtype=int)
    return GainSet(
        sector_id=sector.sector_id,
        h_cell=db_to_linear(channel.user_sector_gain_db(cell_idx, sector)),
        h_d2d=db_to_linear(d2d_gain_db),
        h_d2d_bs=db_to_linear(channel.user_sector_gain_db(tx, sector)),
    )
