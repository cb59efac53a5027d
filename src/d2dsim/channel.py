"""Radio channel: log-distance pathloss, hashed shadowing, sector antennas, gains.

A link is line-of-sight when the straight 2D segment between the ends crosses
no building footprint and is shorter than los_max_distance_m; otherwise the
NLOS slope and penalty apply.  Lognormal shadowing is *hashed* from
(drop shadow seed, node keys, link class) instead of drawn sequentially, so
every link's fade is frozen for the drop and independent of evaluation order;
swapping the ends returns the same value.

Linear channel gain = 10^(-(pathloss + shadow - antenna)/10); every consumer
works on these linear gains.

No drop builds every site link.  site_power_bound_db bounds, per (site,
user) over the users association is given (a drop's D2D receive ends are
not among them), the biased DL power of every sector of the site from the
distance, a 4096-bin quantile ceiling on the shadowing and, within LOS
reach, the link's azimuth bin: its power ceiling and its SiteWedges far
length, past which the link is surely NLOS.  site_sector_gains_db builds
exact gains, LOS test and antenna term included, element-wise over the
(user, site) links association picks from those bounds.  The per-site,
per-bin and per-sector columns both read depend on the config alone and
come from the Environment.  UE-UE gains are built only where read: one
user_user_gain_db call over the D2D links of every evaluated sector, and one
over the cross link of every reuse that some scheme schedules, in scheme ->
sector -> pair order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import ndtri

from .config import AntennaPattern, PathlossParams
from .geometry import _ranges, azimuth_bin, segments_blocked, wrap_deg
from .units import db_to_linear, dbm_to_watts

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import Environment, Sector

_USER_KEY_BASE = np.uint64(1) << np.uint64(32)
_SITE_KEY_BASE = np.uint64(1) << np.uint64(33)

LINK_CLASS = {"macro": 1, "micro": 2, "ue": 3}

# Sites per slab of the association bound pass: a slab's (sites x users)
# temporaries stay small (8 measured fastest on the hetnet preset).
_SITE_SLAB = 8
# Slack of a site's power bound over any sector's exact biased power: about
# 1e7 times the rounding by which 0.5 log10(d^2) and log10(hypot) may differ,
# and by which ndtri, monotone only to the ulp, may top its _Z_CEIL entry.
_BOUND_MARGIN_DB = 1e-6
# ndtri at the top edge (j + 1) / 4096 of each bin j of a hash's top 12 bits,
# the last edge clamped as the draw is: every draw in bin j is at most entry j
_Z_CEIL = ndtri(np.minimum(np.arange(1, 4097) / 4096, 1.0 - 2.0**-53))


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


def _link_hash(link_class, lo_round, keys_hi) -> np.ndarray:
    """The last two hash rounds of the links (lo_round[i], keys_hi[i])."""
    h = _splitmix(lo_round ^ np.asarray(keys_hi, dtype=np.uint64))
    return _splitmix(h ^ np.asarray(link_class, dtype=np.uint64))


class ShadowField:
    """Deterministic per-link lognormal shadowing, symmetric in the endpoints."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def key_round(self, keys) -> np.ndarray:
        """The first hash round, which reads only a link's smaller key."""
        return _splitmix(self.seed ^ np.asarray(keys, dtype=np.uint64))

    def sample_rounded_db(self, link_class, lo_round, keys_hi, sigma_db) -> np.ndarray:
        """Shadowing (dB) of the links whose smaller key has key_round
        lo_round[i] and whose larger key is keys_hi[i]; link_class and
        sigma_db broadcast against the keys."""
        h = _link_hash(link_class, lo_round, keys_hi)
        # top 53 bits -> uniform strictly inside (0, 1) -> standard normal;
        # the top k = 2**53 - 1 rounds to 1.0, so it is clamped below 1
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
        return sigma_db * ndtri(np.minimum(u, 1.0 - 2.0**-53))

    def ceil_rounded_db(self, link_class, lo_round, keys_hi, sigma_db) -> np.ndarray:
        """An upper bound on sample_rounded_db for sigma_db >= 0, read from
        _Z_CEIL by the bin of the hash's top 12 bits: u < (j + 1) / 4096."""
        return sigma_db * _Z_CEIL[_link_hash(link_class, lo_round, keys_hi) >> np.uint64(52)]


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
    att = 12.0 * (wrap_deg(off_boresight_deg) / pattern.beamwidth_deg) ** 2
    return pattern.max_gain_dbi - np.minimum(att, pattern.front_to_back_db)


def noise_power_watts(
    bandwidth_hz: float, noise_figure_db: float, thermal_density_dbm_hz: float = -174.0
) -> float:
    """sigma^2 = 10^((N0 + NF + 10 log10 B)/10) mW -> W."""
    dbm = thermal_density_dbm_hz + noise_figure_db + 10.0 * np.log10(bandwidth_hz)
    return float(dbm_to_watts(dbm))


@dataclass
class GainSet:
    """Linear uplink gains of a set of D2D pairs and cellular users: one
    sector's, or a whole drop's laid end to end; it carries no sector id.

    Rows index the D2D pairs (m), columns the cellular users (n).
    """

    h_cell: np.ndarray  # (M,) cellular UE -> serving sector
    h_d2d: np.ndarray  # (N,) pair tx end -> pair rx end
    h_d2d_bs: np.ndarray  # (N,) pair tx end -> sector

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.h_d2d), len(self.h_cell)


class DropChannel:
    """Frozen per-drop channel: geometry, LOS, shadowing and link gains.

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

    def site_power_bound_db(self, users) -> np.ndarray:
        """(sites x len(users)) upper bounds on the biased DL power of every
        sector of a site at user users[j], indexed by site id and j.

        A bound adds a 4096-bin quantile ceiling on the shadowing
        (ShadowField.ceil_rounded_db) to a power and a pathloss that no
        sector's exact power and no link's exact pathloss can beat:
        - beyond reach (d^2 > reach^2 (1 + 1e-9)) a link is NLOS, and the
          power is the site's largest dl_power + selection_offset +
          antenna gain (site_bound_db);
        - within reach, the link's azimuth bin, the one site_sector_gains_db
          finds, picks the power that bounds every sector of the site over
          the bin (site_bin_bound_db) and the bin's far length
          (SiteWedges.far): a link longer than far is blocked, so NLOS,
          and a shorter one takes min(LOS, NLOS).
        The distance enters as 0.5 log10(d^2) and no antenna term or slab
        test is built; _BOUND_MARGIN_DB covers the rounding that the exact
        path, which takes log10(hypot) and sums in another order, may differ
        by.  Built _SITE_SLAB sites at a time.
        """
        env = self.env
        wedges = env.site_wedges
        x, y = self.users_xy[users].T
        user_rounds = self.user_rounds[users]
        reach2 = self.params.los_max_distance_m ** 2 * (1.0 + 1e-9)
        min_d2 = self.params.min_distance_m ** 2
        bound = np.empty((len(wedges.sites), len(x)))
        within = np.empty(bound.shape, dtype=bool)
        for s0 in range(0, len(wedges.sites), _SITE_SLAB):
            rows = slice(s0, s0 + _SITE_SLAB)
            dx = x - wedges.sites[rows, 0:1]
            dy = y - wedges.sites[rows, 1:2]
            d2 = dx * dx + dy * dy
            within[rows] = d2 <= reach2
            pl = PathlossParams(*env.site_pathloss[:, rows])
            pl_nlos = (pl.intercept_db + pl.slope_nlos_db * (0.5 * np.log10(np.maximum(d2, min_d2)))
                       + pl.nlos_penalty_db)
            shadow = self.shadow.ceil_rounded_db(
                env.site_link_class[rows], user_rounds, env.site_keys[rows],
                pl.shadow_sigma_db)
            bound[rows] = shadow - pl_nlos
        # the links within reach: their bin's power, and LOS up to its far length
        k = np.flatnonzero(within)
        site, u = np.divmod(k, len(x))
        dx = x[u] - wedges.sites[site, 0]
        dy = y[u] - wedges.sites[site, 1]
        d2 = dx * dx + dy * dy
        b = azimuth_bin(np.degrees(np.arctan2(dy, dx)))
        # by how much the LOS pathloss may undercut the NLOS one
        _, slope_los, slope_nlos, penalty, _ = env.site_pathloss[:, :, 0]
        los_gain = np.maximum((slope_nlos - slope_los)[site]
                              * (0.5 * np.log10(np.maximum(d2, min_d2))) + penalty[site], 0.0)
        flat = bound.reshape(-1)  # a view: bound is contiguous
        within_gain = flat[k] + np.where(d2 > wedges.far[site, b] ** 2, 0.0, los_gain)
        bound += env.site_bound_db
        flat[k] = env.site_bin_bound_db[site, b] + within_gain
        bound += _BOUND_MARGIN_DB
        return bound

    def site_sector_gains_db(self, users, sites) -> tuple[np.ndarray, np.ndarray]:
        """Channel gains (dB, antenna included) from every sector of site
        sites[i] to user users[i], element-wise over the links.

        Returns (gain, sector) over the (link, sector) entries, link by link,
        each link's sectors in ascending id.  The LOS test reads the
        environment's SiteWedges, so it slab-tests only the buildings in each
        link's azimuth bin; the link parameters, classes, keys and antenna
        columns are the environment's.
        """
        env = self.env
        wedges = env.site_wedges
        users = np.asarray(users, dtype=int)
        sites = np.asarray(sites, dtype=int)
        xy = self.users_xy[users]
        dx = xy[:, 0] - wedges.sites[sites, 0]
        dy = xy[:, 1] - wedges.sites[sites, 1]
        dist = np.hypot(dx, dy)
        azimuth = np.degrees(np.arctan2(dy, dx))
        los = self._los_mask(dist, lambda i: wedges.blocked(sites[i], xy[i], azimuth[i]))
        pl = PathlossParams(*env.site_pathloss[:, sites, 0])
        neg_pl = -pathloss_db(dist, los, pl, self.params.min_distance_m)
        shadow = self.shadow.sample_rounded_db(
            env.site_link_class[sites, 0], self.user_rounds[users], env.site_keys[sites, 0],
            pl.shadow_sigma_db)
        first = env.site_sectors[sites]
        link, sector = _ranges(first, env.site_sectors[sites + 1] - first)
        ant = antenna_gain_db(AntennaPattern(*env.sector_antenna[:, sector]),
                              azimuth[link] - env.sector_boresight[sector])
        return neg_pl[link] + ant + shadow[link], sector

    # -- gains ----------------------------------------------------------------

    def user_sector_gain_db(self, user_idx, sector: Sector) -> np.ndarray:
        """Channel gain (dB, antenna included) between users and a sector.

        user_idx is any numpy index of users; slice(None) takes them all.
        d2dsim run never calls it; d2dsim oracle does (exhaustive_association),
        and perfbench's tracer wraps it.
        """
        users = np.arange(len(self.users_xy))[user_idx]
        gain, sectors = self.site_sector_gains_db(users, np.full(len(users), sector.site_id))
        return gain[sectors == sector.sector_id]

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


def build_gain_set(
    cell_gain_db: np.ndarray, tx_gain_db: np.ndarray, d2d_gain_db: np.ndarray
) -> GainSet:
    """Assemble the linear gains a drop needs to schedule reuse; each
    sector's gains are views of its rows.

    cell_gain_db are the gains of the drop's cellular uplink users to their
    sectors and tx_gain_db those of its D2D pairs' transmitting ends, both as
    the serving gains associate_users gives; d2d_gain_db is the gains that
    user_user_gain_db gives over the pairs' tx -> rx links.
    """
    return GainSet(
        h_cell=db_to_linear(cell_gain_db),
        h_d2d=db_to_linear(d2d_gain_db),
        h_d2d_bs=db_to_linear(tx_gain_db),
    )
