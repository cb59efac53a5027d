"""Urban deployment: Manhattan-style grid, radio sites, user drops, D2D pairing.

One grid is 387 x 552 m with three building columns and four building rows
separated by 21 m streets (10.5 m half-streets at the rim).  The centre block
of the second row is a park, and the four corner blocks are split in two by a
6 m alley, giving 15 buildings plus the park.  The main street runs
horizontally between the second and third rows; all radio sites stand on it.
Everything is flat: only the 2D footprints enter the line-of-sight test.
The measured grid sits at the centre of a 3 x 3 tiling of identical replicas
so that cell-border users see realistic neighbour sectors.

An Environment holds everything that depends on the config alone: the
footprints' slot table for outdoor sampling, the site wedge table, each site's
pathloss parameters, shadow link class, shadow key, power bounds (over all
azimuths and per azimuth bin) and run of sector ids, and each sector's
boresight, antenna, DL power and selection offset.  It is built once per
config and shared, read-only, by every drop.

Association is an exact, bound-pruned search over the users it is given:
every (site, user) gets a cheap upper bound on the biased power of the
site's sectors, and exact powers are built only for the sectors of the
sites whose bound can still reach a user's best power.

A drop's users are one (N, 2) array of positions, a user's id being its row;
its D2D pairs are one (P, 2) int array of (tx, rx) user rows, a pair's id
being its row.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .channel import LINK_CLASS, DropChannel, antenna_gain_db, site_key
from .config import AntennaPattern, ChannelParams, ScenarioConfig, SiteParams
from .geometry import (_WEDGE_BINS, _WEDGE_MARGIN_DEG, RectBuckets, SiteWedges, freeze_arrays,
                       sample_outdoor_points)

# Canonical block layout on the 387 x 552 m reference grid (scaled for other
# dimensions).  Tuples are (min, max) coordinates of building columns/rows.
_REF_W = 387.0
_REF_H = 552.0
_COL_X = ((10.5, 120.5), (141.5, 251.5), (272.5, 376.5))
_ROW_Y = ((10.5, 127.5), (148.5, 265.5), (286.5, 403.5), (424.5, 541.5))
_PARK_BLOCK = (1, 1)  # (column, row): centre block of the second row
_SPLIT_BLOCKS = {(0, 0), (2, 0), (0, 3), (2, 3)}  # corner blocks, split by alley
_ALLEY_M = 6.0
MAIN_STREET_Y = (265.5, 286.5)  # between rows 1 and 2
# Site links per chunk of association's exact stage, so that its LOS and
# antenna temporaries stay small.
_LINK_CHUNK = 4096


@dataclass(frozen=True)
class Sector:
    sector_id: int
    site_id: int
    kind: str  # "macro" | "micro"
    boresight_deg: float
    bandwidth_hz: float
    dl_power_dbm: float
    selection_offset_db: float
    antenna: AntennaPattern


@dataclass(frozen=True)
class Environment:
    """Shared by every drop of a config: its arrays are read-only."""

    width_m: float
    height_m: float
    bounds: tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax) of all grids
    building_rects: np.ndarray  # (B, 4) footprints of every replica grid, central grid first
    buckets: RectBuckets  # building_rects' slot table over bounds, for outdoor sampling
    sectors: tuple[Sector, ...]
    site_wedges: SiteWedges  # buildings per azimuth bin of each site
    channel: ChannelParams  # site_wedges reaches its los_max_distance_m
    # per site id, columns that broadcast against (sites x users) arrays
    site_pathloss: np.ndarray  # (5, S, 1) its PathlossParams fields, in order
    site_link_class: np.ndarray  # (S, 1) LINK_CLASS of its kind
    site_keys: np.ndarray  # (S, 1) its shadowing key
    site_bound_db: np.ndarray  # (S, 1) the row maximum of site_bin_bound_db
    site_bin_bound_db: np.ndarray  # (S, bins) top dl_power + selection_offset + gain per bin
    site_sectors: np.ndarray  # (S + 1,) first sector id of each site, then the sector count
    # per sector id
    sector_boresight: np.ndarray  # (C,) boresight_deg
    sector_antenna: np.ndarray  # (3, C) its AntennaPattern fields, in order
    sector_dl_dbm: np.ndarray  # (C,) dl_power_dbm
    sector_offset_db: np.ndarray  # (C,) selection_offset_db


def _block_rects(width: float, height: float) -> list[tuple]:
    """The 15 building footprints of one grid at origin (0, 0)."""
    sx = width / _REF_W
    sy = height / _REF_H
    rects: list[tuple] = []
    for c, (x0, x1) in enumerate(_COL_X):
        for r, (y0, y1) in enumerate(_ROW_Y):
            if (c, r) == _PARK_BLOCK:
                continue
            rect = (x0 * sx, y0 * sy, x1 * sx, y1 * sy)
            if (c, r) in _SPLIT_BLOCKS:
                ymid = 0.5 * (rect[1] + rect[3])
                half = 0.5 * _ALLEY_M * sy
                rects.append((rect[0], rect[1], rect[2], ymid - half))
                rects.append((rect[0], ymid + half, rect[2], rect[3]))
            else:
                rects.append(rect)
    return rects


def _bin_bound_db(site: SiteParams, boresights: list[float]) -> np.ndarray:
    """(bins,) the largest dl_power + selection_offset + antenna gain that
    any sector of the site, one per boresight, reaches over each SiteWedges
    azimuth bin, the bin's closed interval widened by _WEDGE_MARGIN_DEG each
    way.

    The margin holds the rounding of any azimuth the bin gets.  The gain
    falls as the offset from boresight, wrapped to [-180, 180), grows, and
    over an interval narrower than 180 degrees that offset is least at zero,
    if the interval holds a multiple of 360, or else at one of its ends.
    """
    lo = np.arange(_WEDGE_BINS) - 180.0 - _WEDGE_MARGIN_DEG - np.array(boresights)[:, None]
    hi = lo + (1.0 + 2.0 * _WEDGE_MARGIN_DEG)  # (sectors, bins), like lo
    antenna = site.antenna
    gain = np.where(np.floor(hi / 360.0) >= np.ceil(lo / 360.0), antenna_gain_db(antenna, 0.0),
                    np.maximum(antenna_gain_db(antenna, lo), antenna_gain_db(antenna, hi)))
    return (site.dl_power_dbm + site.selection_offset_db + gain).max(axis=0)


@lru_cache(maxsize=8)
def generate_environment(cfg: ScenarioConfig) -> Environment:
    """Building footprints, radio sites and the per-site and geometry tables
    for all replica grids.

    Deterministic: replicas repeat the central grid's footprints and sites.
    Memoized, so equal configs share one Environment.
    """
    w, h = cfg.grid_width_m, cfg.grid_height_m
    rings = range(-cfg.replica_rings, cfg.replica_rings + 1)
    # the central grid first, then the others row by row
    offsets = np.array([(0.0, 0.0)] + [(ix * w, iy * h) for iy in rings for ix in rings
                                       if (ix, iy) != (0, 0)])
    base_rects = _block_rects(w, h)
    rects = np.array([(x0 + ox, y0 + oy, x1 + ox, y1 + oy)
                      for ox, oy in offsets for x0, y0, x1, y1 in base_rects])
    bounds = (*offsets.min(axis=0), *(offsets.max(axis=0) + (w, h)))

    # one grid's sites: the macro site, then the micro sites evenly spread
    # along the main street, nudged off the macro site
    street_mid = 0.5 * (MAIN_STREET_Y[0] + MAIN_STREET_Y[1]) * (h / _REF_H)
    n = cfg.micro_sites_per_grid if cfg.micro_enabled else 0
    grid_sites = [("macro", w / 2, street_mid)] + [
        ("micro", w * (2 * i + 1) / (2 * n), street_mid - 3.75) for i in range(n)]
    site_kinds = [kind for _ in offsets for kind, _, _ in grid_sites]
    wedges = SiteWedges([(x + ox, y + oy) for ox, oy in offsets for _, x, y in grid_sites],
                        rects, cfg.channel.los_max_distance_m)
    params = {"macro": cfg.macro, "micro": cfg.micro}
    # every site of a kind has the same sectors, turned the same way
    boresights = {k: [(p.sector_rotation_deg + 360.0 * i / p.sectors_per_site) % 360.0
                      for i in range(p.sectors_per_site)] for k, p in params.items()}
    kind_fields = {k: (p.uplink_bandwidth_hz, p.dl_power_dbm, p.selection_offset_db, p.antenna)
                   for k, p in params.items()}
    # per sector, in id order: a sector's id is its position, as a site's is
    layout = [(site_id, kind, bore) for site_id, kind in enumerate(site_kinds)
              for bore in boresights[kind]]
    sectors = tuple(Sector(sector_id, site_id, kind, bore, *kind_fields[kind])
                    for sector_id, (site_id, kind, bore) in enumerate(layout))
    bin_bound = {k: _bin_bound_db(params[k], boresights[k]) for k in set(site_kinds)}
    site_bin_bound_db = np.array([bin_bound[k] for k in site_kinds])
    links = {"macro": cfg.channel.macro_link, "micro": cfg.channel.micro_link}
    env = Environment(
        width_m=w,
        height_m=h,
        bounds=bounds,
        building_rects=rects,
        buckets=RectBuckets(rects, bounds),
        sectors=sectors,
        site_wedges=wedges,
        channel=cfg.channel,
        site_pathloss=np.array([astuple(links[k]) for k in site_kinds]).T[..., None],
        site_link_class=np.array([[LINK_CLASS[k]] for k in site_kinds], dtype=np.uint64),
        site_keys=site_key(np.arange(len(site_kinds))[:, None]),
        site_bound_db=site_bin_bound_db.max(axis=1, keepdims=True),
        site_bin_bound_db=site_bin_bound_db,
        site_sectors=np.cumsum([0] + [params[k].sectors_per_site for k in site_kinds]),
        sector_boresight=np.array([s.boresight_deg for s in sectors]),
        sector_antenna=np.array([astuple(s.antenna) for s in sectors]).reshape(-1, 3).T,
        sector_dl_dbm=np.array([s.dl_power_dbm for s in sectors]),
        sector_offset_db=np.array([s.selection_offset_db for s in sectors]),
    )
    freeze_arrays(env)
    return env


def drop_users(cfg: ScenarioConfig, env: Environment, rng: np.random.Generator) -> np.ndarray:
    """Drop outdoor users uniformly over all replica grids.

    The user count is Poisson with mean density x total area unless
    `fixed_user_count` overrides it.  Returns the (N, 2) user positions.
    """
    xmin, ymin, xmax, ymax = env.bounds
    area_km2 = (xmax - xmin) * (ymax - ymin) * 1e-6
    if cfg.fixed_user_count is not None:
        count = cfg.fixed_user_count
    else:
        count = int(rng.poisson(cfg.user_density_per_km2 * area_km2))
    return sample_outdoor_points(count, env.buckets, rng)


def pair_users(cfg: ScenarioConfig, xy: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Form D2D candidate pairs by greedy nearest-neighbour matching.

    A d2d_fraction share of users is eligible; eligible users are scanned in
    id order and paired with their nearest unpaired eligible neighbour within
    max_pair_distance_m, ties going to the lowest id.  A user is cellular
    unless it is an end of a pair.  The lower-id end of each pair transmits
    (and initiates the protocol), so the (P, 2) int array of (tx, rx) user
    rows returned has ascending tx.

    No candidate list is sorted: each scanning user's nearest candidate is
    found for all users at once, and the scan reads a user's other
    candidates only when that one is already paired.
    """
    n = len(xy)
    k = int(round(cfg.d2d_fraction * n))
    if k < 2:
        return np.zeros((0, 2), dtype=int)
    ids = np.sort(rng.permutation(n)[:k])
    pos = xy[ids]
    # (a, b) with a < b: a user scanned later than b never pairs with b,
    # because b, unpaired and within reach of an unpaired a, pairs first.
    # (an unbalanced, uncompacted tree builds faster and finds the same pairs)
    a_idx, b_idx = cKDTree(pos, balanced_tree=False, compact_nodes=False).query_pairs(
        cfg.max_pair_distance_m, output_type="ndarray").T
    dist = np.hypot(pos[b_idx, 0] - pos[a_idx, 0], pos[b_idx, 1] - pos[a_idx, 1])
    # each scanning user's candidates as one run (a stable sort of small
    # integer keys is a radix sort); its first choice is the least
    # (distance, index), ties going to the lowest index
    order = np.argsort(a_idx.astype(np.min_scalar_type(k)), kind="stable")
    cand, dist = b_idx[order], dist[order]
    count = np.bincount(a_idx, minlength=k)
    scanner = np.flatnonzero(count)
    width = count[scanner]
    start = np.cumsum(width) - width
    near = np.minimum.reduceat(dist, start)
    first = np.minimum.reduceat(np.where(dist == np.repeat(near, width), cand, k), start)
    paired = [False] * k
    pairs: list[int] = []
    for a, b, s, w in zip(scanner.tolist(), first.tolist(), start.tolist(), width.tolist()):
        if paired[a]:
            continue
        if paired[b]:  # first choice taken: the least (distance, index) still free
            free = [(d, c) for d, c in zip(dist[s:s + w].tolist(), cand[s:s + w].tolist())
                    if not paired[c]]
            if not free:
                continue
            b = min(free)[1]
        paired[a] = paired[b] = True
        pairs += (a, b)
    return ids[np.array(pairs, dtype=int).reshape(-1, 2)]


def associate_users(
    xy: np.ndarray, env: Environment, channel: DropChannel, users=None
) -> tuple[np.ndarray, np.ndarray]:
    """Attach users (ascending rows of xy, None for every row) to the sector
    with the strongest biased DL power.

    A sector's biased power at a user is its dl_power_dbm, plus the gain
    channel.user_sector_gain_db gives, plus its selection_offset_db; ties
    resolve to the lowest sector id.  Returns the serving sector id and the
    serving gain (dB, antenna included) per row of xy, -1 and nan at the
    rows left out of users.  Each user is searched on its own, so a user's
    result does not depend on which other users are given.

    The search is exact and prunes whole sites.  channel.site_power_bound_db
    bounds every sector of a site from above: from the distance and the
    shadowing ceiling, and within LOS reach from the link's azimuth bin,
    whose power ceiling tops every sector over the bin and whose far length
    (SiteWedges) proves the link NLOS.  The sectors of each user's
    best-bound site are evaluated first, then those of every other site
    whose bound reaches the user's best power so far.  A site left out has
    every power strictly below that best, so it can neither win nor tie.
    """
    n = len(xy)
    users = np.arange(n) if users is None else np.asarray(users, dtype=int)
    serving, gain, best = np.full(n, -1), np.full(n, np.nan), np.empty(n)
    if len(users) == 0:
        return serving, gain
    bound = channel.site_power_bound_db(users)
    first = bound.argmax(axis=0)
    _, best[users], serving[users], gain[users] = _strongest(channel, env, users, first)
    bound[first, np.arange(len(users))] = -np.inf
    # (user, site) in user order, each user's sites ascending
    cand, cand_sites = np.nonzero((bound >= best[users]).T)
    u, p, sector, g = _strongest(channel, env, users[cand], cand_sites)
    take = (p > best[u]) | ((p == best[u]) & (sector < serving[u]))
    serving[u[take]] = sector[take]
    gain[u[take]] = g[take]
    return serving, gain


def _strongest(channel: DropChannel, env: Environment, users: np.ndarray, sites: np.ndarray):
    """Exact biased powers of every sector of site sites[i] at user users[i]
    (users ascending), reduced per user: (users, strongest power, its
    sector, lowest on ties, its gain), one entry per distinct user.

    Evaluated _LINK_CHUNK links at a time into preallocated entries.
    """
    count = env.site_sectors[sites + 1] - env.site_sectors[sites]
    power, gain = np.empty((2, count.sum()))
    sector = np.empty(len(power), dtype=int)
    k = 0
    for c in range(0, len(users), _LINK_CHUNK):
        g, s = channel.site_sector_gains_db(users[c:c + _LINK_CHUNK], sites[c:c + _LINK_CHUNK])
        e = slice(k, k + len(g))
        gain[e], sector[e] = g, s
        power[e] = env.sector_dl_dbm[s] + g + env.sector_offset_db[s]
        k += len(g)
    entry_user = np.repeat(users, count)
    start = np.flatnonzero(np.diff(entry_user, prepend=-1))
    # maxima and minima do not depend on the order they are taken in
    width = np.diff(np.append(start, len(power)))
    best = np.maximum.reduceat(power, start)
    top = power == np.repeat(best, width)
    win = np.minimum.reduceat(np.where(top, sector, len(env.sectors)), start)
    pick = top & (sector == np.repeat(win, width))
    return entry_user[start], best, win, gain[pick]


def exhaustive_association(channel: DropChannel) -> tuple[np.ndarray, np.ndarray]:
    """Reference for associate_users: the first argmax over every sector of
    dl_power_dbm + channel.user_sector_gain_db + selection_offset_db, and
    the serving gain, for every user of the channel."""
    sectors = channel.env.sectors
    gains = np.array([channel.user_sector_gain_db(slice(None), s) for s in sectors])
    power = np.array([s.dl_power_dbm + g + s.selection_offset_db for s, g in zip(sectors, gains)])
    serving = power.argmax(axis=0)
    return serving, gains[serving, np.arange(len(serving))]
