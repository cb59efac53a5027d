"""2D geometry helpers: axis-aligned rectangles, segment blocking, outdoor sampling.

Rectangles are float arrays of shape (K, 4) laid out as (xmin, ymin, xmax, ymax).
All tests are purely horizontal (2D); antenna/site heights never enter the
line-of-sight decision.  Both LOS paths slab-test only the rects that can
block a link (segments_blocked: those reaching its own bounding box;
SiteWedges: those of its azimuth bin), so each equals the full test.  The
lookup tables (SiteWedges, RectBuckets) depend on the layout alone, so a
scenario builds them once and every drop reads them.
"""

from __future__ import annotations

import numpy as np

# Shrink rectangles by this margin before the blocking test so that a ray
# grazing exactly along a wall does not count as obstructed.
_EDGE_EPS = 1e-9
# Widen a segment's bounding box by this much before dropping the rects
# outside it, so rounding at the box edge can never drop a blocking rect.
_PRUNE_MARGIN = 1e-6
# Side of the square cells sample_outdoor_points buckets obstacles by, and
# the rejection rounds it makes before it gives up.
_BUCKET_M = 64.0
_SAMPLE_ROUNDS = 200
# SiteWedges: bins per full circle of azimuth (1 degree each), the widening
# of every rect's angular hull, and the slack of its distance rules.  A
# zero-width rect blocks a band 2 * _EDGE_EPS wide, reaching _EDGE_EPS past
# the rect itself: the slack lies far above that, and the margin far above
# atan2 rounding and above the ~1e-7 degrees the band spans seen from
# _WEDGE_SLACK_M away.
_WEDGE_BINS = 360
_WEDGE_MARGIN_DEG = 1e-6
_WEDGE_SLACK_M = 1.0


def points_in_rects(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """True for each point lying inside (closed) any of the rectangles."""
    p = np.atleast_2d(np.asarray(points, dtype=float))  # (P, 2)
    r = np.atleast_2d(np.asarray(rects, dtype=float))  # (K, 4)
    if r.size == 0:
        return np.zeros(len(p), dtype=bool)
    x = p[:, 0:1]
    y = p[:, 1:2]
    inside = (x >= r[:, 0]) & (x <= r[:, 2]) & (y >= r[:, 1]) & (y <= r[:, 3])
    return inside.any(axis=1)


def _slab_interval(p, d, lo, hi):
    """Per-axis parametric entry/exit of p + t*d through the [lo, hi] slab."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ta = (lo - p) / d
        tb = (hi - p) / d
    near = np.minimum(ta, tb)
    far = np.maximum(ta, tb)
    parallel = d == 0.0
    if np.any(parallel):
        inside = (p >= lo) & (p <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    return near, far


def _open_interiors(r):
    """(4, K) columns xmin, ymin, xmax, ymax of the rects shrunk by _EDGE_EPS:
    open-interior semantics."""
    return np.array([r[:, 0] + _EDGE_EPS, r[:, 1] + _EDGE_EPS,
                     r[:, 2] - _EDGE_EPS, r[:, 3] - _EDGE_EPS])


def _crosses(px, py, dx, dy, rx0, ry0, rx1, ry1):
    """Whether p + t*d, 0 <= t <= 1, crosses the inside of [rx0, rx1] x
    [ry0, ry1] (Liang-Barsky); the arguments broadcast."""
    nx, fx = _slab_interval(px, dx, rx0, rx1)
    ny, fy = _slab_interval(py, dy, ry0, ry1)
    return np.maximum(np.maximum(nx, ny), 0.0) < np.minimum(np.minimum(fx, fy), 1.0)


def _mark_crossings(out, link, rect, x, y, dx, dy, inner):
    """Set out[link[i]] where link link[i], p + t*d with p = (x, y)[link[i]]
    and d = (dx, dy)[link[i]], crosses the inner rect rect[i]."""
    out[link[_crosses(x[link], y[link], dx[link], dy[link], *inner[:, rect])]] = True


def segments_blocked(
    p0: np.ndarray, p1: np.ndarray, rects: np.ndarray, chunk: int = 1024
) -> np.ndarray:
    """True for each segment p0[i]->p1[i] that crosses the interior of any rect.

    Liang-Barsky slab clipping; touching a wall or corner exactly does not
    block.  Each segment meets only the rects whose open interior overlaps
    its own bounding box widened by _PRUNE_MARGIN, compared chunk segments
    at a time so the masks stay (chunk x rects).  A crossing counts only at
    some t in [0, 1], a point inside the segment's box, and lies within
    rounding of the open interior (for a rect thinner than 2 * _EDGE_EPS,
    of the band between its swapped shrunk bounds), far inside
    _PRUNE_MARGIN.  So a rect that misses the widened box cannot block the
    segment, and the result equals the slab test against every rect.
    """
    a = np.atleast_2d(np.asarray(p0, dtype=float))
    b = np.atleast_2d(np.asarray(p1, dtype=float))
    r = np.atleast_2d(np.asarray(rects, dtype=float))
    n = len(a)
    if r.size == 0 or n == 0:
        return np.zeros(n, dtype=bool)
    inner = _open_interiors(r)
    lo = np.minimum(a, b) - _PRUNE_MARGIN
    hi = np.maximum(a, b) + _PRUNE_MARGIN
    d = b - a
    out = np.zeros(n, dtype=bool)
    for s in range(0, n, chunk):
        link, rect = np.divmod(np.flatnonzero(
            (inner[0] <= hi[s:s + chunk, 0:1]) & (inner[2] >= lo[s:s + chunk, 0:1])
            & (inner[1] <= hi[s:s + chunk, 1:2]) & (inner[3] >= lo[s:s + chunk, 1:2])), len(r))
        _mark_crossings(out, link + s, rect, a[:, 0], a[:, 1], d[:, 0], d[:, 1], inner)
    return out


class SiteWedges:
    """Per-site azimuth bins listing the rects that can block a link to the site.

    Bin b of a site holds the azimuths (degrees, from the site) in
    [b - 180, b - 179), with +180 in bin 0.  It lists, in CSR form, every
    rect whose angular hull seen from the site, widened by _WEDGE_MARGIN_DEG
    each way, overlaps the bin.  A rect within _WEDGE_SLACK_M of the site
    joins every bin (its hull may be the whole circle), and a rect farther
    than reach + _WEDGE_SLACK_M joins none (it cannot meet a segment of
    length <= reach that ends at the site).

    A rect can block a segment from a site only if the direction of the
    segment's other end lies inside the rect's hull; blocked() slab-tests
    exactly those candidates with segments_blocked's arithmetic, so it
    equals segments_blocked for every segment no longer than reach.
    """

    def __init__(self, sites: np.ndarray, rects: np.ndarray, reach: float):
        s = np.asarray(sites, dtype=float).reshape(-1, 2)
        r = np.asarray(rects, dtype=float).reshape(-1, 4)
        self.sites, self.rects, self.reach = s, r, float(reach)
        self.inner = _open_interiors(r)
        sx, sy = s[:, 0:1], s[:, 1:2]  # (S, 1) against (K,) rect columns
        gap = np.hypot(np.maximum(np.maximum(r[:, 0] - sx, sx - r[:, 2]), 0.0),
                       np.maximum(np.maximum(r[:, 1] - sy, sy - r[:, 3]), 0.0))
        # hull: corner angles relative to the direction of the rect's centre;
        # a rect away from the site spans less than 180 degrees around it
        centre = np.degrees(np.arctan2(0.5 * (r[:, 1] + r[:, 3]) - sy,
                                       0.5 * (r[:, 0] + r[:, 2]) - sx))
        corner = np.degrees(np.arctan2(r[:, [1, 1, 3, 3]] - sy[..., None],
                                       r[:, [0, 2, 0, 2]] - sx[..., None]))
        rel = (corner - centre[..., None] + 180.0) % 360.0 - 180.0
        first = np.floor(centre + rel.min(axis=-1) - _WEDGE_MARGIN_DEG + 180.0)
        last = np.floor(centre + rel.max(axis=-1) + _WEDGE_MARGIN_DEG + 180.0)
        count = (last - first + 1).astype(np.intp)
        near = gap <= _WEDGE_SLACK_M
        first[near] = 0
        count[near] = _WEDGE_BINS
        count[gap > self.reach + _WEDGE_SLACK_M] = 0
        # one entry per (site, rect, bin), expanded from each pair's bin range
        count = count.ravel()
        pair = np.repeat(np.arange(count.size), count)
        step = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
        site, rect = np.divmod(pair, len(r))
        key = site * _WEDGE_BINS + (first.ravel().astype(np.intp)[pair] + step) % _WEDGE_BINS
        self.rect_idx = rect[np.argsort(key, kind="stable")]
        self.start = np.concatenate(
            [[0], np.cumsum(np.bincount(key, minlength=len(s) * _WEDGE_BINS))])

    def blocked(self, site: np.ndarray, points: np.ndarray,
                azimuth_deg: np.ndarray) -> np.ndarray:
        """segments_blocked(points, self.sites[site], self.rects), element-wise.

        azimuth_deg[i] must be the direction of points[i] from its site,
        np.degrees(np.arctan2(dy, dx)) with (dx, dy) = points[i] minus the
        site; every segment must be no longer than reach.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        site = np.asarray(site, dtype=np.intp)
        key = site * _WEDGE_BINS + np.floor(
            np.asarray(azimuth_deg) + 180.0).astype(np.intp) % _WEDGE_BINS
        first = self.start[key]
        count = self.start[key + 1] - first
        # candidate (link, rect) pairs, the rects of each link's bin in turn
        link = np.repeat(np.arange(len(key)), count)
        rect = self.rect_idx[
            np.arange(len(link)) + np.repeat(first - (np.cumsum(count) - count), count)]
        x, y = p[:, 0], p[:, 1]
        out = np.zeros(len(key), dtype=bool)
        _mark_crossings(out, link, rect, x, y, self.sites[site, 0] - x,
                        self.sites[site, 1] - y, self.inner)
        return out


class RectBuckets:
    """Rects bucketed by the square cells of a grid over `bounds`
    (xmin, ymin, xmax, ymax).

    contains(points) equals points_in_rects(points, rects) but tests each
    point only against the rects of its cell.  A rect joins every cell its
    closed extent overlaps.  Subtraction, division by the positive cell side,
    floor and clipping never reverse an order, so a point inside a rect lands
    in a cell between the rect's first and last, and the comparisons made are
    the very ones points_in_rects makes.
    """

    def __init__(self, rects: np.ndarray, bounds: tuple[float, float, float, float]):
        r = np.asarray(rects, dtype=float).reshape(-1, 4)
        self.bounds = tuple(bounds)
        self.origin = np.array(bounds[:2], dtype=float)
        self.shape = np.maximum(
            np.ceil((np.array(bounds[2:]) - self.origin) / _BUCKET_M).astype(int), 1)
        lo = self._cell(r[:, :2])
        hi = self._cell(r[:, 2:])
        ix = np.arange(self.shape[0])[:, None, None]
        iy = np.arange(self.shape[1])[None, :, None]
        hit = ((lo[:, 0] <= ix) & (ix <= hi[:, 0])
               & (lo[:, 1] <= iy) & (iy <= hi[:, 1])).reshape(self.shape.prod(), len(r))
        # each cell's rects in rect order, padded with a NaN rect that
        # contains nothing
        cell, rect = np.nonzero(hit)
        count = hit.sum(axis=1)
        slot = np.arange(len(cell)) - (np.cumsum(count) - count)[cell]
        cand = np.full((len(hit), max(int(count.max(initial=0)), 1)), len(r))
        cand[cell, slot] = rect
        self.cell_rects = np.vstack([r, np.full((1, 4), np.nan)])[cand]  # (C, W, 4)

    def _cell(self, p: np.ndarray) -> np.ndarray:
        c = np.floor((p - self.origin) / _BUCKET_M)
        return np.clip(c, 0, self.shape - 1).astype(int)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for each (finite) point lying inside (closed) any of the rects."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        c = self._cell(p)
        r = self.cell_rects[c[:, 0] * self.shape[1] + c[:, 1]]  # (P, W, 4)
        x = p[:, 0:1]
        y = p[:, 1:2]
        inside = (x >= r[..., 0]) & (x <= r[..., 2]) & (y >= r[..., 1]) & (y <= r[..., 3])
        return inside.any(axis=1)


def sample_outdoor_points(
    count: int,
    buckets: RectBuckets,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform points in buckets.bounds rejected against its rects' interiors.

    Returns an array of shape (count, 2).
    """
    xmin, ymin, xmax, ymax = buckets.bounds
    if count == 0:
        return np.empty((0, 2))
    got: list[np.ndarray] = []
    need = count
    for _ in range(_SAMPLE_ROUNDS):
        m = max(int(need * 1.8) + 8, 16)
        pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(m, 2))
        keep = pts[~buckets.contains(pts)]
        got.append(keep[:need])
        need -= len(keep[:need])
        if need == 0:
            return np.concatenate(got)
    raise RuntimeError("outdoor sampling failed to converge; obstacles too dense")
