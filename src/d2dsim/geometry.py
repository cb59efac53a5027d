"""2D geometry helpers: axis-aligned rectangles, segment blocking, outdoor sampling.

Rectangles are float arrays of shape (K, 4) laid out as (xmin, ymin, xmax, ymax).
Outdoor sampling tests points against closed rects by slab point location
(RectBuckets): each coordinate's slot among the rects' distinct edges along
its axis, then one table read per point, equal to the test against every
rect.
All tests are purely horizontal (2D); antenna/site heights never enter the
line-of-sight decision.  Both LOS paths slab-test only the rects that can
block a link (segments_blocked: those reaching its own bounding box;
SiteWedges: those of its azimuth bin), so each equals the full test.
SiteWedges also keeps, per site and azimuth bin, a length below which no
rect of the bin can be reached and one above which a rect that fills the
whole bin is surely crossed; each lies _WEDGE_SLACK_M on the safe side, far
beyond rounding, so a link answered from them gets the slab test's answer,
and association's site bound reads the second to take NLOS.  The lookup
tables (SiteWedges, RectBuckets) depend on the layout alone, so a scenario
builds them once and every drop reads them.
"""

from __future__ import annotations

import numpy as np

# Shrink rectangles by this margin before the blocking test so that a ray
# grazing exactly along a wall does not count as obstructed.
_EDGE_EPS = 1e-9
# Widen a segment's bounding box by this much before dropping the rects
# outside it, so rounding at the box edge can never drop a blocking rect;
# its masks compare _SEGMENT_CHUNK segments with the rects at a time.
_PRUNE_MARGIN = 1e-6
_SEGMENT_CHUNK = 1024
# RectBuckets: the side of the cells that give a coordinate's slot among
# the rect edges, and the most cells per axis (the side grows past it, so
# the lookup stays small on any layout).  sample_outdoor_points: the
# rejection rounds it makes before it gives up.
_CELL_M = 1.0
_MAX_CELLS = 4096
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
# SiteWedges.far: a rect must be this much thicker than nothing, far above
# the 2 * _EDGE_EPS its open interior loses, to surely block a link.
_WEDGE_MIN_SIDE_M = 1e-6


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


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, first[i] + j) for every i and 0 <= j < count[i], i ascending,
    then j."""
    i = np.repeat(np.arange(len(count)), count)
    return i, first[i] + (np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count))


def _mark_crossings(out, link, rect, x, y, dx, dy, inner):
    """Set out[link[i]] where link link[i], p + t*d with p = (x, y)[link[i]]
    and d = (dx, dy)[link[i]], crosses the inner rect rect[i]."""
    out[link[_crosses(x[link], y[link], dx[link], dy[link], *inner[:, rect])]] = True


def segments_blocked(p0: np.ndarray, p1: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """True for each segment p0[i]->p1[i] that crosses the interior of any rect.

    Liang-Barsky slab clipping; touching a wall or corner exactly does not
    block.  Each segment meets only the rects whose open interior overlaps
    its own bounding box widened by _PRUNE_MARGIN, compared _SEGMENT_CHUNK
    segments at a time.  A crossing counts only at some t in [0, 1], a
    point inside the segment's box, and lies within rounding of the open
    interior (for a rect thinner than 2 * _EDGE_EPS, of the band between its
    swapped shrunk bounds), far inside _PRUNE_MARGIN.  So a rect that
    misses the widened box cannot block the segment, and the result equals
    the slab test against every rect.
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
    out, chunk = np.zeros(n, dtype=bool), _SEGMENT_CHUNK
    for s in range(0, n, chunk):
        link, rect = np.divmod(np.flatnonzero(
            (inner[0] <= hi[s:s + chunk, 0:1]) & (inner[2] >= lo[s:s + chunk, 0:1])
            & (inner[1] <= hi[s:s + chunk, 1:2]) & (inner[3] >= lo[s:s + chunk, 1:2])), len(r))
        _mark_crossings(out, link + s, rect, a[:, 0], a[:, 1], d[:, 0], d[:, 1], inner)
    return out


def wrap_deg(angle_deg) -> np.ndarray:
    """Angles (degrees) wrapped to [-180, 180): the bits of
    (x + 180) % 360 - 180, signed zeros too, for less time.  numpy's float
    remainder is fmod plus the divisor when negative, and +0.0 when zero
    (-0.0 + 0.0 = +0.0)."""
    a = np.fmod(np.asarray(angle_deg, dtype=float) + 180.0, 360.0)
    a += 360.0 * (a < 0.0)
    a -= 180.0
    return a


def azimuth_bin(azimuth_deg) -> np.ndarray:
    """The SiteWedges bin of each azimuth (degrees in [-180, 180])."""
    return np.floor(np.asarray(azimuth_deg) + 180.0).astype(np.intp) % _WEDGE_BINS


class SiteWedges:
    """Per-site azimuth bins listing the rects that can block a link to the
    site, and the link lengths below which no rect of a bin blocks and above
    which one surely does.

    Bin b of a site holds the azimuths (degrees, from the site) in
    [b - 180, b - 179), with +180 in bin 0 (azimuth_bin).  It lists, in CSR
    form, every rect whose angular hull seen from the site, widened by
    _WEDGE_MARGIN_DEG each way, overlaps the bin.  A rect within
    _WEDGE_SLACK_M of the site joins every bin (its hull may be the whole
    circle), and a rect farther than reach + _WEDGE_SLACK_M joins none (it
    cannot meet a segment of length <= reach that ends at the site).

    A rect can block a segment from a site only if the direction of the
    segment's other end lies inside the rect's hull; blocked() slab-tests
    exactly those candidates with segments_blocked's arithmetic, so it
    equals segments_blocked for every segment no longer than reach.

    near[site, b] and far[site, b] bound every segment from the site whose
    other end lies in bin b, whatever its length:
    - one shorter than near is clear.  near is the smallest gap from the
      site to a rect of the bin, and at most reach + _WEDGE_SLACK_M, minus
      _WEDGE_SLACK_M and at least 0; every rect not listed lies outside the
      bin's directions or farther than reach + _WEDGE_SLACK_M.
    - one longer than far is blocked.  far is the smallest farthest-corner
      distance, plus _WEDGE_SLACK_M, of a rect that lies more than
      _WEDGE_SLACK_M from the site, whose sides exceed _WEDGE_MIN_SIDE_M and
      whose hull covers the whole closed bin with _WEDGE_MARGIN_DEG to
      spare.  A ray in the bin then passes through that rect's shrunk
      interior at least ~1.7e-8 m (1e-6 degrees at 1 m) clear of its
      corners, over ten times the ~1.4e-9 m the shrink moves a corner, and
      a segment that long holds the whole crossing: the slab test finds it
      far above rounding.  far is inf where no rect qualifies or the
      smallest such length exceeds reach (no link tested is that long).
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
        # (4, S, K): corners first, so reducing over them is cheap
        corner = np.degrees(np.arctan2(r.T[[1, 1, 3, 3], None, :] - sy,
                                       r.T[[0, 2, 0, 2], None, :] - sx))
        rel = wrap_deg(corner - centre)
        hull_lo = centre + rel.min(axis=0)
        hull_hi = centre + rel.max(axis=0)
        first = np.floor(hull_lo - _WEDGE_MARGIN_DEG + 180.0)
        last = np.floor(hull_hi + _WEDGE_MARGIN_DEG + 180.0)
        count = (last - first + 1).astype(np.intp)
        close = gap <= _WEDGE_SLACK_M
        first[close] = 0
        count[close] = _WEDGE_BINS
        count[gap > self.reach + _WEDGE_SLACK_M] = 0
        # one entry per (site, rect, bin), expanded from each pair's bin range
        pair, b = _ranges(first.ravel().astype(np.intp), count.ravel())
        key = pair // len(r) * _WEDGE_BINS + b % _WEDGE_BINS
        # (a stable sort of 16-bit keys is a radix sort)
        order = np.argsort(key.astype(np.min_scalar_type(len(s) * _WEDGE_BINS)), kind="stable")
        self.rect_idx = (pair % len(r))[order]
        self.start = np.concatenate(
            [[0], np.cumsum(np.bincount(key, minlength=len(s) * _WEDGE_BINS))])
        near = np.full(len(s) * _WEDGE_BINS, self.reach + _WEDGE_SLACK_M)
        np.minimum.at(near, key, gap.ravel()[pair])
        self.near = np.maximum(near - _WEDGE_SLACK_M, 0.0).reshape(len(s), _WEDGE_BINS)
        # far: the entries whose whole closed bin, widened by the margin,
        # lies in the hull of a rect that is solid, away from the site and
        # near enough (its farthest corner plus the slack) to bound a link
        # no longer than reach
        through = np.hypot(np.maximum(abs(r[:, 0] - sx), abs(r[:, 2] - sx)),
                           np.maximum(abs(r[:, 1] - sy), abs(r[:, 3] - sy))) + _WEDGE_SLACK_M
        solid = ((through <= self.reach) & (gap > _WEDGE_SLACK_M)
                 & (np.minimum(r[:, 2] - r[:, 0], r[:, 3] - r[:, 1]) > _WEDGE_MIN_SIDE_M))
        cover = ((b >= np.where(solid, hull_lo + _WEDGE_MARGIN_DEG + 180.0, np.inf).ravel()[pair])
                 & (b <= (hull_hi - _WEDGE_MARGIN_DEG + 179.0).ravel()[pair]))
        far = np.full(len(s) * _WEDGE_BINS, np.inf)
        np.minimum.at(far, key[cover], through.ravel()[pair[cover]])
        self.far = far.reshape(len(s), _WEDGE_BINS)

    def blocked(self, site: np.ndarray, points: np.ndarray,
                azimuth_deg: np.ndarray) -> np.ndarray:
        """segments_blocked(points, self.sites[site], self.rects), element-wise.

        azimuth_deg[i] must be the direction of points[i] from its site,
        np.degrees(np.arctan2(dy, dx)) with (dx, dy) = points[i] minus the
        site; every segment must be no longer than reach.  A segment shorter
        than its bin's near or longer than its far is answered without a
        slab test.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        site = np.asarray(site, dtype=np.intp)
        b = azimuth_bin(azimuth_deg)
        x, y = p[:, 0], p[:, 1]
        dx = self.sites[site, 0] - x
        dy = self.sites[site, 1] - y
        d2 = dx * dx + dy * dy
        out = d2 > self.far[site, b] ** 2
        key = site * _WEDGE_BINS + b
        first = self.start[key]
        count = np.where(out | (d2 < self.near[site, b] ** 2), 0, self.start[key + 1] - first)
        # candidate (link, rect) pairs, the rects of each link's bin in turn
        link, pos = _ranges(first, count)
        _mark_crossings(out, link, self.rect_idx[pos], x, y, dx, dy, self.inner)
        return out


class RectBuckets:
    """Closed-rect containment by slab point location over the rects' edges
    (Dobkin & Lipton) within `bounds` (xmin, ymin, xmax, ymax).

    contains(points) is True for each point inside any rect.  Each axis is cut
    at the distinct rect edges e_0 < e_1 < ... along it: a coordinate equal
    to e_i lies in slot 2i + 1, one strictly between e_(i-1) and e_i in slot
    2i (the last slot lies past every edge).  A closed rect [e_a, e_b] covers
    the slots 2a + 1 to 2b + 1 of its axis, so table[x slot, y slot] holds
    whether any rect contains the points of that slot pair.

    A coordinate's slot comes from a lookup over the cells of side
    max(_CELL_M, extent / _MAX_CELLS) that cover the bounds along its axis;
    points outside the bounds fall into the end cells.  Subtraction,
    division by the positive side, floor and clipping never reverse an
    order, so every coordinate in a cell that no edge falls into lies
    strictly between the same two edges, and the cell gives its slot.
    Coordinates in the other cells take searchsorted.
    """

    def __init__(self, rects: np.ndarray, bounds: tuple[float, float, float, float]):
        r = np.asarray(rects, dtype=float).reshape(-1, 4)
        self.bounds = tuple(bounds)
        self.origin = np.array(bounds[:2], dtype=float)
        extent = np.array(bounds[2:], dtype=float) - self.origin
        self.side = np.maximum(extent / _MAX_CELLS, _CELL_M)
        self.shape = np.clip(np.ceil(extent / self.side), 1, _MAX_CELLS).astype(np.intp)
        self.edges = tuple(np.unique(r[:, [a, a + 2]]) for a in (0, 1))
        # each rect's first and last slot per axis: (xlo, ylo, xhi, yhi)
        cover = 2 * np.column_stack([np.searchsorted(self.edges[i % 2], r[:, i])
                                     for i in range(4)]) + 1
        self.table = np.zeros([2 * len(e) + 1 for e in self.edges], dtype=bool)
        for x0, y0, x1, y1 in cover.tolist():
            self.table[x0:x1 + 1, y0:y1 + 1] = True
        # per axis, each cell's slot, or -1 where an edge falls into the cell
        self.cell_slot = ()
        for a, e in enumerate(self.edges):
            ecell = self._cell(e, a)
            slot = 2 * np.searchsorted(ecell, np.arange(self.shape[a]))
            slot[ecell] = -1
            self.cell_slot += (slot,)

    def _cell(self, v: np.ndarray, axis: int) -> np.ndarray:
        c = np.floor((v - self.origin[axis]) / self.side[axis])
        return np.clip(c, 0, self.shape[axis] - 1, out=c).astype(np.intp)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for each (finite) point lying inside (closed) any of the rects."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        slot = []
        for a, e in enumerate(self.edges):
            v = p[:, a]
            s = self.cell_slot[a][self._cell(v, a)]
            near = np.flatnonzero(s < 0)
            s[near] = np.searchsorted(e, v[near]) + np.searchsorted(e, v[near], side="right")
            slot.append(s)
        return self.table[slot[0], slot[1]]


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
