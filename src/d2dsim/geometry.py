"""2D geometry helpers: axis-aligned rectangles, segment blocking, outdoor sampling.

Rectangles are float arrays of shape (K, 4) laid out as (xmin, ymin, xmax, ymax).
All tests are purely horizontal (2D); antenna/site heights never enter the
line-of-sight decision.
"""

from __future__ import annotations

import numpy as np

# Shrink rectangles by this margin before the blocking test so that a ray
# grazing exactly along a wall does not count as obstructed.
_EDGE_EPS = 1e-9
# Widen a chunk's segment bounding box by this much before dropping the rects
# outside it, so rounding at the box edge can never drop a blocking rect.
_PRUNE_MARGIN = 1e-6


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


def segments_blocked(
    p0: np.ndarray, p1: np.ndarray, rects: np.ndarray, chunk: int = 4096
) -> np.ndarray:
    """True for each segment p0[i]->p1[i] that crosses the interior of any rect.

    Liang-Barsky slab clipping, vectorized over (segments x rects) in chunks.
    Touching a wall or corner exactly does not block.  Each chunk tests only
    the rects that overlap its segments' bounding box (widened by
    _PRUNE_MARGIN); a rect outside that box cannot block any of them, so the
    result equals the test against every rect.
    """
    a = np.atleast_2d(np.asarray(p0, dtype=float))
    b = np.atleast_2d(np.asarray(p1, dtype=float))
    r = np.atleast_2d(np.asarray(rects, dtype=float))
    n = len(a)
    out = np.zeros(n, dtype=bool)
    if r.size == 0 or n == 0:
        return out
    # open-interior semantics
    rx0 = r[:, 0] + _EDGE_EPS
    ry0 = r[:, 1] + _EDGE_EPS
    rx1 = r[:, 2] - _EDGE_EPS
    ry1 = r[:, 3] - _EDGE_EPS
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        pa = a[s:e]
        pb = b[s:e]
        lo = np.minimum(pa, pb).min(axis=0) - _PRUNE_MARGIN
        hi = np.maximum(pa, pb).max(axis=0) + _PRUNE_MARGIN
        near = np.flatnonzero((r[:, 0] <= hi[0]) & (r[:, 2] >= lo[0])
                              & (r[:, 1] <= hi[1]) & (r[:, 3] >= lo[1]))
        d = pb - pa
        # (seg, rect) broadcasting
        nx, fx = _slab_interval(pa[:, 0:1], d[:, 0:1], rx0[near], rx1[near])
        ny, fy = _slab_interval(pa[:, 1:2], d[:, 1:2], ry0[near], ry1[near])
        t_lo = np.maximum(np.maximum(nx, ny), 0.0)
        t_hi = np.minimum(np.minimum(fx, fy), 1.0)
        out[s:e] = (t_lo < t_hi).any(axis=1)
    return out


def sample_outdoor_points(
    count: int,
    bounds: tuple[float, float, float, float],
    obstacles: np.ndarray,
    rng: np.random.Generator,
    max_tries: int = 200,
) -> np.ndarray:
    """Uniform points in `bounds` rejected against obstacle interiors.

    Returns an array of shape (count, 2).
    """
    xmin, ymin, xmax, ymax = bounds
    if count == 0:
        return np.empty((0, 2))
    got: list[np.ndarray] = []
    need = count
    for _ in range(max_tries):
        m = max(int(need * 1.8) + 8, 16)
        pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(m, 2))
        keep = pts[~points_in_rects(pts, obstacles)]
        got.append(keep[:need])
        need -= len(keep[:need])
        if need == 0:
            return np.concatenate(got)
    raise RuntimeError("outdoor sampling failed to converge; obstacles too dense")
