"""Rectangle containment, segment blocking and outdoor sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import channel, engine
from d2dsim.config import ScenarioConfig, apply_scenario
from d2dsim.geometry import (_BUCKET_M, _EDGE_EPS, RectBuckets, _slab_interval,
                             points_in_rects, sample_outdoor_points, segments_blocked)
from d2dsim.scenario import generate_environment

RECT = np.array([[10.0, 10.0, 20.0, 30.0]])


def test_points_in_rects_closed_boundary():
    pts = np.array([
        [15.0, 20.0],  # inside
        [10.0, 10.0],  # corner (closed -> inside)
        [20.0, 30.0],  # opposite corner
        [9.99, 20.0],  # just outside
        [25.0, 20.0],  # outside
    ])
    np.testing.assert_array_equal(points_in_rects(pts, RECT),
                                  [True, True, True, False, False])


def test_points_no_rects():
    assert not points_in_rects(np.array([[0.0, 0.0]]), np.zeros((0, 4))).any()


def test_segment_crossing_blocked():
    p0 = np.array([[0.0, 20.0]])
    p1 = np.array([[30.0, 20.0]])
    assert segments_blocked(p0, p1, RECT).all()


def test_segment_grazing_wall_not_blocked():
    # exactly along the xmin wall: touching, never interior
    p0 = np.array([[10.0, 0.0]])
    p1 = np.array([[10.0, 40.0]])
    assert not segments_blocked(p0, p1, RECT).any()


def test_segment_touching_corner_not_blocked():
    p0 = np.array([[0.0, 40.0]])
    p1 = np.array([[20.0, 30.0]])  # endpoint on the corner
    assert not segments_blocked(p0, p1, RECT).any()


def test_segment_inside_rect_blocked():
    p0 = np.array([[12.0, 15.0]])
    p1 = np.array([[18.0, 25.0]])
    assert segments_blocked(p0, p1, RECT).all()


def test_segment_outside_not_blocked():
    p0 = np.array([[0.0, 0.0]])
    p1 = np.array([[5.0, 40.0]])
    assert not segments_blocked(p0, p1, RECT).any()


def test_segments_vectorized_mixed():
    p0 = np.array([[0.0, 20.0], [0.0, 0.0]])
    p1 = np.array([[30.0, 20.0], [5.0, 40.0]])
    np.testing.assert_array_equal(segments_blocked(p0, p1, RECT), [True, False])


def test_degenerate_segment_inside_counts_as_obstructed():
    p = np.array([[15.0, 20.0]])
    assert segments_blocked(p, p, RECT).all()
    q = np.array([[0.0, 0.0]])
    assert not segments_blocked(q, q, RECT).any()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_blocking_agrees_with_dense_sampling(seed):
    """Midpoint sampling oracle: interior hits imply blocked, misses imply clear."""
    rng = np.random.default_rng(seed)
    rect = np.sort(rng.uniform(0.0, 50.0, size=(2, 2)), axis=0).T.reshape(-1)
    rect = np.array([[rect[0], rect[2], rect[1], rect[3]]])  # (xmin,ymin,xmax,ymax)
    p0 = rng.uniform(-10.0, 60.0, size=(1, 2))
    p1 = rng.uniform(-10.0, 60.0, size=(1, 2))
    blocked = bool(segments_blocked(p0, p1, rect)[0])
    ts = np.linspace(0.0, 1.0, 4001)[:, None]
    pts = p0 + ts * (p1 - p0)
    margin = 1e-6
    strictly_inside = ((pts[:, 0] > rect[0, 0] + margin) & (pts[:, 0] < rect[0, 2] - margin)
                       & (pts[:, 1] > rect[0, 1] + margin) & (pts[:, 1] < rect[0, 3] - margin))
    if strictly_inside.any():
        assert blocked
    if not blocked:
        assert not strictly_inside.any()


def unpruned_segments_blocked(p0, p1, rects):
    """Oracle: the slab test against every rect, without bounding-box pruning."""
    a = np.atleast_2d(np.asarray(p0, dtype=float))
    d = np.atleast_2d(np.asarray(p1, dtype=float)) - a
    r = np.atleast_2d(np.asarray(rects, dtype=float))
    nx, fx = _slab_interval(a[:, 0:1], d[:, 0:1], r[:, 0] + _EDGE_EPS, r[:, 2] - _EDGE_EPS)
    ny, fy = _slab_interval(a[:, 1:2], d[:, 1:2], r[:, 1] + _EDGE_EPS, r[:, 3] - _EDGE_EPS)
    t_lo = np.maximum(np.maximum(nx, ny), 0.0)
    t_hi = np.minimum(np.minimum(fx, fy), 1.0)
    return (t_lo < t_hi).any(axis=1)


# Grid coordinates put endpoints exactly on walls and corners; free floats
# cover general position.
_coord = st.one_of(st.integers(-4, 24).map(lambda v: v * 2.5),
                   st.floats(-10.0, 60.0, allow_nan=False))


@st.composite
def _rect(draw):
    x0, x1, y0, y1 = (draw(_coord) for _ in range(4))
    return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


@st.composite
def _segment(draw):
    x0, y0, x1, y1 = (draw(_coord) for _ in range(4))
    shape = draw(st.sampled_from(("free", "vertical", "horizontal", "point")))
    if shape == "vertical":
        x1 = x0
    elif shape == "horizontal":
        y1 = y0
    elif shape == "point":
        x1, y1 = x0, y0
    return (x0, y0, x1, y1)


@settings(max_examples=300, deadline=None)
@given(rects=st.lists(_rect(), max_size=8),
       segs=st.lists(_segment(), min_size=1, max_size=30),
       chunk=st.integers(1, 8))
def test_pruned_blocking_equals_unpruned_slab_test(rects, segs, chunk):
    r = np.array(rects, dtype=float).reshape(-1, 4)
    s = np.array(segs, dtype=float)
    want = unpruned_segments_blocked(s[:, :2], s[:, 2:], r)
    np.testing.assert_array_equal(segments_blocked(s[:, :2], s[:, 2:], r, chunk=chunk), want)
    np.testing.assert_array_equal(segments_blocked(s[:, :2], s[:, 2:], r), want)


def test_pruned_blocking_equals_unpruned_on_hetnet_drop(monkeypatch):
    """Every site link and UE-UE cross link LOS test of one hetnet drop."""
    calls = []

    def recording(p0, p1, rects):
        calls.append((np.array(p0), np.array(p1), rects))
        return segments_blocked(p0, p1, rects)

    monkeypatch.setattr(channel, "segments_blocked", recording)
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    engine.build_drop(cfg, engine.drop_seed(0, 0))
    sites = {(s.x, s.y) for s in generate_environment(cfg).sectors}
    site_calls = sum(set(map(tuple, p1)) <= sites for _, p1, _ in calls)
    assert site_calls > 0 and len(calls) > site_calls  # both link kinds were tested
    for p0, p1, rects in calls:
        np.testing.assert_array_equal(segments_blocked(p0, p1, rects),
                                      unpruned_segments_blocked(p0, p1, rects))


_BOUNDS = (-20.0, -10.0, 300.0, 200.0)
# Rect edges and points on a lattice that holds the bucket cell seams of
# _BOUNDS, so points fall on edges, corners and seams; free floats cover
# general position, and some fall outside the bounds.
_bcoord = st.one_of(st.integers(-2, 2 * int(320 / _BUCKET_M) + 2).map(
                        lambda v: -20.0 + v * _BUCKET_M / 2),
                    st.integers(-8, 48).map(lambda v: v * 7.5),
                    st.floats(-40.0, 320.0, allow_nan=False))


@st.composite
def _brect(draw):
    x0, x1, y0, y1 = (draw(_bcoord) for _ in range(4))
    return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


@settings(max_examples=300, deadline=None)
@given(rects=st.lists(_brect(), max_size=12),
       pts=st.lists(st.tuples(_bcoord, _bcoord), min_size=1, max_size=40),
       corners=st.booleans())
def test_rect_buckets_equal_all_rects_test(rects, pts, corners):
    r = np.array(rects, dtype=float).reshape(-1, 4)
    p = np.array(pts, dtype=float)
    if corners:  # every rect corner, plus the bounds' own corners
        p = np.vstack([p, r[:, [0, 1]], r[:, [2, 3]], r[:, [0, 3]], r[:, [2, 1]],
                       [_BOUNDS[:2], _BOUNDS[2:]]])
    np.testing.assert_array_equal(RectBuckets(r, _BOUNDS).contains(p), points_in_rects(p, r))


def test_rect_buckets_on_hetnet_footprints():
    env = generate_environment(apply_scenario(ScenarioConfig(), "hetnet"))
    r = env.building_rects
    pts = np.random.default_rng(2).uniform(env.bounds[:2], env.bounds[2:], size=(20000, 2))
    pts = np.vstack([pts, r[:, :2], r[:, 2:], r[:, [0, 3]], r[:, [2, 1]]])
    buckets = RectBuckets(r, env.bounds)
    assert buckets.cell_rects.shape[1] < len(r) // 10  # a few rects per cell
    np.testing.assert_array_equal(buckets.contains(pts), points_in_rects(pts, r))


def test_sample_outdoor_points_avoids_obstacles(rng):
    bounds = (0.0, 0.0, 50.0, 50.0)
    pts = sample_outdoor_points(500, bounds, RECT, rng)
    assert pts.shape == (500, 2)
    assert (pts[:, 0] >= 0).all() and (pts[:, 0] <= 50).all()
    assert (pts[:, 1] >= 0).all() and (pts[:, 1] <= 50).all()
    assert not points_in_rects(pts, RECT).any()


def test_sample_outdoor_points_deterministic():
    a = sample_outdoor_points(100, (0, 0, 50, 50), RECT, np.random.default_rng(3))
    b = sample_outdoor_points(100, (0, 0, 50, 50), RECT, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_sample_outdoor_points_zero_count(rng):
    assert sample_outdoor_points(0, (0, 0, 1, 1), RECT, rng).shape == (0, 2)


def test_sample_outdoor_points_dense_obstacles_raises(rng):
    full = np.array([[0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(RuntimeError):
        sample_outdoor_points(10, (0.0, 0.0, 1.0, 1.0), full, rng)
