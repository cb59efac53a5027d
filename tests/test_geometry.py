"""Rectangle containment, segment blocking and outdoor sampling."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import channel, engine, geometry
from d2dsim.config import (RANGES, SCENARIO_PRESETS, AntennaPattern, ScenarioConfig,
                           apply_scenario, validate_config)
from d2dsim.geometry import (_EDGE_EPS, _MAX_CELLS, _WEDGE_BINS, RectBuckets, SiteWedges,
                             _slab_interval, azimuth_bin, sample_outdoor_points,
                             segments_blocked)
from d2dsim.scenario import drop_users, generate_environment
from conftest import tiny_config
from reference import points_in_rects, sample_outdoor_points_by_rounds

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
    with mock.patch.object(geometry, "_SEGMENT_CHUNK", chunk):
        np.testing.assert_array_equal(segments_blocked(s[:, :2], s[:, 2:], r), want)
    np.testing.assert_array_equal(segments_blocked(s[:, :2], s[:, 2:], r), want)


@pytest.mark.parametrize("preset", SCENARIO_PRESETS)
def test_pruned_blocking_equals_unpruned_on_preset_drop(monkeypatch, preset):
    """Every LOS test of one drop of each preset: the site links through
    SiteWedges, the UE-UE links through segments_blocked.  The association
    oracle cannot see a blocked() fault, since it goes through blocked() too."""
    wedge_blocked = SiteWedges.blocked
    site_calls, ue_calls = [], []

    def recording_wedges(self, site, points, azimuth_deg):
        site_calls.append((self, np.array(site), np.array(points), np.array(azimuth_deg)))
        return wedge_blocked(self, site, points, azimuth_deg)

    def recording(p0, p1, rects):
        ue_calls.append((np.array(p0), np.array(p1), rects))
        return segments_blocked(p0, p1, rects)

    exact_gains = channel.DropChannel.site_sector_gains_db
    exact_links = []

    def recording_exact(self, users, sites):
        exact_links.append((np.array(users), np.array(sites)))
        return exact_gains(self, users, sites)

    monkeypatch.setattr(SiteWedges, "blocked", recording_wedges)
    monkeypatch.setattr(channel.DropChannel, "site_sector_gains_db", recording_exact)
    monkeypatch.setattr(channel, "segments_blocked", recording)
    cfg = apply_scenario(ScenarioConfig(), preset)
    engine.build_drop(cfg, engine.drop_seed(0, 0))
    env = generate_environment(cfg)
    sites = set(map(tuple, env.site_wedges.sites))
    # both link kinds were tested, each through its own path
    assert site_calls and ue_calls
    assert not any(set(map(tuple, p1)) <= sites for _, p1, _ in ue_calls)
    n_site_links = n_blocked = 0
    for wedges, site, points, az in site_calls:
        assert wedges is env.site_wedges
        d = points - wedges.sites[site]
        np.testing.assert_array_equal(az, np.degrees(np.arctan2(d[:, 1], d[:, 0])))
        blocked = wedge_blocked(wedges, site, points, az)
        np.testing.assert_array_equal(
            blocked, unpruned_segments_blocked(points, wedges.sites[site], env.building_rects))
        n_blocked += blocked.sum()
        n_site_links += len(site)
    assert 0 < n_blocked < n_site_links
    # every in-reach site link that association evaluated exactly went
    # through the wedge path, and association pruned most site links
    users = np.concatenate([u for u, _ in exact_links])
    link_sites = np.concatenate([s for _, s in exact_links])
    xy = engine.drop_users(cfg, env, engine._stream(engine.drop_seed(0, 0), "users"))
    d = xy[users] - env.site_wedges.sites[link_sites]
    assert n_site_links == (np.hypot(d[:, 0], d[:, 1]) <= cfg.channel.los_max_distance_m).sum()
    assert len(users) < len(xy) * len(env.site_wedges.sites) // 4
    for p0, p1, rects in ue_calls:
        np.testing.assert_array_equal(segments_blocked(p0, p1, rects),
                                      unpruned_segments_blocked(p0, p1, rects))


def test_pruned_blocking_equals_unpruned_on_macro_scheme1_run_drop(monkeypatch):
    """Every UE-UE LOS call of one whole macro-scheme1 drop, both the D2D
    pass in build_drop and the scheduled cross-link pass in run_drop."""
    build_drop = engine.build_drop
    calls, phase = [], ["run_drop"]

    def recording(p0, p1, rects):
        calls.append((phase[0], np.array(p0), np.array(p1), rects))
        return segments_blocked(p0, p1, rects)

    def building(*args):
        phase[0] = "build_drop"
        try:
            return build_drop(*args)
        finally:
            phase[0] = "run_drop"

    monkeypatch.setattr(channel, "segments_blocked", recording)
    monkeypatch.setattr(engine, "build_drop", building)
    engine.run_drop(apply_scenario(ScenarioConfig(), "macro-scheme1"), engine.drop_seed(0, 0))
    assert {ph for ph, *_ in calls} == {"build_drop", "run_drop"}
    for _, p0, p1, rects in calls:
        want = unpruned_segments_blocked(p0, p1, rects)
        assert 0 < want.sum() < len(want)
        np.testing.assert_array_equal(segments_blocked(p0, p1, rects), want)


def test_blocking_chunk_without_candidate_rects():
    """The first chunk's segments lie far from every rect; the second
    chunk's cross one and miss one."""
    p0 = np.array([[500.0, 500.0], [600.0, 500.0], [0.0, 20.0], [0.0, 0.0]])
    p1 = np.array([[500.0, 600.0], [600.0, 600.0], [30.0, 20.0], [5.0, 40.0]])
    for chunk in (2, 1024):
        with mock.patch.object(geometry, "_SEGMENT_CHUNK", chunk):
            np.testing.assert_array_equal(segments_blocked(p0, p1, RECT),
                                          [False, False, True, False])


def test_blocking_chunk_boundary_between_segment_and_its_rect():
    """Each rect blocks one segment only, and each chunk size puts chunk
    boundaries between segments and rects of different indices."""
    rects = np.array([[10.0 * k, 0.0, 10.0 * k + 5.0, 5.0] for k in range(7)])
    x = 10.0 * np.arange(7) + 2.5
    p0 = np.column_stack([x, np.full(7, -1.0)])
    p1 = np.column_stack([x, np.full(7, 6.0)])
    p1[1::2] = p0[1::2] - [0.0, 1.0]  # odd segments stop short of their rect
    want = np.arange(7) % 2 == 0
    for chunk in range(1, 9):
        with mock.patch.object(geometry, "_SEGMENT_CHUNK", chunk):
            np.testing.assert_array_equal(segments_blocked(p0, p1, rects), want)
            np.testing.assert_array_equal(segments_blocked(p0, p1, rects[::-1]), want)


def test_blocking_without_rects():
    p = np.array([[0.0, 0.0], [15.0, 20.0]])
    for rects in (np.zeros((0, 4)), []):
        np.testing.assert_array_equal(segments_blocked(p, p[::-1], rects), [False, False])
    assert segments_blocked(np.zeros((0, 2)), np.zeros((0, 2)), RECT).shape == (0,)


@pytest.mark.parametrize("spread_m", [30.0, 400.0])
def test_segments_blocked_memory_is_bounded(spread_m):
    """20k segments over the hetnet buildings peak at ~1.4 MB (30 m) and
    ~1.7 MB (400 m) of numpy allocations: the (chunk x rects) masks and
    each chunk's candidate pairs, never all (segment, rect) pairs at once."""
    rects = generate_environment(apply_scenario(ScenarioConfig(), "hetnet")).building_rects
    rng = np.random.default_rng(0)
    p0 = rng.uniform(rects[:, :2].min(axis=0), rects[:, 2:].max(axis=0), size=(20_000, 2))
    p1 = p0 + rng.uniform(-spread_m, spread_m, size=p0.shape)
    tracemalloc.start()
    try:
        blocked = segments_blocked(p0, p1, rects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < blocked.sum() < len(blocked)
    assert peak < 4e6


def wedge_and_unpruned(sites, rects, users, reach):
    """SiteWedges.blocked and the unpruned slab test over every site-user
    link no longer than reach, with azimuths computed as DropChannel does."""
    wedges = SiteWedges(sites, rects, reach)
    site = np.repeat(np.arange(len(wedges.sites)), len(users))
    pts = np.tile(np.array(users, dtype=float).reshape(-1, 2), (len(wedges.sites), 1))
    d = pts - wedges.sites[site]
    keep = np.hypot(d[:, 0], d[:, 1]) <= reach
    site, pts, d = site[keep], pts[keep], d[keep]
    az = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    return (wedges.blocked(site, pts, az),
            unpruned_segments_blocked(pts, wedges.sites[site], np.reshape(rects, (-1, 4))))


@st.composite
def _wedge_site(draw, rects):
    """A free site, or one on an edge, on a corner or inside a drawn rect."""
    kind = draw(st.sampled_from(("free", "edge", "corner", "inside")))
    if kind == "free" or not rects:
        return (draw(_coord), draw(_coord))
    x0, y0, x1, y1 = draw(st.sampled_from(rects))
    if kind == "inside":
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    xs, ys = draw(st.sampled_from((x0, x1))), draw(st.sampled_from((y0, y1)))
    if kind == "corner":
        return (xs, ys)
    t = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return (min(max(x0 + t * (x1 - x0), x0), x1), ys)
    return (xs, min(max(y0 + t * (y1 - y0), y0), y1))


def _seam_wall(site, seam_deg, a, quarter):
    """A zero-width wall whose corner lies 2e-9 degrees short of the bin seam
    seam_deg (46..89) seen from site, and a user just past the seam whose
    link the wall blocks: the 1e-9 m band such a wall blocks leaks past the
    corner's direction.  quarter turns the case by 90-degree steps."""
    y1 = a * np.tan(np.radians(seam_deg - 2e-9))
    u = 3.0 * a * np.array([np.cos(np.radians(seam_deg + 1e-9)),
                            np.sin(np.radians(seam_deg + 1e-9))])
    wall = np.array([[a, 0.0], [a, y1]])
    for _ in range(quarter):  # (x, y) -> (-y, x) is exact
        wall, u = wall[:, ::-1] * [-1.0, 1.0], u[::-1] * [-1.0, 1.0]
    lo, hi = wall.min(axis=0) + site, wall.max(axis=0) + site
    return (lo[0], lo[1], hi[0], hi[1]), tuple(u + site)


@st.composite
def _wedge_case(draw):
    """(sites, rects, users, reach): sites on rect edges, corners and
    interiors; users at the sites, on bin seams, at +-180 degrees and past a
    seam behind a zero-width wall; reach sometimes exactly a link's length."""
    rects = draw(st.lists(_rect(), max_size=6))
    sites = draw(st.lists(_wedge_site(rects), min_size=1, max_size=3))
    users = draw(st.lists(st.tuples(_coord, _coord), max_size=12)) + list(sites)
    for sx, sy in sites:
        rho = draw(st.sampled_from((2.5, 7.5, 40.0)))
        seams = draw(st.lists(st.integers(-180, 180), max_size=4))
        users += [(sx + rho * np.cos(np.radians(t)), sy + rho * np.sin(np.radians(t)))
                  for t in seams]
        users += [(sx - rho, sy), (sx - rho, -0.0 if sy == 0.0 else sy)]  # +-180
    if draw(st.booleans()):
        rect, user = _seam_wall(np.array(sites[0]), draw(st.integers(46, 89)),
                                draw(st.floats(1.5, 20.0)), draw(st.integers(0, 3)))
        rects.append(rect)
        users.append(user)
    if draw(st.booleans()):  # the first site's link to some user is exactly reach long
        sx, sy = sites[0]
        ux, uy = draw(st.sampled_from(users))
        reach = float(np.hypot(ux - sx, uy - sy))
    else:
        reach = draw(st.floats(0.5, 120.0))
    return sites, rects, users, max(reach, 0.5)


@settings(max_examples=300, deadline=None)
@given(case=_wedge_case())
def test_site_wedges_equal_unpruned_slab_test(case):
    got, want = wedge_and_unpruned(*case)
    np.testing.assert_array_equal(got, want)


def test_site_wedges_exact_cases():
    """Blocked links of the edge cases the wedge table must not drop."""
    assert np.degrees(np.arctan2(-0.0, -20.0)) == -180.0
    walls = [_seam_wall(np.array([2.5, 5.0]), 64, 2.0, quarter) for quarter in range(4)]
    cases = [
        # azimuth exactly +180 and -180 (dy = -0.0) behind one building
        ([(0.0, 0.0)], [(-10.0, -1.0, -5.0, 1.0)], [(-20.0, 0.0), (-20.0, -0.0)], 20.0),
        # a site inside a building: the user at the site and one outside
        ([(0.0, 0.0)], [(-1.0, -1.0, 1.0, 1.0)], [(0.0, 0.0), (-3.0, 2.0)], 5.0),
        # a link exactly reach long through a building
        ([(0.0, 0.0)], [(5.0, -1.0, 6.0, 1.0)], [(10.0, 0.0)], 10.0),
        # a link ending in the band of a zero-width wall just beyond reach
        ([(0.0, 0.0)], [(10.0, -1.0, 10.0, 1.0)], [(10.0 - 5e-10, 0.0)], 10.0 - 5e-10),
        # zero-width walls blocking links just past a seam beyond their corner
        *(([(2.5, 5.0)], [rect], [user], 50.0) for rect, user in walls),
    ]
    for case in cases:
        got, want = wedge_and_unpruned(*case)
        assert want.all()
        np.testing.assert_array_equal(got, want)


def test_site_wedge_far_exact_case():
    """A wall 10-20 m east of the site, 100 m tall: links due east longer
    than its far corner plus 1 m are blocked."""
    wedges = SiteWedges([(0.0, 0.0)], [(10.0, -50.0, 20.0, 50.0)], 300.0)
    east = azimuth_bin(0.0)
    assert wedges.far[0, east] == np.hypot(20.0, 50.0) + 1.0
    assert wedges.far[0, azimuth_bin(180.0)] == np.inf  # nothing west within reach
    # the wall spans +-78.7 degrees, so the bins at its edges are not whole
    assert wedges.far[0, azimuth_bin(78.5)] == np.inf > wedges.far[0, azimuth_bin(77.5)]
    assert wedges.far[0, azimuth_bin(-78.5)] == np.inf > wedges.far[0, azimuth_bin(-77.5)]


@st.composite
def _table_case(draw):
    """(sites, rects, reach, seed): lattice rects and walls 0, 1 and 2
    _EDGE_EPS thick; sites free, on walls and corners and inside rects."""
    rects = draw(st.lists(_rect(), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        x0, y0, x1, y1 = draw(_rect())
        t = draw(st.sampled_from((0.0, _EDGE_EPS, 2 * _EDGE_EPS)))
        rects.append((x0, y0, x0 + t, y1) if draw(st.booleans()) else (x0, y0, x1, y0 + t))
    sites = draw(st.lists(_wedge_site(rects), min_size=1, max_size=3))
    reach = draw(st.sampled_from((5.0, 5000.0)) | st.floats(5.0, 5000.0))
    return sites, rects, reach, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=_table_case())
def test_site_wedge_far_agrees_with_slab_test(case):
    """Every link longer than its bin's far length is blocked by
    segments_blocked; blocked() equals segments_blocked within reach.  Links
    leave the site along each bin's lower edge and at a random azimuth
    inside it, at +-180 degrees, at far and one ulp either side, and at
    random lengths."""
    sites, rects, reach, seed = case
    wedges = SiteWedges(sites, rects, reach)
    rng = np.random.default_rng(seed)
    lo = np.arange(_WEDGE_BINS) - 180.0
    for i, site in enumerate(wedges.sites):
        ends = []
        for t in (0.0, rng.uniform(0.0, 1.0, _WEDGE_BINS)):
            unit = np.column_stack([np.cos(np.radians(lo + t)), np.sin(np.radians(lo + t))])
            for length in (np.minimum(wedges.far[i], 2.0 * reach),
                           rng.uniform(0.0, 1.5 * reach, _WEDGE_BINS)):
                for ulp in (-np.inf, None, np.inf):
                    d = length if ulp is None else np.nextafter(length, ulp)
                    ends.append(site + d[:, None] * unit)
        for d in (min(wedges.far[i, 0], 2.0 * reach), reach):
            ends.append(site + [[-d, 0.0], [-d, -0.0]])  # +180 and -180 exactly
        p = np.vstack(ends)
        dxy = p - site
        az = np.degrees(np.arctan2(dxy[:, 1], dxy[:, 0]))
        b = azimuth_bin(az)
        d2 = dxy[:, 0] * dxy[:, 0] + dxy[:, 1] * dxy[:, 1]
        want = segments_blocked(p, np.broadcast_to(site, p.shape), rects)
        assert want[d2 > wedges.far[i, b] ** 2].all()
        keep = np.hypot(dxy[:, 0], dxy[:, 1]) <= reach
        np.testing.assert_array_equal(
            wedges.blocked(np.full(keep.sum(), i), p[keep], az[keep]), want[keep])


@st.composite
def _sector_config(draw):
    """A single grid whose macro and micro sites have drawn sector counts,
    rotations, antennas, powers and offsets."""
    base = ScenarioConfig()

    def site(params):
        antenna = AntennaPattern(
            max_gain_dbi=draw(st.floats(-10.0, 30.0)),
            beamwidth_deg=draw(st.sampled_from([65.0, 360.0, 1e-3]) | st.floats(1e-3, 720.0)),
            front_to_back_db=draw(st.sampled_from([0.0, 25.0]) | st.floats(0.0, 1000.0)))
        return dataclasses.replace(
            params, sectors_per_site=draw(st.integers(1, 6)),
            sector_rotation_deg=draw(st.sampled_from([0.0, 45.0, 90.0]) | st.floats(0.0, 360.0)),
            dl_power_dbm=draw(st.floats(0.0, 60.0)),
            selection_offset_db=draw(st.floats(-60.0, 60.0)), antenna=antenna)

    return tiny_config(micro_enabled=True, macro=site(base.macro), micro=site(base.micro))


@settings(max_examples=100, deadline=None)
@given(cfg=_sector_config(), seed=st.integers(0, 2 ** 32 - 1))
def test_site_bin_bound_tops_every_sector(cfg, seed):
    """Each (site, bin) power ceiling is at least every sector's dl_power +
    selection_offset + antenna gain at both edges of the bin, at +180 for
    bin 0, and at random azimuths inside it, and never above the site's
    bound over all azimuths."""
    env = generate_environment(cfg)
    lo = np.arange(_WEDGE_BINS) - 180.0
    inside = lo + np.random.default_rng(seed).uniform(0.0, 1.0, (8, _WEDGE_BINS))
    az = np.concatenate([lo, lo + 1.0, [180.0], inside.ravel()])
    b = np.concatenate([np.arange(_WEDGE_BINS), np.arange(_WEDGE_BINS), [0],
                        np.tile(np.arange(_WEDGE_BINS), 8)])
    for s in env.sectors:
        power = (s.dl_power_dbm + s.selection_offset_db
                 + channel.antenna_gain_db(s.antenna, az - s.boresight_deg))
        assert (power <= env.site_bin_bound_db[s.site_id, b]).all()
    assert (env.site_bin_bound_db <= env.site_bound_db).all()


def test_site_bound_is_each_kinds_peak_power():
    """site_bound_db, the row maximum of the bin table, is bit for bit
    dl_power + selection_offset + max antenna gain of the site's kind (each
    sector's boresight bin reaches the peak gain, and no bin tops it), on
    the presets and on seeded random sites."""
    rng = np.random.default_rng(30)
    base = ScenarioConfig()

    def site(params):
        antenna = AntennaPattern(
            max_gain_dbi=float(rng.uniform(-10.0, 30.0)),
            beamwidth_deg=float(rng.choice([1e-3, 1e4, 10.0 ** rng.uniform(-3.0, 4.0)])),
            front_to_back_db=float(rng.choice([0.0, rng.uniform(0.0, 100.0)])))
        return dataclasses.replace(
            params, sectors_per_site=int(rng.integers(1, RANGES["sectors_per_site"][1] + 1)),
            sector_rotation_deg=float(rng.choice([0.0, 45.0, rng.uniform(-1e3, 1e3)])),
            dl_power_dbm=float(rng.uniform(0.0, 60.0)),
            selection_offset_db=float(rng.uniform(-60.0, 60.0)), antenna=antenna)

    cfgs = [apply_scenario(base, name) for name in SCENARIO_PRESETS]
    cfgs += [tiny_config(micro_enabled=True, macro=site(base.macro), micro=site(base.micro))
             for _ in range(150)]
    for cfg in cfgs:
        validate_config(cfg)
        env = generate_environment(cfg)
        for i, first in enumerate(env.site_sectors[:-1]):
            p = cfg.macro if env.sectors[first].kind == "macro" else cfg.micro
            want = p.dl_power_dbm + p.selection_offset_db + p.antenna.max_gain_dbi
            assert float(env.site_bound_db[i, 0]).hex() == want.hex()


_BOUNDS = (-20.0, -10.0, 300.0, 200.0)
_LATTICE_M = 64.0
# Rect edges and points on a 32 m lattice from the corner of _BOUNDS and a
# 7.5 m one from 0, so points fall on edges, corners and shared lattice
# lines; free floats cover general position, and some fall outside the
# bounds.
_bcoord = st.one_of(st.integers(-2, 2 * int(320 / _LATTICE_M) + 2).map(
                        lambda v: -20.0 + v * _LATTICE_M / 2),
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


@st.composite
def _slot_cases(draw):
    """Bounds, some wide enough to meet the cell cap, with rects (some of
    zero width or height) and points whose coordinates lie on the table's
    cell seams, at free positions or outside the bounds."""
    extent = st.sampled_from([1.0, 387.0, 4096.0, 1e7]) | st.floats(0.5, 1e12)
    lo = np.array([draw(st.floats(-1e4, 1e4)) for _ in range(2)])
    bounds = (*lo, *(lo + [draw(extent), draw(extent)]))
    empty = RectBuckets(np.empty((0, 4)), bounds)  # its cells depend on the bounds alone

    def coord(a):
        return st.one_of(  # a seam, some beyond the bounds, or a free position
            st.integers(-3, int(empty.shape[a]) + 3).map(
                lambda i: empty.origin[a] + i * empty.side[a]),
            st.floats(-0.2, 1.2).map(lambda f: bounds[a] + f * (bounds[a + 2] - bounds[a])))

    x, y = coord(0), coord(1)
    flat = st.sampled_from(["x", "y", "both", None])
    rects = []
    for _ in range(draw(st.integers(0, 8))):
        x0, x1 = sorted([draw(x), draw(x)])
        y0, y1 = sorted([draw(y), draw(y)])
        f = draw(flat)
        rects.append((x0, y0, x0 if f in ("x", "both") else x1, y0 if f in ("y", "both") else y1))
    pts = draw(st.lists(st.tuples(x, y), max_size=30))
    return bounds, np.array(rects, dtype=float).reshape(-1, 4), np.array(pts).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(_slot_cases())
def test_rect_buckets_equal_all_rects_test_on_cell_seams_and_edges(case):
    """The slot table against the closed test on its own boundaries: cell
    seams, rect edges and corners and one ulp to either side of them, zero-
    width rects, points outside the bounds, and bounds wide enough that the
    cells grow past _CELL_M to stay within _MAX_CELLS per axis."""
    bounds, r, p = case
    corners = np.vstack([r[:, [0, 1]], r[:, [2, 3]], r[:, [0, 3]], r[:, [2, 1]]])
    up, down = np.nextafter(corners, np.inf), np.nextafter(corners, -np.inf)
    p = np.vstack([p, corners, up, down, np.column_stack([up[:, 0], down[:, 1]]),
                   np.column_stack([down[:, 0], up[:, 1]]),
                   [bounds[:2], bounds[2:], [-1e300, 0.0], [1e300, 1e300]]])
    buckets = RectBuckets(r, bounds)
    assert (buckets.shape <= _MAX_CELLS).all()
    assert all(len(s) == n for s, n in zip(buckets.cell_slot, buckets.shape))
    np.testing.assert_array_equal(buckets.contains(p), points_in_rects(p, r))


def test_rect_buckets_on_hetnet_footprints():
    env = generate_environment(apply_scenario(ScenarioConfig(), "hetnet"))
    r = env.building_rects
    pts = np.random.default_rng(2).uniform(env.bounds[:2], env.bounds[2:], size=(20000, 2))
    pts = np.vstack([pts, r[:, :2], r[:, 2:], r[:, [0, 3]], r[:, [2, 1]]])
    buckets = env.buckets  # the environment's table, built once per config
    assert buckets.bounds == env.bounds
    # one slot per distinct edge and one per gap along each axis, and 1 m
    # cells of which few hold an edge
    assert buckets.table.shape == (37, 73) == tuple(2 * len(np.unique(r[:, [a, a + 2]])) + 1
                                                    for a in (0, 1))
    np.testing.assert_array_equal(buckets.side, 1.0)
    for a in (0, 1):
        assert len(buckets.cell_slot[a]) == buckets.shape[a] == int(np.ceil(
            env.bounds[2 + a] - env.bounds[a]))
        assert (buckets.cell_slot[a] < 0).sum() <= len(buckets.edges[a])
    np.testing.assert_array_equal(buckets.contains(pts), points_in_rects(pts, r))
    fresh = RectBuckets(r, env.bounds)
    np.testing.assert_array_equal(fresh.table, buckets.table)
    for a in (0, 1):
        np.testing.assert_array_equal(fresh.cell_slot[a], buckets.cell_slot[a])


def test_sample_outdoor_points_avoids_obstacles(rng):
    bounds = (0.0, 0.0, 50.0, 50.0)
    pts = sample_outdoor_points(500, RectBuckets(RECT, bounds), rng)
    assert pts.shape == (500, 2)
    assert (pts[:, 0] >= 0).all() and (pts[:, 0] <= 50).all()
    assert (pts[:, 1] >= 0).all() and (pts[:, 1] <= 50).all()
    assert not points_in_rects(pts, RECT).any()


def test_sample_outdoor_points_deterministic():
    buckets = RectBuckets(RECT, (0, 0, 50, 50))
    a = sample_outdoor_points(100, buckets, np.random.default_rng(3))
    b = sample_outdoor_points(100, buckets, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_sample_outdoor_points_zero_count(rng):
    assert sample_outdoor_points(0, RectBuckets(RECT, (0, 0, 1, 1)), rng).shape == (0, 2)


def test_sample_outdoor_points_dense_obstacles_raises(rng):
    full = np.array([[0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(RuntimeError):
        sample_outdoor_points(10, RectBuckets(full, (0.0, 0.0, 1.0, 1.0)), rng)


def _sparse_buckets():
    """A 100 m square tiled by 10 m cells, each holding a 9.75 m building, so
    about 5% of the area is outdoors and a draw takes many rounds."""
    corner = np.arange(10) * 10.0
    rects = np.array([(x, y, x + 9.75, y + 9.75) for x in corner for y in corner])
    return RectBuckets(rects, (0.0, 0.0, 100.0, 100.0))


def _count_contains(buckets):
    """Make buckets.contains append the size of each call to the list returned."""
    calls, contains = [], buckets.contains
    buckets.contains = lambda points: calls.append(len(points)) or contains(points)
    return calls


def _assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("count", [0, 1, 17])
def test_sample_outdoor_points_equal_round_by_round_reference(count):
    buckets = RectBuckets(RECT, (0.0, 0.0, 50.0, 50.0))
    for seed in range(20):
        _assert_bits_equal(
            sample_outdoor_points(count, buckets, np.random.default_rng(seed)),
            sample_outdoor_points_by_rounds(count, buckets, np.random.default_rng(seed)))


@pytest.mark.parametrize("preset", ["macro-scheme1", "hetnet"])
def test_drop_users_equal_round_by_round_reference(preset):
    """drop_users' Poisson count, then the sampler, on the preset's layout."""
    cfg = apply_scenario(ScenarioConfig(), preset)
    env = generate_environment(cfg)
    xmin, ymin, xmax, ymax = env.bounds
    for seed in range(3):
        rng = np.random.default_rng(seed)
        count = int(rng.poisson(cfg.user_density_per_km2 * (xmax - xmin) * (ymax - ymin) * 1e-6))
        want = sample_outdoor_points_by_rounds(count, env.buckets, rng)
        assert len(want) > 1000
        _assert_bits_equal(drop_users(cfg, env, np.random.default_rng(seed)), want)


def test_sample_outdoor_points_equal_reference_over_many_rounds():
    buckets = _sparse_buckets()
    calls = _count_contains(buckets)
    got = sample_outdoor_points(2000, buckets, np.random.default_rng(5))
    batches = len(calls)
    want = sample_outdoor_points_by_rounds(2000, buckets, np.random.default_rng(5))
    _assert_bits_equal(got, want)
    assert len(calls) - batches > 30 and batches > 3  # rounds, batches


def test_sample_outdoor_points_gives_up_after_the_same_rounds():
    """With the cap at the rounds the reference needs the draw succeeds, one
    round fewer it raises."""
    buckets = _sparse_buckets()
    calls = _count_contains(buckets)
    want = sample_outdoor_points_by_rounds(300, buckets, np.random.default_rng(9))
    rounds = len(calls)
    assert rounds > 10
    with mock.patch.object(geometry, "_SAMPLE_ROUNDS", rounds):
        _assert_bits_equal(sample_outdoor_points(300, buckets, np.random.default_rng(9)), want)
    with mock.patch.object(geometry, "_SAMPLE_ROUNDS", rounds - 1), \
            pytest.raises(RuntimeError, match="failed to converge"):
        sample_outdoor_points(300, buckets, np.random.default_rng(9))


@pytest.mark.parametrize("layout", ["macro-scheme1", "sparse"])
def test_sample_outdoor_points_memory_stays_near_reference(layout):
    """The batches ahead hold at most about three rounds' points; measured
    peaks at 10^5 points are 15.8 / 7.2 MB (macro-scheme1) and 18.6 / 7.5 MB
    (sparse) for the program / the reference."""
    buckets = (_sparse_buckets() if layout == "sparse" else
               generate_environment(apply_scenario(ScenarioConfig(), layout)).buckets)
    peaks = []
    for sample in (sample_outdoor_points, sample_outdoor_points_by_rounds):
        tracemalloc.start()
        try:
            sample(10 ** 5, buckets, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3 * peaks[1]
