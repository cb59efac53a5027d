"""Deployment generation: grid layout, sites, user drops, pairing, association."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from d2dsim import scenario
from d2dsim.channel import LINK_CLASS, DropChannel, site_key
from d2dsim.config import (RANGES, SCENARIO_PRESETS, ScenarioConfig, apply_scenario,
                           validate_config)
from d2dsim.engine import _STREAMS, _stream, drop_seed
from d2dsim.scenario import (MAIN_STREET_Y, associate_users, drop_users,
                             exhaustive_association, generate_environment, pair_users)
from conftest import tiny_config
from reference import points_in_rects


def env_for(cfg):
    return generate_environment(cfg)


def test_single_grid_block_count():
    env = env_for(tiny_config())
    assert env.building_rects.shape == (15, 4)
    w, h = env.width_m, env.height_m
    assert env.bounds == (0.0, 0.0, w, h)


def test_replica_tiling():
    env = env_for(dataclasses.replace(tiny_config(), replica_rings=1))
    assert env.building_rects.shape == (9 * 15, 4)
    # central grid first
    np.testing.assert_array_equal(env.building_rects[:15], env_for(tiny_config()).building_rects)
    xmin, ymin, xmax, ymax = env.bounds
    assert (xmin, ymin) == (-env.width_m, -env.height_m)
    assert (xmax, ymax) == (2 * env.width_m, 2 * env.height_m)


def test_environment_deterministic():
    a = env_for(tiny_config())
    b = env_for(tiny_config())
    np.testing.assert_array_equal(a.building_rects, b.building_rects)


def test_macro_only_sector_layout():
    cfg = tiny_config()
    env = env_for(cfg)
    assert len(env.sectors) == 3
    assert {s.kind for s in env.sectors} == {"macro"}
    assert sorted(s.boresight_deg for s in env.sectors) == [90.0, 210.0, 330.0]
    street_mid = 0.5 * (MAIN_STREET_Y[0] + MAIN_STREET_Y[1])
    for s in env.sectors:
        assert tuple(env.site_wedges.sites[s.site_id]) == (cfg.grid_width_m / 2, street_mid)
        assert s.bandwidth_hz == cfg.macro.uplink_bandwidth_hz


def test_hetnet_sector_layout():
    cfg = tiny_config(micro_enabled=True)
    env = env_for(cfg)
    macro = [s for s in env.sectors if s.kind == "macro"]
    micro = [s for s in env.sectors if s.kind == "micro"]
    assert len(macro) == 3 and len(micro) == 3 * 2
    assert sorted({s.boresight_deg for s in micro}) == [0.0, 180.0]  # along the street
    w = cfg.grid_width_m
    sites = env.site_wedges.sites
    xs = sorted({sites[s.site_id, 0] for s in micro})
    np.testing.assert_allclose(xs, [w / 6, w / 2, 5 * w / 6])
    street_mid = 0.5 * (MAIN_STREET_Y[0] + MAIN_STREET_Y[1])
    assert {sites[s.site_id, 1] for s in micro} == {street_mid - 3.75}
    # ids contiguous, site ids distinct per site
    assert [s.sector_id for s in env.sectors] == list(range(9))
    assert len({s.site_id for s in env.sectors}) == 4


def test_sector_ids_ascend_over_replicas():
    env = env_for(dataclasses.replace(tiny_config(micro_enabled=True), replica_rings=1))
    assert [s.sector_id for s in env.sectors] == list(range(9 * 9))


def test_drop_users_fixed_count_outdoor():
    cfg = tiny_config(fixed_user_count=60)
    env = env_for(cfg)
    xy = drop_users(cfg, env, np.random.default_rng(2))
    assert xy.shape == (60, 2) and xy.dtype == np.float64
    assert not points_in_rects(xy, env.building_rects).any()
    assert ((xy >= 0.0) & (xy < (env.width_m, env.height_m))).all()  # central grid


def test_drop_users_poisson_mean():
    cfg = tiny_config(fixed_user_count=None)
    env = env_for(cfg)
    counts = [len(drop_users(cfg, env, np.random.default_rng(s))) for s in range(40)]
    area_km2 = cfg.grid_width_m * cfg.grid_height_m * 1e-6
    expected = cfg.user_density_per_km2 * area_km2  # ~214 per grid
    assert abs(np.mean(counts) - expected) < 4 * np.sqrt(expected / 40)


def link_lengths(xy, pairs):
    return np.hypot(*(xy[pairs[:, 0]] - xy[pairs[:, 1]]).T)


def assert_valid_pairing(xy, pairs, max_distance_m):
    """(tx, rx) rows: lower id transmits, ends disjoint, links within reach."""
    assert pairs.dtype == int and pairs.ndim == 2 and pairs.shape[1] == 2
    assert (pairs[:, 0] < pairs[:, 1]).all()  # scan order makes the lower id transmit
    assert (np.diff(pairs[:, 0]) > 0).all()  # pair ids ascend with the tx user
    assert (link_lengths(xy, pairs) <= max_distance_m).all()
    cellular = np.ones(len(xy), dtype=bool)
    cellular[pairs] = False
    assert (~cellular).sum() == 2 * len(pairs)  # no user ends two pairs


def test_pair_users_basic_properties():
    cfg = tiny_config(fixed_user_count=80, d2d_fraction=0.8)
    env = env_for(cfg)
    xy = drop_users(cfg, env, np.random.default_rng(4))
    pairs = pair_users(cfg, xy, np.random.default_rng(5))
    assert len(pairs), "expected at least one pair at this density"
    assert_valid_pairing(xy, pairs, cfg.max_pair_distance_m)


def test_pair_users_zero_fraction():
    cfg = tiny_config(fixed_user_count=50, d2d_fraction=0.0)
    env = env_for(cfg)
    xy = drop_users(cfg, env, np.random.default_rng(4))
    pairs = pair_users(cfg, xy, np.random.default_rng(5))
    assert pairs.shape == (0, 2) and pairs.dtype == int


def test_pair_users_respects_distance_cap():
    cfg = tiny_config(fixed_user_count=200, d2d_fraction=1.0, max_pair_distance_m=5.0)
    env = env_for(cfg)
    xy = drop_users(cfg, env, np.random.default_rng(6))
    pairs = pair_users(cfg, xy, np.random.default_rng(7))
    assert_valid_pairing(xy, pairs, 5.0)


def pair_users_loop(cfg, xy, rng):
    """Frozen reference: the per-user query_ball_tree loop pair_users replaced."""
    n = len(xy)
    k = int(round(cfg.d2d_fraction * n))
    if k < 2:
        return np.zeros((0, 2), dtype=int)
    eligible = np.sort(rng.permutation(n)[:k])
    pos = xy[eligible]
    tree = cKDTree(pos)
    neighbours = tree.query_ball_tree(tree, r=cfg.max_pair_distance_m)
    paired = np.zeros(k, dtype=bool)
    pairs = []
    for a in range(k):
        if paired[a]:
            continue
        cands = [b for b in neighbours[a] if b != a and not paired[b]]
        if not cands:
            continue
        d = np.hypot(pos[cands, 0] - pos[a, 0], pos[cands, 1] - pos[a, 1])
        b = cands[int(np.argmin(d))]
        paired[a] = paired[b] = True
        pairs.append((eligible[a], eligible[b]))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def assert_pairing_matches_loop(cfg, xy, make_rng):
    before = xy.copy()
    got = pair_users(cfg, xy, make_rng())
    want = pair_users_loop(cfg, xy, make_rng())
    assert got.dtype == int and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(xy, before)  # positions are only read
    if int(round(cfg.d2d_fraction * len(xy))) < 2:
        assert got.shape == (0, 2)


@st.composite
def pairing_layouts(draw):
    """User positions with distance ties, duplicates and points at exactly r."""
    r = draw(st.sampled_from([35.0, 7.5, 1.0, 0.3, 0.1]))
    count = draw(st.integers(0, 60))
    layout = draw(st.sampled_from(["grid", "duplicates", "scattered"]))
    if layout == "grid":  # spacing r: neighbours sit on the boundary
        cells = st.tuples(st.integers(0, 6), st.integers(0, 6))
        pts = [(i * r, j * r) for i, j in draw(st.lists(cells, min_size=count,
                                                        max_size=count))]
    elif layout == "duplicates":
        coord = st.floats(0.0, 3.0 * r, allow_nan=False)
        sites = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
        pts = draw(st.lists(st.sampled_from(sites), min_size=count, max_size=count))
    else:
        coord = st.floats(-10.0 * r, 10.0 * r, allow_nan=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=count, max_size=count))
    fraction = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    cfg = dataclasses.replace(ScenarioConfig(), d2d_fraction=fraction,
                              max_pair_distance_m=r)
    xy = np.array(pts, dtype=float).reshape(-1, 2)
    return cfg, xy, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(pairing_layouts())
def test_pair_users_matches_loop(case):
    cfg, xy, seed = case
    assert_pairing_matches_loop(cfg, xy, lambda: np.random.default_rng(seed))


@pytest.mark.parametrize("preset", ["macro-scheme1", "hetnet"])
def test_pair_users_matches_loop_on_real_drops(preset):
    cfg = apply_scenario(ScenarioConfig(), preset)
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, _stream(0, "users"))
    assert_pairing_matches_loop(cfg, xy, lambda: _stream(0, "pairing"))


@st.composite
def shared_neighbour_layouts(draw):
    """Many eligible users around a few hubs listed last, so that scanning
    users find their first choice (the hub) taken and fall back to the
    others, which sit on a lattice around it at exactly tied distances."""
    r = draw(st.sampled_from([35.0, 7.5, 1.0, 0.3]))
    step = r / draw(st.sampled_from([2, 3, 4]))
    hubs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                         max_size=3))
    offset = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda o: o != (0, 0))
    spokes = [(hx * 4 + i, hy * 4 + j)
              for hx, hy in hubs
              for i, j in draw(st.lists(offset, min_size=1, max_size=16))]
    xy = np.array(spokes + [(4 * hx, 4 * hy) for hx, hy in hubs], dtype=float) * step
    fraction = draw(st.sampled_from([1.0]) | st.floats(0.5, 1.0))
    cfg = dataclasses.replace(ScenarioConfig(), d2d_fraction=fraction, max_pair_distance_m=r)
    return cfg, xy, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(shared_neighbour_layouts())
def test_pair_users_matches_loop_when_first_choices_are_taken(case):
    cfg, xy, seed = case
    assert_pairing_matches_loop(cfg, xy, lambda: np.random.default_rng(seed))


def test_pair_users_falls_back_past_a_taken_hub():
    """Users 0-3 all have the hub (4) as nearest.  0 takes it; 1 falls back
    to 2 and 3, tied at sqrt(2), and takes 2, the lower id; 3 stays alone."""
    xy = np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)])
    cfg = dataclasses.replace(ScenarioConfig(), d2d_fraction=1.0, max_pair_distance_m=2.0)
    pairs = pair_users(cfg, xy, np.random.default_rng(0))
    np.testing.assert_array_equal(pairs, [[0, 4], [1, 2]])
    assert_pairing_matches_loop(cfg, xy, lambda: np.random.default_rng(0))


def assert_association_exact(xy, env, ch):
    """Serving ids and serving gains equal the exhaustive reference bit for
    bit; returns the serving ids."""
    serving, gain = associate_users(xy, env, ch)
    want, want_gain = exhaustive_association(ch)
    np.testing.assert_array_equal(serving, want)
    np.testing.assert_array_equal(gain.view(np.int64), want_gain.view(np.int64))
    return serving


def test_associate_users_picks_strongest_biased_power():
    """A user exactly on the bisector of two sectors of one site ties on
    power and goes to the lower id; just off it, the nearer boresight wins."""
    macro = dataclasses.replace(ScenarioConfig().macro, sectors_per_site=4,
                                sector_rotation_deg=45.0)  # boresights 45, 135, 225, 315
    env = env_for(tiny_config(macro=macro))
    xy = env.site_wedges.sites[0] + np.array(
        [[-50.0, 0.0], [50.0, 0.0], [0.0, 50.0], [-50.0, 1.0], [-50.0, -1.0]])
    ch = DropChannel(env, 3, xy)
    gains = np.array([ch.user_sector_gain_db(slice(None), s) for s in env.sectors])
    assert gains[1, 0] == gains[2, 0]  # azimuth 180: sectors 1 and 2 tie
    assert gains[3, 1] == gains[0, 1]  # azimuth 0: sectors 3 and 0 tie
    assert gains[0, 2] == gains[1, 2]  # azimuth 90: sectors 0 and 1 tie
    serving, gain = associate_users(xy, env, ch)
    np.testing.assert_array_equal(serving, [1, 0, 0, 1, 2])
    np.testing.assert_array_equal(gain, gains[serving, np.arange(len(xy))])


def test_associate_bias_changes_choice():
    """The micro selection_offset_db moves users from macro to micro sectors."""
    cfg = tiny_config(micro_enabled=True)
    unbiased = dataclasses.replace(cfg, micro=dataclasses.replace(cfg.micro,
                                                                  selection_offset_db=0.0))
    xy = drop_users(cfg, env_for(cfg), np.random.default_rng(8))
    picks = []
    for c in (unbiased, cfg):
        env = env_for(c)
        picks.append(assert_association_exact(xy, env, DropChannel(env, 5, xy)))
    kinds = np.array([s.kind for s in env.sectors])
    flipped = picks[0] != picks[1]
    assert cfg.micro.selection_offset_db == 15.0 and flipped.any()
    assert (kinds[picks[0][flipped]] == "macro").all()
    assert (kinds[picks[1][flipped]] == "micro").all()


def test_associate_users_tie_across_sites_goes_to_lower_id():
    """A lower-id site evaluated after the best-bound site, because its
    bound is smaller, still wins an exact tie."""
    cfg = tiny_config(micro_enabled=True)
    env = env_for(cfg)
    site_of = np.array([s.site_id for s in env.sectors])

    class TiedSites(DropChannel):
        # every sector of sites 0 and 1 reaches biased power 100 exactly (all
        # terms are integers), every other sector 40; site 1 is bounded higher
        def site_power_bound_db(self, users):
            bound = np.full((len(env.site_wedges.sites), len(users)), 50.0)
            bound[0], bound[1] = 110.0, 120.0
            return bound

        def site_sector_gains_db(self, users, sites):
            _, sector = super().site_sector_gains_db(users, sites)
            power = np.where(site_of[sector] <= 1, 100.0, 40.0)
            return power - env.sector_dl_dbm[sector] - env.sector_offset_db[sector], sector

    xy = drop_users(cfg, env, np.random.default_rng(4))[:5]
    serving, gain = associate_users(xy, env, TiedSites(env, 0, xy))
    assert env.site_sectors[1] > 1  # site 1's sectors have higher ids than sector 0
    np.testing.assert_array_equal(serving, 0)
    np.testing.assert_array_equal(gain, 100.0 - env.sectors[0].dl_power_dbm)


@pytest.mark.parametrize("preset", SCENARIO_PRESETS)
def test_associate_users_bit_equals_exhaustive_on_real_drops(preset):
    cfg = apply_scenario(ScenarioConfig(), preset)
    env = env_for(cfg)
    for d in range(2):
        seed = drop_seed(1, d)
        xy = drop_users(cfg, env, _stream(seed, "users"))
        channel = DropChannel(env, drop_seed(seed, _STREAMS["shadow"]), xy)
        assert_association_exact(xy, env, channel)


# Exact-evaluated (user, site) links per user over the two drops above:
# 1.5313 (both macro presets) and 3.1000 (hetnet) with the exact shadowing in
# the site bound, 1.5336 and 3.0992 with its 4096-bin quantile ceiling, and
# 1.3297 and 1.6494 once links within reach take their azimuth bin's power
# ceiling and, beyond the bin's far length, NLOS.
@pytest.mark.parametrize("preset, most", [("macro-scheme1", 1.34), ("macro-scheme2", 1.34),
                                          ("hetnet", 1.66)])
def test_association_evaluates_few_sites_per_user_on_real_drops(monkeypatch, preset, most):
    """The bit-exact oracle cannot see a bound that prunes too little; count
    the (user, site) links the exact stage is handed."""
    links = []
    strongest = scenario._strongest

    def counted(channel, env, users, sites):
        links.append(len(users))
        return strongest(channel, env, users, sites)

    monkeypatch.setattr(scenario, "_strongest", counted)
    cfg = apply_scenario(ScenarioConfig(), preset)
    env = env_for(cfg)
    n = 0
    for d in range(2):
        seed = drop_seed(1, d)
        xy = drop_users(cfg, env, _stream(seed, "users"))
        associate_users(xy, env, DropChannel(env, drop_seed(seed, _STREAMS["shadow"]), xy))
        n += len(xy)
    assert len(links) == 4 and sum(links) / n <= most


@st.composite
def association_cases(draw):
    """Adversarial single- and nine-grid configs, with users on, within 1 m
    of, and far from the sites, on azimuth-bin edges, and at bins' far
    lengths."""
    base = ScenarioConfig()
    sigma = draw(st.sampled_from([0.0, 20.0]) | st.floats(0.0, 20.0))

    def site(params):
        return dataclasses.replace(
            params, sectors_per_site=draw(st.integers(1, 4)),
            sector_rotation_deg=draw(st.sampled_from([0.0, 45.0]) | st.floats(0.0, 360.0)),
            selection_offset_db=draw(st.sampled_from([0.0, -60.0, 60.0])
                                     | st.floats(-60.0, 60.0)))

    def link(params):
        return dataclasses.replace(params, shadow_sigma_db=sigma)

    channel = dataclasses.replace(
        base.channel, macro_link=link(base.channel.macro_link),
        micro_link=link(base.channel.micro_link), min_distance_m=0.1,
        los_max_distance_m=draw(st.sampled_from([5.0, 5000.0]) | st.floats(5.0, 5000.0)))
    cfg = tiny_config(micro_enabled=True, replica_rings=draw(st.sampled_from([0, 1])),
                      macro=site(base.macro), micro=site(base.micro), channel=channel)
    env = env_for(cfg)
    sites = env.site_wedges.sites
    xmin, ymin, xmax, ymax = env.bounds
    which = st.integers(0, len(sites) - 1)
    on = [sites[i] for i in draw(st.lists(which, max_size=4))]
    near = [sites[i] + (dx, dy) for i, dx, dy in draw(st.lists(st.tuples(
        which, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)), max_size=8))]
    far = draw(st.lists(st.tuples(st.floats(xmin, xmax), st.floats(ymin, ymax)), max_size=20))
    # users on azimuth-bin edges, and at a bin's far length from its site
    # (one ulp either side too), where the site bound is tightest
    wedges = env.site_wedges
    edges = []
    for i, b, kind, t, ulp in draw(st.lists(st.tuples(
            which, st.integers(0, 359), st.sampled_from(("edge", "far")),
            st.floats(0.0, 1.0), st.sampled_from((-1, 0, 1))), max_size=10)):
        dist = {"edge": wedges.reach * t,
                "far": min(wedges.far[i, b], 2.0 * wedges.reach)}[kind]
        angle = np.radians(b - 180.0 + (0.0 if kind == "edge" else t))
        dist = np.nextafter(dist, ulp * np.inf) if ulp else dist
        edges.append(sites[i] + dist * np.array([np.cos(angle), np.sin(angle)]))
    xy = np.array(on + near + far + edges, dtype=float).reshape(-1, 2)
    return env, xy, draw(st.integers(0, 2 ** 64 - 1))


@settings(max_examples=80, deadline=None)
@given(association_cases())
def test_associate_users_bit_equals_exhaustive_on_adversarial_configs(case):
    env, xy, shadow_seed = case
    assert_association_exact(xy, env, DropChannel(env, shadow_seed, xy))


def test_associate_users_memory_stays_slabbed():
    """The site pass builds its (sites x users) links a few sites at a time:
    association on a hetnet drop peaks at ~2.4 MB of numpy allocations,
    against ~7 MB for one unslabbed block."""
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    seed = drop_seed(0, 0)
    env = env_for(cfg)
    xy = drop_users(cfg, env, _stream(seed, "users"))
    channel = DropChannel(env, drop_seed(seed, _STREAMS["shadow"]), xy)
    tracemalloc.start()
    try:
        associate_users(xy, env, channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_environment_build_memory_is_bounded():
    """Building the hetnet environment and its wedge table from (site, rect)
    bin ranges peaks at ~2.6 MB of numpy allocations; one (sites x rects x
    bins) int64 broadcast alone would take 14 MB."""
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    tracemalloc.start()
    try:
        env = generate_environment.__wrapped__(cfg)  # a fresh build, past the memo
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(env.site_wedges.sites) == 36
    assert peak < 4e6


def test_environment_build_memory_is_bounded_at_the_site_caps():
    """At the most micro sites per grid and sectors per site that RANGES
    allows, the hetnet environment (297 sites) builds at ~23 MB of numpy
    allocations; its memory grows by ~0.7 MB per micro site per grid."""
    micro_sites, sectors = RANGES["micro_sites_per_grid"][1], RANGES["sectors_per_site"][1]
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    cfg = dataclasses.replace(
        cfg, micro_sites_per_grid=micro_sites,
        macro=dataclasses.replace(cfg.macro, sectors_per_site=sectors),
        micro=dataclasses.replace(cfg.micro, sectors_per_site=sectors))
    validate_config(cfg)
    tracemalloc.start()
    try:
        env = generate_environment.__wrapped__(cfg)  # a fresh build, past the memo
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(env.site_wedges.sites) == 9 * (1 + micro_sites)
    assert len(env.sectors) == len(env.site_wedges.sites) * sectors
    assert peak < 32e6


def test_environment_memory_is_bounded_on_a_large_grid():
    """A valid config with 24 km x 24 km grids (72 km across its replicas)
    builds its environment, outdoor table included, at ~0.3 MB of numpy
    allocations; a (64 m cell x rect) mask over this area would take 342 MB."""
    cfg = dataclasses.replace(apply_scenario(ScenarioConfig(), "macro-scheme1"),
                              grid_width_m=24000.0, grid_height_m=24000.0,
                              user_density_per_km2=1.0)
    validate_config(cfg)
    tracemalloc.start()
    try:
        env = generate_environment.__wrapped__(cfg)  # a fresh build, past the memo
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    np.testing.assert_array_equal(env.buckets.shape, 4096)  # cells of 72000 / 4096 m
    xy = drop_users(cfg, env, np.random.default_rng(0))
    assert not points_in_rects(xy, env.building_rects).any()


def test_environment_is_memoized_and_read_only():
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    env = generate_environment(cfg)
    assert generate_environment(dataclasses.replace(cfg)) is env  # equal, not identical
    wedges, buckets = env.site_wedges, env.buckets
    arrays = []
    for owner in (env, wedges, buckets):
        for value in vars(owner).values():
            arrays += [a for a in (value if isinstance(value, tuple) else (value,))
                       if isinstance(a, np.ndarray)]
    assert len(arrays) == 11 + 5 + 8  # the Environment's, SiteWedges', RectBuckets'
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert env.site_bin_bound_db.shape == wedges.far.shape == (
        len(wedges.sites), 360)
    # the per-site link columns, one row per site id
    kinds = [next(s.kind for s in env.sectors if s.site_id == i)
             for i in range(len(wedges.sites))]
    links = {"macro": cfg.channel.macro_link, "micro": cfg.channel.micro_link}
    assert env.site_pathloss.shape == (5, len(kinds), 1)
    for i, kind in enumerate(kinds):
        assert tuple(env.site_pathloss[:, i, 0]) == dataclasses.astuple(links[kind])
        assert env.site_link_class[i, 0] == LINK_CLASS[kind]
        assert env.site_keys[i, 0] == site_key(i)
        params = cfg.macro if kind == "macro" else cfg.micro
        assert env.site_bound_db[i, 0] == (params.dl_power_dbm + params.selection_offset_db
                                           + params.antenna.max_gain_dbi)
    # the per-sector columns, and each site's sectors as one run of ids
    assert env.site_bound_db.shape == (len(kinds), 1)
    assert env.site_sectors.shape == (len(kinds) + 1,)
    for s in env.sectors:
        assert env.site_sectors[s.site_id] <= s.sector_id < env.site_sectors[s.site_id + 1]
        assert env.sector_boresight[s.sector_id] == s.boresight_deg
        assert tuple(env.sector_antenna[:, s.sector_id]) == dataclasses.astuple(s.antenna)
        assert env.sector_dl_dbm[s.sector_id] == s.dl_power_dbm
        assert env.sector_offset_db[s.sector_id] == s.selection_offset_db
    assert env.site_sectors[-1] == len(env.sectors)
    assert {"macro", "micro"} == set(kinds)
    np.testing.assert_array_equal(buckets.contains(env.building_rects[:, :2]), True)
    assert buckets.bounds == env.bounds
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.sectors = ()
    macro = generate_environment(dataclasses.replace(cfg, micro_enabled=False))
    short = generate_environment(dataclasses.replace(
        cfg, channel=dataclasses.replace(cfg.channel, los_max_distance_m=100.0)))
    assert len(macro.site_wedges.sites) == 9 < len(wedges.sites)
    assert short.site_wedges.reach == 100.0 != wedges.reach
    assert 0 < len(short.site_wedges.rect_idx) < len(wedges.rect_idx)
    np.testing.assert_array_equal(short.building_rects, env.building_rects)


def test_associate_empty():
    cfg = tiny_config()
    env = env_for(cfg)
    none = np.zeros((0, 2))
    serving, gain = associate_users(none, env, DropChannel(env, 0, none))
    assert serving.shape == (0,) and gain.shape == (0,)


def test_outdoor_fraction_matches_footprints():
    # disjoint footprints: a uniform sample lands outdoors at 1 - built/total
    env = env_for(tiny_config())
    r = env.building_rects
    built = ((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1])).sum()
    pts = np.random.default_rng(1).uniform((0.0, 0.0), (env.width_m, env.height_m),
                                           size=(40000, 2))
    outdoor = 1.0 - points_in_rects(pts, r).mean()
    assert abs(outdoor - (1.0 - built / (env.width_m * env.height_m))) < 0.01
    park_centre = [[0.5 * (141.5 + 251.5), 0.5 * (148.5 + 265.5)]]  # block (1, 1)
    assert not points_in_rects(park_centre, r)[0]


def test_users_follow_rng_stream():
    cfg = tiny_config(fixed_user_count=30)
    env = env_for(cfg)
    a = drop_users(cfg, env, np.random.default_rng(11))
    b = drop_users(cfg, env, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)
