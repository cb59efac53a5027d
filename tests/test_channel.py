"""Channel model: pathloss, antennas, noise, hashed shadowing, gain assembly."""

import dataclasses

import numpy as np
import pytest
from scipy.special import ndtri

from d2dsim import channel
from d2dsim.channel import (LINK_CLASS, DropChannel, ShadowField, antenna_gain_db,
                            build_gain_set, noise_power_watts,
                            pathloss_db, site_key)
from d2dsim.config import (AntennaPattern, PathlossParams, ScenarioConfig,
                           apply_scenario)
from d2dsim.geometry import segments_blocked, wrap_deg
from d2dsim.scenario import associate_users, drop_users, generate_environment
from d2dsim.units import db_to_linear
from conftest import tiny_config

UE_PL = PathlossParams(42.0, 22.0, 44.0, 14.0, 7.0)


def no_shadow(cfg):
    ch = cfg.channel
    strip = lambda p: dataclasses.replace(p, shadow_sigma_db=0.0)
    return dataclasses.replace(
        ch, macro_link=strip(ch.macro_link), micro_link=strip(ch.micro_link),
        ue_link=strip(ch.ue_link))


# -- closed forms ------------------------------------------------------------


def test_noise_power_frozen_values():
    # sigma2 = 10^((-174 + NF + 10 log10 B)/10) mW
    assert noise_power_watts(180e3, 9.0) == pytest.approx(5.687086e-15, rel=1e-6)
    assert noise_power_watts(180e3, 5.0) == pytest.approx(2.264644e-15, rel=1e-6)
    assert noise_power_watts(10e6, 5.0) == pytest.approx(1.258925e-13, rel=1e-6)


def test_pathloss_los_nlos():
    assert pathloss_db(100.0, True, UE_PL) == pytest.approx(42.0 + 22.0 * 2)
    assert pathloss_db(100.0, False, UE_PL) == pytest.approx(42.0 + 44.0 * 2 + 14.0)
    # min-distance clamp: anything below 1 m evaluates at 1 m
    assert pathloss_db(0.01, True, UE_PL) == pytest.approx(42.0)
    np.testing.assert_allclose(
        pathloss_db([10.0, 100.0], [True, False], UE_PL),
        [42.0 + 22.0, 42.0 + 44.0 * 2 + 14.0])


def test_antenna_pattern():
    pat = AntennaPattern(17.0, 65.0, 25.0)
    assert antenna_gain_db(pat, 0.0) == pytest.approx(17.0)
    assert antenna_gain_db(pat, 32.5) == pytest.approx(14.0)  # -3 dB at bw/2
    assert antenna_gain_db(pat, -32.5) == pytest.approx(14.0)
    assert antenna_gain_db(pat, 180.0) == pytest.approx(-8.0)  # front-to-back floor
    # wraparound: 350 deg == -10 deg
    assert antenna_gain_db(pat, 350.0) == pytest.approx(antenna_gain_db(pat, -10.0))


def test_antenna_wrap_is_bitwise_float_remainder():
    """The fmod wrap (geometry.wrap_deg, which SiteWedges also reads) gives
    the bits of (x + 180) % 360 - 180, signed zeros too."""
    pat = AntennaPattern(17.0, 65.0, 25.0)
    special = [0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, -540.0, -1e-300, 1e-300,
               179.99999999999997, -180.00000000000003, 1e6 + 0.1, -1e6 - 0.1]
    rng = np.random.default_rng(4)
    x = np.concatenate([special, rng.uniform(-720.0, 720.0, 5000),
                        rng.uniform(-1e5, 1e5, 5000)])
    a = (x + 180.0) % 360.0 - 180.0
    np.testing.assert_array_equal(wrap_deg(x).view(np.int64), a.view(np.int64))
    att = 12.0 * (a / pat.beamwidth_deg) ** 2
    want = pat.max_gain_dbi - np.minimum(att, pat.front_to_back_db)
    got = antenna_gain_db(pat, x)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for i, v in enumerate(special):  # scalar input too
        assert np.float64(antenna_gain_db(pat, v)).view(np.int64) == want[i].view(np.int64)


def test_shadow_field_properties():
    sf = ShadowField(42)
    a = np.arange(1, 2001, dtype=np.uint64)
    b = a + np.uint64(5000)
    s = sf.sample_rounded_db(3, sf.key_round(a), b, 7.0)
    # deterministic
    fresh = ShadowField(42)
    np.testing.assert_array_equal(s, fresh.sample_rounded_db(3, fresh.key_round(a), b, 7.0))
    # different class or seed decorrelates
    assert not np.array_equal(s, sf.sample_rounded_db(1, sf.key_round(a), b, 7.0))
    other = ShadowField(43)
    assert not np.array_equal(s, other.sample_rounded_db(3, other.key_round(a), b, 7.0))
    # zero sigma kills it; stats roughly N(0, 7)
    assert (sf.sample_rounded_db(3, sf.key_round(a), b, 0.0) == 0.0).all()
    assert abs(s.mean()) < 0.6
    assert abs(s.std() - 7.0) < 0.5


def fixed_hashes(monkeypatch, h):
    """Make every link hash h (the links' keys are then irrelevant)."""
    monkeypatch.setattr(channel, "_splitmix",
                        lambda x: np.broadcast_to(np.asarray(h, dtype=np.uint64), np.shape(x)))


@pytest.mark.parametrize("h", [2**64 - 1, 2**64 - 2**11,
                               *((k << 11) for k in range(2**53 - 5, 2**53 - 1))])
def test_shadow_draw_is_finite_at_the_top_hashes(monkeypatch, h):
    """The top 53 hash bits k = 2**53 - 1 give k * 2**-53 + 2**-54 == 1.0,
    where ndtri is +inf: that draw is clamped to the largest double below 1,
    and the draws of the k just below it are unchanged."""
    fixed_hashes(monkeypatch, h)
    k = h >> 11
    u = 1.0 - 2.0**-53 if k == 2**53 - 1 else np.float64(k) * 2.0**-53 + 2.0**-54
    s = ShadowField(42).sample_rounded_db(3, np.zeros(2, dtype=np.uint64), [5, 6], 7.0)
    np.testing.assert_array_equal(s, 7.0 * ndtri(u))
    assert np.isfinite(s).all()


@pytest.mark.parametrize("sigma", [0.0, 7.0, 20.0])
def test_shadow_ceiling_bounds_every_draw_of_its_bin(monkeypatch, sigma):
    """ceil_rounded_db is at least sample_rounded_db, up to ndtri's ulp-level
    non-monotonicity, at the bottom and top hash of every one of the 4096
    bins, at the clamped top hashes and at 10**6 random hashes; it is finite,
    and above the draw by at most sigma times its bin's spread in z."""
    bins = np.arange(4096, dtype=np.uint64) << np.uint64(52)
    h = np.concatenate([bins, bins | np.uint64(2**52 - 1),
                        np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64),
                        np.random.default_rng(11).integers(0, 2**64, 10**6, dtype=np.uint64)])
    fixed_hashes(monkeypatch, h)
    sf = ShadowField(42)
    zero = np.zeros(len(h), dtype=np.uint64)
    draw = sf.sample_rounded_db(3, zero, zero, sigma)
    ceil = sf.ceil_rounded_db(3, zero, zero, sigma)
    j = (h >> np.uint64(52)).astype(int)
    bottom = ndtri((j << 41) * 2.0**-53 + 2.0**-54)
    assert np.isfinite(ceil).all()
    assert (ceil >= draw - 1e-12).all()
    assert (ceil - draw <= sigma * (channel._Z_CEIL[j] - bottom) + 1e-12).all()


# -- DropChannel integration --------------------------------------------------


def ue_gain_db(ch, idx_a, idx_b):
    """The gains (dB) of user_user_gain_db, without its distances."""
    return ch.user_user_gain_db(idx_a, idx_b)[0]


def cross_gain_db(ch, rx_idx, tx_idx):
    """(R, T) UE-to-UE gain matrix: transmitters tx_idx into receivers rx_idx."""
    r = np.asarray(rx_idx, dtype=int)
    t = np.asarray(tx_idx, dtype=int)
    return ue_gain_db(ch, np.repeat(r, len(t)), np.tile(t, len(r))).reshape(len(r), len(t))


def make_channel(users_xy, shadow=False, **cfg_overrides):
    cfg = tiny_config(**cfg_overrides)
    if not shadow:
        cfg = dataclasses.replace(cfg, channel=no_shadow(cfg))
    env = generate_environment(cfg)
    xy = np.asarray(users_xy, dtype=float)
    return cfg, env, DropChannel(env, 99, xy)


def test_user_sector_gain_hand_computed():
    # one user on the main street near the macro site: LOS, known distance
    cfg, env, ch = make_channel([[243.5, 276.0], [243.5, 100.0]])
    sector = env.sectors[0]  # boresight 90 deg
    d0 = np.hypot(243.5 - sector.x, 276.0 - sector.y)
    los = not segments_blocked([[243.5, 276.0]], [[sector.x, sector.y]],
                               env.building_rects)[0]
    assert los
    pl = pathloss_db(d0, True, cfg.channel.macro_link)
    az = np.degrees(np.arctan2(276.0 - sector.y, 243.5 - sector.x))
    ant = antenna_gain_db(sector.antenna, az - sector.boresight_deg)
    got = ch.user_sector_gain_db([0], sector)[0]
    assert got == pytest.approx(-pl + ant, abs=1e-9)


def test_user_behind_building_is_nlos():
    # second user stands in a north-south street with a building row between
    # it and the site
    cfg, env, ch = make_channel([[243.5, 276.0], [131.0, 50.0]])
    sector = env.sectors[0]
    blocked = segments_blocked([[131.0, 50.0]], [[sector.x, sector.y]],
                               env.building_rects)[0]
    assert blocked
    d = np.hypot(131.0 - sector.x, 50.0 - sector.y)
    pl = pathloss_db(d, False, cfg.channel.macro_link)
    az = np.degrees(np.arctan2(50.0 - sector.y, 131.0 - sector.x))
    ant = antenna_gain_db(sector.antenna, az - sector.boresight_deg)
    assert ch.user_sector_gain_db([1], sector)[0] == pytest.approx(-pl + ant, abs=1e-9)


def test_los_distance_cutoff():
    # clear path but longer than los_max_distance_m -> NLOS slope applies
    xy = [[193.5, 276.0], [193.5 + 350.0, 276.0]]
    cfg = tiny_config()
    params = dataclasses.replace(no_shadow(cfg), los_max_distance_m=300.0)
    env = generate_environment(dataclasses.replace(cfg, channel=params))
    ch = DropChannel(env, 1, np.asarray(xy))
    g = ue_gain_db(ch, [0], [1])[0]
    pl = pathloss_db(350.0, False, params.ue_link)
    assert g == pytest.approx(-pl, abs=1e-9)


def test_user_user_gain_symmetric_with_shadow():
    """Swapping a link's ends gives the same gain and distance, bit for bit."""
    cfg = tiny_config()
    env = generate_environment(cfg)
    ch = DropChannel(env, 99, drop_users(cfg, env, np.random.default_rng(2)))
    a, b = np.random.default_rng(3).integers(0, len(ch.users_xy), (2, 2000))
    ab, ba = ch.user_user_gain_db(a, b), ch.user_user_gain_db(b, a)
    assert cfg.channel.ue_link.shadow_sigma_db > 0 and (a != b).sum() > 1900
    for x, y in zip(ab, ba):
        np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))


def test_ue_shadow_equals_sample_rounded_db_with_either_end_smaller():
    """user_user_gain_db takes each user's first shadow round once per drop;
    its shadowing is still the draw over the smaller key's first round and
    the larger key."""
    xy = [[30.0, 276.0], [60.0, 276.0], [90.0, 276.0], [120.0, 276.0], [150.0, 276.0]]
    cfg, env, ch = make_channel(xy, shadow=True)
    _, _, flat = make_channel(xy)
    a, b = np.array([0, 3, 2, 4, 1]), np.array([1, 1, 4, 0, 3])
    ka, kb = ch.user_keys[a], ch.user_keys[b]
    want = ch.shadow.sample_rounded_db(LINK_CLASS["ue"], ch.shadow.key_round(np.minimum(ka, kb)),
                                       np.maximum(ka, kb), cfg.channel.ue_link.shadow_sigma_db)
    assert (want != 0.0).all()
    np.testing.assert_allclose(ue_gain_db(ch, a, b) - ue_gain_db(flat, a, b), want,
                               rtol=0, atol=1e-9)


def test_associate_users_equals_per_sector_dl_power():
    """Serving sector = first argmax of dl_power + gain + offset over sectors;
    the serving gain is that sector's gain, bit for bit."""
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, np.random.default_rng(6))
    ch = DropChannel(env, 13, xy)
    everyone = np.arange(len(xy))
    gains = np.array([per_sector_gain_db(ch, everyone, s) for s in env.sectors])
    power = np.array([s.dl_power_dbm + gains[s.sector_id] + s.selection_offset_db
                      for s in env.sectors])
    assert [s.sector_id for s in env.sectors] == list(range(len(env.sectors)))
    serving, gain = associate_users(xy, env, ch)
    np.testing.assert_array_equal(serving, power.argmax(axis=0))
    np.testing.assert_array_equal(gain.view(np.int64),
                                  gains[serving, everyone].view(np.int64))


def test_cross_gain_matrix_matches_elementwise():
    xy = [[30.0, 276.0], [60.0, 276.0], [90.0, 276.0], [120.0, 276.0], [150.0, 276.0]]
    cfg, env, ch = make_channel(xy, shadow=True)
    rx = [0, 1]
    tx = [2, 3, 4]
    mat = cross_gain_db(ch, rx, tx)
    assert mat.shape == (2, 3)
    for i, r in enumerate(rx):
        for j, t in enumerate(tx):
            assert mat[i, j] == ue_gain_db(ch, [r], [t])[0]


def cross_links(rx_idx, cell_idx):
    """(2, N*M) user rows of every cross link rx x cellular, row-major."""
    return np.array([np.repeat(rx_idx, len(cell_idx)), np.tile(cell_idx, len(rx_idx))],
                    dtype=int)


def test_distance_helpers():
    """user_user_gain_db hands back its link lengths: the D2D lengths, and
    over the cross links, row-major, the rx x cellular distances."""
    xy = [[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]
    cfg, env, ch = make_channel(xy)
    np.testing.assert_array_equal(ch.user_user_gain_db([0, 1], [1, 2])[1], [5.0, 5.0])
    cell, tx, rx = np.array([1, 2]), np.array([1]), np.array([0])
    np.testing.assert_array_equal(ch.user_user_gain_db(tx, rx)[1], [5.0])
    dist = ch.user_user_gain_db(*cross_links(rx, cell))[1]
    np.testing.assert_array_equal(dist.reshape(1, 2), [[5.0, 10.0]])


def test_build_gain_set_shapes_and_convention():
    xy = [[30.0, 276.0], [60.0, 276.0], [90.0, 276.0], [120.0, 276.0],
          [35.0, 276.0], [65.0, 276.0]]
    cfg, env, ch = make_channel(xy, shadow=True)
    sector = env.sectors[0]
    gain_db = ch.user_sector_gain_db(slice(None), sector)
    cell_idx = np.array([0, 1])
    tx = np.array([2, 3])
    rx = np.array([4, 5])
    gs = build_gain_set(gain_db[cell_idx], gain_db[tx], ue_gain_db(ch, tx, rx))
    assert gs.shape == (2, 2)
    assert gs.h_cell.shape == (2,) and gs.h_d2d.shape == (2,)
    # cross gains are built per scheduled reuse
    assert [f.name for f in dataclasses.fields(gs)] == ["h_cell", "h_d2d", "h_d2d_bs"]
    # linear conversion and the cross convention: h_cross[m, n] is cellular n
    # into the receiving end of pair m, the link (rx of m, n)
    want = 10.0 ** (ue_gain_db(ch, [rx[1]], [cell_idx[0]])[0] / 10.0)
    h_cross = db_to_linear(ue_gain_db(ch, *cross_links(rx, cell_idx))).reshape(2, 2)
    assert h_cross[1, 0] == pytest.approx(want, rel=1e-12)
    np.testing.assert_array_equal(h_cross, db_to_linear(cross_gain_db(ch, rx, cell_idx)))
    want_cell = 10.0 ** (ch.user_sector_gain_db(cell_idx, sector) / 10.0)
    np.testing.assert_allclose(gs.h_cell, want_cell, rtol=1e-12)
    want_d2d = 10.0 ** (ue_gain_db(ch, tx, rx) / 10.0)
    np.testing.assert_allclose(gs.h_d2d, want_d2d, rtol=1e-12)
    want_bs = 10.0 ** (ch.user_sector_gain_db(tx, sector) / 10.0)
    np.testing.assert_allclose(gs.h_d2d_bs, want_bs, rtol=1e-12)


def test_empty_gain_set():
    cfg, env, ch = make_channel([[30.0, 276.0]])
    none = np.zeros(0, dtype=int)
    gain_db = ch.user_sector_gain_db(slice(None), env.sectors[0])
    gs = build_gain_set(gain_db[none], gain_db[none], ue_gain_db(ch, none, none))
    assert gs.shape == (0, 0)
    assert gs.h_cell.size == 0 and gs.h_d2d.size == 0
    one = np.array([0])
    gs = build_gain_set(gain_db[none], gain_db[one], ue_gain_db(ch, one, one))
    dist = ch.user_user_gain_db(*cross_links(one, none))[1].reshape(gs.shape)
    assert gs.shape == (1, 0) and dist.shape == (1, 0) and dist.dtype == float
    h_cross = db_to_linear(ue_gain_db(ch, none, none))
    assert h_cross.shape == (0,) and h_cross.dtype == float
    assert ch.user_sector_gain_db(none, env.sectors[0]).shape == (0,)


def test_site_view_cache_consistent():
    """Site-sector gains are element-wise: a user's gain is the same alone,
    repeated, or among other users and sites."""
    cfg, env, ch = make_channel([[100.0, 276.0], [150.0, 300.0]], shadow=True)
    sectors = [s for s in env.sectors]
    first = ch.user_sector_gain_db([0, 1], sectors[0])
    again = ch.user_sector_gain_db([0, 1], sectors[0])
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(ch.user_sector_gain_db([1, 0, 1], sectors[0]),
                                  first[[1, 0, 1]])
    gain, sector = ch.site_sector_gains_db([1, 0], [0, 0])  # links user 1, user 0
    np.testing.assert_array_equal(sector, [0, 1, 2, 0, 1, 2])
    np.testing.assert_array_equal(gain[sector == 0], first[[1, 0]])


def per_sector_gain_db(ch, idx, sector):
    """Reference: the per-sector formula, recomputing pathloss, azimuth and
    shadowing for each sector."""
    site = np.array([sector.x, sector.y])
    delta = ch.users_xy - site
    dist = np.hypot(delta[:, 0], delta[:, 1])
    los = dist <= ch.params.los_max_distance_m
    los_idx = np.flatnonzero(los)
    blocked = segments_blocked(ch.users_xy[los_idx], np.broadcast_to(site, (len(los_idx), 2)),
                               ch.env.building_rects)
    los[los_idx[blocked]] = False
    dist, los = dist[idx], los[idx]
    pl_params = ch.params.macro_link if sector.kind == "macro" else ch.params.micro_link
    pl = pathloss_db(dist, los, pl_params, ch.params.min_distance_m)
    delta = ch.users_xy[idx] - site
    azimuth = np.degrees(np.arctan2(delta[:, 1], delta[:, 0]))
    ant = antenna_gain_db(sector.antenna, azimuth - sector.boresight_deg)
    # a user's key is below every site key
    shadow = ch.shadow.sample_rounded_db(LINK_CLASS[sector.kind], ch.shadow.key_round(
        ch.user_keys[idx]), site_key(sector.site_id), pl_params.shadow_sigma_db)
    return -pl + ant + shadow


def test_site_cache_equals_per_sector_formula_on_hetnet_drop():
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    rng = np.random.default_rng(5)
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, rng)
    ch = DropChannel(env, 77, xy)
    everyone = np.arange(len(xy))
    subset = rng.permutation(len(xy))[: len(xy) // 3]
    assert {s.kind for s in env.sectors} == {"macro", "micro"}
    for sector in env.sectors:
        for idx in (everyone, subset):
            np.testing.assert_array_equal(ch.user_sector_gain_db(idx, sector),
                                          per_sector_gain_db(ch, idx, sector))
    n_sites = len({s.site_id for s in env.sectors})
    assert n_sites > 4  # more than one slab of the bound pass
    # every site at once, site by site, each link's sectors in ascending id
    gain, sector = ch.site_sector_gains_db(np.tile(everyone, n_sites),
                                           np.repeat(np.arange(n_sites), len(xy)))
    assert len(gain) == len(xy) * len(env.sectors)
    for s in env.sectors:
        np.testing.assert_array_equal(gain[sector == s.sector_id],
                                      per_sector_gain_db(ch, everyone, s))
        np.testing.assert_array_equal(ch.user_sector_gain_db(slice(None), s),
                                      per_sector_gain_db(ch, everyone, s))


def test_one_ue_pass_equals_per_sector_gains_on_hetnet_drop():
    """One user_user_gain_db call over every sector's D2D links, sliced per
    sector, equals the per-sector D2D gains bit for bit; one call over every
    sector's cross links, and one over a random third of them, give the
    per-sector cross gains bit for bit."""
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    rng = np.random.default_rng(9)
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, rng)
    ch = DropChannel(env, 21, xy)
    serving, serving_gain = associate_users(xy, env, ch)
    ends = rng.permutation(len(xy))[:600]
    tx_all, rx_all = ends[:300], ends[300:]
    sectors = []
    for sector in env.sectors:
        mine = serving[tx_all] == sector.sector_id
        cell = np.flatnonzero(serving == sector.sector_id)
        sectors.append((sector, cell[~np.isin(cell, ends)], tx_all[mine], rx_all[mine]))
    ue_db, ue_dist = ch.user_user_gain_db(*np.hstack([[tx, rx] for _, _, tx, rx in sectors]))
    ends = np.cumsum([len(tx) for _, _, tx, _ in sectors])[:-1]
    links = [cross_links(rx, cell) for _, cell, _, rx in sectors]
    every_db, every_dist = ch.user_user_gain_db(*np.hstack(links))
    every = db_to_linear(every_db)
    third = rng.permutation(len(every))[:len(every) // 3]
    assert sum(len(tx) > 0 and len(cell) > 0 for _, cell, tx, _ in sectors) > 10
    np.testing.assert_array_equal(
        db_to_linear(ue_gain_db(ch, *np.hstack(links)[:, third])), every[third])
    cross_ends = np.cumsum([link.shape[1] for link in links])[:-1]
    for (sector, cell, tx, rx), got, dist, cross, cross_dist in zip(
            sectors, np.split(ue_db, ends), np.split(ue_dist, ends),
            np.split(every, cross_ends), np.split(every_dist, cross_ends)):
        n, m = len(tx), len(cell)
        np.testing.assert_array_equal(got, ue_gain_db(ch, tx, rx))
        h_cross = cross.reshape(n, m)
        np.testing.assert_array_equal(h_cross, db_to_linear(cross_gain_db(ch, rx, cell)))
        gs = build_gain_set(serving_gain[cell], serving_gain[tx], got)
        np.testing.assert_array_equal(gs.h_d2d, db_to_linear(ue_gain_db(ch, tx, rx)))
        np.testing.assert_array_equal(gs.h_cell, db_to_linear(per_sector_gain_db(ch, cell, sector)))
        np.testing.assert_array_equal(gs.h_d2d_bs, db_to_linear(per_sector_gain_db(ch, tx, sector)))
        # the sliced link lengths and the flat cross-link lengths, reshaped,
        # are the per-sector distances feasibility reads
        a, b = ch.users_xy[tx], ch.users_xy[rx]
        np.testing.assert_array_equal(dist, np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]))
        a, b = ch.users_xy[rx], ch.users_xy[cell]
        np.testing.assert_array_equal(
            cross_dist.reshape(n, m),
            np.hypot(a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1]))
