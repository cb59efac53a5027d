"""Channel model: pathloss, antennas, noise, hashed shadowing, gain assembly."""

import dataclasses

import numpy as np
import pytest

from d2dsim.channel import (LINK_CLASS, DropChannel, ShadowField, antenna_gain_db,
                            build_gain_set, noise_power_watts,
                            pathloss_db, site_key)
from d2dsim.config import (AntennaPattern, PathlossParams, ScenarioConfig,
                           apply_scenario)
from d2dsim.geometry import segments_blocked
from d2dsim.scenario import drop_users, generate_environment
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


def test_shadow_field_properties():
    sf = ShadowField(42)
    a = np.arange(1, 2001, dtype=np.uint64)
    b = a + np.uint64(5000)
    s = sf.sample_db(3, a, b, 7.0)
    # symmetric in the endpoints, deterministic
    np.testing.assert_array_equal(s, sf.sample_db(3, b, a, 7.0))
    np.testing.assert_array_equal(s, ShadowField(42).sample_db(3, a, b, 7.0))
    # different class or seed decorrelates
    assert not np.array_equal(s, sf.sample_db(1, a, b, 7.0))
    assert not np.array_equal(s, ShadowField(43).sample_db(3, a, b, 7.0))
    # zero sigma kills it; stats roughly N(0, 7)
    assert (sf.sample_db(3, a, b, 0.0) == 0.0).all()
    assert abs(s.mean()) < 0.6
    assert abs(s.std() - 7.0) < 0.5


# -- DropChannel integration --------------------------------------------------


def make_channel(users_xy, shadow=False, **cfg_overrides):
    cfg = tiny_config(**cfg_overrides)
    env = generate_environment(cfg)
    params = cfg.channel if shadow else no_shadow(cfg)
    xy = np.asarray(users_xy, dtype=float)
    return cfg, env, DropChannel(env, params, 99, xy)


def test_user_sector_gain_hand_computed():
    # one user on the main street near the macro site: LOS, known distance
    cfg, env, ch = make_channel([[243.5, 276.0], [243.5, 100.0]])
    sector = env.sectors[0]  # boresight 90 deg
    d0 = np.hypot(243.5 - sector.x, 276.0 - sector.y)
    los = not segments_blocked([[243.5, 276.0]], [[sector.x, sector.y]],
                               env.building_rects)[0]
    assert los
    pl = pathloss_db(d0, True, no_shadow(cfg).macro_link)
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
    pl = pathloss_db(d, False, no_shadow(cfg).macro_link)
    az = np.degrees(np.arctan2(50.0 - sector.y, 131.0 - sector.x))
    ant = antenna_gain_db(sector.antenna, az - sector.boresight_deg)
    assert ch.user_sector_gain_db([1], sector)[0] == pytest.approx(-pl + ant, abs=1e-9)


def test_los_distance_cutoff():
    # clear path but longer than los_max_distance_m -> NLOS slope applies
    xy = [[193.5, 276.0], [193.5 + 350.0, 276.0]]
    cfg = tiny_config()
    env = generate_environment(cfg)
    params = dataclasses.replace(no_shadow(cfg), los_max_distance_m=300.0)
    ch = DropChannel(env, params, 1, np.asarray(xy))
    g = ch.user_user_gain_db([0], [1])[0]
    pl = pathloss_db(350.0, False, params.ue_link)
    assert g == pytest.approx(-pl, abs=1e-9)


def test_user_user_gain_symmetric_with_shadow():
    cfg, env, ch = make_channel([[50.0, 276.0], [120.0, 276.0]], shadow=True)
    ab = ch.user_user_gain_db([0], [1])[0]
    ba = ch.user_user_gain_db([1], [0])[0]
    assert ab == ba


def test_dl_rx_power_is_gain_plus_tx_power():
    cfg, env, ch = make_channel([[200.0, 276.0]])
    s = env.sectors[1]
    assert ch.dl_rx_power_dbm([0], s)[0] == pytest.approx(
        s.dl_power_dbm + ch.user_sector_gain_db([0], s)[0])


def test_cross_gain_matrix_matches_elementwise():
    xy = [[30.0, 276.0], [60.0, 276.0], [90.0, 276.0], [120.0, 276.0], [150.0, 276.0]]
    cfg, env, ch = make_channel(xy, shadow=True)
    rx = [0, 1]
    tx = [2, 3, 4]
    mat = ch.cross_gain_db(rx, tx)
    assert mat.shape == (2, 3)
    for i, r in enumerate(rx):
        for j, t in enumerate(tx):
            assert mat[i, j] == ch.user_user_gain_db([r], [t])[0]


def test_distance_helpers():
    xy = [[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]
    cfg, env, ch = make_channel(xy)
    np.testing.assert_allclose(ch.distances([0, 1], [1, 2]), [5.0, 5.0])
    np.testing.assert_allclose(ch.distance_matrix([0], [1, 2]), [[5.0, 10.0]])


def test_build_gain_set_shapes_and_convention():
    xy = [[30.0, 276.0], [60.0, 276.0], [90.0, 276.0], [120.0, 276.0],
          [35.0, 276.0], [65.0, 276.0]]
    cfg, env, ch = make_channel(xy, shadow=True)
    sector = env.sectors[0]
    cell_idx = np.array([0, 1])
    tx = np.array([2, 3])
    rx = np.array([4, 5])
    gs = build_gain_set(ch, sector, cell_idx, tx, rx)
    assert gs.shape == (2, 2)
    assert gs.h_cell.shape == (2,) and gs.h_d2d.shape == (2,)
    # linear conversion and the cross convention: h_cross[m, n] is cellular n
    # into the receiving end of pair m
    want = 10.0 ** (ch.user_user_gain_db([rx[1]], [cell_idx[0]])[0] / 10.0)
    assert gs.h_cross[1, 0] == pytest.approx(want, rel=1e-12)
    want_cell = 10.0 ** (ch.user_sector_gain_db(cell_idx, sector) / 10.0)
    np.testing.assert_allclose(gs.h_cell, want_cell, rtol=1e-12)
    want_d2d = 10.0 ** (ch.user_user_gain_db(tx, rx) / 10.0)
    np.testing.assert_allclose(gs.h_d2d, want_d2d, rtol=1e-12)


def test_empty_gain_set():
    cfg, env, ch = make_channel([[30.0, 276.0]])
    gs = build_gain_set(ch, env.sectors[0], np.zeros(0, dtype=int),
                        np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    assert gs.shape == (0, 0)
    assert gs.h_cell.size == 0 and gs.h_d2d.size == 0


def test_site_view_cache_consistent():
    cfg, env, ch = make_channel([[100.0, 276.0], [150.0, 300.0]], shadow=True)
    sectors = [s for s in env.sectors]
    first = ch.user_sector_gain_db([0, 1], sectors[0])
    again = ch.user_sector_gain_db([0, 1], sectors[0])
    np.testing.assert_array_equal(first, again)


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
    shadow = ch.shadow.sample_db(LINK_CLASS[sector.kind], ch.user_keys[idx],
                                 site_key(sector.site_id), pl_params.shadow_sigma_db)
    return -pl + ant + shadow


def test_site_cache_equals_per_sector_formula_on_hetnet_drop():
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    rng = np.random.default_rng(5)
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, rng)
    ch = DropChannel(env, cfg.channel, 77, xy)
    everyone = np.arange(len(xy))
    subset = rng.permutation(len(xy))[: len(xy) // 3]
    assert {s.kind for s in env.sectors} == {"macro", "micro"}
    for sector in env.sectors:
        for idx in (everyone, subset):
            np.testing.assert_array_equal(ch.user_sector_gain_db(idx, sector),
                                          per_sector_gain_db(ch, idx, sector))
    assert sorted(ch._site_cache) == sorted({s.site_id for s in env.sectors})
