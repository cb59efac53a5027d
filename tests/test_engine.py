"""Drop pipeline, campaign determinism, CSV outputs, and the CLI front end."""

import dataclasses
import gc
import importlib.util
import inspect
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import config_leaves, tiny_config

from d2dsim import channel, cli, engine, rrm
from d2dsim.channel import noise_power_watts
from d2dsim.config import RANGES, SCENARIO_PRESETS, ConfigError, ScenarioConfig, apply_scenario
from d2dsim.engine import (SCHEDULERS, SCHEMES, build_drop, drop_seed, run_campaign, run_drop,
                           write_outputs)
from d2dsim.feasibility import FeasibilityMatrix
from d2dsim.metrics import CapacityReport, link_rates
from d2dsim.power import draw_snr_targets, open_loop_power_w
from d2dsim.rrm import (Allocation, allocate_capacity_max, allocate_none, allocate_proposed,
                        allocate_random, max_score_assignment)
from d2dsim.scenario import associate_users, drop_users, generate_environment, pair_users
from d2dsim.signaling import run_single_cell
from d2dsim.units import db_to_linear
from reference import FullGainSet, sinr_d2d_matrix


def test_drop_seed_stable_and_distinct():
    assert drop_seed(0, 0) == drop_seed(0, 0)
    seeds = {drop_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert drop_seed(1, 0) != drop_seed(0, 0)


def sector_slices(arrays, k):
    """The pair rows and cellular rows of the k-th evaluated sector."""
    return (slice(arrays.pair_start[k], arrays.pair_start[k + 1]),
            slice(arrays.cell_start[k], arrays.cell_start[k + 1]))


def first_state_fingerprint(drop):
    st, a = drop.states[0], drop.arrays
    ps, cs = sector_slices(a, 0)
    return (st.sector_id, st.sinr_cell.tobytes(), a.d2d_signal[ps].tobytes(),
            a.p_cell[cs].tobytes(), a.sigma2_d2d[ps].tobytes(), a.rx_users[ps].tobytes(),
            a.cell_users[cs].tobytes(), st.baseline_sinr.tobytes(),
            st.feas_context.entries.tobytes())


def counts(drop):
    """A drop's (users, pairs), recounted from serving: a pair's rx end is -1."""
    return len(drop.serving), int(np.count_nonzero(drop.serving == -1))


def test_build_drop_reproducible():
    cfg = tiny_config()
    a = build_drop(cfg, 42)
    b = build_drop(cfg, 42)
    assert counts(a) == counts(b)
    assert np.array_equal(a.serving, b.serving)
    assert first_state_fingerprint(a) == first_state_fingerprint(b)
    c = build_drop(cfg, 43)
    assert first_state_fingerprint(a) != first_state_fingerprint(c)


def test_build_drop_states_are_measured_and_shared():
    cfg = tiny_config()
    drop = build_drop(cfg, 7)
    assert drop.states, "a 40-user drop must populate at least one sector"
    a = drop.arrays
    env = generate_environment(cfg)
    assert len(a.kinds) == len(drop.states)
    assert [st.sector_id for st in drop.states] == sorted({st.sector_id for st in drop.states})
    flat = []
    for k, st in enumerate(drop.states):
        ps, cs = sector_slices(a, k)
        assert a.cell_measured[cs].any() or a.pair_measured[ps].any()
        sector = next(s for s in env.sectors if s.sector_id == st.sector_id)
        n_pairs, m = st.shape
        assert (ps.stop - ps.start, cs.stop - cs.start) == (n_pairs, m)
        assert a.kinds[k] == sector.kind
        shares = np.concatenate([a.pair_share_hz[ps], a.cell_share_hz[cs]])
        assert shares == pytest.approx(sector.bandwidth_hz / max(m, 1))
        assert st.feas_context.entries.shape == (n_pairs, m)
        # the schedulers' matrix and baseline are views of the drop's buffers
        assert np.shares_memory(st.sinr_cell, a.sinr_cell)
        np.testing.assert_array_equal(st.baseline_sinr, a.baseline_sinr[cs])
        flat.append(st.sinr_cell.ravel())
    np.testing.assert_array_equal(np.concatenate(flat), a.sinr_cell)


def scheduled_plans(result, states):
    """Each scheme's allocations, aligned with states, rebuilt from
    result.grants."""
    rows = {s: {st.sector_id: [-1] * st.shape[0] for st in states} for s in result.reports}
    for scheme, grants in result.grants.items():
        for sector, m, col in grants.T.tolist():
            rows[scheme][sector][m] = col
    return {s: [Allocation(np.array(plan[st.sector_id], dtype=int)) for st in states]
            for s, plan in rows.items()}


def full_cross_gain_db(drop):
    """Per evaluated sector, the (N x M) gains (dB) of every (pair rx,
    cellular) link, from one user_user_gain_db call over all of them."""
    a = drop.arrays
    links = []
    for k, st in enumerate(drop.states):
        ps, cs = sector_slices(a, k)
        n, m = st.shape
        links.append(np.array([np.repeat(a.rx_users[ps], m), np.tile(a.cell_users[cs], n)]))
    cross_db = np.split(drop.channel.user_user_gain_db(*np.hstack(links))[0],
                        np.cumsum([link.shape[1] for link in links])[:-1])
    return [db.reshape(st.shape) for st, db in zip(drop.states, cross_db)]


@pytest.mark.parametrize("scenario", ["macro-scheme1", "hetnet"])
def test_scheduled_d2d_sinr_equals_full_cross_gain_matrix(scenario):
    """On a real drop, every scheduled reuse's D2D SINR and rate are bit-equal
    to sinr_d2d_matrix over the full cross-gain matrix of an all-cross-links
    pass, under every scheme."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    seed = drop_seed(3, 1)
    drop = build_drop(cfg, seed)
    a = drop.arrays
    plans = scheduled_plans(run_drop(cfg, seed), drop.states)
    cross_db = full_cross_gain_db(drop)
    checked = 0
    for plan in plans.values():
        # the scheduled reuses' gains, one per reuse in scheme -> sector -> pair order
        res = a.resource_rows(plan)
        h_cross = db_to_linear(drop.channel.user_user_gain_db(*a.cross_links(res))[0])
        _, d2d_bps, _, d2d_sinr = link_rates(a, res, h_cross)
        for k, (st, db) in enumerate(zip(drop.states, cross_db)):
            ps, cs = sector_slices(a, k)
            n, m = st.shape
            if n == 0:
                continue
            # d2d_signal is h_d2d * p_d2d, so the pairs get unit power here
            gains = FullGainSet(h_cell=np.zeros(m), h_d2d=a.d2d_signal[ps],
                                h_d2d_bs=np.zeros(n), h_cross=db_to_linear(db))
            full = sinr_d2d_matrix(gains, a.p_cell[cs], np.ones(n), a.sigma2_d2d[ps][0])
            rows, cols = np.array(plan[k].pairs(), dtype=int).reshape(-1, 2).T
            np.testing.assert_array_equal(d2d_sinr[ps][rows], full[rows, cols])
            np.testing.assert_array_equal(
                d2d_bps[ps][rows], a.pair_share_hz[ps][rows] * np.log2(1.0 + full[rows, cols]))
            assert not d2d_sinr[ps][np.setdiff1d(np.arange(n), rows)].any()
            checked += len(rows)
    assert checked > 100


def reference_report(cfg, drop, plan, cross_db):
    """One scheme's CapacityReport, sector by sector: each sector's rates
    from its sinr_cell matrix and its full cross-gain matrix, its measured
    sums taken with .sum() and added up in sector order."""
    env = generate_environment(cfg)
    a = drop.arrays
    cell = d2d = base = 0.0
    enabled = clipped = total_tx = 0
    by_kind = {}
    for k, (st, alloc, db) in enumerate(zip(drop.states, plan, cross_db, strict=True)):
        ps, cs = sector_slices(a, k)
        sector = env.sectors[st.sector_id]
        share = sector.bandwidth_hz / max(st.shape[1], 1)
        sigma2_d2d = noise_power_watts(share, cfg.noise.ue_noise_figure_db,
                                       cfg.noise.thermal_density_dbm_hz)
        res = np.array(alloc.resource_of_pair, dtype=int)
        rows = np.flatnonzero(res >= 0)
        cols = res[rows]
        cell_sinr = st.baseline_sinr.copy()
        cell_sinr[cols] = st.sinr_cell[rows, cols]
        d2d_sinr = np.zeros(st.shape[0])
        d2d_sinr[rows] = a.d2d_signal[ps][rows] / (
            db_to_linear(db)[rows, cols] * a.p_cell[cs][cols] + sigma2_d2d)
        cm, pm = a.cell_measured[cs], a.pair_measured[ps]
        c = float((share * np.log2(1.0 + cell_sinr))[cm].sum())
        d = float((share * np.log2(1.0 + d2d_sinr))[pm].sum())
        b = float((share * np.log2(1.0 + st.baseline_sinr))[cm].sum())
        enabled += int(((res >= 0) & pm).sum())
        clipped += int(a.cell_clipped[cs][cm].sum()) + int(a.d2d_clipped[ps][pm].sum())
        total_tx += int(cm.sum()) + int(pm.sum())
        agg = by_kind.setdefault(sector.kind, {"cell_bps": 0.0, "d2d_bps": 0.0,
                                               "overall_bps": 0.0, "baseline_cell_bps": 0.0})
        agg["cell_bps"] += c
        agg["d2d_bps"] += d
        agg["overall_bps"] += c + d
        agg["baseline_cell_bps"] += b
        cell += c
        d2d += d
        base += b
    return CapacityReport(cell, d2d, cell + d2d, base, enabled,
                          clipped / total_tx if total_tx else 0.0, by_kind)


@pytest.mark.parametrize("scenario", ["macro-scheme1", "hetnet"])
def test_whole_drop_evaluation_equals_per_sector_reference(scenario):
    """run_drop's whole-drop reports equal, field by field with ==, a
    per-sector evaluation over the full cross-gain matrices, under all four
    schemes."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    seed = drop_seed(3, 1)
    drop = build_drop(cfg, seed)
    result = run_drop(cfg, seed)
    plans = scheduled_plans(result, drop.states)
    cross_db = full_cross_gain_db(drop)
    assert set(result.reports) == set(SCHEMES)
    kinds = {"macro", "micro"} if scenario == "hetnet" else {"macro"}
    for scheme, report in result.reports.items():
        want = reference_report(cfg, drop, plans[scheme], cross_db)
        for f in dataclasses.fields(CapacityReport):
            assert getattr(report, f.name) == getattr(want, f.name), (scheme, f.name)
        assert set(report.by_kind) == kinds
    assert result.reports["proposed"].enabled_pairs > 0


def test_ue_ue_calls_cover_d2d_links_and_scheduled_cross_links_in_order(monkeypatch):
    """A drop makes two UE-UE gain calls: one over the D2D links of its
    evaluated sectors, one over the cross link of every scheduled reuse, in
    scheme -> sector -> pair order."""
    cfg = apply_scenario(ScenarioConfig(), "macro-scheme1")
    seed = drop_seed(3, 2)
    calls = []
    user_user_gain_db = channel.DropChannel.user_user_gain_db

    def recording(self, idx_a, idx_b):
        calls.append(np.array([idx_a, idx_b], dtype=int).reshape(2, -1))
        return user_user_gain_db(self, idx_a, idx_b)

    monkeypatch.setattr(channel.DropChannel, "user_user_gain_db", recording)
    result = run_drop(cfg, seed)
    monkeypatch.undo()
    drop = build_drop(cfg, seed)
    a = drop.arrays
    assert len(calls) == 2
    d2d, cross = calls
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, engine._stream(seed, "users"))
    pairs = pair_users(cfg, xy, engine._stream(seed, "pairing"))
    assert d2d.shape[1] == len(a.rx_users)
    assert set(map(tuple, d2d.T)) == set(map(tuple, pairs[np.isin(pairs[:, 1], a.rx_users)]))
    users = {st.sector_id: (a.rx_users[ps], a.cell_users[cs])
             for k, st in enumerate(drop.states) for ps, cs in [sector_slices(a, k)]}
    # grants run scheme -> sector -> pair
    scheduled = np.array([(users[sector][0][m], users[sector][1][col])
                          for grants in result.grants.values()
                          for sector, m, col in grants.T.tolist()]).T
    np.testing.assert_array_equal(cross, scheduled)
    assert len(set(map(tuple, scheduled.T))) < scheduled.shape[1]  # repeats stay
    assert scheduled.shape[1] < sum(n * m for n, m in (st.shape for st in drop.states)) / 3


def test_schedule_dispatch(monkeypatch):
    """SCHEDULERS maps each scheme, in SCHEMES order, to its allocator on one
    sector; only the random scheme draws from the stream it is handed, and
    the allocators are looked up as engine names at call time."""
    cfg = tiny_config()
    drop = build_drop(cfg, 7)
    st = drop.states[0]
    n, m = st.shape
    assert SCHEMES == tuple(SCHEDULERS) == ("proposed", "capacity-max", "random", "none")
    rng = np.random.default_rng(5)

    def same(a, b):
        return np.array_equal(a.resource_of_pair, b.resource_of_pair)

    assert same(SCHEDULERS["proposed"](st, rng), allocate_proposed(st.feas_context))
    assert same(SCHEDULERS["none"](st, rng), allocate_none(n))
    cap = SCHEDULERS["capacity-max"](st, rng)
    assert same(cap, allocate_capacity_max(st.sinr_cell, st.baseline_sinr))
    assert cap.enabled_pairs == min(n, m)
    assert same(SCHEDULERS["random"](st, rng), allocate_random(n, m, np.random.default_rng(5)))
    monkeypatch.setattr(engine, "allocate_none", lambda n_pairs: ("wrapped", n_pairs))
    assert SCHEDULERS["none"](st, rng) == ("wrapped", n)
    monkeypatch.setattr(engine, "allocate_capacity_max", lambda *args: "wrapped")
    assert SCHEDULERS["capacity-max"](st, rng) == "wrapped"


@pytest.mark.parametrize("scenario", ["macro-scheme1", "hetnet"])
def test_capacity_max_equals_linear_assignment_on_every_sector(monkeypatch, scenario):
    """On every sector of a real drop the capacity-max adapter's allocation
    equals the general assignment on the log2 capacities.  The preset drop
    takes the closed form in every sector; with one cellular SNR target the
    no-reuse SNRs tie, and the same drop falls back through rrm."""
    calls = []
    monkeypatch.setattr(rrm, "max_score_assignment",
                        lambda score: calls.append(score) or max_score_assignment(score))

    def fell_back(cfg) -> list[bool]:
        took = []
        for st in build_drop(cfg, drop_seed(3, 0)).states:
            before = len(calls)
            got = SCHEDULERS["capacity-max"](st, None)
            took.append(len(calls) > before)
            want = max_score_assignment(np.log2(1.0 + st.sinr_cell)
                                        - np.log2(1.0 + st.baseline_sinr))
            np.testing.assert_array_equal(got.resource_of_pair, want.resource_of_pair)
        return took

    preset = apply_scenario(ScenarioConfig(), scenario)
    assert not any(fell_back(preset))
    assert any(fell_back(dataclasses.replace(preset, cell_snr_target_db=(10.0, 10.0))))


@pytest.mark.parametrize("overrides, schemes, message", [
    ({}, (), "empty scheme list"),
    ({}, ("proposed", "proposed"), "scheme 'proposed' listed twice"),
    ({}, ("proposed", "bogus"), "unknown scheme 'bogus'"),
    ({"num_drops": 0}, ("proposed",), "num_drops must lie in [1, 1000000]"),
])
def test_library_refuses_bad_input_before_any_drop(tmp_path, monkeypatch, overrides,
                                                   schemes, message):
    """run_campaign refuses the scheme lists and configs `d2dsim run` refuses,
    and run_drop the same scheme lists, with one one-line ConfigError before
    any drop is built or any output is written."""
    calls = []
    for name in ("run_drop", "build_drop"):
        monkeypatch.setattr(engine, name, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "x"
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        run_campaign(tiny_config(**overrides), schemes, out_dir=str(out), workers=1)
    assert type(info.value) is ConfigError and "\n" not in str(info.value)
    if not overrides:
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_drop(tiny_config(), 3, schemes=schemes)  # the unpatched run_drop
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("rings", [0, 1])
def test_measured_users_are_those_of_the_central_tile(monkeypatch, rings):
    """A user is measured when the floor of its position over the grid size
    is (0, 0): the central tile [0, w) x [0, h), -0.0 included, at its edges
    and with or without replica grids around it."""
    cfg = tiny_config(replica_rings=rings)
    env = generate_environment(cfg)
    w, h = env.width_m, env.height_m
    xy = np.array([(x, y) for x in (0.0, np.nextafter(w, 0.0), w, -0.0)
                   for y in (0.0, np.nextafter(h, 0.0), h, -0.0)])
    inside = [0.0 <= x < w and 0.0 <= y < h for x, y in xy.tolist()]
    assert 0 < sum(inside) < len(xy)
    monkeypatch.setattr(engine, "drop_users", lambda *args: xy)
    monkeypatch.setattr(engine, "pair_users", lambda *args: np.zeros((0, 2), dtype=int))
    a = build_drop(cfg, 3).arrays
    # every measured cellular user's sector is evaluated
    np.testing.assert_array_equal(np.sort(a.cell_users[a.cell_measured]), np.flatnonzero(inside))


@pytest.mark.parametrize("scenario", SCENARIO_PRESETS)
def test_build_drop_associates_only_cellular_users_and_pair_transmitters(monkeypatch,
                                                                         scenario):
    """Association bounds exactly the cellular users and the pair tx ends.
    Their serving ids and gains are bit for bit those of associating every
    user, and a pair's rx end holds -1 and nan."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    env = generate_environment(cfg)
    bounded = []
    bound = channel.DropChannel.site_power_bound_db

    def spy(self, users):
        bounded.append(np.array(users))
        return bound(self, users)

    monkeypatch.setattr(channel.DropChannel, "site_power_bound_db", spy)
    for d in range(2):
        seed = drop_seed(3, d)
        drop = build_drop(cfg, seed)
        ch = drop.channel
        pairs = pair_users(cfg, ch.users_xy, engine._stream(seed, "pairing"))
        n_users, n_pairs = counts(drop)
        rx = np.zeros(n_users, dtype=bool)
        rx[pairs[:, 1]] = True
        rows = np.flatnonzero(~rx)
        assert rx.any() and [len(b) for b in bounded] == [n_users - n_pairs]
        np.testing.assert_array_equal(bounded.pop(), rows)
        serving, gain = associate_users(ch.users_xy, env, ch)
        assert [len(b) for b in bounded] == [n_users]
        bounded.clear()
        assert (drop.serving[rows] == serving[rows]).all()
        assert (drop.serving_gain[rows].view(np.int64) == gain[rows].view(np.int64)).all()
        assert (drop.serving[rx] == -1).all() and np.isnan(drop.serving_gain[rx]).all()


@pytest.mark.parametrize("count", range(4))
def test_tiny_drops_with_every_user_paired_build(count):
    """Every user is eligible and within reach, so all but at most one user
    end a pair, and count // 2 of them are rx ends left unassociated."""
    cfg = tiny_config(fixed_user_count=count, d2d_fraction=1.0, max_pair_distance_m=1e4)
    for d in range(3):
        drop = build_drop(cfg, drop_seed(cfg.seed, d))
        assert counts(drop) == (count, count // 2)
        assert np.count_nonzero(drop.serving == -1) == count // 2
        assert np.count_nonzero(np.isnan(drop.serving_gain)) == count // 2
        assert run_drop(cfg, drop_seed(cfg.seed, d)).reports


@pytest.mark.parametrize("scenario", SCENARIO_PRESETS)
def test_d2d_noise_power_is_each_sector_shares_scalar_path(scenario):
    """DropArrays.sigma2_d2d equals, with ==, noise_power_watts of each
    sector's Python-float share.  numpy's array path of 10.0 ** x can differ
    from its scalar path in the last bit, so computing the noise powers from
    one vector of shares would move them."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    env = generate_environment(cfg)
    for d in range(6):
        a = build_drop(cfg, drop_seed(3, d)).arrays
        for k, sector_id in enumerate(a.sector_ids):
            ps, cs = sector_slices(a, k)
            share = env.sectors[sector_id].bandwidth_hz / max(int(cs.stop - cs.start), 1)
            want = noise_power_watts(share, cfg.noise.ue_noise_figure_db,
                                     cfg.noise.thermal_density_dbm_hz)
            assert (a.sigma2_d2d[ps] == want).all(), (d, int(sector_id))


def per_sector_build(cfg, seed, drop):
    """A frozen copy of build_drop's per-sector build loop, from association
    on: each sector's noise powers, open-loop powers, no-reuse SNRs, reuse
    SINR matrix, interferer distance matrix and context admission, computed
    sector by sector.  Returns the DropArrays fields it fills and, per
    evaluated sector, (sector id, sinr_cell, baseline_sinr, admission)."""
    env = generate_environment(cfg)
    ch, serving, serving_gain = drop.channel, drop.serving, drop.serving_gain
    xy = ch.users_xy
    pairs = pair_users(cfg, xy, engine._stream(seed, "pairing"))
    n = len(xy)
    cellular = np.ones(n, dtype=bool)
    cellular[pairs] = False
    pair_of_tx = np.full(n, -1)
    pair_of_tx[pairs[:, 0]] = np.arange(len(pairs))
    associated = np.flatnonzero(cellular | (pair_of_tx >= 0))
    cell_targets = draw_snr_targets(cfg.cell_snr_target_db, n, engine._stream(seed, "targets-cell"))
    d2d_targets = draw_snr_targets(cfg.d2d_snr_target_db, len(pairs),
                                   engine._stream(seed, "targets-d2d"))
    measured = (np.floor(xy / (env.width_m, env.height_m)) == 0).all(axis=1)
    evaluated = np.zeros(len(env.sectors), dtype=bool)
    evaluated[serving[measured & (cellular | (pair_of_tx >= 0))]] = True
    by_sector = associated[np.argsort(serving[associated], kind="stable")]
    by_sector = by_sector[evaluated[serving[by_sector]]]
    cell_users = by_sector[cellular[by_sector]]
    pair_ids = pair_of_tx[by_sector]
    pair_ids = pair_ids[pair_ids >= 0]
    tx_users, rx_users = pairs[pair_ids].T
    sector_ids = np.flatnonzero(evaluated)
    cell_start = np.append(np.searchsorted(serving[cell_users], sector_ids), len(cell_users))
    pair_start = np.append(np.searchsorted(serving[tx_users], sector_ids), len(pair_ids))
    d2d_db, d2d_dist = ch.user_user_gain_db(tx_users, rx_users)
    fields = {"sector_ids": sector_ids, "pair_start": pair_start, "cell_start": cell_start,
              "rx_users": rx_users, "pair_measured": measured[tx_users],
              "cell_users": cell_users, "cell_measured": measured[cell_users],
              "kinds": tuple(env.sectors[i].kind for i in sector_ids)}
    per_pair = {"d2d_signal": [], "sigma2_d2d": [], "pair_share_hz": [], "d2d_clipped": []}
    per_cell = {"p_cell": [], "cell_share_hz": [], "baseline_sinr": [], "cell_clipped": []}
    sinr_cell, sectors = [], []
    for k, sector_id in enumerate(sector_ids):
        ps = slice(pair_start[k], pair_start[k + 1])
        cs = slice(cell_start[k], cell_start[k + 1])
        cell_idx = cell_users[cs]
        share = env.sectors[sector_id].bandwidth_hz / max(len(cell_idx), 1)
        sigma2_cell = noise_power_watts(share, cfg.noise.bs_noise_figure_db,
                                        cfg.noise.thermal_density_dbm_hz)
        sigma2_d = noise_power_watts(share, cfg.noise.ue_noise_figure_db,
                                     cfg.noise.thermal_density_dbm_hz)
        h_cell = db_to_linear(serving_gain[cell_idx])
        h_d2d = db_to_linear(d2d_db[ps])
        h_d2d_bs = db_to_linear(serving_gain[tx_users[ps]])
        p_cell, cell_clipped = open_loop_power_w(cell_targets[cell_idx], h_cell, sigma2_cell,
                                                 cfg.ue_max_power_dbm)
        p_d2d, d2d_clipped = open_loop_power_w(d2d_targets[pair_ids[ps]], h_d2d, sigma2_d,
                                               cfg.ue_max_power_dbm)
        baseline = h_cell * p_cell / sigma2_cell
        sinr = (h_cell * p_cell)[None, :] / ((h_d2d_bs * p_d2d)[:, None] + sigma2_cell)
        a, b = xy[rx_users[ps]], xy[cell_idx]
        cross = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        floor = np.broadcast_to(float(cfg.distance_ratio_threshold), (len(h_d2d),))
        admit = ((cross >= floor[:, None] * d2d_dist[ps][:, None])
                 & (sinr >= (baseline * db_to_linear(-cfg.gamma_cell_db))[None, :]))
        for key, value in (("d2d_signal", h_d2d * p_d2d), ("sigma2_d2d", [sigma2_d] * len(h_d2d)),
                           ("pair_share_hz", [share] * len(h_d2d)), ("d2d_clipped", d2d_clipped)):
            per_pair[key].append(np.asarray(value))
        for key, value in (("p_cell", p_cell), ("cell_share_hz", [share] * len(h_cell)),
                           ("baseline_sinr", baseline), ("cell_clipped", cell_clipped)):
            per_cell[key].append(np.asarray(value))
        sinr_cell.append(sinr.ravel())
        sectors.append((int(sector_id), sinr, baseline, admit))
    for key, parts in (*per_pair.items(), *per_cell.items(), ("sinr_cell", sinr_cell)):
        fields[key] = np.concatenate(parts)
    return fields, sectors


@pytest.mark.parametrize("scenario", SCENARIO_PRESETS)
def test_build_drop_equals_per_sector_build_reference(scenario):
    """On seed-3 drops 0-5, every DropArrays buffer and each SectorState's
    sinr_cell, baseline_sinr and admission entries equal, with ==, those of
    a frozen per-sector build loop.  The byte gates print 11 significant
    digits and cannot see a last-bit move."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    for d in range(6):
        seed = drop_seed(3, d)
        drop = build_drop(cfg, seed)
        fields, sectors = per_sector_build(cfg, seed, drop)
        assert {f.name for f in dataclasses.fields(drop.arrays)} == set(fields)
        for name, want in fields.items():
            got = getattr(drop.arrays, name)
            if isinstance(want, tuple):
                assert got == want, (d, name)
            else:
                assert got.shape == np.shape(want) and got.dtype.kind == want.dtype.kind, (d, name)
                assert (got == want).all(), (d, name)
        assert len(drop.states) == len(sectors) > 0
        for st, (sector_id, sinr, baseline, admit) in zip(drop.states, sectors):
            assert st.sector_id == sector_id
            assert st.sinr_cell.shape == sinr.shape and (st.sinr_cell == sinr).all()
            assert (st.baseline_sinr == baseline).all()
            assert st.feas_context.shape == admit.shape
            assert (st.feas_context.entries == admit).all(), (d, sector_id)


def spy(monkeypatch, name, calls):
    """Wrap engine.<name> so that each call appends its positional arguments
    to calls[name]."""
    inner = getattr(engine, name)

    def wrapper(*args):
        calls.setdefault(name, []).append(args)
        return inner(*args)

    monkeypatch.setattr(engine, name, wrapper)


@pytest.mark.parametrize("scenario", SCENARIO_PRESETS)
def test_build_drop_runs_powers_per_drop_and_admission_per_sector(monkeypatch, scenario):
    """build_drop calls open_loop_power_w twice, over every cellular user and
    then every pair of its evaluated sectors, build_gain_set once over all of
    those rows, and feasibility_context once per evaluated sector, whose
    gains are views of the drop's.  Each sector's interferer distances equal,
    with ==, those user_user_gain_db gives over its cross links."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    calls = {}
    for name in ("open_loop_power_w", "build_gain_set", "feasibility_context"):
        spy(monkeypatch, name, calls)
    built = []  # and build_gain_set's results, to check the sectors' views
    build = engine.build_gain_set
    monkeypatch.setattr(engine, "build_gain_set",
                        lambda *args: built.append(build(*args)) or built[-1])
    for d in range(2):
        calls.clear()
        built.clear()
        drop = build_drop(cfg, drop_seed(3, d))
        a = drop.arrays
        k = len(drop.states)
        assert {name: len(c) for name, c in calls.items()} == {
            "open_loop_power_w": 2, "build_gain_set": 1, "feasibility_context": k}
        assert [len(c[0]) for c in calls["open_loop_power_w"]] == [len(a.p_cell), len(a.rx_users)]
        cell_db, tx_db, d2d_db = calls["build_gain_set"][0]
        assert (cell_db == drop.serving_gain[a.cell_users]).all()
        assert len(tx_db) == len(d2d_db) == len(a.rx_users)
        for j, args in enumerate(calls["feasibility_context"]):
            ps, cs = sector_slices(a, j)
            for field, rows in (("h_cell", cs), ("h_d2d", ps), ("h_d2d_bs", ps)):
                got, whole = getattr(args[0], field), getattr(built[0], field)
                assert got.size == 0 or np.shares_memory(got, whole), (d, j, field)
                assert (got == whole[rows]).all(), (d, j, field)
            rx, cell = a.rx_users[ps], a.cell_users[cs]
            n, m = len(rx), len(cell)
            want = drop.channel.user_user_gain_db(np.repeat(rx, m), np.tile(cell, n))[1]
            assert args[5].shape == (n, m) and (args[5] == want.reshape(n, m)).all(), (d, j)


def test_run_drop_reports_and_baseline_identity():
    cfg = tiny_config()
    result = run_drop(cfg, 3)
    assert set(result.reports) == set(SCHEMES)
    bases = {s: result.reports[s].baseline_cell_bps for s in SCHEMES}
    assert len(set(bases.values())) == 1  # same deployment, same baseline
    none = result.reports["none"]
    assert none.cell_bps == pytest.approx(none.baseline_cell_bps)
    assert none.d2d_bps == 0.0
    assert none.enabled_pairs == 0
    with pytest.raises(ValueError, match="unknown scheme"):
        run_drop(cfg, 3, schemes=("proposed", "greedy"))


def test_run_drop_random_stream_stable_across_subsets():
    cfg = tiny_config()
    full = run_drop(cfg, 11, schemes=SCHEMES)
    only = run_drop(cfg, 11, schemes=("random",))
    assert only.reports["random"].cell_bps == full.reports["random"].cell_bps
    assert only.reports["random"].d2d_bps == full.reports["random"].d2d_bps
    assert only.reports["random"].overall_bps == full.reports["random"].overall_bps


def test_run_drop_alloc_rows():
    cfg = tiny_config()
    result = run_drop(cfg, 5, schemes=("none", "proposed"))
    assert [f.name for f in dataclasses.fields(result)] == ["reports", "grants"]
    assert list(result.grants) == ["proposed", "none"]  # SCHEMES order
    assert result.grants["none"].shape == (3, 0)  # silent scheme grants nothing
    assert result.grants["proposed"].dtype == np.int32
    drop = build_drop(cfg, 5)
    shapes = {st.sector_id: st.shape for st in drop.states}
    for sector, m, col in result.grants["proposed"].T.tolist():
        n_pairs, n_cols = shapes[sector]
        assert 0 <= m < n_pairs
        assert 0 <= col < n_cols


def allocation_pairs_rows(cfg, seed):
    """Each scheme's grants rebuilt from the allocators' per-sector output:
    SCHEDULERS on build_drop's states, then (sector id, m, n) for each
    Allocation.pairs() entry, sector -> pair, schemes in SCHEMES order."""
    states = build_drop(cfg, seed).states
    rows = {}
    for scheme, allocate in SCHEDULERS.items():
        rng = engine._stream(seed, "random-alloc")
        rows[scheme] = [(st.sector_id, m, n) for st in states
                        for m, n in allocate(st, rng).pairs()]
    return rows


def test_every_scheduler_returns_an_injective_int_array_per_sector():
    """Under every scheme, on every sector of two tiny drops (the second has
    sectors without pairs), resource_of_pair is a 1-D integer ndarray of the
    sector's pair count, valued in [-1, M) and injective over its granted
    columns."""
    granted = dict.fromkeys(SCHEDULERS, 0)
    shapes = []
    for users, d in ((40, 0), (12, 1)):
        cfg = tiny_config(fixed_user_count=users)
        seed = drop_seed(cfg.seed, d)
        states = build_drop(cfg, seed).states
        shapes += [st.shape for st in states]
        for scheme, allocate in SCHEDULERS.items():
            rng = engine._stream(seed, "random-alloc")
            for st in states:
                n, m = st.shape
                res = allocate(st, rng).resource_of_pair
                where = (users, scheme, st.sector_id)
                assert isinstance(res, np.ndarray) and res.dtype.kind == "i", where
                assert res.shape == (n,), where
                assert ((res >= -1) & (res < m)).all(), where
                cols = res[res >= 0]
                assert len(np.unique(cols)) == len(cols), where
                granted[scheme] += len(cols)
    assert min(n for n, _ in shapes) == 0 < max(n for n, _ in shapes)
    assert granted["none"] == 0 and min(granted[s] for s in SCHEMES if s != "none") > 0


@pytest.mark.parametrize("scenario", SCENARIO_PRESETS)
def test_grants_equal_allocation_pairs_on_every_preset(tmp_path, scenario):
    """run_drop's grant arrays and the rows a campaign writes to
    allocations.csv are the allocators' grants, in SCHEMES order whatever
    order the schemes are asked for in."""
    cfg = dataclasses.replace(apply_scenario(ScenarioConfig(), scenario), seed=3, num_drops=1)
    seed = drop_seed(3, 0)
    want = allocation_pairs_rows(cfg, seed)
    assert len(want["proposed"]) > 0 and want["none"] == []
    grants = run_drop(cfg, seed).grants
    assert list(grants) == list(SCHEMES)
    assert {s: list(zip(*g.tolist())) for s, g in grants.items()} == want
    run_campaign(cfg, SCHEMES[::-1], out_dir=str(tmp_path), workers=1)
    written = (tmp_path / "allocations.csv").read_text(encoding="utf-8").splitlines()
    assert written == ["drop,sector,scheme,m,n"] + [
        f"0,{sector},{scheme},{m},{n}" for scheme in SCHEMES for sector, m, n in want[scheme]]


@pytest.mark.parametrize("scenario", ["macro-scheme1", "hetnet"])
def test_campaign_retains_at_most_16_kb_per_drop(scenario):
    """What run_campaign keeps per drop is its reports and grant arrays: the
    traced memory a 12-drop campaign holds exceeds a 4-drop one's by at
    most 16 kB per extra drop."""
    cfg = apply_scenario(ScenarioConfig(), scenario)
    run_campaign(dataclasses.replace(cfg, num_drops=1), SCHEMES, workers=1)  # warm caches
    retained = {}
    for drops in (4, 12):
        tracemalloc.start()
        try:
            campaign = run_campaign(dataclasses.replace(cfg, num_drops=drops), SCHEMES,
                                    workers=1)
            gc.collect()
            retained[drops] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(campaign.grants) == drops
    per_drop = (retained[12] - retained[4]) / 8
    assert per_drop <= 16e3, f"{per_drop / 1e3:.1f} kB retained per drop"


def test_campaign_single_drop_equals_run_drop():
    cfg = tiny_config(num_drops=1)
    campaign = run_campaign(cfg, ("proposed", "none"))
    direct = run_drop(cfg, drop_seed(cfg.seed, 0), ("proposed", "none"))
    got = campaign.reports["proposed"][0]
    want = direct.reports["proposed"]
    assert got.cell_bps == want.cell_bps
    assert got.d2d_bps == want.d2d_bps
    assert got.overall_bps == want.overall_bps
    assert campaign.overall_gain("none") == pytest.approx(0.0, abs=1e-12)
    assert campaign.mean_enabled_pairs("none") == 0.0


def read_all(out_dir):
    names = ("drops.csv", "kinds.csv", "allocations.csv", "summary.txt")
    blobs = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_campaign_outputs_bitwise_reproducible(tmp_path):
    cfg = tiny_config()
    run_campaign(cfg, SCHEMES, out_dir=str(tmp_path / "a"))
    run_campaign(cfg, SCHEMES, out_dir=str(tmp_path / "b"))
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


def test_campaign_worker_count_invariance(tmp_path):
    cfg = tiny_config(num_drops=2)
    run_campaign(cfg, ("proposed", "random"), out_dir=str(tmp_path / "w1"),
                 workers=1)
    run_campaign(cfg, ("proposed", "random"), out_dir=str(tmp_path / "w2"),
                 workers=2)
    assert read_all(tmp_path / "w1") == read_all(tmp_path / "w2")


def test_campaign_progress_same_for_any_worker_count():
    cfg = tiny_config(num_drops=12)
    lines = {}
    for workers in (1, 2):
        lines[workers] = []
        run_campaign(cfg, ("none",), progress=lines[workers].append, workers=workers)
    assert lines[1] == [f"{i}/12 drops" for i in range(1, 13)]
    assert lines[2] == lines[1]


@pytest.mark.parametrize("workers, out_under_file, message", [
    (0, False, "worker count must be >= 1, got 0"),
    (-3, False, "worker count must be >= 1, got -3"),
    (1, True, "cannot create output directory"),
])
def test_run_campaign_refuses_workers_and_out_before_any_drop(tmp_path, monkeypatch, workers,
                                                              out_under_file, message):
    """A worker count below 1, or an out_dir that cannot be made, is one
    one-line ConfigError before any drop, and nothing is created."""
    calls = []
    monkeypatch.setattr(engine, "run_drop", lambda *args, **kwargs: calls.append(args))
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / ("file" if out_under_file else "dir") / "out"
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        run_campaign(tiny_config(num_drops=5), ("none",), out_dir=str(out), workers=workers)
    assert type(info.value) is ConfigError and "\n" not in str(info.value)
    assert calls == [] and sorted(os.listdir(tmp_path)) == ["file"]


def test_run_campaign_caps_workers_at_the_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(engine.mp, "Pool", lambda *args: pytest.fail("pool on one CPU"))
    campaign = run_campaign(tiny_config(num_drops=2), ("none",), out_dir=str(tmp_path),
                            workers=2)
    assert len(campaign.reports["none"]) == 2


def test_write_outputs_schema(tmp_path):
    cfg = tiny_config(num_drops=2)
    campaign = run_campaign(cfg, SCHEMES)
    paths = write_outputs(campaign, str(tmp_path))
    blobs = read_all(tmp_path)
    assert set(paths) == {"drops", "kinds", "allocations", "summary"}
    assert blobs["drops.csv"].splitlines()[0] == \
        b"drop,scheme,cell_bps,d2d_bps,overall_bps,enabled_pairs,clip_rate"
    assert blobs["kinds.csv"].splitlines()[0] == \
        b"drop,scheme,site_kind,cell_bps,d2d_bps,overall_bps,baseline_cell_bps"
    assert blobs["allocations.csv"].splitlines()[0] == b"drop,sector,scheme,m,n"
    # drops.csv: one row per (scheme, drop) plus the header
    assert len(blobs["drops.csv"].splitlines()) == 1 + len(SCHEMES) * 2
    summary = blobs["summary.txt"].decode()
    assert "drops: 2" in summary
    assert "[proposed] overall-gain:" in summary


def write_tiny_json(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dataclasses.asdict(tiny_config())), encoding="utf-8")
    return str(path)


def test_cli_validate_config(tmp_path, capsys):
    good = write_tiny_json(tmp_path)
    assert cli.main(["validate-config", "--config", good]) == 0
    assert capsys.readouterr().out.startswith("OK:")
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_knob": 1}', encoding="utf-8")
    assert cli.main(["validate-config", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = write_tiny_json(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--drops", "2", "--seed", "9",
                     "--scheme", "proposed,none", "--out", str(out), "--quiet"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[proposed] overall" in stdout
    assert read_all(out)  # all four files exist and are readable


def test_cli_run_prints_the_summary_it_writes(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", "hetnet", "--drops", "1", "--workers", "1",
                     "--out", str(out), "--quiet"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    written = (out / "summary.txt").read_text(encoding="utf-8").splitlines()[3:]
    assert any(" macro overall-gain:" in line for line in written)
    assert any(" micro overall-gain:" in line for line in written)
    assert printed == [*written, f"outputs written to {out}/"]


def test_cli_run_rejects_unknown_scheme(tmp_path, capsys):
    cfg_path = write_tiny_json(tmp_path)
    code = cli.main(["run", "--config", cfg_path, "--scheme", "greedy",
                     "--out", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x"),
                     "--quiet"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_trace_protocol_stdout(capsys):
    assert cli.main(["trace-protocol"]) == 0
    assert capsys.readouterr().out == run_single_cell(True).to_text()
    assert cli.main(["trace-protocol", "--outcome", "timeout",
                     "--retries", "2"]) == 0
    out = capsys.readouterr().out
    assert "outcome: timeout" in out
    assert out.count("discovery-announce") == 3  # 1 attempt + 2 retries
    # the largest retry count trace-protocol accepts
    assert cli.main(["trace-protocol", "--outcome", "timeout", "--retries", "100"]) == 0
    assert capsys.readouterr().out.count("discovery-announce") == 101


def test_cli_trace_protocol_file(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    assert cli.main(["trace-protocol", "--topology", "multi-cell",
                     "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text.startswith("trace-version: 1\ntopology: multi-cell")
    assert text.endswith("overhead-bytes: 385\n")


def test_cli_oracle(capsys):
    code = cli.main(["oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "lexicographic oracle [300 instances]: PASS" in out
    assert "capacity-max oracle [300 sectors]: PASS" in out
    assert "association oracle [2 seed-0 drops per preset]: PASS" in out


def test_cli_oracle_flags_a_wrong_association(capsys, monkeypatch):
    def second_best(xy, env, channel, users=None):  # exact powers, but one user served wrong
        serving, gain = associate_users(xy, env, channel, users)
        serving[0] = (serving[0] + 1) % len(env.sectors)
        return serving, gain

    monkeypatch.setattr(cli.engine, "associate_users", second_best)
    code = cli.main(["oracle"])
    assert code == 1
    out = capsys.readouterr().out
    assert "association oracle [2 seed-0 drops per preset]: FAIL (6 users)" in out


def test_cli_oracle_flags_a_non_lexicographic_matcher(capsys, monkeypatch):
    def largest_first(feasibility):  # maximum, but prefers large columns
        flipped = feasibility.entries[:, ::-1]
        m = flipped.shape[1]
        picked = allocate_proposed(FeasibilityMatrix(flipped)).resource_of_pair
        return Allocation(np.where(picked >= 0, m - 1 - picked, -1))

    monkeypatch.setattr(cli.rrm, "allocate_proposed", largest_first)
    code = cli.main(["oracle"])
    assert code == 1
    out = capsys.readouterr().out
    assert "matching oracle [300 instances]: PASS" in out
    assert "lexicographic oracle [300 instances]: FAIL" in out


@pytest.mark.parametrize("extra, out_parent, message", [
    (["--drops", "0"], None, "num_drops must lie in [1, 1000000]"),
    (["--seed", "-1"], None, "seed must lie in [0, 18446744073709551615]"),
    (["--workers", "0"], None, "worker count must be >= 1"),
    ([], "file", "cannot create output directory"),
    (["--config", "no/such/file.json"], None, "cannot read"),
    (["--config", "binary.json"], None, "not UTF-8 text"),
    (["--set", "foo.bar=1"], None, "unknown config key: 'foo'"),
    (["--set", "channel.ue_link.sigma_los_db=5"], None,
     "unknown config key: 'channel.ue_link.sigma_los_db'"),
    (["--set", "gamma_cell_db=abc"], None, "value must be JSON"),
    (["--set", "gamma_cell_db=6,10"], None, "value must be JSON"),
    (["--set", "gamma_cell_db=-1"], None, "gamma_cell_db must lie in [0, 100]"),
    (["--set", "gamma_cell_db"], None, "expected dotted.key=<JSON value>"),
    (["--set", "macro=1"], None, "macro: expected an object"),
    (["--set", "micro_enabled=null"], None, "micro_enabled: expected true/false"),
    (["--scheme", ","], None, "empty scheme list"),
    (["--scheme", "proposed,proposed"], None, "scheme 'proposed' listed twice"),
    (["--scheme", "proposed,bogus"], None, "unknown scheme 'bogus'"),
    (["--set", "num_drops=0"], None, "num_drops must lie in [1, 1000000]"),
    (["--workers", "-3"], None, "worker count must be >= 1"),
    (["--set", "grid_width_m=1" + "0" * 400], None, "grid_width_m: expected a finite number"),
    (["--set", "seed=" + "[" * 10_000 + "]" * 10_000], None,
     "--set seed: JSON value beyond parser limits"),
    (["--set", "seed=1" + "0" * 5000], None, "--set seed: JSON value beyond parser limits"),
    (["--config", "deep.json"], None, "deep.json: JSON beyond parser limits"),
    (["--set", "fixed_user_count=null", "--set", "user_density_per_km2=1e12"], None,
     "user_density_per_km2 must lie in [0, 1e+07]"),
    (["--set", "fixed_user_count=1000000000000"], None, "fixed_user_count must lie in [0, 1000000]"),
    (["--set", "micro_sites_per_grid=100000"], None, "micro_sites_per_grid must lie in [0, 32]"),
    (["--set", "micro.sectors_per_site=13"], None, "micro.sectors_per_site must lie in [1, 12]"),
    (["--set", "fixed_user_count=null", "--set", "user_density_per_km2=1e7"], None,
     "user_density_per_km2 gives 2.14e+06 users per drop on average"),
    # a traceback after the output directory was made (noise power 0, a
    # non-finite matrix), every gain nan, or every user on one sector
    (["--set", "macro.uplink_bandwidth_hz=1e-308"], None,
     "macro.uplink_bandwidth_hz must lie in [1, 1e+12]"),
    (["--set", "macro.antenna.max_gain_dbi=1e308"], None,
     "macro.antenna.max_gain_dbi must lie in [-50, 50]"),
    (["--set", "channel.macro_link.intercept_db=-1e4"], None,
     "channel.macro_link.intercept_db must lie in [-100, 200]"),
    (["--set", "macro.dl_power_dbm=1e300"], None, "macro.dl_power_dbm must lie in [-100, 100]"),
])
def test_cli_run_rejects_bad_input_in_one_line(tmp_path, capsys, monkeypatch,
                                                extra, out_parent, message):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "deep.json").write_text("[" * 10_000 + "]" * 10_000, encoding="utf-8")
    (tmp_path / "file").write_text("", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / (out_parent or ".") / "x"
    code = cli.main(["run", "--config", write_tiny_json(tmp_path), *extra,
                     "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_run_completes_with_every_length_at_its_cap(tmp_path):
    """Every length (m) at the high bound of its RANGES row, all at once."""
    out = tmp_path / "out"
    at_cap = [a for key, name, _ in config_leaves(ScenarioConfig()) if name.endswith("_m")
              for a in ("--set", f"{key}={RANGES[name][1]!r}")]
    assert len(at_cap) == 2 * 5
    assert cli.main(["run", "--scenario", "hetnet", "--set", "fixed_user_count=30", *at_cap,
                     "--drops", "1", "--out", str(out), "--quiet"]) == 0
    assert (out / "summary.txt").exists()


def test_cli_run_refuses_unusable_out_before_any_drop(tmp_path, capsys, monkeypatch):
    calls = []
    inner = engine.run_drop
    monkeypatch.setattr(engine, "run_drop",
                        lambda *args, **kwargs: calls.append(args) or inner(*args, **kwargs))
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = cli.main(["run", "--config", write_tiny_json(tmp_path), "--drops", "2",
                     "--out", str(blocker / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and err.count("\n") == 1
    assert calls == []


def test_cli_run_propagates_a_drop_that_raises(tmp_path, monkeypatch):
    """A drop that raises ends the campaign with that exception; the output
    directory, made before the first drop, holds no CSV and no summary."""
    inner = engine.run_drop
    seen = []

    def second_drop_raises(*args, **kwargs):
        seen.append(args)
        if len(seen) == 2:
            raise FloatingPointError("drop 1")
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "run_drop", second_drop_raises)
    out = tmp_path / "out"
    with pytest.raises(FloatingPointError, match="drop 1"):
        cli.main(["run", "--config", write_tiny_json(tmp_path), "--drops", "3",
                  "--out", str(out), "--workers", "1", "--quiet"])
    assert len(seen) == 2 and out.is_dir() and os.listdir(out) == []


@pytest.mark.parametrize("flag", ["--drops", "--seed", "--workers"])
@pytest.mark.parametrize("value", ["1.5", "abc"])
def test_cli_run_refuses_a_non_integer_count_with_usage(tmp_path, capsys, flag, value):
    """argparse refuses a non-integer --drops, --seed or --workers with its
    usage message and exit status 2, before any output directory exists."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", write_tiny_json(tmp_path), flag, value,
                  "--out", str(out), "--quiet"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: d2dsim run") and f"invalid int value: '{value}'" in err
    assert not out.exists()


def load_perfbench_child():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_hooks_count_every_drop(tmp_path, monkeypatch):
    """The benchmark's tracer still sees each drop's users, pairs and
    association, and every span it installs records calls: a stage the
    program stops calling would read zero in its per-layer metrics."""
    cfg = tiny_config()
    n_sectors = len(generate_environment(cfg).sectors)
    drops = [build_drop(cfg, drop_seed(cfg.seed, i)) for i in range(cfg.num_drops)]
    n_users, n_pairs = np.sum([counts(d) for d in drops], axis=0).tolist()
    want = {"scenario.users": n_users, "scenario.pairs": n_pairs,
            "scenario.associate.evals": n_users * n_sectors}
    assert want["scenario.pairs"] > 0
    # the tracer wraps functions in place; setting each to itself first lets
    # monkeypatch's undo put the originals back
    for target in (engine, channel, channel.DropChannel):
        for name, value in list(vars(target).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(target, name, value)
    tracer = load_perfbench_child().Tracer()
    tracer.install()
    # the name of every span the tracer installed, read from its wrappers
    spans = {inspect.getclosurevars(fn).nonlocals["name"]
             for target in (engine, channel, channel.DropChannel)
             for fn in vars(target).values()
             if getattr(fn, "__qualname__", "") == "Tracer.span.<locals>.wrapper"}
    assert spans
    code = cli.main(["run", "--config", write_tiny_json(tmp_path), "--workers", "1",
                     "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert {name: tracer.counts[name] for name in want} == want
    assert tracer.proposed and tracer.check_proposed() == []
    assert {name for name in spans if not tracer.calls[name]} == set()
    assert tracer.counts["channel.links"] > 0 and tracer.counts["feasibility.entries"] > 0


def test_perfbench_verify_first_drop_passes_a_macro_scheme1_run(tmp_path):
    """The benchmark's own allocations.csv check accepts a 1-drop run, and
    catches a lost grant."""
    argv = ["run", "--scenario", "macro-scheme1", "--drops", "1", "--workers", "1",
            "--out", str(tmp_path), "--quiet"]
    assert cli.main(argv) == 0
    cfg = cli._load(cli._build_parser().parse_args(argv))
    verify_first_drop = load_perfbench_child().verify_first_drop
    assert verify_first_drop(cfg, drop_seed(cfg.seed, 0), str(tmp_path)) == []
    path = tmp_path / "allocations.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lost = next(i for i, line in enumerate(lines) if ",proposed," in line)
    path.write_text("".join(lines[:lost] + lines[lost + 1:]), encoding="utf-8")
    assert any("maximum matching" in e
               for e in verify_first_drop(cfg, drop_seed(cfg.seed, 0), str(tmp_path)))


def test_cli_run_applies_set_after_scenario_and_before_drops(tmp_path):
    args = cli._build_parser().parse_args([
        "run", "--config", write_tiny_json(tmp_path), "--scenario", "macro-scheme1",
        "--set", "d2d_snr_target_db=[7,12]", "--set", "micro_enabled=true",
        "--set", "num_drops=5", "--set", 'channel.ue_link={"intercept_db": 40}',
        "--drops", "2"])
    cfg = cli._load(args)
    assert cfg.d2d_snr_target_db == (7.0, 12.0) and cfg.micro_enabled
    assert cfg.channel.ue_link.intercept_db == 40.0
    assert cfg.num_drops == 2


def test_cli_run_refuses_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["trace-protocol", "--retries", "-1"], "--retries must be >= 0"),
    (["trace-protocol", "--out", "no/such/dir/trace.txt"], "cannot write"),
    (["trace-protocol", "--retries", "101"], "--retries must be >= 0 and <= 100"),
])
def test_cli_tools_reject_bad_flags_in_one_line(tmp_path, capsys, monkeypatch,
                                                argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1
