"""Monte-Carlo engine: one drop end to end, then campaigns with CSV output.

Every drop derives all randomness from (base seed, drop index) through named
substreams, so any scheme subset sees byte-identical deployments and a rerun
of a campaign reproduces its output files exactly.  Only sectors containing
at least one measured (central-grid) terminal are scheduled and evaluated;
replica-grid sectors exist to keep border association honest.

A drop's users are rows of one (N, 2) position array and its D2D pairs rows
of one (P, 2) array of (tx, rx) user rows.  A user is cellular unless it ends
a pair, and a pair belongs to the sector serving its transmitting end, so
only cellular users and pair transmitters are associated; a pair's receiving
end has no serving sector.  Association hands back each associated user's
serving gain with its serving sector, so a drop's gain set reads the gains
of its cellular users and pair transmitters instead of rebuilding them.

A drop keeps two views of its evaluated sectors: one DropArrays that lays
their rows end to end, and one SectorState per sector for the schedulers,
whose SINRs, SNRs and gains are views of it.  Linear gains, open-loop
powers, no-reuse SNRs, reuse SINRs and interferer distances are built once
over the whole drop; per sector remain its noise powers (numpy's scalar
path, from its Python-float share), its SINR targets and its context
admission, a call perfbench's tracer counts.  No scheme reads a sector's
full cross-link gain matrix, so a drop schedules every scheme first, turns
each scheme's allocations into one flat resource array, and then builds
only the cross links some scheme scheduled, in one pass, scheme -> sector
-> pair; each scheme is then evaluated over whole-drop arrays.  The same
arrays give each scheme's grants (DropArrays.grants), which write_outputs
formats into allocations.csv.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import DropChannel, GainSet, build_gain_set, noise_power_watts
from .config import ConfigError, ScenarioConfig, validate_config
from .feasibility import (SinrTargets, baseline_cell_sinr, feasibility_context,
                          reuse_cell_sinr)
from .metrics import CapacityReport, DropArrays, SectorState, aggregate_gain, evaluate_drop
from .power import draw_snr_targets, open_loop_power_w
from .rrm import (Allocation, allocate_capacity_max, allocate_none, allocate_proposed,
                  allocate_random)
from .scenario import associate_users, drop_users, generate_environment, pair_users
from .units import db_to_linear

# Each scheme's allocator on one sector, given the drop's random-allocation
# stream, in the order run_drop schedules the schemes and allocations.csv
# lists them.  The adapters look the allocators up as engine names at call
# time, so a wrapper set on those names (perfbench's tracer) sees every call.
SCHEDULERS: dict[str, Callable[[SectorState, np.random.Generator], Allocation]] = {
    "proposed": lambda st, rng: allocate_proposed(st.feas_context),
    "capacity-max": lambda st, rng: allocate_capacity_max(st.sinr_cell, st.baseline_sinr),
    "random": lambda st, rng: allocate_random(*st.shape, rng),
    "none": lambda st, rng: allocate_none(st.shape[0]),
}
SCHEMES = tuple(SCHEDULERS)

WORKERS_ENV = "D2DSIM_WORKERS"

# Fixed stream ids: a stream never moves when another is added or retired.
_STREAMS = {"users": 2, "pairing": 3, "targets-cell": 4,
            "targets-d2d": 5, "random-alloc": 6, "shadow": 7}


def drop_seed(base_seed: int, drop_index: int) -> int:
    """Stable per-drop seed derived from the campaign seed."""
    ss = np.random.SeedSequence([int(base_seed), int(drop_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _stream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[label]]))


@dataclass
class DropState:
    """One fully generated deployment, ready for scheduling."""

    serving: np.ndarray  # sector id per user, -1 at a pair's rx end
    serving_gain: np.ndarray  # dB, antenna included, per user; nan at a pair's rx end
    states: list[SectorState]  # evaluated sectors, ascending sector id
    arrays: DropArrays  # the same sectors, in the same order
    channel: DropChannel


def build_drop(cfg: ScenarioConfig, seed: int) -> DropState:
    """Generate environment, users, pairs, gains, powers, cellular reuse SINRs,
    feasibility and the evaluation arrays."""
    env = generate_environment(cfg)
    xy = drop_users(cfg, env, _stream(seed, "users"))
    pairs = pair_users(cfg, xy, _stream(seed, "pairing"))
    n = len(xy)
    cellular = np.ones(n, dtype=bool)
    cellular[pairs] = False
    pair_of_tx = np.full(n, -1)
    pair_of_tx[pairs[:, 0]] = np.arange(len(pairs))
    # a pair belongs to the sector serving its tx end, so only cellular users
    # and tx ends are associated: nothing reads a rx end's serving sector
    sends = cellular | (pair_of_tx >= 0)
    associated = np.flatnonzero(sends)
    channel = DropChannel(env, drop_seed(seed, _STREAMS["shadow"]), xy)
    serving, serving_gain = associate_users(xy, env, channel, associated)

    cell_targets = draw_snr_targets(cfg.cell_snr_target_db, n, _stream(seed, "targets-cell"))
    d2d_targets = draw_snr_targets(cfg.d2d_snr_target_db, len(pairs), _stream(seed, "targets-d2d"))

    measured = (np.floor(xy / (env.width_m, env.height_m)) == 0).all(axis=1)
    # a sector is evaluated when it serves a measured cellular user or pair
    # tx end; a replica-only sector is association fodder
    evaluated = np.zeros(len(env.sectors), dtype=bool)
    evaluated[serving[measured & sends]] = True
    # the evaluated sectors' cellular users and pairs, grouped by sector in
    # ascending sector id (sector ids are the indices of env.sectors), each
    # group in ascending user order; pair ids ascend with their tx user
    by_sector = associated[np.argsort(serving[associated], kind="stable")]
    by_sector = by_sector[evaluated[serving[by_sector]]]
    cell_users = by_sector[cellular[by_sector]]
    pair_ids = pair_of_tx[by_sector]
    pair_ids = pair_ids[pair_ids >= 0]
    tx_users, rx_users = pairs[pair_ids].T
    sector_ids = np.flatnonzero(evaluated)
    cell_start = np.append(np.searchsorted(serving[cell_users], sector_ids), len(cell_users))
    pair_start = np.append(np.searchsorted(serving[tx_users], sector_ids), len(pair_ids))
    n_cells, n_pairs = np.diff(cell_start), np.diff(pair_start)
    sinr_start = np.append(0, np.cumsum(n_pairs * n_cells))
    # one UE-UE pass over the D2D links of every evaluated sector, in sector
    # order (each link's bits are independent of the others in the call)
    d2d_db, d2d_dist = channel.user_user_gain_db(tx_users, rx_users)

    # noise per sector: numpy's array path of 10.0 ** x can differ from its scalar path
    shares = [env.sectors[i].bandwidth_hz / max(m, 1)
              for i, m in zip(sector_ids.tolist(), n_cells.tolist())]
    noise = np.array([[noise_power_watts(share, nf, cfg.noise.thermal_density_dbm_hz)
                       for nf in (cfg.noise.bs_noise_figure_db, cfg.noise.ue_noise_figure_db)]
                      for share in shares]).reshape(-1, 2)
    sigma2_cell, sigma2_d2d = np.repeat(noise[:, 0], n_cells), np.repeat(noise[:, 1], n_pairs)
    # the whole drop's gains, powers, no-reuse SNRs and reuse SINRs, by row
    gains = build_gain_set(serving_gain[cell_users], serving_gain[tx_users], d2d_db)
    p_cell, cell_clipped = open_loop_power_w(cell_targets[cell_users], gains.h_cell, sigma2_cell,
                                             cfg.ue_max_power_dbm)
    p_d2d, d2d_clipped = open_loop_power_w(d2d_targets[pair_ids], gains.h_d2d, sigma2_d2d,
                                           cfg.ue_max_power_dbm)
    baseline = baseline_cell_sinr(gains, p_cell, sigma2_cell)
    arrays = DropArrays(
        sector_ids=sector_ids,
        kinds=tuple(env.sectors[i].kind for i in sector_ids),
        pair_start=pair_start,
        cell_start=cell_start,
        sinr_cell=np.empty(sinr_start[-1]),  # filled below, over reuse_entries()
        d2d_signal=gains.h_d2d * p_d2d,
        sigma2_d2d=sigma2_d2d,
        pair_share_hz=np.repeat(shares, n_pairs),
        rx_users=rx_users,
        pair_measured=measured[tx_users],
        d2d_clipped=d2d_clipped,
        p_cell=p_cell,
        cell_share_hz=np.repeat(shares, n_cells),
        baseline_sinr=baseline,
        cell_users=cell_users,
        cell_measured=measured[cell_users],
        cell_clipped=cell_clipped,
    )
    pair_row, cell_row = arrays.reuse_entries()
    signal, d2d_bs = (gains.h_cell * p_cell)[cell_row], (gains.h_d2d_bs * p_d2d)[pair_row]
    arrays.sinr_cell[:] = reuse_cell_sinr(signal, d2d_bs, sigma2_cell[cell_row])
    # each reuse's interferer distance: cellular user to the pair's rx end
    (rx_x, rx_y), (cell_x, cell_y) = channel.users_xy[rx_users].T, channel.users_xy[cell_users].T
    cross_dist = np.hypot(rx_x[pair_row] - cell_x[cell_row], rx_y[pair_row] - cell_y[cell_row])

    # per sector: its context admission, over views of the drop's rows
    states: list[SectorState] = []
    p, c, e = pair_start.tolist(), cell_start.tolist(), sinr_start.tolist()
    for k, (sector_id, sigma2) in enumerate(zip(sector_ids.tolist(), noise[:, 0].tolist())):
        ps, cs, es = slice(p[k], p[k + 1]), slice(c[k], c[k + 1]), slice(e[k], e[k + 1])
        shape = (p[k + 1] - p[k], c[k + 1] - c[k])
        targets = SinrTargets(cfg.gamma_cell_db, baseline[cs],
                              ratio_threshold=cfg.distance_ratio_threshold)
        feas = feasibility_context(GainSet(gains.h_cell[cs], gains.h_d2d[ps], gains.h_d2d_bs[ps]),
                                   p_cell[cs], p_d2d[ps], sigma2, d2d_dist[ps],
                                   cross_dist[es].reshape(shape), targets)
        states.append(SectorState(sector_id, arrays.sinr_cell[es].reshape(shape), baseline[cs],
                                  feas))
    return DropState(serving=serving, serving_gain=serving_gain, states=states, arrays=arrays,
                     channel=channel)


def check_schemes(schemes: tuple[str, ...]) -> None:
    """Refuse an empty scheme list, an unknown scheme or one listed twice."""
    if not schemes:
        raise ConfigError("empty scheme list")
    for i, s in enumerate(schemes):
        if s not in SCHEDULERS:
            raise ConfigError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if s in schemes[:i]:
            raise ConfigError(f"scheme {s!r} listed twice")


@dataclass
class DropResult:
    reports: dict[str, CapacityReport]
    grants: dict[str, np.ndarray]  # per scheme, in SCHEMES order: DropArrays.grants


def run_drop(
    cfg: ScenarioConfig,
    seed: int,
    schemes: tuple[str, ...] = SCHEMES,
) -> DropResult:
    """One deployment, scheduled and evaluated under every requested scheme."""
    check_schemes(schemes)
    drop = build_drop(cfg, seed)
    arrays = drop.arrays
    rng = _stream(seed, "random-alloc")  # only the random scheme draws from it
    # per scheme, in SCHEMES order: DropArrays.resource_rows
    resources = {scheme: arrays.resource_rows([allocate(st, rng) for st in drop.states])
                 for scheme, allocate in SCHEDULERS.items() if scheme in schemes}
    # one UE-UE pass over every scheduled cross link, scheme -> sector -> pair
    links = [arrays.cross_links(res) for res in resources.values()]
    h_cross = np.split(
        db_to_linear(drop.channel.user_user_gain_db(
            *np.hstack(links))[0]),
        np.cumsum([link.shape[1] for link in links])[:-1])
    reports = {scheme: evaluate_drop(arrays, res, gains)
               for (scheme, res), gains in zip(resources.items(), h_cross)}
    return DropResult(reports, {scheme: arrays.grants(res) for scheme, res in resources.items()})


# ---------------------------------------------------------------------------
# campaigns


@dataclass
class CampaignResult:
    cfg: ScenarioConfig
    schemes: tuple[str, ...]
    reports: dict[str, list[CapacityReport]]
    grants: list[dict[str, np.ndarray]]  # per drop: DropResult.grants

    def overall_gain(self, scheme: str) -> float | None:
        rs = self.reports[scheme]
        return aggregate_gain([r.overall_bps for r in rs],
                              [r.baseline_cell_bps for r in rs])

    def cellular_gain(self, scheme: str) -> float | None:
        rs = self.reports[scheme]
        return aggregate_gain([r.cell_bps for r in rs],
                              [r.baseline_cell_bps for r in rs])

    def kind_overall_gain(self, scheme: str, kind: str) -> float | None:
        rs = self.reports[scheme]
        vals = [r.by_kind.get(kind, {}).get("overall_bps", 0.0) for r in rs]
        base = [r.by_kind.get(kind, {}).get("baseline_cell_bps", 0.0) for r in rs]
        return aggregate_gain(vals, base)

    def mean_enabled_pairs(self, scheme: str) -> float:
        return float(np.mean([r.enabled_pairs for r in self.reports[scheme]]))

    def mean_clip_rate(self, scheme: str) -> float:
        return float(np.mean([r.clip_rate for r in self.reports[scheme]]))


def resolve_workers(workers: int | None = None) -> int:
    """Worker count from the argument, else $D2DSIM_WORKERS, else 1.

    Capped at os.cpu_count(); a count below 1 or a non-integer environment
    value raises ConfigError.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV) or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def run_campaign(
    cfg: ScenarioConfig,
    schemes: tuple[str, ...] = SCHEMES,
    out_dir: str | None = None,
    progress=None,
    workers: int | None = None,
) -> CampaignResult:
    """Run cfg.num_drops paired drops and optionally write CSV/summary files.

    Worker count comes from resolve_workers(workers).  Results, files and
    progress lines are identical for any worker count.  The config and the
    scheme list are checked before the first drop.
    """
    schemes = tuple(schemes)
    validate_config(cfg)
    check_schemes(schemes)
    workers = resolve_workers(workers)
    seeds = (drop_seed(cfg.seed, i) for i in range(cfg.num_drops))
    task = partial(run_drop, cfg, schemes=schemes)
    tick = max(1, cfg.num_drops // 10)
    results: list[DropResult] = []
    with (mp.Pool(workers) if workers > 1 else nullcontext()) as pool:
        for result in (pool.imap if workers > 1 else map)(task, seeds):
            results.append(result)
            if progress and (len(results) % tick == 0 or len(results) == cfg.num_drops):
                progress(f"{len(results)}/{cfg.num_drops} drops")
    reports = {s: [r.reports[s] for r in results] for s in schemes}
    campaign = CampaignResult(cfg, schemes, reports, [r.grants for r in results])
    if out_dir is not None:
        write_outputs(campaign, out_dir)
    return campaign


def _fmt(x: float) -> str:
    return f"{x:.10e}"


def _write(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(rows)


def summary_lines(campaign: CampaignResult):
    """Each scheme's summary.txt lines: its gains, then its gain per site kind."""
    for scheme in campaign.schemes:
        o = campaign.overall_gain(scheme)
        c = campaign.cellular_gain(scheme)
        yield (f"[{scheme}] overall-gain: {_pct(o)}  cellular-gain: {_pct(c)}  "
               f"enabled-pairs-mean: {campaign.mean_enabled_pairs(scheme):.2f}  "
               f"clip-rate-mean: {campaign.mean_clip_rate(scheme):.4f}\n")
        for kind in sorted({k for r in campaign.reports[scheme] for k in r.by_kind}):
            g = campaign.kind_overall_gain(scheme, kind)
            yield f"[{scheme}] {kind} overall-gain: {_pct(g)}\n"


def write_outputs(campaign: CampaignResult, out_dir: str) -> dict[str, str]:
    """drops.csv + kinds.csv + allocations.csv + summary.txt, each streamed
    from a generator (allocations.csv one drop's scheme at a time, formatted
    from its grant array); stable bytes for a given campaign."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name.partition(".")[0]: os.path.join(out_dir, name)
             for name in ("drops.csv", "kinds.csv", "allocations.csv", "summary.txt")}
    _write(paths["drops"], "drop,scheme,cell_bps,d2d_bps,overall_bps,enabled_pairs,clip_rate\n",
           (f"{i},{scheme},{_fmt(r.cell_bps)},{_fmt(r.d2d_bps)},"
            f"{_fmt(r.overall_bps)},{r.enabled_pairs},{_fmt(r.clip_rate)}\n"
            for scheme in campaign.schemes for i, r in enumerate(campaign.reports[scheme])))
    _write(paths["kinds"],
           "drop,scheme,site_kind,cell_bps,d2d_bps,overall_bps,baseline_cell_bps\n",
           (f"{i},{scheme},{kind},{_fmt(k['cell_bps'])},{_fmt(k['d2d_bps'])},"
            f"{_fmt(k['overall_bps'])},{_fmt(k['baseline_cell_bps'])}\n"
            for scheme in campaign.schemes for i, r in enumerate(campaign.reports[scheme])
            for kind, k in sorted(r.by_kind.items())))
    _write(paths["allocations"], "drop,sector,scheme,m,n\n",
           ("".join(map(f"{i},{{}},{scheme},{{}},{{}}\n".format, *rows.tolist()))
            for i, grants in enumerate(campaign.grants) for scheme, rows in grants.items()))
    _write(paths["summary"], f"drops: {campaign.cfg.num_drops}\nseed: {campaign.cfg.seed}\n"
           f"schemes: {','.join(campaign.schemes)}\n", summary_lines(campaign))
    return paths


def _pct(x: float | None) -> str:
    return "n/a" if x is None else f"{100.0 * x:+.2f}%"
