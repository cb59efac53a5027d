"""Capacity accounting: turn allocations into Shannon rates and gains.

A sector's uplink bandwidth is split evenly across its cellular users; a
scheduled D2D pair rides on its partner resource's share.  Only terminals in
the measured central grid contribute to reported sums, but interference is
evaluated for every scheduled link regardless of where it lives.

A drop's evaluated sectors are laid end to end in one DropArrays: every
pair's and every cellular user's vectors, and one flat buffer of the sectors'
cellular reuse-SINR matrices.  A scheme's sector allocations become one flat
resource array, so its rates take a few whole-drop array operations, and its
scheduled D2D links arrive with their cross-link gains, one per reuse in pair
order.  Only the measured sums run per sector: each is an ndarray.sum() over
the sector's own contiguous slice, added up in sector order, because
np.add.reduceat adds in another order and gives other bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .feasibility import FeasibilityMatrix
from .rrm import Allocation

__all__ = ["SectorState", "DropArrays", "CapacityReport", "link_rates", "evaluate_drop",
           "aggregate_gain"]


@dataclass
class SectorState:
    """What a sector's schedulers read for one drop."""

    sector_id: int
    sinr_cell: np.ndarray  # (N, M) cellular SINR of column n reused by row m
    baseline_sinr: np.ndarray  # (M,) no-reuse cellular SINR, linear
    feas_context: FeasibilityMatrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.sinr_cell.shape


@dataclass
class DropArrays:
    """What evaluation reads, over a drop's evaluated sectors laid end to end.

    Sector k owns pair rows pair_start[k]:pair_start[k + 1] and cellular rows
    cell_start[k]:cell_start[k + 1], each group in the sector's own order.
    Its (N_k x M_k) reuse-SINR matrix sits row-major in sinr_cell, after
    those of sectors 0..k-1.  A drop-level cellular row names a resource.
    """

    sector_ids: np.ndarray  # (K,) ascending
    kinds: tuple[str, ...]  # (K,) "macro" | "micro"
    pair_start: np.ndarray  # (K + 1,)
    cell_start: np.ndarray  # (K + 1,)
    sinr_cell: np.ndarray  # (sum N_k M_k,)
    # per pair
    d2d_signal: np.ndarray  # h_d2d * p_d2d, W
    sigma2_d2d: np.ndarray  # D2D receiver noise over its sector's share, W
    pair_share_hz: np.ndarray  # its sector's per-resource bandwidth share
    rx_users: np.ndarray  # user row of its receiving end
    pair_measured: np.ndarray  # bool, True = central-grid transmitter
    d2d_clipped: np.ndarray  # bool
    # per cellular user
    p_cell: np.ndarray  # transmit power, W
    cell_share_hz: np.ndarray
    baseline_sinr: np.ndarray  # no-reuse SINR, linear
    cell_users: np.ndarray  # user row
    cell_measured: np.ndarray  # bool
    cell_clipped: np.ndarray  # bool

    def __post_init__(self):
        # layout and scheme-independent sums, once per drop
        n, m = np.diff(self.pair_start), np.diff(self.cell_start)
        self.n_pairs = n.tolist()
        sector = np.repeat(np.arange(len(n)), n)
        # each pair's sector id, row in it, first cellular row, resource count and flat SINR row
        self.pair_sector_id = self.sector_ids[sector]
        self.pair_row = np.arange(len(sector)) - self.pair_start[:-1][sector]
        self.cell0 = self.cell_start[:-1][sector]
        self.cols = m[sector]
        sinr_start = np.concatenate([[0], np.cumsum(n * m)])
        self.sinr_row = sinr_start[:-1][sector] + self.pair_row * self.cols
        # measured rows, and where each sector's run of them starts
        self.cells_kept = np.flatnonzero(self.cell_measured)
        self.pairs_kept = np.flatnonzero(self.pair_measured)
        self.cells_kept_start = np.searchsorted(self.cells_kept, self.cell_start).tolist()
        self.pairs_kept_start = np.searchsorted(self.pairs_kept, self.pair_start).tolist()
        self.baseline_bps = _sector_sums(  # per sector, measured users
            (self.cell_share_hz * np.log2(1.0 + self.baseline_sinr))[self.cells_kept],
            self.cells_kept_start)
        self.clipped = (int(self.cell_clipped[self.cells_kept].sum())
                        + int(self.d2d_clipped[self.pairs_kept].sum()))
        self.transmitters = len(self.cells_kept) + len(self.pairs_kept)

    def reuse_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The (pair row, cellular row) of every sinr_cell entry, in its order."""
        pair = np.repeat(np.arange(len(self.cols)), self.cols)
        return pair, np.arange(len(pair)) - np.repeat(self.sinr_row - self.cell0, self.cols)

    def resource_rows(self, allocations: list[Allocation]) -> np.ndarray:
        """(P,) cellular row each pair reuses under one allocation per sector
        (in sector order), -1 for a silent pair."""
        for alloc, n in zip(allocations, self.n_pairs, strict=True):
            if len(alloc.resource_of_pair) != n:
                raise ValueError("allocation length must match the sector pair count")
        col = np.fromiter(chain.from_iterable(a.resource_of_pair for a in allocations),
                          dtype=int, count=len(self.rx_users))
        return np.where(col >= 0, col + self.cell0, -1)

    def cross_links(self, resource: np.ndarray) -> np.ndarray:
        """(2, K) user rows (pair rx end, cellular interferer) of the K reuses
        a resource array schedules, in pair order."""
        scheduled = np.flatnonzero(resource >= 0)
        return np.array([self.rx_users[scheduled], self.cell_users[resource[scheduled]]])

    def grants(self, resource: np.ndarray) -> np.ndarray:
        """(3, K) int32 rows: sector id, pair row in the sector and resource
        column in the sector of the K reuses a resource array schedules, in
        pair order."""
        scheduled = np.flatnonzero(resource >= 0)
        return np.array([self.pair_sector_id[scheduled], self.pair_row[scheduled],
                         resource[scheduled] - self.cell0[scheduled]], dtype=np.int32)


def _sector_sums(values: np.ndarray, start: list[int]) -> list[float]:
    """Each sector's sum over its contiguous run values[start[k]:start[k + 1]]."""
    return [float(values[a:b].sum()) for a, b in zip(start[:-1], start[1:])]


def link_rates(
    arrays: DropArrays, resource: np.ndarray, h_cross: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-link rates of one scheme over the whole drop.

    resource is resource_rows' (P,) array and h_cross the (K,) linear gains
    of the K cross links it schedules, in cross_links order.  Returns
    (cell_bps, d2d_bps, cell_sinr, d2d_sinr) over the drop's cellular users
    and pairs; unscheduled pairs get zero SINR and rate, unreused resources
    keep their baseline SINR.
    """
    res = np.asarray(resource, dtype=int)
    if res.shape != arrays.rx_users.shape:
        raise ValueError("resource array length must match the pair count")
    scheduled = np.flatnonzero(res >= 0)
    rows = res[scheduled]
    col = rows - arrays.cell0[scheduled]
    if ((col < 0) | (col >= arrays.cols[scheduled])).any():
        raise ValueError("a pair reuses a resource outside its sector")
    if np.bincount(rows).max(initial=0) > 1:
        raise ValueError("allocation reuses a resource twice")
    if np.shape(h_cross) != scheduled.shape:
        raise ValueError("cross-gain count must match the scheduled pair count")
    cell_sinr = arrays.baseline_sinr.copy()
    cell_sinr[rows] = arrays.sinr_cell[arrays.sinr_row[scheduled] + col]
    d2d_sinr = np.zeros(len(res))
    d2d_sinr[scheduled] = (arrays.d2d_signal[scheduled]
                           / (h_cross * arrays.p_cell[rows] + arrays.sigma2_d2d[scheduled]))
    return (arrays.cell_share_hz * np.log2(1.0 + cell_sinr),
            arrays.pair_share_hz * np.log2(1.0 + d2d_sinr), cell_sinr, d2d_sinr)


@dataclass
class CapacityReport:
    """Measured-grid capacity sums for one drop under one scheme."""

    cell_bps: float
    d2d_bps: float
    overall_bps: float
    baseline_cell_bps: float
    enabled_pairs: int  # measured pairs actually scheduled
    clip_rate: float  # clipped transmitters / all measured transmitters
    by_kind: dict[str, dict[str, float]] = field(default_factory=dict)


def evaluate_drop(
    arrays: DropArrays, resource: np.ndarray, h_cross: np.ndarray
) -> CapacityReport:
    """Aggregate one scheme's measured-grid rates across the drop's sectors;
    resource and h_cross as link_rates takes them."""
    cell_bps, d2d_bps, _, _ = link_rates(arrays, resource, h_cross)
    cells = _sector_sums(cell_bps[arrays.cells_kept], arrays.cells_kept_start)
    d2ds = _sector_sums(d2d_bps[arrays.pairs_kept], arrays.pairs_kept_start)
    cell = d2d = base = 0.0
    by_kind: dict[str, dict[str, float]] = {}
    for kind, c, d, b in zip(arrays.kinds, cells, d2ds, arrays.baseline_bps, strict=True):
        agg = by_kind.setdefault(kind, {"cell_bps": 0.0, "d2d_bps": 0.0,
                                        "overall_bps": 0.0, "baseline_cell_bps": 0.0})
        agg["cell_bps"] += c
        agg["d2d_bps"] += d
        agg["overall_bps"] += c + d
        agg["baseline_cell_bps"] += b
        cell += c
        d2d += d
        base += b
    return CapacityReport(
        cell_bps=cell,
        d2d_bps=d2d,
        overall_bps=cell + d2d,
        baseline_cell_bps=base,
        enabled_pairs=int(np.count_nonzero(np.asarray(resource)[arrays.pairs_kept] >= 0)),
        clip_rate=(arrays.clipped / arrays.transmitters) if arrays.transmitters else 0.0,
        by_kind=by_kind,
    )


def aggregate_gain(values: list[float], baselines: list[float]) -> float | None:
    """Campaign-level gain: ratio of summed capacities (robust to small drops)."""
    total_base = float(np.sum(baselines))
    if total_base == 0.0:
        return None
    return (float(np.sum(values)) - total_base) / total_base
