"""Capacity accounting: turn allocations into Shannon rates and gains.

A sector's uplink bandwidth is split evenly across its cellular users; a
scheduled D2D pair rides on its partner resource's share.  Only terminals in
the measured central grid contribute to reported sums, but interference is
evaluated for every scheduled link regardless of where it lives.  A sector's
cellular reuse SINRs arrive precomputed (SectorState); its scheduled D2D links
arrive with their cross-link gains, one per reuse in scheduled_cross_links order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .feasibility import FeasibilityMatrix
from .rrm import Allocation

__all__ = ["SectorState", "CapacityReport", "scheduled_cross_links", "sector_rates",
           "evaluate_drop", "aggregate_gain"]


@dataclass
class SectorState:
    """Everything a sector's scheduler and the evaluator need for one drop."""

    sector_id: int
    kind: str  # "macro" | "micro"
    sinr_cell: np.ndarray  # (N, M) cellular SINR of column n reused by row m
    d2d_signal: np.ndarray  # (N,) h_d2d * p_d2d, W
    p_cell: np.ndarray  # (M,) cellular transmit power, W
    sigma2_d2d: float  # D2D receiver noise over the share, W
    rx_users: np.ndarray  # (N,) user rows of the pairs' receiving ends
    cell_users: np.ndarray  # (M,) user rows of the cellular users
    cell_clipped: np.ndarray  # (M,) bool
    d2d_clipped: np.ndarray  # (N,) bool
    share_bw_hz: float  # per-resource bandwidth share
    baseline_sinr: np.ndarray  # (M,) no-reuse cellular SINR, linear
    cell_measured: np.ndarray  # (M,) bool, True = central-grid terminal
    pair_measured: np.ndarray  # (N,) bool
    feas_context: FeasibilityMatrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.sinr_cell.shape


def scheduled_cross_links(state: SectorState, allocation: Allocation) -> np.ndarray:
    """(2, K) user rows (pair rx end, cellular interferer) of the cross links
    an allocation schedules."""
    rows, cols = np.array(allocation.pairs(), dtype=int).reshape(-1, 2).T
    return np.array([state.rx_users[rows], state.cell_users[cols]])


def sector_rates(
    state: SectorState, allocation: Allocation, h_cross: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-link rates under an allocation.

    h_cross is the (K,) linear gains of the K cross links the allocation
    schedules, in scheduled_cross_links order.  Returns (cell_bps (M,),
    d2d_bps (N,), cell_sinr (M,), d2d_sinr (N,)); unscheduled pairs get zero
    SINR and rate, unreused resources keep their baseline SINR.
    """
    n = state.shape[0]
    res = np.asarray(allocation.resource_of_pair, dtype=int)
    if res.shape != (n,):
        raise ValueError("allocation length must match the sector pair count")
    scheduled = np.flatnonzero(res >= 0)
    cols = res[scheduled]
    if len(np.unique(cols)) != len(cols):
        raise ValueError("allocation reuses a resource twice")
    if np.shape(h_cross) != scheduled.shape:
        raise ValueError("cross-gain count must match the scheduled pair count")
    cell_sinr = state.baseline_sinr.copy()
    cell_sinr[cols] = state.sinr_cell[scheduled, cols]
    d2d_sinr = np.zeros(n)
    d2d_sinr[scheduled] = (state.d2d_signal[scheduled]
                           / (h_cross * state.p_cell[cols] + state.sigma2_d2d))
    return (state.share_bw_hz * np.log2(1.0 + cell_sinr),
            state.share_bw_hz * np.log2(1.0 + d2d_sinr), cell_sinr, d2d_sinr)


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
    states: list[SectorState], allocations: list[Allocation], h_cross: list[np.ndarray]
) -> CapacityReport:
    """Aggregate measured-grid rates across sectors for one scheme; each
    sector's allocation and h_cross (sector_rates') sit at its position in
    states."""
    cell = d2d = base = 0.0
    enabled = 0
    clipped = total_tx = 0
    by_kind: dict[str, dict[str, float]] = {}
    for st, alloc, gains in zip(states, allocations, h_cross, strict=True):
        cell_bps, d2d_bps, _, _ = sector_rates(st, alloc, gains)
        cm, pm = st.cell_measured, st.pair_measured
        c = float(cell_bps[cm].sum())
        d = float(d2d_bps[pm].sum())
        b = float((st.share_bw_hz * np.log2(1.0 + st.baseline_sinr))[cm].sum())
        res = np.asarray(alloc.resource_of_pair)
        enabled += int(((res >= 0) & pm).sum())
        clipped += int(st.cell_clipped[cm].sum()) + int(st.d2d_clipped[pm].sum())
        total_tx += int(cm.sum()) + int(pm.sum())
        agg = by_kind.setdefault(st.kind, {"cell_bps": 0.0, "d2d_bps": 0.0,
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
        enabled_pairs=enabled,
        clip_rate=(clipped / total_tx) if total_tx else 0.0,
        by_kind=by_kind,
    )


def aggregate_gain(values: list[float], baselines: list[float]) -> float | None:
    """Campaign-level gain: ratio of summed capacities (robust to small drops)."""
    total_base = float(np.sum(baselines))
    if total_base == 0.0:
        return None
    return (float(np.sum(values)) - total_base) / total_base
