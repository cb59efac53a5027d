"""Reuse feasibility: which (D2D pair, uplink resource) combinations survive.

With pair m reusing the resource of cellular user n inside one sector, both
directions see exactly one interferer:

    sinr_d2d(m, n)  = h_d2d[m] * p_d2d[m] / (h_cross[m, n] * p_cell[n] + sigma2_d2d)
    sinr_cell(m, n) = h_cell[n] * p_cell[n] / (h_d2d_bs[m] * p_d2d[m] + sigma2_cell)

The *exact* matrix admits (m, n) when both SINRs meet their targets — it
needs the full cross-gain table.  The *context* matrix replaces the D2D-side
condition with a distance-ratio proxy (interferer distance over link length)
that discovery-time position reports make computable, and keeps the cellular
condition, which the base station can evaluate from its own uplink
measurements.  All comparisons are inclusive (>=) in the linear domain; dB
inputs are converted once on entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainSet
from .units import db_to_linear

__all__ = [
    "SinrTargets",
    "FeasibilityMatrix",
    "sinr_d2d",
    "sinr_cell",
    "sinr_d2d_matrix",
    "sinr_cell_matrix",
    "reuse_cell_sinr",
    "baseline_cell_sinr",
    "feasibility_exact",
    "feasibility_context",
]


def sinr_d2d_matrix(
    gains: GainSet, p_cell_w: np.ndarray, p_d2d_w: np.ndarray, sigma2_d2d_w: float
) -> np.ndarray:
    """(N, M) D2D-link SINR for every candidate reuse."""
    signal = (gains.h_d2d * np.asarray(p_d2d_w, dtype=float))[:, None]
    interference = gains.h_cross * np.asarray(p_cell_w, dtype=float)[None, :]
    return signal / (interference + sigma2_d2d_w)


def reuse_cell_sinr(cell_signal_w, d2d_bs_w, sigma2_cell_w) -> np.ndarray:
    """Element-wise cellular SINR h_cell p_cell / (h_d2d_bs p_d2d + sigma2_cell)."""
    return cell_signal_w / (d2d_bs_w + sigma2_cell_w)


def sinr_cell_matrix(
    gains: GainSet, p_cell_w: np.ndarray, p_d2d_w: np.ndarray, sigma2_cell_w: float
) -> np.ndarray:
    """(N, M) cellular uplink SINR when row m reuses column n."""
    return reuse_cell_sinr((gains.h_cell * np.asarray(p_cell_w, dtype=float))[None, :],
                           (gains.h_d2d_bs * np.asarray(p_d2d_w, dtype=float))[:, None],
                           sigma2_cell_w)


def sinr_d2d(
    gains: GainSet, p_cell_w, p_d2d_w, sigma2_d2d_w: float, m: int, n: int
) -> float:
    """Scalar D2D SINR of pair m reusing resource n."""
    h = gains.h_d2d[m] * np.asarray(p_d2d_w)[m]
    return float(h / (gains.h_cross[m, n] * np.asarray(p_cell_w)[n] + sigma2_d2d_w))


def sinr_cell(
    gains: GainSet, p_cell_w, p_d2d_w, sigma2_cell_w: float, m: int, n: int
) -> float:
    """Scalar cellular SINR of resource n while pair m reuses it."""
    h = gains.h_cell[n] * np.asarray(p_cell_w)[n]
    return float(h / (gains.h_d2d_bs[m] * np.asarray(p_d2d_w)[m] + sigma2_cell_w))


def baseline_cell_sinr(gains: GainSet, p_cell_w, sigma2_cell_w: float) -> np.ndarray:
    """(M,) cellular SNR without any reuse (the no-D2D operating point)."""
    return gains.h_cell * np.asarray(p_cell_w, dtype=float) / sigma2_cell_w


@dataclass(frozen=True)
class SinrTargets:
    """Admission thresholds for both reuse conditions.

    The D2D side takes a target in dB (scalar or per pair).  The cellular
    side runs in one of two modes: a fixed target (cell_target_db) or a
    tolerated-degradation offset below the no-reuse SINR (gamma_cell_db with
    baseline_cell_sinr, linear).  ratio_threshold is the distance-ratio
    floor of the context proxy, one constant for every pair.
    """

    d2d_target_db: float | np.ndarray = 0.0
    cell_target_db: float | None = None
    gamma_cell_db: float | None = None
    baseline_cell_sinr: np.ndarray | None = None
    ratio_threshold: float = 1.0

    def __post_init__(self):
        fixed = self.cell_target_db is not None
        offset = self.gamma_cell_db is not None
        if fixed == offset:
            raise ValueError("exactly one of cell_target_db / gamma_cell_db is required")
        if offset and self.baseline_cell_sinr is None:
            raise ValueError("gamma_cell_db mode needs baseline_cell_sinr")

    def d2d_threshold_linear(self, n_pairs: int) -> np.ndarray:
        return db_to_linear(np.broadcast_to(self.d2d_target_db, (n_pairs,)))

    def cell_threshold_linear(self, n_cells: int) -> np.ndarray:
        if self.cell_target_db is not None:
            return db_to_linear(np.broadcast_to(self.cell_target_db, (n_cells,)))
        base = np.asarray(self.baseline_cell_sinr, dtype=float)
        if base.shape != (n_cells,):
            raise ValueError("baseline_cell_sinr length must match the cellular count")
        return base * db_to_linear(-self.gamma_cell_db)

    def ratio_floor(self, pair_distance_m: np.ndarray) -> np.ndarray:
        """The floor of every pair, one array entry per pair."""
        return np.full(np.shape(pair_distance_m), float(self.ratio_threshold))


@dataclass(frozen=True)
class FeasibilityMatrix:
    """(N pairs x M resources) boolean admission decisions plus their provenance."""

    entries: np.ndarray
    mode: str  # "exact" | "context"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=bool)
        if e.ndim != 2:
            raise ValueError("feasibility entries must be a 2-D matrix")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def feasibility_exact(
    gains: GainSet,
    p_cell_w: np.ndarray,
    p_d2d_w: np.ndarray,
    sigma2_cell_w: float,
    sigma2_d2d_w: float,
    targets: SinrTargets,
) -> FeasibilityMatrix:
    """Full-knowledge admission: both SINR conditions checked outright."""
    n, m = gains.shape
    d2d_ok = sinr_d2d_matrix(gains, p_cell_w, p_d2d_w, sigma2_d2d_w) \
        >= targets.d2d_threshold_linear(n)[:, None]
    cell_ok = sinr_cell_matrix(gains, p_cell_w, p_d2d_w, sigma2_cell_w) \
        >= targets.cell_threshold_linear(m)[None, :]
    return FeasibilityMatrix(entries=(d2d_ok & cell_ok), mode="exact")


def feasibility_context(
    gains: GainSet,
    p_cell_w: np.ndarray,
    p_d2d_w: np.ndarray,
    sigma2_cell_w: float,
    pair_distance_m: np.ndarray,
    cross_distance_m: np.ndarray,
    targets: SinrTargets,
) -> FeasibilityMatrix:
    """Context admission: distance-ratio proxy replaces the D2D SINR check.

    cross_distance_m[m, n] is interferer n's distance to pair m's receiving
    end; pair_distance_m[m] is the D2D link length.
    """
    n, m = gains.shape
    cross = np.asarray(cross_distance_m, dtype=float)
    link = np.asarray(pair_distance_m, dtype=float)
    if cross.shape != (n, m) or link.shape != (n,):
        raise ValueError("distance arrays must match the gain-set shape")
    ok = cross >= (targets.ratio_floor(link) * link)[:, None]
    ok &= sinr_cell_matrix(gains, p_cell_w, p_d2d_w, sigma2_cell_w) \
        >= targets.cell_threshold_linear(m)
    return FeasibilityMatrix(entries=ok, mode="context")
