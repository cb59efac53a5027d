"""Full-knowledge references that judge the program's own forms.

The program admits a reuse from context alone (feasibility_context) and
tests points against the buildings with RectBuckets.  The forms here need
what the program never builds, the full (N, M) cross-gain table and a D2D
SINR target, or test every point against every rect:

    sinr_d2d(m, n)  = h_d2d[m] * p_d2d[m] / (h_cross[m, n] * p_cell[n] + sigma2_d2d)
    sinr_cell(m, n) = h_cell[n] * p_cell[n] / (h_d2d_bs[m] * p_d2d[m] + sigma2_cell)

feasibility_exact admits (m, n) when both SINRs meet their targets, with the
same inclusive (>=) comparisons in the linear domain as the program.

sample_outdoor_points_by_rounds and AugmentOnlyMatching are frozen plain
forms of the outdoor sampler and of the first maximum matching; the
program's batched sampler and direct seating must give the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from d2dsim.channel import GainSet
from d2dsim.feasibility import FeasibilityMatrix, SinrTargets, sinr_cell_matrix
from d2dsim.geometry import _SAMPLE_ROUNDS, RectBuckets
from d2dsim.rrm import _Matching
from d2dsim.units import db_to_linear


@dataclass
class FullGainSet(GainSet):
    """A GainSet with the cross gains in full: h_cross[m, n] is cellular
    transmitter n into pair m's receiving end."""

    h_cross: np.ndarray  # (N, M)


@dataclass(frozen=True)
class ExactTargets(SinrTargets):
    """SinrTargets with a D2D-side target in dB (scalar or per pair)."""

    d2d_target_db: float | np.ndarray = 0.0

    def d2d_threshold_linear(self, n_pairs: int) -> np.ndarray:
        return db_to_linear(np.broadcast_to(self.d2d_target_db, (n_pairs,)))


def sinr_d2d_matrix(
    gains: FullGainSet, p_cell_w: np.ndarray, p_d2d_w: np.ndarray, sigma2_d2d_w: float
) -> np.ndarray:
    """(N, M) D2D-link SINR for every candidate reuse."""
    signal = (gains.h_d2d * np.asarray(p_d2d_w, dtype=float))[:, None]
    interference = gains.h_cross * np.asarray(p_cell_w, dtype=float)[None, :]
    return signal / (interference + sigma2_d2d_w)


def sinr_d2d(
    gains: FullGainSet, p_cell_w, p_d2d_w, sigma2_d2d_w: float, m: int, n: int
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


def feasibility_exact(
    gains: FullGainSet,
    p_cell_w: np.ndarray,
    p_d2d_w: np.ndarray,
    sigma2_cell_w: float,
    sigma2_d2d_w: float,
    targets: ExactTargets,
) -> FeasibilityMatrix:
    """Full-knowledge admission: both SINR conditions checked outright."""
    n, m = gains.shape
    d2d_ok = sinr_d2d_matrix(gains, p_cell_w, p_d2d_w, sigma2_d2d_w) \
        >= targets.d2d_threshold_linear(n)[:, None]
    cell_ok = sinr_cell_matrix(gains, p_cell_w, p_d2d_w, sigma2_cell_w) \
        >= targets.cell_threshold_linear(m)[None, :]
    return FeasibilityMatrix(d2d_ok & cell_ok)


def points_in_rects(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """True for each point lying inside (closed) any of the rectangles."""
    p = np.atleast_2d(np.asarray(points, dtype=float))  # (P, 2)
    r = np.atleast_2d(np.asarray(rects, dtype=float))  # (K, 4)
    if r.size == 0:
        return np.zeros(len(p), dtype=bool)
    x = p[:, 0:1]
    y = p[:, 1:2]
    inside = (x >= r[:, 0]) & (x <= r[:, 2]) & (y >= r[:, 1]) & (y <= r[:, 3])
    return inside.any(axis=1)


def sample_outdoor_points_by_rounds(
    count: int,
    buckets: RectBuckets,
    rng: np.random.Generator,
) -> np.ndarray:
    """Frozen reference: the outdoor sampler that draws and tests each
    rejection round's points in turn."""
    xmin, ymin, xmax, ymax = buckets.bounds
    if count == 0:
        return np.empty((0, 2))
    got: list[np.ndarray] = []
    need = count
    for _ in range(_SAMPLE_ROUNDS):
        m = max(int(need * 1.8) + 8, 16)
        pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(m, 2))
        keep = pts[~buckets.contains(pts)]
        got.append(keep[:need])
        need -= len(keep[:need])
        if need == 0:
            return np.concatenate(got)
    raise RuntimeError("outdoor sampling failed to converge; obstacles too dense")


class AugmentOnlyMatching(_Matching):
    """Frozen reference: _Matching built by one augment call per row, with
    the failed searches' seen columns carried until a row is seated."""

    def __init__(self, adj: np.ndarray):
        n, m = adj.shape
        packed = np.packbits(adj, axis=1, bitorder="little")
        self.masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.owner = [-1] * m
        self.match = [-1] * n
        self.free = (1 << m) - 1
        seen = 0  # columns a failed search entered: dead until a row is seated
        for r in range(n):
            found, seen = self.augment(r, seen)
            if found:
                seen = 0
