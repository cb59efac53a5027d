"""Resource management: map D2D pairs onto cellular uplink resources.

Four schemes share one output shape (one resource per pair, one pair per
resource inside a sector):

* proposed      — maximum bipartite matching on the feasibility matrix,
                  deterministic tie-break (lexicographically smallest
                  assignment vector among maximum matchings);
* capacity-max  — linear assignment maximizing summed cellular capacity under
                  full reuse, feasibility ignored (comparator);
* random        — uniform injective assignment, feasibility ignored;
* none          — keep every pair silent (baseline).

The proposed scheme finds one maximum matching by iterative augmenting-path
search over column bitmasks, then walks the rows in order and moves each
onto the smallest column that some maximum matching still gives it; one
alternating-path search per candidate column decides.  The brute-force
enumerators exist only as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .feasibility import FeasibilityMatrix

__all__ = [
    "Allocation",
    "max_matching_size",
    "brute_force_max_matching",
    "brute_force_lex_matching",
    "allocate_proposed",
    "allocate_capacity_max",
    "allocate_random",
    "allocate_none",
]


@dataclass(frozen=True)
class Allocation:
    """Per-sector schedule: resource_of_pair[m] = column index or -1 (silent)."""

    resource_of_pair: tuple[int, ...]

    @property
    def enabled_pairs(self) -> int:
        return sum(1 for r in self.resource_of_pair if r >= 0)

    def pairs(self) -> list[tuple[int, int]]:
        return [(m, r) for m, r in enumerate(self.resource_of_pair) if r >= 0]


class _Matching:
    """A bipartite matching of rows (pairs) to columns (resources).

    Rows are column bitmasks; ``owner[c]`` is the row holding column c and
    ``match[r]`` the column row r holds (-1 when free).  ``free`` is the
    bitmask of unowned columns.  Augmenting paths are found by an iterative
    depth-first search, so no instance size meets the recursion limit.
    """

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

    def augment(self, root: int, seen: int) -> tuple[bool, int]:
        """Seat the unmatched row ``root`` along an alternating path.

        The search enters no column in ``seen`` and adds every column it
        enters, so a failed search's ``seen`` can be passed on to the next
        root while the matching is unchanged.  Returns (found, seen).
        """
        masks, owner, match = self.masks, self.owner, self.match
        rows = [root]
        cols: list[int] = []  # cols[i] is taken by rows[i] from rows[i + 1]
        while rows:
            cand = masks[rows[-1]] & ~seen
            hit = cand & self.free
            if hit:
                col = (hit & -hit).bit_length() - 1
                self.free ^= 1 << col
                cols.append(col)
                for r, c in zip(rows, cols):
                    owner[c] = r
                    match[r] = c
                return True, seen
            if cand:
                bit = cand & -cand
                seen |= bit
                col = bit.bit_length() - 1
                cols.append(col)
                rows.append(owner[col])
            else:
                rows.pop()
                if cols:
                    cols.pop()
        return False, seen

    def reseat(self, r: int, col: int, fixed: int) -> bool:
        """Move row r onto column col if the matching stays maximum.

        Only the rows after r and the columns outside ``fixed`` may move.
        When col has an owner and r had a column, the owner loses its seat;
        the move holds if some unmatched later row (the owner included) then
        finds an alternating path to a free column, r's old one among them.
        Otherwise nothing changes and False is returned.
        """
        owner, match = self.owner, self.match
        old, rival = match[r], owner[col]
        owner[col], match[r] = r, col
        if rival >= 0:
            match[rival] = -1
        else:
            self.free ^= 1 << col
        if old >= 0:
            owner[old] = -1
            self.free |= 1 << old
        if rival < 0 or old < 0:
            return True
        seen = fixed | 1 << col
        for z in range(r + 1, len(match)):
            if match[z] < 0:
                found, seen = self.augment(z, seen)
                if found:
                    return True
        owner[col], match[rival] = rival, col
        owner[old], match[r] = r, old
        self.free ^= 1 << old
        return False

    def size(self) -> int:
        return len(self.owner) - self.free.bit_count()


def max_matching_size(adj: np.ndarray) -> int:
    """Cardinality of a maximum matching of pairs (rows) to resources (cols)."""
    a = np.asarray(adj, dtype=bool)
    if a.ndim != 2:
        raise ValueError("adjacency must be 2-D")
    return _Matching(a).size()


def brute_force_max_matching(adj: np.ndarray) -> int:
    """Exponential enumeration oracle; refuses anything bigger than 8x8."""
    a = np.asarray(adj, dtype=bool)
    n, m = a.shape
    if n > 8 or m > 8:
        raise ValueError("brute-force oracle is limited to 8x8 instances")

    def best(r: int, used: int) -> int:
        if r == n:
            return 0
        score = best(r + 1, used)  # leave row r out
        for c in range(m):
            if a[r, c] and not used & (1 << c):
                score = max(score, 1 + best(r + 1, used | (1 << c)))
        return score

    return best(0, 0)


def brute_force_lex_matching(adj: np.ndarray) -> tuple[int, ...]:
    """Oracle: the lexicographically smallest maximum matching (-1 sorts last).

    Enumerates assignment vectors in lexicographic order and returns the
    first of maximum size; refuses anything bigger than 8x8.
    """
    a = np.asarray(adj, dtype=bool)
    n, m = a.shape
    target = brute_force_max_matching(a)

    def first(r: int, used: int, size: int) -> list[int] | None:
        if size + n - r < target:
            return None
        if r == n:
            return []
        for c in [c for c in range(m) if a[r, c] and not used & (1 << c)] + [-1]:
            rest = first(r + 1, used | (1 << c) if c >= 0 else used, size + (c >= 0))
            if rest is not None:
                return [c, *rest]
        return None

    return tuple(first(0, 0, 0))


def allocate_proposed(feasibility: FeasibilityMatrix) -> Allocation:
    """Maximum matching with a deterministic, lexicographically smallest result.

    Rows are processed in pair order; each takes the smallest feasible column
    that still lets the remaining rows complete a maximum matching, else
    stays unassigned.  The assignment vector (with unassigned sorted last) is
    therefore the lexicographic minimum over all maximum matchings.  Starting
    from one maximum matching, a row tries only the columns below its current
    one, each decided by ``_Matching.reseat``.
    """
    mt = _Matching(feasibility.entries)
    fixed = 0  # the columns of the rows already decided
    for r, row in enumerate(mt.masks):
        old = mt.match[r]
        cand = row & ~fixed
        if old >= 0:
            cand &= (1 << old) - 1  # only a smaller column improves on old
        while cand:
            bit = cand & -cand
            cand ^= bit
            if mt.reseat(r, bit.bit_length() - 1, fixed):
                break
        if mt.match[r] >= 0:
            fixed |= 1 << mt.match[r]
    return Allocation(tuple(mt.match))


def allocate_capacity_max(
    cell_capacity: np.ndarray, baseline_capacity: np.ndarray
) -> Allocation:
    """Reuse min(N, M) resources so summed cellular capacity is maximal.

    cell_capacity[m, n] is the cellular rate of resource n under reuse by
    pair m; unreused resources keep baseline_capacity[n].  Always schedules
    min(N, M) pairs — this comparator never declines a reuse opportunity.
    """
    cap = np.asarray(cell_capacity, dtype=float)
    base = np.asarray(baseline_capacity, dtype=float)
    n, m = cap.shape
    if base.shape != (m,):
        raise ValueError("baseline_capacity length must match resource count")
    out = np.full(n, -1)
    rows, cols = linear_sum_assignment(cap - base[None, :], maximize=True)
    out[rows] = cols
    return Allocation(tuple(out.tolist()))


def allocate_random(
    n_pairs: int, n_resources: int, rng: np.random.Generator
) -> Allocation:
    """Uniform injective assignment of min(N, M) pairs to resources."""
    k = min(n_pairs, n_resources)
    out = np.full(n_pairs, -1)
    if k:
        chosen_pairs = rng.permutation(n_pairs)[:k]  # drawn before the columns
        out[chosen_pairs] = rng.permutation(n_resources)[:k]
    return Allocation(tuple(out.tolist()))


def allocate_none(n_pairs: int) -> Allocation:
    """Baseline: no pair transmits."""
    return Allocation((-1,) * n_pairs)
