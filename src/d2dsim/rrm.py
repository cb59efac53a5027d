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

The proposed scheme finds one maximum matching over column bitmasks, seating
a row on its lowest free column when it meets one and otherwise by iterative
augmenting-path search (a greedy start: Duff, Kaya & Ucar, ACM TOMS 2011)
until every column is owned.  It then walks the rows in order and moves each
onto the smallest column that some maximum matching still gives it; one
alternating-path search per candidate column decides.  The brute-force
enumerators exist only as oracles.

Capacity-max scores pair m on resource n by log2(1 + S_n / (I_m + sigma2))
- log2(1 + S_n / sigma2), with one noise power sigma2 per sector.  The cross
derivative of log(1 + S / (I + sigma2)) in S and I is negative, so with pairs
by ascending I and resources by descending S the score is a Monge matrix
(Hoffman 1963; Burkard, Klinz & Rudolf, Discrete Appl. Math. 70, 1996); where
I_m > 0 it also falls strictly as S_n grows.  The optimum is then closed-form:
the min(N, M) least-interfering pairs on the min(N, M) weakest resources, the
least interfering on the strongest of them.  Two sorts find it, of one column
of reuse SINRs and of the no-reuse SNRs: IEEE division and addition are
monotone, so where neither key ties they order the pairs by I_m and the
resources by S_n.  Where a key ties or a pair's interference vanishes against
the noise, linear assignment over the log2 capacities decides
(max_score_assignment, the one importer of scipy.optimize).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityMatrix

__all__ = ["Allocation", "max_matching_size", "brute_force_max_matching",
           "brute_force_lex_matching", "allocate_proposed", "allocate_capacity_max",
           "max_score_assignment", "allocate_random", "allocate_none"]


@dataclass(frozen=True)
class Allocation:
    """Per-sector schedule: resource_of_pair is an (N,) int array whose entry
    m is pair m's resource column, or -1 when the pair stays silent.  The
    generated == does not work on it; compare the arrays."""

    resource_of_pair: np.ndarray

    @property
    def enabled_pairs(self) -> int:
        return int(np.count_nonzero(self.resource_of_pair >= 0))

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
        for r, mask in enumerate(self.masks):
            if not self.free:  # every column owned: no path seats another row
                break
            hit = mask & self.free
            if hit:  # augment's first step, as seen never holds a free column
                col = (hit & -hit).bit_length() - 1
                self.free ^= 1 << col
                self.owner[col], self.match[r], seen = r, col, 0
                continue
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
    return Allocation(np.array(mt.match, dtype=int))


def allocate_capacity_max(sinr_cell: np.ndarray, baseline_sinr: np.ndarray) -> Allocation:
    """Reuse min(N, M) resources so summed cellular capacity is maximal.

    One sector's reuse SINRs sinr_cell[m, n] = S_n / (I_m + sigma2) and
    no-reuse SNRs baseline_sinr[n] = S_n / sigma2, with one sigma2.
    """
    n, m = sinr_cell.shape
    if baseline_sinr.shape != (m,):
        raise ValueError("baseline_sinr length must match resource count")
    k = min(n, m)
    out = np.full(n, -1)
    if k:
        row_key = sinr_cell[:, 0]  # never rises as I_m rises
        rows, cols = row_key.argsort(), baseline_sinr.argsort()
        r, c = row_key[rows], baseline_sinr[cols]
        # no pair's interference vanishes if the least interfering pair's does not
        if not ((r[1:] > r[:-1]).all() and (c[1:] > c[:-1]).all()
                and (sinr_cell[rows[-1]] < baseline_sinr).all()):
            return max_score_assignment(np.log2(1.0 + sinr_cell) - np.log2(1.0 + baseline_sinr))
        out[rows[n - k:]] = cols[:k]  # the least interfering pair on the strongest resource
    return Allocation(out)


def max_score_assignment(score: np.ndarray) -> Allocation:
    """Assign min(N, M) rows to distinct columns so the summed score is maximal."""
    from scipy.optimize import linear_sum_assignment  # ~11 MB that most runs never need
    out = np.full(len(score), -1)
    rows, cols = linear_sum_assignment(score, maximize=True)
    out[rows] = cols
    return Allocation(out)


def allocate_random(
    n_pairs: int, n_resources: int, rng: np.random.Generator
) -> Allocation:
    """Uniform injective assignment of min(N, M) pairs to resources."""
    k = min(n_pairs, n_resources)
    out = np.full(n_pairs, -1)
    if k:
        chosen_pairs = rng.permutation(n_pairs)[:k]  # drawn before the columns
        out[chosen_pairs] = rng.permutation(n_resources)[:k]
    return Allocation(out)


def allocate_none(n_pairs: int) -> Allocation:
    """Baseline: no pair transmits."""
    return Allocation(np.full(n_pairs, -1))
