"""Allocators: matching vs brute force, assignment vs permutations, tie-breaks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import rrm
from d2dsim.feasibility import FeasibilityMatrix, reuse_cell_sinr
from d2dsim.rrm import (_Matching, allocate_capacity_max, allocate_none, allocate_proposed,
                        allocate_random, brute_force_lex_matching, brute_force_max_matching,
                        max_matching_size, max_score_assignment)
from reference import AugmentOnlyMatching


def feas(entries) -> FeasibilityMatrix:
    return FeasibilityMatrix(entries=np.asarray(entries, dtype=np.uint8))


def vec(alloc) -> tuple[int, ...]:
    """An allocation's resource array as a tuple of Python ints."""
    return tuple(alloc.resource_of_pair.tolist())


def all_max_matchings(adj):
    """Every maximum matching as an assignment vector (-1 = unassigned)."""
    a = np.asarray(adj, dtype=bool)
    n, m = a.shape
    out = []

    def rec(r, used, vec):
        if r == n:
            out.append(tuple(vec))
            return
        rec(r + 1, used, vec + [-1])
        for c in range(m):
            if a[r, c] and not used & (1 << c):
                rec(r + 1, used | (1 << c), vec + [c])

    rec(0, 0, [])
    best = max(sum(v >= 0 for v in vec) for vec in out)
    return [vec for vec in out if sum(v >= 0 for v in vec) == best], best


def lex_key(vec, m):
    return tuple(v if v >= 0 else m for v in vec)


def kuhn_allocate(adj):
    """Frozen reference: the matcher allocate_proposed used to be.

    Row by row, each row takes the smallest column for which a fresh
    recursive Kuhn matching of the later rows still reaches the maximum.
    """
    a = np.asarray(adj, dtype=bool)
    n, m = a.shape
    masks = [sum(1 << int(c) for c in np.flatnonzero(row)) for row in a]

    def kuhn_size(start_row, banned):
        match_row = {}

        def augment(r, visited):
            while True:
                free = masks[r] & ~banned & ~visited
                if not free:
                    return False, visited
                bit = free & -free
                visited |= bit
                col = bit.bit_length() - 1
                owner = match_row.get(col)
                if owner is None:
                    match_row[col] = r
                    return True, visited
                ok, visited = augment(owner, visited)
                if ok:
                    match_row[col] = r
                    return True, visited

        return sum(augment(r, 0)[0] for r in range(start_row, n))

    remaining = kuhn_size(0, 0)
    banned = 0
    out = [-1] * n
    for r in range(n):
        if remaining == 0:
            break
        free = masks[r] & ~banned
        while free:
            bit = free & -free
            free ^= bit
            if kuhn_size(r + 1, banned | bit) >= remaining - 1:
                out[r] = bit.bit_length() - 1
                banned |= bit
                remaining -= 1
                break
    return tuple(out)


def chain(n):
    """Rows 0..n-2 reach columns {i, i+1}; the last row reaches column 0 only.

    Seating the last row shifts every earlier row one column up, so a
    matcher that recurses once per path step needs depth n.
    """
    adj = np.zeros((n, n), dtype=bool)
    i = np.arange(n - 1)
    adj[i, i] = adj[i, i + 1] = True
    adj[n - 1, 0] = True
    return adj


def test_known_matchings():
    assert max_matching_size(np.array([[1, 0], [0, 1]], dtype=bool)) == 2
    assert max_matching_size(np.array([[1, 1], [1, 0]], dtype=bool)) == 2
    assert max_matching_size(np.array([[1], [1]], dtype=bool)) == 1
    assert max_matching_size(np.zeros((3, 4), dtype=bool)) == 0
    assert max_matching_size(np.zeros((0, 4), dtype=bool)) == 0
    assert max_matching_size(np.zeros((3, 0), dtype=bool)) == 0


def test_matching_matches_brute_force(rng):
    for _ in range(300):
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        adj = rng.random((n, m)) < rng.uniform(0.1, 0.9)
        assert max_matching_size(adj) == brute_force_max_matching(adj)


def test_brute_force_size_cap():
    with pytest.raises(ValueError, match="8x8"):
        brute_force_max_matching(np.ones((9, 2), dtype=bool))


def test_proposed_is_lexicographically_smallest(rng):
    for _ in range(150):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        adj = rng.random((n, m)) < rng.uniform(0.2, 0.9)
        alloc = allocate_proposed(feas(adj))
        vecs, best = all_max_matchings(adj)
        assert alloc.enabled_pairs == best == max_matching_size(adj)
        want = min(lex_key(v, m) for v in vecs)
        assert lex_key(alloc.resource_of_pair, m) == want
        assert lex_key(brute_force_lex_matching(adj), m) == want


def test_proposed_matches_kuhn_reference():
    """Sector-sized instances (N, M <= 40, N*M <= 1000) at densities 0.05-0.95."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        n, m = (int(x) for x in rng.integers(0, 41, size=2))
        if n * m > 1000:
            continue
        adj = rng.random((n, m)) < rng.uniform(0.05, 0.95)
        assert vec(allocate_proposed(feas(adj))) == kuhn_allocate(adj)
        checked += 1


class _AugmentLog(_Matching):
    """The program's _Matching, logging (carried a seen mask, found) per augment call."""

    def __init__(self, adj):
        self.log = []
        super().__init__(adj)

    def augment(self, root, seen):
        found, out = super().augment(root, seen)
        self.log.append((seen != 0, found))
        return found, out


def same_start(adj):
    """Assert that _Matching's construction leaves the frozen reference's
    state; return its augment log."""
    got, want = _AugmentLog(adj), AugmentOnlyMatching(adj)
    assert (got.owner, got.match, got.free) == (want.owner, want.match, want.free)
    return got.log


def test_matching_start_equals_augment_only_reference():
    # test_proposed_matches_kuhn_reference's instances, in its order
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        n, m = (int(x) for x in rng.integers(0, 41, size=2))
        if n * m > 1000:
            continue
        same_start(rng.random((n, m)) < rng.uniform(0.05, 0.95))
        checked += 1
    # dense early rows take every column, or all but one or two; the sparse
    # later rows augment past them, each failed search's seen carried on
    rng = np.random.default_rng(29)
    log = []
    for _ in range(2000):
        m = int(rng.integers(1, 30))
        early = max(m - int(rng.integers(0, 3)), 0)
        adj = rng.random((early + int(rng.integers(1, 30)), m)) < 0.15
        adj[:early] |= rng.random((early, m)) < 0.8
        log += same_start(adj)
    assert (True, True) in log and (True, False) in log
    assert same_start(chain(1500)) == [(False, True)]


def test_matcher_has_no_recursion_limit():
    adj = chain(1500)
    assert max_matching_size(adj) == 1500
    alloc = allocate_proposed(feas(adj))
    assert alloc.enabled_pairs == 1500
    assert vec(alloc) == (*range(1, 1500), 0)


def test_proposed_uses_only_feasible_edges(rng):
    adj = rng.random((6, 6)) < 0.4
    alloc = allocate_proposed(feas(adj))
    cols = [c for c in alloc.resource_of_pair if c >= 0]
    assert len(set(cols)) == len(cols)  # injective
    for r, c in alloc.pairs():
        assert adj[r, c]


def test_proposed_deterministic():
    adj = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
    a = allocate_proposed(feas(adj))
    b = allocate_proposed(feas(adj))
    assert vec(a) == vec(b)
    # row 0 takes col 0; row 1's smallest free feasible column is 2
    assert vec(a) == (0, 2, 1)


def test_proposed_tie_break_prefers_small_columns():
    adj = np.array([[1, 1], [1, 1]], dtype=bool)
    assert vec(allocate_proposed(feas(adj))) == (0, 1)
    # row 0 must skip col 0 when taking it would shrink the matching
    adj2 = np.array([[1, 1], [1, 0]], dtype=bool)
    assert vec(allocate_proposed(feas(adj2))) == (1, 0)


def test_proposed_empty_dimensions():
    assert vec(allocate_proposed(feas(np.zeros((0, 3))))) == ()
    assert vec(allocate_proposed(feas(np.zeros((2, 0))))) == (-1, -1)


def capacity_oracle(cap, base):
    """Exhaustive best total cellular capacity over injective assignments."""
    n, m = cap.shape
    k = min(n, m)
    best = -np.inf
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            total = base.sum() + sum(
                cap[r, c] - base[c] for r, c in zip(rows, cols))
            best = max(best, total)
    return best


def realized_total(cap, base, alloc):
    total = 0.0
    used = {}
    for r, c in alloc.pairs():
        used[c] = r
    for c in range(cap.shape[1]):
        total += cap[used[c], c] if c in used else base[c]
    return total


@pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 2), (5, 5), (1, 1)])
def test_capacity_max_matches_exhaustive(n, m, rng):
    """The general assignment on any capacities, and capacity-max on one
    sector's SINRs, reach the exhaustive optimum."""
    for _ in range(60):
        cap = rng.uniform(0.0, 8.0, (n, m))
        base = rng.uniform(0.0, 8.0, m)
        alloc = max_score_assignment(cap - base[None, :])
        assert alloc.enabled_pairs == min(n, m)  # never declines
        got = realized_total(cap, base, alloc)
        assert got == pytest.approx(capacity_oracle(cap, base), abs=1e-9)
        sinr, sinr_base = random_sector(rng, n, m)
        cap, base = np.log2(1.0 + sinr), np.log2(1.0 + sinr_base)
        alloc = allocate_capacity_max(sinr, sinr_base)
        assert alloc.enabled_pairs == min(n, m)
        assert realized_total(cap, base, alloc) == pytest.approx(capacity_oracle(cap, base),
                                                                 abs=1e-9)


def test_capacity_max_validation(rng):
    with pytest.raises(ValueError, match="baseline"):
        allocate_capacity_max(rng.uniform(0, 1, (2, 3)), np.zeros(2))
    a = allocate_capacity_max(np.zeros((0, 3)), np.zeros(3))
    assert vec(a) == ()


def sector_sinrs(signal, interference, sigma2):
    """One sector's reuse SINRs and no-reuse SNRs, the way build_drop forms them."""
    signal, interference = np.asarray(signal, dtype=float), np.asarray(interference, dtype=float)
    return (reuse_cell_sinr(signal[None, :], interference[:, None], sigma2),
            signal / sigma2)


def random_sector(rng, n, m):
    """A sector with cellular SNRs -10..40 dB and interference -30..30 dB
    over the noise."""
    sigma2 = 10.0 ** rng.uniform(-16.0, -12.0)
    return sector_sinrs(sigma2 * 10.0 ** rng.uniform(-1.0, 4.0, m),
                        sigma2 * 10.0 ** rng.uniform(-3.0, 3.0, n), sigma2)


def linear_assignment(sinr, baseline):
    """The general assignment on the log2 capacities, as capacity-max falls back to it."""
    return max_score_assignment(np.log2(1.0 + sinr) - np.log2(1.0 + baseline)[None, :])


def capacity_max_path(sinr, baseline):
    """allocate_capacity_max's allocation, and whether it fell back to the
    general assignment."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rrm, "max_score_assignment",
                   lambda score: calls.append(score) or max_score_assignment(score))
        alloc = allocate_capacity_max(sinr, baseline)
    return alloc, bool(calls)


SIZES = st.one_of(st.integers(0, 6), st.integers(7, 30))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.tuples(SIZES, SIZES))
def test_sorted_capacity_max_equals_linear_assignment(seed, shape):
    """Both where every resource is reused (N >= M) and where pairs are fewer
    (N < M), the two sorts give the assignment linear_sum_assignment gives,
    and for N, M <= 6 the exhaustive optimum."""
    n, m = shape
    sinr, base = random_sector(np.random.default_rng(seed), n, m)
    alloc, fell_back = capacity_max_path(sinr, base)
    assert not fell_back  # continuous draws: no key ties, no absorbed pair
    assert vec(alloc) == vec(linear_assignment(sinr, base))
    assert alloc.enabled_pairs == min(n, m)
    if max(n, m) <= 6:
        cap, cap_base = np.log2(1.0 + sinr), np.log2(1.0 + base)
        assert realized_total(cap, cap_base, alloc) == pytest.approx(
            capacity_oracle(cap, cap_base), abs=1e-9)


@pytest.mark.parametrize("signal, interference, sigma2", [
    ([1.0, 2.0], [3.0, 3.0, 1.0], 1.0),  # tied interference
    ([1.0, 2.0], [0.0, 1e-30, 1.0], 1e-13),  # distinct interference, one sum with the noise
    ([2.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1.0),  # tied signals
    ([1.0, 2.0, 3.0], [1e-30, 1.0], 1e-13),  # distinct keys, but pair 0 absorbed: I + sigma2 == sigma2
])
def test_sorted_capacity_max_falls_back_on_tied_keys(signal, interference, sigma2):
    sinr, base = sector_sinrs(signal, interference, sigma2)
    alloc, fell_back = capacity_max_path(sinr, base)
    assert fell_back
    assert vec(alloc) == vec(linear_assignment(sinr, base))


@pytest.mark.parametrize("n, m, want", [
    (3, 0, (-1, -1, -1)),  # no resources: every pair stays silent
    (0, 0, ()),
    (0, 2, ()),
    (2, 3, (1, 0)),  # N < M: the two weakest resources, pair 1 on the weakest
    (1, 1, (0,)),
])
def test_sorted_capacity_max_edge_shapes(n, m, want):
    sinr, base = sector_sinrs(np.arange(1.0, m + 1), np.arange(1.0, n + 1), 0.5)
    alloc, fell_back = capacity_max_path(sinr, base)
    assert not fell_back
    assert vec(alloc) == want == vec(linear_assignment(sinr, base))


def test_allocate_random_properties():
    rng = np.random.default_rng(0)
    for n, m in ((5, 3), (3, 5), (4, 4), (0, 3), (3, 0)):
        alloc = allocate_random(n, m, rng)
        cols = [c for c in alloc.resource_of_pair if c >= 0]
        assert len(cols) == min(n, m)
        assert len(set(cols)) == len(cols)
        assert all(0 <= c < m for c in cols)
    a = allocate_random(6, 6, np.random.default_rng(9))
    b = allocate_random(6, 6, np.random.default_rng(9))
    assert vec(a) == vec(b)


def test_allocate_none():
    alloc = allocate_none(4)
    assert vec(alloc) == (-1, -1, -1, -1)
    assert alloc.enabled_pairs == 0
    assert alloc.pairs() == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_matching_invariants(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    adj = rng.random((n, m)) < rng.uniform(0.1, 0.9)
    size = max_matching_size(adj)
    assert 0 <= size <= min(n, m)
    assert size == brute_force_max_matching(adj)
    # adding one edge never shrinks the matching
    r, c = int(rng.integers(0, n)), int(rng.integers(0, m))
    grown = adj.copy()
    grown[r, c] = True
    assert max_matching_size(grown) >= size
    # the proposed allocator realizes the maximum with feasible, unique columns
    alloc = allocate_proposed(feas(adj))
    assert alloc.enabled_pairs == size
    cols = [x for x in alloc.resource_of_pair if x >= 0]
    assert len(set(cols)) == len(cols)
    assert all(adj[r2, c2] for r2, c2 in alloc.pairs())
