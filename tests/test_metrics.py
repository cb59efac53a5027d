"""Rate accounting: closed-form link rates and measured-grid aggregation."""

import numpy as np
import pytest

from d2dsim.channel import GainSet
from d2dsim.feasibility import sinr_cell_matrix
from d2dsim.metrics import DropArrays, aggregate_gain, evaluate_drop, link_rates
from d2dsim.rrm import Allocation, allocate_none
from reference import FullGainSet, sinr_d2d_matrix

SHARE_HZ = 1000.0
P_D2D = np.array([0.01, 0.02])
SIGMA2_CELL = 1e-9
SIGMA2_D2D = 1e-10
H_D2D = np.array([1e-5, 2e-5])
# h_cross[m, n]: cellular user n into the receiving end of pair m
H_CROSS = np.array([[1e-7, 2e-7, 3e-7], [4e-7, 5e-7, 6e-7]])


def make_sector(kind="macro", share=SHARE_HZ,
                cell_measured=(True, True, False),
                pair_measured=(True, False)):
    """2 pairs x 3 cellular users with hand-pickable gains, as the pieces of
    one sector of a DropArrays."""
    h_cell = np.array([1e-6, 2e-6, 5e-7])
    p_cell = np.array([0.1, 0.2, 0.05])
    gains = GainSet(
        h_cell=h_cell,
        h_d2d=H_D2D,
        h_d2d_bs=np.array([1e-8, 2e-8]),
    )
    return dict(
        kind=kind,
        sinr_cell=sinr_cell_matrix(gains, p_cell, P_D2D, SIGMA2_CELL),
        d2d_signal=H_D2D * P_D2D,
        sigma2_d2d=SIGMA2_D2D,
        share=share,
        rx_users=np.arange(2),
        pair_measured=np.array(pair_measured),
        d2d_clipped=np.array([False, True]),
        p_cell=p_cell,
        baseline_sinr=h_cell * p_cell / SIGMA2_CELL,  # [100, 400, 25]
        cell_users=np.arange(3),
        cell_measured=np.array(cell_measured),
        cell_clipped=np.array([True, False, True]),
    )


def drop_arrays(*sectors, sector_ids=None):
    """The DropArrays of hand-made sectors, laid end to end in the given order,
    with sector ids 0, 1, ... unless given."""
    def cat(key, dtype=float):
        return np.concatenate([np.zeros(0, dtype)]
                              + [np.asarray(s[key], dtype=dtype).ravel() for s in sectors])

    n = [len(s["rx_users"]) for s in sectors]
    m = [len(s["cell_users"]) for s in sectors]
    shares = [s["share"] for s in sectors]
    return DropArrays(
        sector_ids=np.arange(len(sectors)) if sector_ids is None else np.asarray(sector_ids),
        kinds=tuple(s["kind"] for s in sectors),
        pair_start=np.cumsum([0, *n]),
        cell_start=np.cumsum([0, *m]),
        sinr_cell=cat("sinr_cell"),
        d2d_signal=cat("d2d_signal"),
        sigma2_d2d=np.repeat([float(s["sigma2_d2d"]) for s in sectors], n),
        pair_share_hz=np.repeat(shares, n).astype(float),
        rx_users=cat("rx_users", int),
        pair_measured=cat("pair_measured", bool),
        d2d_clipped=cat("d2d_clipped", bool),
        p_cell=cat("p_cell"),
        cell_share_hz=np.repeat(shares, m).astype(float),
        baseline_sinr=cat("baseline_sinr"),
        cell_users=cat("cell_users", int),
        cell_measured=cat("cell_measured", bool),
        cell_clipped=cat("cell_clipped", bool),
    )


def make_state(**kwargs):
    """A drop of one make_sector sector."""
    return drop_arrays(make_sector(**kwargs))


def cross_gains(arrays, resource):
    """The gains of a resource array's scheduled cross links, in their order;
    make_sector's users are their own rows of H_CROSS."""
    return H_CROSS[tuple(arrays.cross_links(resource))]


def rates(arrays, allocations):
    """link_rates of one allocation per sector, with the H_CROSS gains."""
    res = arrays.resource_rows(allocations)
    return link_rates(arrays, res, cross_gains(arrays, res))


def evaluate(arrays, allocations):
    res = arrays.resource_rows(allocations)
    return evaluate_drop(arrays, res, cross_gains(arrays, res))


def test_sector_rates_closed_form():
    state = make_state()
    cell_bps, d2d_bps, cell_sinr, d2d_sinr = rates(state, [Allocation(np.array([2, -1]))])

    # pair 0 rides resource 2: both SINRs from the scalar reuse formulas
    sinr_d = 1e-5 * 0.01 / (3e-7 * 0.05 + 1e-10)
    sinr_c = 5e-7 * 0.05 / (1e-8 * 0.01 + 1e-9)
    assert cell_sinr == pytest.approx([100.0, 400.0, sinr_c], rel=1e-12)
    assert d2d_sinr == pytest.approx([sinr_d, 0.0], rel=1e-12)
    assert d2d_bps == pytest.approx(
        [SHARE_HZ * np.log2(1.0 + sinr_d), 0.0], rel=1e-12)
    assert cell_bps == pytest.approx(
        SHARE_HZ * np.log2(1.0 + np.array([100.0, 400.0, sinr_c])), rel=1e-12)


def test_sector_rates_read_only_scheduled_cross_gains():
    """Each scheduled reuse's D2D SINR is sinr_d2d_matrix's entry over the
    full cross-gain matrix, bit for bit, from only the scheduled cross links'
    gains, handed in by position."""
    state = make_state()
    gains = FullGainSet(h_cell=np.array([1e-6, 2e-6, 5e-7]), h_d2d=H_D2D,
                        h_d2d_bs=np.array([1e-8, 2e-8]), h_cross=H_CROSS)
    full = sinr_d2d_matrix(gains, state.p_cell, P_D2D, SIGMA2_D2D)
    res = state.resource_rows([Allocation(np.array([2, 0]))])
    # one gain per reuse, in pair order: h_cross[m, n] of (rx of pair m, cellular n)
    h_cross = np.array([H_CROSS[0, 2], H_CROSS[1, 0]])
    _, d2d_bps, _, d2d_sinr = link_rates(state, res, h_cross)
    np.testing.assert_array_equal(d2d_sinr, [full[0, 2], full[1, 0]])
    np.testing.assert_array_equal(d2d_bps, SHARE_HZ * np.log2(1.0 + d2d_sinr))
    np.testing.assert_array_equal(state.cross_links(res), [[0, 1], [2, 0]])
    np.testing.assert_array_equal(cross_gains(state, res), h_cross)
    np.testing.assert_array_equal(
        state.cross_links(state.resource_rows([Allocation(np.array([-1, 1]))])), [[1], [1]])
    assert state.cross_links(state.resource_rows([allocate_none(2)])).shape == (2, 0)


def test_grants_are_sector_id_pair_row_and_column_in_pair_order():
    two = drop_arrays(make_sector(), make_sector(), sector_ids=[4, 9])
    res = two.resource_rows([Allocation(np.array([2, -1])), Allocation(np.array([1, 0]))])
    np.testing.assert_array_equal(res, [2, -1, 4, 3])
    grants = two.grants(res)
    assert grants.dtype == np.int32
    np.testing.assert_array_equal(grants, [[4, 9, 9], [0, 0, 1], [2, 1, 0]])
    assert two.grants(two.resource_rows([allocate_none(2)] * 2)).shape == (3, 0)


def test_sector_rates_none_keeps_baseline():
    state = make_state()
    cell_bps, d2d_bps, cell_sinr, _ = rates(state, [allocate_none(2)])
    assert cell_sinr == pytest.approx(state.baseline_sinr)
    assert d2d_bps == pytest.approx([0.0, 0.0])
    assert cell_bps == pytest.approx(
        SHARE_HZ * np.log2(1.0 + state.baseline_sinr))


def test_sector_rates_scale_with_share():
    allocs = [Allocation(np.array([2, 0]))]
    c1, d1, _, _ = rates(make_state(share=1000.0), allocs)
    c2, d2, _, _ = rates(make_state(share=2000.0), allocs)
    assert c2 == pytest.approx(2.0 * c1)
    assert d2 == pytest.approx(2.0 * d1)


def test_sector_rates_validation():
    state = make_state()
    with pytest.raises(ValueError, match="length"):
        state.resource_rows([Allocation(np.array([0]))])
    with pytest.raises(ValueError, match="length"):
        link_rates(state, np.array([0]), np.zeros(1))
    with pytest.raises(ValueError, match="twice"):
        link_rates(state, state.resource_rows([Allocation(np.array([1, 1]))]), np.zeros(2))
    # a resource row of another sector, or past the sector's last one
    two = drop_arrays(make_sector(), make_sector())
    for res in (np.array([3, -1, -1, -1]), np.array([-1, -1, 2, -1])):
        with pytest.raises(ValueError, match="outside its sector"):
            link_rates(two, res, np.zeros(1))
    with pytest.raises(ValueError, match="outside its sector"):
        link_rates(state, state.resource_rows([Allocation(np.array([3, -1]))]), np.zeros(1))


def test_sector_rates_refuses_cross_gains_not_one_per_reuse():
    """One gain for two scheduled reuses would broadcast over both."""
    state = make_state()
    res = state.resource_rows([Allocation(np.array([2, 0]))])
    for h_cross in (np.array([3e-7]), np.zeros(3), H_CROSS):
        with pytest.raises(ValueError, match="cross-gain count"):
            link_rates(state, res, h_cross)
    with pytest.raises(ValueError, match="cross-gain count"):
        link_rates(state, state.resource_rows([allocate_none(2)]), np.array([3e-7]))


def test_sector_rates_empty_resources():
    sector = make_sector()
    gains = GainSet(
        h_cell=np.zeros(0),
        h_d2d=np.array([1e-5, 2e-5]), h_d2d_bs=np.array([1e-8, 2e-8]))
    sector.update(sinr_cell=sinr_cell_matrix(gains, np.zeros(0), P_D2D, SIGMA2_CELL),
                  p_cell=np.zeros(0), cell_users=np.zeros(0, dtype=int),
                  baseline_sinr=np.zeros(0), cell_measured=np.zeros(0, dtype=bool),
                  cell_clipped=np.zeros(0, dtype=bool))
    cell_bps, d2d_bps, _, _ = rates(drop_arrays(sector), [allocate_none(2)])
    assert cell_bps.shape == (0,)
    assert d2d_bps == pytest.approx([0.0, 0.0])


def test_evaluate_drop_measured_only():
    state = make_state()  # users 0,1 and pair 0 measured
    allocs = [Allocation(np.array([2, 0]))]
    report = evaluate(state, allocs)
    cell_bps, d2d_bps, _, _ = rates(state, allocs)

    assert report.cell_bps == pytest.approx(cell_bps[:2].sum())
    assert report.d2d_bps == pytest.approx(d2d_bps[0])
    assert report.overall_bps == pytest.approx(report.cell_bps + report.d2d_bps)
    base = SHARE_HZ * np.log2(1.0 + state.baseline_sinr[:2]).sum()
    assert report.baseline_cell_bps == pytest.approx(base)
    assert report.enabled_pairs == 1  # pair 1 is scheduled but off-grid
    # clipped measured transmitters: cell user 0 of {0,1} + neither pair
    assert report.clip_rate == pytest.approx(1.0 / 3.0)


def test_evaluate_drop_by_kind_split():
    arrays = drop_arrays(make_sector(kind="macro"), make_sector(kind="micro"))
    report = evaluate(arrays, [Allocation(np.array([2, -1])), allocate_none(2)])
    assert set(report.by_kind) == {"macro", "micro"}
    assert report.by_kind["micro"]["d2d_bps"] == 0.0
    assert report.cell_bps == pytest.approx(
        report.by_kind["macro"]["cell_bps"] + report.by_kind["micro"]["cell_bps"])
    assert report.overall_bps == pytest.approx(
        sum(k["overall_bps"] for k in report.by_kind.values()))
    # the none sector still reports its baseline
    assert report.by_kind["micro"]["cell_bps"] == pytest.approx(
        report.by_kind["micro"]["baseline_cell_bps"])


def test_evaluate_drop_none_matches_baseline():
    state = make_state()
    report = evaluate_drop(state, state.resource_rows([allocate_none(2)]), np.zeros(0))
    assert report.cell_bps == pytest.approx(report.baseline_cell_bps)
    assert report.d2d_bps == 0.0
    assert report.enabled_pairs == 0


def test_evaluate_drop_empty():
    empty = drop_arrays()
    report = evaluate_drop(empty, empty.resource_rows([]), np.zeros(0))
    assert report.overall_bps == 0.0
    assert report.clip_rate == 0.0
    assert report.baseline_cell_bps == 0.0


def test_evaluate_drop_refuses_lists_not_aligned_with_states():
    """One allocation per sector, and one cross gain per scheduled reuse."""
    state = make_state()
    alloc = Allocation(np.array([2, -1]))
    for allocs in ([], [alloc, alloc]):
        with pytest.raises(ValueError, match="zip"):
            state.resource_rows(allocs)
    res = state.resource_rows([alloc])
    for gains in (np.zeros(0), np.zeros(2)):
        with pytest.raises(ValueError, match="cross-gain count"):
            evaluate_drop(state, res, gains)


def test_aggregate_gain():
    assert aggregate_gain([110.0, 130.0], [100.0, 100.0]) == pytest.approx(0.20)
    assert aggregate_gain([], []) is None
    assert aggregate_gain([1.0], [0.0]) is None
    # ratio of sums, not mean of ratios: big drops dominate
    got = aggregate_gain([200.0, 11.0], [100.0, 10.0])
    assert got == pytest.approx((211.0 - 110.0) / 110.0)
