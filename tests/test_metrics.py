"""Rate accounting: closed-form sector rates and measured-grid aggregation."""

import numpy as np
import pytest

from d2dsim.channel import GainSet
from d2dsim.feasibility import FeasibilityMatrix, sinr_cell_matrix, sinr_d2d_matrix
from d2dsim.metrics import (SectorState, aggregate_gain, evaluate_drop,
                            scheduled_cross_links, sector_rates)
from d2dsim.rrm import Allocation, allocate_none

SHARE_HZ = 1000.0
P_D2D = np.array([0.01, 0.02])
SIGMA2_CELL = 1e-9
SIGMA2_D2D = 1e-10
H_D2D = np.array([1e-5, 2e-5])
# h_cross[m, n]: cellular user n into the receiving end of pair m
H_CROSS = np.array([[1e-7, 2e-7, 3e-7], [4e-7, 5e-7, 6e-7]])


def cross_gains(state, allocation):
    """The gains of an allocation's scheduled cross links, in their order;
    make_state's users are their own rows of H_CROSS."""
    return H_CROSS[tuple(scheduled_cross_links(state, allocation))]


def make_state(sector_id=0, kind="macro", share=SHARE_HZ,
               cell_measured=(True, True, False),
               pair_measured=(True, False)):
    """2 pairs x 3 cellular users with hand-pickable gains."""
    h_cell = np.array([1e-6, 2e-6, 5e-7])
    p_cell = np.array([0.1, 0.2, 0.05])
    gains = GainSet(
        sector_id=sector_id,
        h_cell=h_cell,
        h_d2d=H_D2D,
        h_d2d_bs=np.array([1e-8, 2e-8]),
    )
    return SectorState(
        sector_id=sector_id,
        kind=kind,
        sinr_cell=sinr_cell_matrix(gains, p_cell, P_D2D, SIGMA2_CELL),
        d2d_signal=H_D2D * P_D2D,
        p_cell=p_cell,
        sigma2_d2d=SIGMA2_D2D,
        rx_users=np.arange(2),
        cell_users=np.arange(3),
        cell_clipped=np.array([True, False, True]),
        d2d_clipped=np.array([False, True]),
        share_bw_hz=share,
        baseline_sinr=h_cell * p_cell / SIGMA2_CELL,  # [100, 400, 25]
        cell_measured=np.array(cell_measured),
        pair_measured=np.array(pair_measured),
        feas_context=FeasibilityMatrix(np.ones((2, 3)), mode="context"),
    )


def test_sector_rates_closed_form():
    state = make_state()
    alloc = Allocation((2, -1))
    cell_bps, d2d_bps, cell_sinr, d2d_sinr = sector_rates(
        state, alloc, cross_gains(state, alloc))

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
    gains = GainSet(0, h_cell=np.array([1e-6, 2e-6, 5e-7]), h_d2d=H_D2D,
                    h_d2d_bs=np.array([1e-8, 2e-8]), h_cross=H_CROSS)
    full = sinr_d2d_matrix(gains, state.p_cell, P_D2D, SIGMA2_D2D)
    alloc = Allocation((2, 0))
    # one gain per reuse, in pair order: h_cross[m, n] of (rx of pair m, cellular n)
    h_cross = np.array([H_CROSS[0, 2], H_CROSS[1, 0]])
    _, d2d_bps, _, d2d_sinr = sector_rates(state, alloc, h_cross)
    np.testing.assert_array_equal(d2d_sinr, [full[0, 2], full[1, 0]])
    np.testing.assert_array_equal(d2d_bps, SHARE_HZ * np.log2(1.0 + d2d_sinr))
    np.testing.assert_array_equal(scheduled_cross_links(state, alloc), [[0, 1], [2, 0]])
    np.testing.assert_array_equal(cross_gains(state, alloc), h_cross)
    np.testing.assert_array_equal(scheduled_cross_links(state, Allocation((-1, 1))), [[1], [1]])
    assert scheduled_cross_links(state, allocate_none(2)).shape == (2, 0)


def test_sector_rates_none_keeps_baseline():
    state = make_state()
    cell_bps, d2d_bps, cell_sinr, _ = sector_rates(state, allocate_none(2), np.zeros(0))
    assert cell_sinr == pytest.approx(state.baseline_sinr)
    assert d2d_bps == pytest.approx([0.0, 0.0])
    assert cell_bps == pytest.approx(
        SHARE_HZ * np.log2(1.0 + state.baseline_sinr))


def test_sector_rates_scale_with_share():
    alloc = Allocation((2, 0))
    h_cross = cross_gains(make_state(), alloc)
    c1, d1, _, _ = sector_rates(make_state(share=1000.0), alloc, h_cross)
    c2, d2, _, _ = sector_rates(make_state(share=2000.0), alloc, h_cross)
    assert c2 == pytest.approx(2.0 * c1)
    assert d2 == pytest.approx(2.0 * d1)


def test_sector_rates_validation():
    state = make_state()
    with pytest.raises(ValueError, match="length"):
        sector_rates(state, Allocation((0,)), np.zeros(1))
    with pytest.raises(ValueError, match="twice"):
        sector_rates(state, Allocation((1, 1)), np.zeros(2))


def test_sector_rates_refuses_cross_gains_not_one_per_reuse():
    """One gain for two scheduled reuses would broadcast over both."""
    state = make_state()
    alloc = Allocation((2, 0))
    for h_cross in (np.array([3e-7]), np.zeros(3), H_CROSS):
        with pytest.raises(ValueError, match="cross-gain count"):
            sector_rates(state, alloc, h_cross)
    with pytest.raises(ValueError, match="cross-gain count"):
        sector_rates(state, allocate_none(2), np.array([3e-7]))


def test_sector_rates_empty_resources():
    state = make_state()
    gains = GainSet(
        sector_id=0, h_cell=np.zeros(0),
        h_d2d=np.array([1e-5, 2e-5]), h_d2d_bs=np.array([1e-8, 2e-8]))
    state.sinr_cell = sinr_cell_matrix(gains, np.zeros(0), P_D2D, SIGMA2_CELL)
    state.p_cell = np.zeros(0)
    state.cell_users = np.zeros(0, dtype=int)
    state.baseline_sinr = np.zeros(0)
    cell_bps, d2d_bps, _, _ = sector_rates(state, allocate_none(2), np.zeros(0))
    assert cell_bps.shape == (0,)
    assert d2d_bps == pytest.approx([0.0, 0.0])


def test_evaluate_drop_measured_only():
    state = make_state()  # users 0,1 and pair 0 measured
    alloc = Allocation((2, 0))
    report = evaluate_drop([state], [alloc], [cross_gains(state, alloc)])
    cell_bps, d2d_bps, _, _ = sector_rates(state, alloc, cross_gains(state, alloc))

    assert report.cell_bps == pytest.approx(cell_bps[:2].sum())
    assert report.d2d_bps == pytest.approx(d2d_bps[0])
    assert report.overall_bps == pytest.approx(report.cell_bps + report.d2d_bps)
    base = SHARE_HZ * np.log2(1.0 + state.baseline_sinr[:2]).sum()
    assert report.baseline_cell_bps == pytest.approx(base)
    assert report.enabled_pairs == 1  # pair 1 is scheduled but off-grid
    # clipped measured transmitters: cell user 0 of {0,1} + neither pair
    assert report.clip_rate == pytest.approx(1.0 / 3.0)


def test_evaluate_drop_by_kind_split():
    macro = make_state(sector_id=0, kind="macro")
    micro = make_state(sector_id=1, kind="micro")
    allocs = [Allocation((2, -1)), allocate_none(2)]
    report = evaluate_drop([macro, micro], allocs,
                           [cross_gains(st, a) for st, a in zip([macro, micro], allocs)])
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
    report = evaluate_drop([state], [allocate_none(2)], [np.zeros(0)])
    assert report.cell_bps == pytest.approx(report.baseline_cell_bps)
    assert report.d2d_bps == 0.0
    assert report.enabled_pairs == 0


def test_evaluate_drop_empty():
    report = evaluate_drop([], [], [])
    assert report.overall_bps == 0.0
    assert report.clip_rate == 0.0
    assert report.baseline_cell_bps == 0.0


def test_evaluate_drop_refuses_lists_not_aligned_with_states():
    state = make_state()
    alloc = Allocation((2, -1))
    h_cross = cross_gains(state, alloc)
    for allocs, gains in (([alloc], []), ([], [h_cross]), ([alloc, alloc], [h_cross])):
        with pytest.raises(ValueError, match="zip"):
            evaluate_drop([state], allocs, gains)


def test_aggregate_gain():
    assert aggregate_gain([110.0, 130.0], [100.0, 100.0]) == pytest.approx(0.20)
    assert aggregate_gain([], []) is None
    assert aggregate_gain([1.0], [0.0]) is None
    # ratio of sums, not mean of ratios: big drops dominate
    got = aggregate_gain([200.0, 11.0], [100.0, 10.0])
    assert got == pytest.approx((211.0 - 110.0) / 110.0)
