"""Admission logic: SINR closed forms, exact and context feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim.channel import GainSet
from d2dsim.feasibility import (FeasibilityMatrix, SinrTargets,
                                baseline_cell_sinr, feasibility_context,
                                feasibility_exact, sinr_cell,
                                sinr_cell_matrix, sinr_d2d, sinr_d2d_matrix)
from conftest import random_gain_set


def scalar_oracle_d2d(gs, p_cell, p_d2d, s2, m, n):
    return gs.h_d2d[m] * p_d2d[m] / (gs.h_cross[m, n] * p_cell[n] + s2)


def scalar_oracle_cell(gs, p_cell, p_d2d, s2, m, n):
    return gs.h_cell[n] * p_cell[n] / (gs.h_d2d_bs[m] * p_d2d[m] + s2)


def test_sinr_matrices_match_scalar_forms(rng):
    gs = random_gain_set(rng, 4, 5)
    p_cell = rng.uniform(1e-4, 0.25, 5)
    p_d2d = rng.uniform(1e-4, 0.25, 4)
    s2c, s2d = 3e-13, 7e-13
    md = sinr_d2d_matrix(gs, p_cell, p_d2d, s2d)
    mc = sinr_cell_matrix(gs, p_cell, p_d2d, s2c)
    for m in range(4):
        for n in range(5):
            assert md[m, n] == pytest.approx(
                scalar_oracle_d2d(gs, p_cell, p_d2d, s2d, m, n), rel=1e-14)
            assert mc[m, n] == pytest.approx(
                scalar_oracle_cell(gs, p_cell, p_d2d, s2c, m, n), rel=1e-14)
            assert sinr_d2d(gs, p_cell, p_d2d, s2d, m, n) == pytest.approx(
                md[m, n], rel=1e-14)
            assert sinr_cell(gs, p_cell, p_d2d, s2c, m, n) == pytest.approx(
                mc[m, n], rel=1e-14)


def test_baseline_cell_sinr(rng):
    gs = random_gain_set(rng, 2, 3)
    p = np.array([0.1, 0.2, 0.05])
    np.testing.assert_allclose(baseline_cell_sinr(gs, p, 1e-12),
                               gs.h_cell * p / 1e-12, rtol=1e-15)


def fixed_cell_target(target_db: float, n_cells: int, **kw) -> SinrTargets:
    """A fixed cellular target: gamma 0 dB below a baseline of the target itself."""
    return SinrTargets(gamma_cell_db=0.0,
                       baseline_cell_sinr=np.full(n_cells, 10.0 ** (target_db / 10.0)), **kw)


def test_targets_validation(rng):
    with pytest.raises(TypeError):
        SinrTargets()
    with pytest.raises(TypeError, match="baseline"):
        SinrTargets(gamma_cell_db=3.0)
    t = fixed_cell_target(12.0, 3, d2d_target_db=np.array([0.0, 10.0]))
    np.testing.assert_allclose(t.d2d_threshold_linear(2), [1.0, 10.0])
    np.testing.assert_allclose(t.cell_threshold_linear(3),
                               [10.0 ** 1.2] * 3)
    g = SinrTargets(gamma_cell_db=3.0, baseline_cell_sinr=np.array([8.0, 16.0]))
    np.testing.assert_allclose(g.cell_threshold_linear(2),
                               np.array([8.0, 16.0]) * 10 ** -0.3)
    with pytest.raises(ValueError, match="length"):
        g.cell_threshold_linear(3)


def exact_oracle(gs, p_cell, p_d2d, s2c, s2d, targets):
    n, m = gs.shape
    td = targets.d2d_threshold_linear(n)
    tc = targets.cell_threshold_linear(m)
    out = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        for j in range(m):
            ok_d = scalar_oracle_d2d(gs, p_cell, p_d2d, s2d, i, j) >= td[i]
            ok_c = scalar_oracle_cell(gs, p_cell, p_d2d, s2c, i, j) >= tc[j]
            out[i, j] = ok_d and ok_c
    return out


def context_oracle(gs, p_cell, p_d2d, s2c, link, cross, targets):
    n, m = gs.shape
    tc = targets.cell_threshold_linear(m)
    floor = targets.ratio_threshold * link
    out = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        for j in range(m):
            ok_r = cross[i, j] >= floor[i]
            ok_c = scalar_oracle_cell(gs, p_cell, p_d2d, s2c, i, j) >= tc[j]
            out[i, j] = ok_r and ok_c
    return out


def random_instance(rng, n, m):
    gs = random_gain_set(rng, n, m)
    p_cell = rng.uniform(1e-4, 0.25, m)
    p_d2d = rng.uniform(1e-4, 0.25, n)
    s2c = 10.0 ** rng.uniform(-14.0, -11.0)
    s2d = 10.0 ** rng.uniform(-14.0, -11.0)
    return gs, p_cell, p_d2d, s2c, s2d


def test_feasibility_exact_matches_oracle(rng):
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        gs, p_cell, p_d2d, s2c, s2d = random_instance(rng, n, m)
        d2d_target_db = rng.uniform(-5, 10, n)
        targets = fixed_cell_target(float(rng.uniform(0, 15)), m, d2d_target_db=d2d_target_db)
        fm = feasibility_exact(gs, p_cell, p_d2d, s2c, s2d, targets)
        np.testing.assert_array_equal(
            fm.entries, exact_oracle(gs, p_cell, p_d2d, s2c, s2d, targets))


def test_feasibility_context_matches_oracle(rng):
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        gs, p_cell, p_d2d, s2c, _ = random_instance(rng, n, m)
        link = rng.uniform(1.0, 40.0, n)
        cross = rng.uniform(1.0, 300.0, (n, m))
        baseline = baseline_cell_sinr(gs, p_cell, s2c)
        targets = SinrTargets(gamma_cell_db=float(rng.uniform(0, 12)),
                              baseline_cell_sinr=baseline,
                              ratio_threshold=float(rng.uniform(0.5, 2.0)))
        fm = feasibility_context(gs, p_cell, p_d2d, s2c, link, cross, targets)
        np.testing.assert_array_equal(
            fm.entries, context_oracle(gs, p_cell, p_d2d, s2c, link, cross, targets))


def test_inclusive_boundary_d2d():
    # engineered so sinr_d2d == threshold exactly: inclusive >= admits it
    gs = GainSet(h_cell=np.array([1.0]), h_d2d=np.array([1.0]),
                 h_d2d_bs=np.array([1e-30]), h_cross=np.array([[0.0]]))
    # a zero baseline switches the cellular check off
    targets = SinrTargets(gamma_cell_db=0.0, baseline_cell_sinr=np.zeros(1), d2d_target_db=0.0)
    fm = feasibility_exact(gs, np.array([1.0]), np.array([1.0]), 1e-3, 1.0, targets)
    # sinr_d2d = 1*1 / (0 + 1.0) = 1.0 == 10^(0/10)
    assert fm.entries[0, 0] == 1


def test_inclusive_boundary_ratio():
    gs = GainSet(h_cell=np.array([1.0]), h_d2d=np.array([1.0]),
                 h_d2d_bs=np.array([1e-30]), h_cross=np.array([[1e-12]]))
    targets = SinrTargets(gamma_cell_db=0.0, baseline_cell_sinr=np.zeros(1), ratio_threshold=1.0)
    fm = feasibility_context(gs, np.array([1.0]), np.array([1.0]), 1e-3,
                             np.array([25.0]), np.array([[25.0]]), targets)
    assert fm.entries[0, 0] == 1  # cross == floor * link admits


def test_gamma_mode_cell_condition_is_per_pair(rng):
    """With a degradation budget the cellular check reduces to
    interference-over-noise <= 10^(gamma/10) - 1, independent of the column."""
    gs = random_gain_set(rng, 5, 6)
    p_cell = rng.uniform(1e-4, 0.25, 6)
    p_d2d = rng.uniform(1e-4, 0.25, 5)
    s2c = 1e-13
    baseline = baseline_cell_sinr(gs, p_cell, s2c)
    gamma = 10.0
    targets = SinrTargets(d2d_target_db=-300.0, gamma_cell_db=gamma,
                          baseline_cell_sinr=baseline)
    fm = feasibility_exact(gs, p_cell, p_d2d, s2c, 1e30, targets)
    # d2d side always passes (target -300 dB); rows must be constant
    for row in fm.entries:
        assert row.min() == row.max()
    want = (gs.h_d2d_bs * p_d2d / s2c) <= (10.0 ** (gamma / 10.0) - 1.0)
    np.testing.assert_array_equal(fm.entries[:, 0].astype(bool), want)


def test_shape_validation(rng):
    gs = random_gain_set(rng, 2, 3)
    targets = fixed_cell_target(0.0, 3)
    with pytest.raises(ValueError, match="distance arrays"):
        feasibility_context(gs, np.ones(3) * 0.1, np.ones(2) * 0.1, 1e-13,
                            np.ones(2), np.ones((3, 2)), targets)
    with pytest.raises(ValueError, match="2-D"):
        FeasibilityMatrix(entries=np.ones(4))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_exact_feasibility_property(seed, n, m):
    rng = np.random.default_rng(seed)
    gs, p_cell, p_d2d, s2c, s2d = random_instance(rng, n, m)
    d2d_target_db = float(rng.uniform(-5, 10))
    targets = fixed_cell_target(float(rng.uniform(0, 15)), m, d2d_target_db=d2d_target_db)
    fm = feasibility_exact(gs, p_cell, p_d2d, s2c, s2d, targets)
    np.testing.assert_array_equal(
        fm.entries, exact_oracle(gs, p_cell, p_d2d, s2c, s2d, targets))
