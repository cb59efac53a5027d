"""Open-loop power control: exact target inversion and clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim.power import draw_snr_targets, open_loop_power_w
from d2dsim.units import dbm_to_watts


def test_exact_inversion_hits_target():
    sigma2 = 1e-13
    gain = 1e-9
    p, clipped = open_loop_power_w(10.0, gain, sigma2, 24.0)
    assert not clipped
    achieved = p * gain / sigma2
    assert achieved == pytest.approx(10.0 ** (10.0 / 10.0), rel=1e-12)


def test_clipping_at_device_maximum():
    sigma2 = 1e-10
    gain = 1e-14  # would need far more than 24 dBm
    p, clipped = open_loop_power_w(15.0, gain, sigma2, 24.0)
    assert clipped
    assert p == pytest.approx(dbm_to_watts(24.0), rel=1e-15)


def test_clip_boundary_is_strict():
    # gain 1 and sigma2 == p_max make wanted == p_max bit-exactly (target 0 dB
    # is linear 1.0); the boundary must count as unclipped
    p_max = float(dbm_to_watts(24.0))
    p, clipped = open_loop_power_w(0.0, 1.0, p_max, 24.0)
    assert not clipped
    assert p == p_max


def test_vectorized_mixed():
    p, c = open_loop_power_w([0.0, 0.0], [1e-9, 1e-20], 1e-13, 24.0)
    assert not c[0] and c[1]
    assert p.shape == (2,)


def test_invalid_inputs():
    with pytest.raises(ValueError, match="gain"):
        open_loop_power_w(0.0, 0.0, 1e-13, 24.0)
    with pytest.raises(ValueError, match="gain"):
        open_loop_power_w(0.0, [-1e-9, 1e-9], 1e-13, 24.0)
    with pytest.raises(ValueError, match="noise"):
        open_loop_power_w(0.0, 1e-9, 0.0, 24.0)
    with pytest.raises(ValueError, match="^noise power must be positive$"):
        open_loop_power_w(0.0, [1e-9, 1e-9], np.array([1e-13, 0.0]), 24.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-10.0, max_value=30.0),
       st.floats(min_value=-140.0, max_value=-40.0),
       st.floats(min_value=-150.0, max_value=-90.0))
def test_power_never_exceeds_max_and_meets_target(target_db, gain_db, sigma2_dbm):
    gain = 10.0 ** (gain_db / 10.0)
    sigma2 = float(dbm_to_watts(sigma2_dbm))
    p, clipped = open_loop_power_w(target_db, gain, sigma2, 24.0)
    p_max = float(dbm_to_watts(24.0))
    assert p <= p_max
    achieved_db = 10.0 * np.log10(p * gain / sigma2)
    if clipped:
        assert achieved_db <= target_db + 1e-9  # fell short (up to rounding)
    else:
        assert achieved_db == pytest.approx(target_db, abs=1e-9)


def test_draw_snr_targets():
    rng = np.random.default_rng(0)
    t = draw_snr_targets((3.0, 9.0), 500, rng)
    assert t.shape == (500,)
    assert (t >= 3.0).all() and (t <= 9.0).all()
    a = draw_snr_targets((0.0, 10.0), 5, np.random.default_rng(1))
    b = draw_snr_targets((0.0, 10.0), 5, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="low"):
        draw_snr_targets((5.0, 1.0), 3, rng)
