"""dB/dBm conversion sanity: exact landmarks and round trips."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from d2dsim.units import db_to_linear, dbm_to_watts


def test_landmark_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-10.0) == 0.1
    assert db_to_linear(20.0) == 100.0
    assert dbm_to_watts(30.0) == 1.0  # 30 dBm = 1 W
    assert np.isclose(dbm_to_watts(0.0), 1e-3)
    assert 10.0 * np.log10(dbm_to_watts(30.0) * 1e3) == 30.0


def test_elementwise_on_arrays():
    x = np.array([0.0, 3.0, 20.0])
    assert db_to_linear(x).shape == (3,)
    np.testing.assert_allclose(10.0 * np.log10(db_to_linear(x)), x, rtol=1e-12)


@given(st.floats(min_value=-150.0, max_value=150.0))
def test_db_round_trip(db):
    assert np.isclose(10.0 * np.log10(db_to_linear(db)), db, atol=1e-9)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_round_trip(dbm):
    assert np.isclose(10.0 * np.log10(dbm_to_watts(dbm) * 1e3), dbm, atol=1e-9)
