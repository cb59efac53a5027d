"""Shared fixtures: small deterministic configs and synthetic gain sets."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from d2dsim.config import PathlossParams, ScenarioConfig, SiteParams
from reference import FullGainSet


def tiny_config(**overrides) -> ScenarioConfig:
    """Small single-grid deployment that builds a drop in ~10 ms."""
    base = dict(
        replica_rings=0,
        fixed_user_count=40,
        micro_enabled=False,
        num_drops=3,
        seed=7,
    )
    base.update(overrides)
    return dataclasses.replace(ScenarioConfig(), **base)


def random_gain_set(rng: np.random.Generator, n_pairs: int, n_cells: int) -> FullGainSet:
    """Synthetic linear gains spanning several orders of magnitude."""
    g = lambda size: 10.0 ** rng.uniform(-12.0, -4.0, size=size)
    return FullGainSet(
        h_cell=g(n_cells),
        h_d2d=g(n_pairs),
        h_d2d_bs=g(n_pairs),
        h_cross=g((n_pairs, n_cells)),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
