"""Capacity-max's fallback: pinned bytes where it runs, no scipy.optimize where it does not.

No preset run imports scipy.spatial either: pairing needs none of it.

In every preset sector capacity-max's two sorts decide, so a preset campaign
never reaches the general assignment (rrm.max_score_assignment) and never
imports scipy.optimize.  One cellular SNR target for every user makes the
no-reuse SNRs of a sector tie, and then nearly every sector falls back.

The digests were recorded from `d2dsim run --scenario X --drops 3 --seed 3
--set cell_snr_target_db=[10.0,10.0]` (all schemes) while every sector with
fewer pairs than resources still went to linear assignment, at the AVX-512
dispatch level, as the digests of test_golden_outputs.py were.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import d2dsim
from d2dsim import cli, engine, rrm
from d2dsim.rrm import allocate_capacity_max, max_score_assignment

TIED = "cell_snr_target_db=[10.0,10.0]"

GOLDEN_TIED = {
    "macro-scheme1": {
        "drops.csv": "467d92b93e8785ccdb1ac617fb55ce104fe9873ff18514f54cdbc7cd1b58e225",
        "kinds.csv": "5c1cb247b5c12468053216ae32da9161b6977c3137f4a58dbe2250da1823e371",
        "allocations.csv": "3e868973d77ba5989e74d3d5f0db7eed425f7c97102aeabdf0588d8f2a35c614",
        "summary.txt": "20427f1aeb0ee01f3349ef8f6bef1451d71b9934259e546fddd92188c3375dc5",
    },
    "macro-scheme2": {
        "drops.csv": "4889b148af8ce30b69069f2997605f990f6a8e565654fb4ac02427b90d51b472",
        "kinds.csv": "53bd79bc7321ae28ee298e37cde0448de2d9b99e5b2d26c674a27d43ee092c1e",
        "allocations.csv": "9126a62a864be816210a50824328b71c3812927f282e62242d7d69dcbf714232",
        "summary.txt": "dc212a681329daf38fc2eda4f44ce448353c47d67ef6ed7c761cd68164eef7ce",
    },
    "hetnet": {
        "drops.csv": "32a91ac756c063d561e433688fed2ac0529da5fb6b00ab280f5c6e20481f691c",
        "kinds.csv": "aa325ddc0f11451908fcf018e331ed5010aa83e30faee309799f3c93e7782c88",
        "allocations.csv": "87c154933d74b5aa563d94998d2f39a2089ba8937a82b491586005c45a1a5833",
        "summary.txt": "13d66d7c5a73d47886dc61025de96ad402751a90b235103ba952fbd243e48f00",
    },
}

# (sectors that fell back, sectors scheduled) over each tied campaign
FALLBACKS = {"macro-scheme1": (38, 38), "macro-scheme2": (38, 38), "hetnet": (41, 45)}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_TIED))
def test_tied_campaign_falls_back_and_keeps_its_bytes(scenario, tmp_path, monkeypatch):
    fallbacks, sectors = [], []
    monkeypatch.setattr(rrm, "max_score_assignment",
                        lambda score: fallbacks.append(score) or max_score_assignment(score))
    monkeypatch.setattr(engine, "allocate_capacity_max",
                        lambda *args: sectors.append(args) or allocate_capacity_max(*args))
    assert cli.main(["run", "--scenario", scenario, "--set", TIED, "--drops", "3", "--seed", "3",
                     "--workers", "1", "--out", str(tmp_path), "--quiet"]) == 0
    assert (len(fallbacks), len(sectors)) == FALLBACKS[scenario]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_TIED[scenario]} == GOLDEN_TIED[scenario]


PROBE = """\
import sys
from d2dsim import cli
from d2dsim.config import SCENARIO_PRESETS
out, sets = sys.argv[1], sys.argv[2:]
for preset in SCENARIO_PRESETS:
    assert cli.main(["run", "--scenario", preset, *sets, "--drops", "2", "--workers", "1",
                     "--out", f"{out}/{preset}", "--quiet"]) == 0
print(*sorted({"scipy.optimize", "scipy.spatial"} & sys.modules.keys()))
"""


def probe(tmp_path, sets):
    """The heavy scipy modules that a fresh `d2dsim run` of every preset
    loads, as PROBE prints them."""
    env = dict(os.environ, PYTHONPATH=str(Path(d2dsim.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path), *sets], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("sets, loaded", [([], False), (["--set", TIED], True)])
def test_scipy_optimize_loads_only_where_capacity_max_falls_back(sets, loaded, tmp_path):
    """A fresh `d2dsim run` of every preset leaves scipy.optimize unloaded;
    the tied config, which falls back, loads it (the control)."""
    assert ("scipy.optimize" in probe(tmp_path, sets)) == loaded


def test_preset_runs_load_neither_scipy_spatial_nor_scipy_optimize(tmp_path):
    """Pairing searches a numpy cell grid, so a fresh `d2dsim run` of every
    preset imports neither scipy.spatial nor scipy.optimize."""
    assert probe(tmp_path, []) == []
