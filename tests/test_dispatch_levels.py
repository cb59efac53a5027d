"""Cross-level byte gate: the output files do not depend on numpy's SIMD kernels.

numpy picks its kernels at run time from the CPU's features, and some of them
(`log2`, `10.0 ** x`, `exp`, ...) give other last bits under other kernels, so
the digests of test_golden_outputs.py and test_bit_exact.py are pinned at one
dispatch level.  This gate runs the 3-drop seed-3 campaigns of the three
presets once per level this CPU can step down to, each in a fresh interpreter
whose NPY_DISABLE_CPU_FEATURES names the dispatch targets above that level.
The four output files must be byte-equal across the levels: association,
admission and every schedule decide the same way under any kernel, and no
report moves in the digits the files print.  Each level also prints every
CapacityReport field (by_kind included) as float.hex, and the levels must
agree within a few units in the last place: a kernel moves last bits only.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import d2dsim
from d2dsim.config import SCENARIO_PRESETS

FILES = ("drops.csv", "kinds.csv", "allocations.csv", "summary.txt")

# The largest distance, in units in the last place, between one report
# field's values on two levels.  On an AVX-512 host 20 of the 408 values
# differ between the AVX-512 levels and the two below them, by at most 2 ulps.
MAX_ULP = 4

CAMPAIGNS = """\
import dataclasses, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from d2dsim.config import SCENARIO_PRESETS, ScenarioConfig, apply_scenario
from d2dsim.engine import run_campaign
out, disabled = sys.argv[1], sys.argv[2:]
assert not any(__cpu_features__[t] for t in disabled), disabled
reports = {}
for preset in SCENARIO_PRESETS:
    cfg = dataclasses.replace(apply_scenario(ScenarioConfig(), preset), num_drops=3, seed=3)
    campaign = run_campaign(cfg, out_dir=f"{out}/{preset}", workers=1)
    for scheme, rs in campaign.reports.items():
        for i, r in enumerate(rs):
            for key, value in dataclasses.asdict(r).items():
                fields = value.items() if key == "by_kind" else [("", {key: value})]
                for kind, agg in fields:
                    for name, v in agg.items():
                        reports[f"{preset},{scheme},{i},{kind},{name}"] = float(v).hex()
print(json.dumps(reports))
"""


def run_level(out: Path, disabled: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(d2dsim.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    return subprocess.run([sys.executable, "-c", CAMPAIGNS, str(out), *disabled], env=env,
                          capture_output=True, text=True, timeout=300)


def test_outputs_are_byte_equal_on_every_dispatch_level(tmp_path):
    # __cpu_dispatch__ lists the targets lowest first; level k runs without targets k and up
    on = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    if not on:
        pytest.skip("numpy dispatches no target above its baseline on this CPU")
    levels = [on[k:] for k in range(len(on) + 1)]
    outs = [tmp_path / f"level{k}" for k in range(len(levels))]
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(run_level, outs, levels))
    for disabled, run in zip(levels, runs):
        assert run.returncode == 0, (disabled, run.stderr)
    reports = [json.loads(run.stdout) for run in runs]
    for disabled, got in zip(levels[1:], reports[1:]):
        assert got.keys() == reports[0].keys(), disabled
        top, other = (np.array([float.fromhex(r[k]) for k in reports[0]]) for r in (reports[0], got))
        np.testing.assert_array_max_ulp(other, top, maxulp=MAX_ULP)
    for preset in SCENARIO_PRESETS:
        for name in FILES:
            top = (outs[0] / preset / name).read_bytes()
            for disabled, out in zip(levels[1:], outs[1:]):
                assert (out / preset / name).read_bytes() == top, (preset, name, disabled)
