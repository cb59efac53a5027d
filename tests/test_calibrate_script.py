"""scripts/calibrate.py rejects bad input with one line and exit code 2.

Every case fails while the sweep is being assembled, before the first drop,
so each subprocess returns in about a second.
"""

import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "calibrate.py")


@pytest.mark.parametrize("args, message", [
    (["--set", "foo.bar=1"], "unknown config key: 'foo.bar'"),
    (["--set", "channel.ue_link.sigma_los_db=5,7,9"],
     "unknown config key: 'channel.ue_link.sigma_los_db'"),
    (["--set", "gamma_cell_db=abc"], "values must be JSON"),
    (["--set", "gamma_cell_db=10,-1"], "gamma_cell_db must be >= 0"),
    (["--set", "gamma_cell_db"], "expected dotted.path=v1,v2"),
    (["--set", "macro=1"], "macro: expected an object"),
    (["--drops", "0"], "num_drops must be >= 1"),
    (["--workers", "0"], "worker count must be >= 1"),
    (["--schemes", "proposed,bogus"], "unknown scheme 'bogus'"),
])
def test_bad_input_prints_one_line_and_exits_2(args, message, tmp_path):
    proc = subprocess.run([sys.executable, SCRIPT, "--drops", "1", *args],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert message in lines[0]


def test_bad_scenario_is_refused_by_argparse(tmp_path):
    proc = subprocess.run([sys.executable, SCRIPT, "--scenario", "nonsense"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
