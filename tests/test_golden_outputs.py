"""Cross-commit byte gate: campaign output files must keep their exact bytes.

The digests were recorded from `d2dsim run --scenario X --drops 3 --seed 3`
(all schemes).  A change that is meant to leave every output alone must keep
them; a change that moves a number on purpose updates them and says why.
The rerun determinism gate only compares two runs of the same code.
"""

import hashlib

import pytest

from d2dsim import cli

GOLDEN = {
    "macro-scheme1": {
        "drops.csv": "cda9887c6b6cd8f0980328b5234790d1aaf7f96010bde86191e00549d120642b",
        "kinds.csv": "b9ba97e05566b35f25188fc8b43884162d92064a14d1e7fb61bd8961296afb5c",
        "allocations.csv": "6169d6d70dceceaff45e8e280dc86aac5f130166cb2879c57ae167ccc94b75f0",
        "summary.txt": "f3ccf5d77ed3b38ab5f247e32ab529a731019dcb5212845e66d19fc70f728b6d",
    },
    "macro-scheme2": {
        "drops.csv": "a9a23f757afdb12e994c9cab0666348e9447eb8ea257cd4fa3a30778db60d5bf",
        "kinds.csv": "2b2bbf62554bd50666210d3fe7e56f1b75bf1c232d41ff92f5cc8d51be1556ac",
        "allocations.csv": "02610b3b612661d1d5c520703e5e6d34ca48b84148a09effd87362287f20c860",
        "summary.txt": "ff28b1ee68c2778a15bbbdadf6d660676b92eef22d8a81920592235f83b4ed4b",
    },
    "hetnet": {
        "drops.csv": "48d2584e6f8e78492231d8769fdfd767ec563fc5a1038c3a6f64595f153d1d6d",
        "kinds.csv": "79ce488d08c8a373af4d46f1bfcbbab155b8525468f082dd54094582e4db5931",
        "allocations.csv": "83743b6010b81bcbd6959ffd4297857c43f0a4d9344537d25616e477e6156d9d",
        "summary.txt": "11e1aef74c7556074901d8b3bae0ffc689f7908eaad4b925aae39a9dc5fc49a0",
    },
}


def run_digests(args, out):
    assert cli.main(["run", *args, "--drops", "3", "--seed", "3",
                     "--out", str(out), "--quiet"]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN["hetnet"]}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_campaign_outputs_match_pinned_digests(scenario, tmp_path):
    assert run_digests(["--scenario", scenario], tmp_path / scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario, override, same_as", [
    ("macro-scheme1", "d2d_snr_target_db=[7,12]", "macro-scheme2"),
    ("macro-scheme1", "micro_enabled=true", "hetnet"),
    ("hetnet", "micro_enabled=false", "macro-scheme1"),
])
def test_set_overrides_the_preset(scenario, override, same_as, tmp_path):
    """`--set` lands after `--scenario`, so it turns one preset into another."""
    got = run_digests(["--scenario", scenario, "--set", override], tmp_path / "out")
    assert got == GOLDEN[same_as]
