"""Smoke test of the benchmark harness on a tiny deployment.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

The tiny config matches tests/conftest.py::tiny_config (one grid, 40 users),
so each campaign takes about a second.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY = {"replica_rings": 0, "fixed_user_count": 40, "micro_enabled": False}


def _run(tmp_path, monkeypatch, capsys, trace, **config):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**TINY, **config}))
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(str(path), "macro-scheme1", 3))
    assert run.main(["--workload", "tiny", "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
    return json.loads(lines[-1]), meta


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, monkeypatch, capsys, trace, key):
    result, meta = _run(tmp_path, monkeypatch, capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert meta["digest"] is not None and meta["nproc"] >= 1


def test_traced_and_untraced_outputs_match(tmp_path, monkeypatch, capsys):
    untraced, meta0 = _run(tmp_path, monkeypatch, capsys, 0)
    traced, meta1 = _run(tmp_path, monkeypatch, capsys, 1)
    assert untraced["correct"] and traced["correct"]
    assert meta1["digest"] == meta0["digest"]
    assert meta1["proposed_allocations_checked"] > 0
    assert meta1["self_time_accounted"] == pytest.approx(1.0)


def test_a_drop_that_raises_fails_the_campaign(tmp_path, monkeypatch, capsys):
    # shadowing this wide drives some link gains to exactly 0, and open-loop
    # power control raises on a zero gain in the first drop
    result, meta = _run(tmp_path, monkeypatch, capsys, 0,
                        channel={"macro_link": {"shadow_sigma_db": 1e4}})
    assert not result["correct"]
    assert result["attempted"] >= 3 and result["failed"] == result["attempted"]


def test_timings_are_scaled_by_the_kernel_around_them():
    ref = run.REFERENCE_S
    campaign = {"drop_s": [0.2, 0.2, 0.2], "cal_s": [ref, ref, 2 * ref, 2 * ref],
                "main_start": 0.0, "main_end": 0.75, "cal_total_s": 0.05}
    assert run.scaled_drops(campaign) == pytest.approx([0.2, 0.2 / 1.5, 0.1])
    # 0.1 s outside the drops, at the campaign's median kernel time of 1.5 ref
    assert run.scaled_wall(campaign) == pytest.approx(0.2 + 0.2 / 1.5 + 0.1 + 0.1 / 1.5)
    metrics, _ = run.end_to_end([{**campaign, "ok": True, "setup_s": 0.9, "maxrss_mb": 90.0}])
    assert metrics["drop_ms.p50"][0] == pytest.approx(200 / 1.5)
    assert metrics["drops_per_s"][0] == pytest.approx(3 / run.scaled_wall(campaign))
    assert metrics["setup_s"][0] == 0.9  # not scaled
