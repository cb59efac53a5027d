"""Cross-commit bit gate: a campaign's reports and grants keep every bit.

The output files print 11 significant digits, so tests/test_golden_outputs.py
cannot see a last-bit change.  This digest covers the same 3-drop seed-3
campaigns of the three presets (all schemes) one level earlier: float.hex of
every CapacityReport field, by_kind included, and the dtype, shape and bytes
of every grant array.  A change that moves a bit is a physics change; the
digest is never edited to admit one without saying why.
"""

import dataclasses
import hashlib

from d2dsim.config import SCENARIO_PRESETS, ScenarioConfig, apply_scenario
from d2dsim.engine import run_campaign
from d2dsim.metrics import CapacityReport

PINNED = "320a6e99e09ee1649a3be05c03ca81930f299ee37d01568c725af847781770c5"


def campaign_digest() -> str:
    h = hashlib.sha256()
    for preset in SCENARIO_PRESETS:
        cfg = dataclasses.replace(apply_scenario(ScenarioConfig(), preset), num_drops=3, seed=3)
        campaign = run_campaign(cfg)
        h.update(preset.encode())
        for scheme in campaign.schemes:
            for r in campaign.reports[scheme]:
                for f in dataclasses.fields(CapacityReport):
                    value = getattr(r, f.name)
                    if f.name == "by_kind":
                        value = [(kind, key, float.hex(v)) for kind, agg in sorted(value.items())
                                 for key, v in sorted(agg.items())]
                    else:
                        value = float.hex(float(value))
                    h.update(f"{scheme},{f.name},{value};".encode())
        for grants in campaign.grants:
            for scheme, rows in grants.items():
                h.update(f"{scheme},{rows.dtype.str},{rows.shape};".encode())
                h.update(rows.tobytes())
    return h.hexdigest()


def test_campaign_reports_and_grants_match_pinned_digest():
    assert campaign_digest() == PINNED
