#!/usr/bin/env python3
"""Parameter sweep harness: grid-search config overrides, print campaign gains.

Each --set takes `dotted.path=v1,v2,...` (JSON values); the script runs every
combination in the cartesian product on the chosen scenario preset and prints
one line per combination with overall/cellular gains (and the per-layer split
when the scenario is hetnet).  Every combination is validated before the first
drop: a bad key, value or option prints one line and exits 2.  Used to pick
the frozen channel/admission defaults; keep sweeps at >= 200 drops before
trusting differences under one point.

Example:
    python3 scripts/calibrate.py --scenario macro-scheme1 --drops 200 \
        --set gamma_cell_db=6,10,14 --set channel.ue_link.intercept_db=38,42
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from d2dsim.config import (SCENARIO_PRESETS, ConfigError, ScenarioConfig,  # noqa: E402
                           apply_scenario, config_from_dict, config_to_dict, load_config)
from d2dsim.engine import SCHEMES, resolve_workers, run_campaign  # noqa: E402


def parse_set(arg: str) -> tuple[str, list]:
    key, _, values = arg.partition("=")
    if not values:
        raise ConfigError(f"--set {arg!r}: expected dotted.path=v1,v2,...")
    try:
        return key.strip(), [json.loads(v) for v in values.split(",")]
    except json.JSONDecodeError:
        raise ConfigError(f"--set {arg!r}: values must be JSON (numbers, true/false, null)") \
            from None


def deep_set(tree: dict, dotted: str, value) -> None:
    node = tree
    *parents, leaf = dotted.split(".")
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key: {dotted!r}")
    node[leaf] = value


def sweep(args) -> list[tuple[str, ScenarioConfig]]:
    """(label, validated config) for every combination of the --set grids."""
    base = load_config(args.config) if args.config else ScenarioConfig()
    grids = [parse_set(s) for s in args.sets]
    runs = []
    for combo in itertools.product(*(vals for _, vals in grids)):
        tree = config_to_dict(base)
        tree["num_drops"] = args.drops
        tree["seed"] = args.seed
        label = []
        for (key, _), value in zip(grids, combo):
            deep_set(tree, key, value)
            label.append(f"{key}={value}")
        cfg = apply_scenario(config_from_dict(tree), args.scenario)
        runs.append((" ".join(label) or "defaults", cfg))
    return runs


def pct(x: float | None) -> str:
    return "n/a" if x is None else f"{100.0 * x:+7.2f}%"


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="base JSON config (defaults otherwise)")
    ap.add_argument("--scenario", default="macro-scheme1", choices=SCENARIO_PRESETS)
    ap.add_argument("--drops", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--schemes", default="proposed,random")
    ap.add_argument("--set", dest="sets", action="append", default=[],
                    metavar="KEY=V1,V2,...", help="value grid for one config key")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())

    try:
        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown:
            raise ConfigError(f"unknown scheme {unknown[0]!r}; choose from {SCHEMES}")
        runs = sweep(args)
        workers = resolve_workers(args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for label, cfg in runs:
        t0 = time.time()
        res = run_campaign(cfg, schemes, workers=workers)
        parts = [f"[{label}]"]
        for s in schemes:
            parts.append(f"{s}: ov {pct(res.overall_gain(s))} cell {pct(res.cellular_gain(s))}")
            if args.scenario == "hetnet":
                parts.append(f"macro {pct(res.kind_overall_gain(s, 'macro'))}"
                             f" micro {pct(res.kind_overall_gain(s, 'micro'))}")
        parts.append(f"({time.time() - t0:.0f}s)")
        print("  ".join(parts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
