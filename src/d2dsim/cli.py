"""Command-line front end: run campaigns, validate configs, dump traces, oracles."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import engine, rrm, signaling
from .config import (SCENARIO_PRESETS, ConfigError, ScenarioConfig, _merge,
                     apply_scenario, load_config, validate_config)
from .feasibility import FeasibilityMatrix
from .scenario import associate_users, exhaustive_association

# Seed-0 drops per preset that the association oracle checks, the random
# instances of the matching and assignment oracles, and their seed.
_ASSOCIATION_DROPS = 2
_MATCHING_INSTANCES = 300
_ASSIGNMENT_INSTANCES = 200
_ORACLE_SEED = 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dsim",
        description="System-level simulator for D2D reuse of cellular uplink resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte-Carlo campaign")
    run_p.add_argument("--config", help="JSON config file (defaults apply otherwise)")
    run_p.add_argument("--scenario", choices=SCENARIO_PRESETS,
                       help="named preset, applied after --config and before --set")
    run_p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=JSON",
                       help="override one dotted config key with a JSON value, "
                            "e.g. 'd2d_snr_target_db=[7,12]' (repeatable, "
                            "applied in order)")
    run_p.add_argument("--drops", type=int, help="override the number of drops")
    run_p.add_argument("--seed", type=int, help="override the campaign seed")
    run_p.add_argument("--scheme", dest="schemes",
                       default=",".join(engine.SCHEMES),
                       help="comma-separated scheme list (default: all)")
    run_p.add_argument("--out", default="out", help="output directory (CSV + summary)")
    run_p.add_argument("--workers", type=int, default=None,
                       help=f"parallel drop workers, capped at the CPU count "
                            f"(default ${engine.WORKERS_ENV} or 1)")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    val_p = sub.add_parser("validate-config", help="check a config file and exit")
    val_p.add_argument("--config", required=True)

    tr_p = sub.add_parser("trace-protocol", help="print a connection-setup trace")
    tr_p.add_argument("--topology", choices=("single-cell", "multi-cell"),
                      default="single-cell")
    tr_p.add_argument("--outcome", choices=("accepted", "rejected", "timeout"),
                      default="accepted")
    tr_p.add_argument("--model", choices=("A", "B"), default="A",
                      help="discovery model (announce vs solicit)")
    tr_p.add_argument("--retries", type=int, default=3, help="discovery retries")
    tr_p.add_argument("--out-of-coverage", action="store_true",
                      help="single-cell only: the non-requesting end lacks coverage")
    tr_p.add_argument("--out", default="-", help="output file, '-' for stdout")

    sub.add_parser("oracle", help="run the built-in solver and association cross-checks")
    return parser


def _override(arg: str) -> dict:
    """`--set a.b=<JSON>` as the one-leaf tree {"a": {"b": value}}."""
    key, sep, text = arg.partition("=")
    if not sep:
        raise ConfigError(f"--set {arg!r}: expected dotted.key=<JSON value>")
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--set {arg!r}: value must be JSON ({exc.msg})") from None
    except (RecursionError, ValueError) as exc:  # too deep, or an integer too long
        raise ConfigError(f"--set {key}: JSON value beyond parser limits: {exc}") from None
    for part in reversed(key.strip().split(".")):
        tree = {part: tree}
    return tree


def _load(args) -> ScenarioConfig:
    """Config file (or defaults), preset, each --set, --drops/--seed; validated."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.scenario:
        cfg = apply_scenario(cfg, args.scenario)
    for arg in args.sets:
        cfg = _merge(cfg, _override(arg), "")
    overrides = {"num_drops": args.drops, "seed": args.seed}
    cfg = _merge(cfg, {k: v for k, v in overrides.items() if v is not None}, "")
    validate_config(cfg)
    return cfg


def _refuse(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    try:
        cfg = _load(args)
        schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        engine.check_schemes(schemes)
        workers = engine.resolve_workers(args.workers)
    except ConfigError as exc:
        return _refuse(f"config error: {exc}")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _refuse(f"{args.out}: cannot create output directory: {exc.strerror or exc}")
    progress = None if args.quiet else (lambda msg: print(msg, flush=True))
    campaign = engine.run_campaign(cfg, schemes, out_dir=args.out,
                                   progress=progress, workers=workers)
    sys.stdout.writelines(engine.summary_lines(campaign))
    print(f"outputs written to {args.out}/")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _refuse(f"config error: {exc}")
    print(f"OK: {args.config} (seed={cfg.seed}, drops={cfg.num_drops}, "
          f"micro={'on' if cfg.micro_enabled else 'off'})")
    return 0


def _cmd_trace(args) -> int:
    if args.out_of_coverage and args.topology != "single-cell":
        return _refuse("--out-of-coverage applies to the single-cell topology only")
    if not 0 <= args.retries <= signaling.MAX_RETRIES:
        return _refuse(f"--retries must be >= 0 and <= {signaling.MAX_RETRIES}")
    response_at = args.retries + 2 if args.outcome == "timeout" else 1
    accepted = args.outcome == "accepted"
    if args.topology == "single-cell":
        flow, verdicts = signaling.run_single_cell, (accepted,)
    else:
        flow, verdicts = signaling.run_multi_cell, (accepted, True)
    coverage = {"discoveree_covered": False} if args.out_of_coverage else {}
    trace = flow(*verdicts, discovery_model=args.model, response_on_attempt=response_at,
                 max_retries=args.retries, **coverage)
    text = trace.to_text()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            return _refuse(f"{args.out}: cannot write: {exc.strerror or exc}")
        print(f"trace written to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    rng = np.random.default_rng(_ORACLE_SEED)
    ok = True

    size_bad = lex_bad = 0
    for _ in range(_MATCHING_INSTANCES):
        n = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7))
        adj = rng.random((n, m)) < rng.uniform(0.1, 0.9)
        size_bad += rrm.max_matching_size(adj) != rrm.brute_force_max_matching(adj)
        chosen = rrm.allocate_proposed(FeasibilityMatrix(adj))
        lex_bad += tuple(chosen.resource_of_pair.tolist()) != rrm.brute_force_lex_matching(adj)
    for name, bad in (("matching", size_bad), ("lexicographic", lex_bad)):
        line = "PASS" if bad == 0 else f"FAIL ({bad} mismatches)"
        print(f"{name} oracle [{_MATCHING_INSTANCES} instances]: {line}")
        ok &= bad == 0

    mismatches = 0
    for _ in range(_ASSIGNMENT_INSTANCES):
        score = rng.uniform(0.0, 8.0, size=(5, 5))
        picked = rrm.allocate_capacity_max(score, np.zeros(5)).pairs()
        total = sum(score[m, n] for m, n in picked)
        best = max(sum(score[i, p[i]] for i in range(5))
                   for p in itertools.permutations(range(5)))
        if abs(total - best) > 1e-9:
            mismatches += 1
    line = "PASS" if mismatches == 0 else f"FAIL ({mismatches} mismatches)"
    print(f"assignment oracle [{_ASSIGNMENT_INSTANCES} instances]: {line}")
    ok &= mismatches == 0

    # bit-level: element-wise gains must not depend on the links around them.
    # A user fails when associate_users over every user, or build_drop at a
    # user it associates, differs from the exhaustive search.
    mismatches = 0
    for preset in SCENARIO_PRESETS:
        cfg = apply_scenario(ScenarioConfig(), preset)
        for d in range(_ASSOCIATION_DROPS):
            drop = engine.build_drop(cfg, engine.drop_seed(0, d))
            ch = drop.channel
            serving, gain = exhaustive_association(ch)
            full, full_gain = associate_users(ch.users_xy, ch.env, ch)
            mismatches += np.count_nonzero(
                (full != serving) | (full_gain.view(np.int64) != gain.view(np.int64))
                | ((drop.serving >= 0)
                   & ((drop.serving != serving)
                      | (drop.serving_gain.view(np.int64) != gain.view(np.int64)))))
    line = "PASS" if mismatches == 0 else f"FAIL ({mismatches} users)"
    print(f"association oracle [{_ASSOCIATION_DROPS} seed-0 drops per preset]: {line}")
    ok &= mismatches == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate-config": _cmd_validate,
        "trace-protocol": _cmd_trace,
        "oracle": _cmd_oracle,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
