"""Campaign benchmark for d2dsim: one workload, inputs from one seed, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload macro-s1 --seed 0 --seconds 50 --trace 0

Each campaign runs ``d2dsim run ... --workers 1`` through ``d2dsim.cli.main``
in a fresh interpreter (perfbench/child.py), one after the other, until
``--seconds`` of campaign time have passed.  With ``--trace 0`` the last line
of output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of traced campaigns instead.  Every campaign's
output files are checked; see README.md for the checks and the metrics.
Times are scaled to a reference machine speed measured by calibrate.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUTPUT_FILES = ("drops.csv", "kinds.csv", "allocations.csv", "summary.txt")
SCHEMES = ("proposed", "capacity-max", "random", "none")
MIN_CAMPAIGNS = 3  # per untraced run, so that setup_s is a median
BUDGET_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    config: str | None  # relative to this directory; None: the preset alone
    scenario: str
    drops: int  # per campaign; 3-6 s of drops on a 2-vCPU VM


WORKLOADS = {
    "macro-s1": Workload(None, "macro-scheme1", 30),
    "hetnet": Workload(None, "hetnet", 20),
    "hetnet-dense": Workload("workloads/hetnet-dense.json", "hetnet", 3),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# campaigns


def launch(mode: str, wl: Workload, seed: int, work_dir: str, tag: str,
           deadline: float, verify: bool = False) -> dict:
    """Run one child campaign; returns its report plus launch timing."""
    out_dir = os.path.join(work_dir, tag)
    report_path = os.path.join(work_dir, f"{tag}.json")
    config = ["--config", os.path.join(HERE, wl.config)] if wl.config else []
    cmd = [sys.executable, CHILD, mode, report_path, *(["--verify"] if verify else []),
           "--", *config, "--scenario", wl.scenario,
           "--drops", str(wl.drops), "--seed", str(seed), "--workers", "1",
           "--out", out_dir, "--quiet"]
    launched = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
        stderr, returncode = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        stderr, returncode = "campaign timed out", None
    report = {"errors": []}
    if returncode == 0 and os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    else:
        report["errors"].append(f"child exited {returncode}: {stderr.strip()[-400:]}")
    report.update(seed=seed, launched_at=launched, exited_at=monotonic(), out_dir=out_dir)
    report["ok"] = (not report["errors"] and report.get("exit_code") == 0
                    and len(report.get("drop_s", ())) == wl.drops
                    and len(report.get("cal_s", ())) == wl.drops + 1)
    if report.get("exit_code") not in (0, None):
        report["errors"].append(f"d2dsim run exited {report['exit_code']}")
    if report.get("first_drop_at") is not None:
        report["setup_s"] = report["first_drop_at"] - launched
    if report["ok"]:
        try:
            report["digest"] = digest(out_dir)
            report["errors"] += check_outputs(out_dir, wl.drops, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            report["errors"].append(f"unreadable output files: {exc!r}")
        report["ok"] = not report["errors"]
    return report


def digest(out_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_outputs(out_dir: str, drops: int, seed: int) -> list[str]:
    """Structure and internal consistency of one campaign's output files."""
    errors = []

    def rows(name):
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def finite(row, keys):
        return all(math.isfinite(float(row[k])) for k in keys)

    drop_rows = rows("drops.csv")
    per_scheme = {s: sorted(int(r["drop"]) for r in drop_rows if r["scheme"] == s)
                  for s in SCHEMES}
    if any(v != list(range(drops)) for v in per_scheme.values()) \
            or len(drop_rows) != drops * len(SCHEMES):
        errors.append("drops.csv: not one row per drop and scheme")
    if not all(finite(r, ("cell_bps", "d2d_bps", "overall_bps", "clip_rate"))
               for r in drop_rows):
        errors.append("drops.csv: non-finite value")

    kind_rows = rows("kinds.csv")
    overall: dict[tuple, float] = {}
    totals: dict[str, list[float]] = {}
    for r in kind_rows:
        if not finite(r, ("cell_bps", "d2d_bps", "overall_bps", "baseline_cell_bps")):
            errors.append("kinds.csv: non-finite value")
            break
        key = (r["drop"], r["scheme"])
        overall[key] = overall.get(key, 0.0) + float(r["overall_bps"])
        t = totals.setdefault(r["scheme"], [0.0, 0.0])
        t[0] += float(r["overall_bps"])
        t[1] += float(r["baseline_cell_bps"])
    for r in drop_rows:
        want = overall.get((r["drop"], r["scheme"]), 0.0)
        if abs(float(r["overall_bps"]) - want) > 1e-8 * max(1.0, abs(want)):
            errors.append(f"drops.csv: drop {r['drop']} {r['scheme']} disagrees with kinds.csv")
            break

    granted: dict[tuple, tuple[set, set]] = {}
    for r in rows("allocations.csv"):
        if r["scheme"] not in SCHEMES or r["scheme"] == "none" \
                or not 0 <= int(r["drop"]) < drops:
            errors.append(f"allocations.csv: bad row {r}")
            break
        ms, ns = granted.setdefault((r["drop"], r["sector"], r["scheme"]), (set(), set()))
        if r["m"] in ms or r["n"] in ns:
            errors.append(f"allocations.csv: pair or resource granted twice in {r}")
            break
        ms.add(r["m"])
        ns.add(r["n"])

    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        summary = fh.read().splitlines()
    if summary[:3] != [f"drops: {drops}", f"seed: {seed}", f"schemes: {','.join(SCHEMES)}"]:
        errors.append("summary.txt: wrong header")
    for line in summary[3:]:
        scheme, rest = line[1:].split("] ", 1)
        if rest.startswith("overall-gain: ") and totals.get(scheme, [0, 0])[1] > 0:
            printed = float(rest.split()[1].rstrip("%"))
            total, base = totals[scheme]
            if abs(100.0 * (total - base) / base - printed) > 0.01:
                errors.append(f"summary.txt: {scheme} gain disagrees with kinds.csv")
    return errors


# ---------------------------------------------------------------------------
# metrics


def slowness(c: dict) -> float:
    """The campaign's slowness factor: its median kernel time over the reference."""
    return statistics.median(c["cal_s"]) / REFERENCE_S


def scaled_drops(c: dict) -> list[float]:
    """Each drop's time over the mean of the kernel times just before and after it."""
    cal = c["cal_s"]
    return [d * 2 * REFERENCE_S / (cal[i] + cal[i + 1]) for i, d in enumerate(c["drop_s"])]


def scaled_wall(c: dict) -> float:
    """Time of the whole campaign (all of cli.main) without the kernel runs.

    Its drops are scaled one by one, the rest by the campaign's factor.
    """
    outside = c["main_end"] - c["main_start"] - c["cal_total_s"] - sum(c["drop_s"])
    return sum(scaled_drops(c)) + outside / slowness(c)


def end_to_end(campaigns: list[dict]) -> tuple[dict, dict]:
    ok = [c for c in campaigns if c["ok"]]
    drop_s = [d for c in ok for d in scaled_drops(c)]
    throughput = [len(c["drop_s"]) / scaled_wall(c) for c in ok]
    # not scaled: import time follows the kernel only weakly (README.md)
    setups = [c["setup_s"] for c in ok]
    rss = [c["maxrss_mb"] for c in ok]
    metrics = {
        "drops_per_s": (statistics.median(throughput) if ok else 0.0, "1/s"),
        "drop_ms.p50": (1e3 * statistics.median(drop_s) if ok else 0.0, "ms"),
        "setup_s": (statistics.median(setups) if ok else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss) if ok else 0.0, "MB"),
    }
    samples = {"drop_timings": len(drop_s), "campaigns": len(ok),
               "slowness": [round(slowness(c), 4) for c in ok],
               "raw_drops_per_s": [len(c["drop_s"]) / (c["main_end"] - c["main_start"]
                                                      - c["cal_total_s"]) for c in ok],
               "setup_s": setups}
    if len(drop_s) >= 100:  # so that ten timings lie beyond p90
        samples["drop_ms.p90"] = 1e3 * statistics.quantiles(drop_s, n=10,
                                                            method="inclusive")[8]
    return metrics, samples


def per_layer(traced: list[dict], untraced: dict) -> tuple[dict, float | None]:
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    max_nm = 0
    growth = []  # resident MB gained per drop, from the first drop's end to the last's
    for c in traced:
        for name, s in c["trace"]["spans"].items():
            acc = spans.setdefault(name, {"busy_s": 0.0, "self_s": 0.0})
            acc["busy_s"] += s["busy_s"] / slowness(c)
            acc["self_s"] += s["self_s"] / slowness(c)
        rss = c["rss_mb"]
        if len(rss) > 1 and None not in rss:
            growth.append((rss[-1] - rss[0]) / (len(rss) - 1))
        for name, v in c["trace"]["counts"].items():
            counts[name] = counts.get(name, 0.0) + v
        max_nm = max(max_nm, c["trace"]["maxima"].get("rrm.proposed.max_nm", 0))
    drops = sum(len(c["drop_s"]) for c in traced) or 1

    def ms(name, kind):
        return 1e3 * spans.get(name, {}).get(f"{kind}_s", 0.0) / drops

    def per_drop(name):
        return counts.get(name, 0.0) / drops

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    traced_wall = sum(scaled_wall(c) for c in traced) / drops
    untraced_wall = scaled_wall(untraced) / len(untraced["drop_s"]) if untraced["ok"] else 0.0
    m = {
        "geometry.segments_blocked.busy_ms": (ms("geometry.segments_blocked", "busy"), "ms"),
        "geometry.los_tests.site": (per_drop("geometry.los_tests.site"), "count"),
        "geometry.los_tests.ue": (per_drop("geometry.los_tests.ue"), "count"),
        "geometry.blocked_ratio": (ratio("geometry.blocked", "geometry.segments"), "ratio"),
        "scenario.associate.self_ms": (ms("scenario.associate", "self"), "ms"),
        "scenario.associate.evals": (per_drop("scenario.associate.evals"), "count"),
        "scenario.pair_users.busy_ms": (ms("scenario.pair_users", "busy"), "ms"),
        "scenario.drop_users.busy_ms": (ms("scenario.drop_users", "busy"), "ms"),
        "scenario.environment.busy_ms": (ms("scenario.environment", "busy"), "ms"),
        "scenario.users": (per_drop("scenario.users"), "count"),
        "scenario.pairs": (per_drop("scenario.pairs"), "count"),
        "channel.gain_sets.self_ms": (ms("channel.gain_sets", "self"), "ms"),
        "channel.links": (per_drop("channel.links"), "count"),
        "power.open_loop.busy_ms": (ms("power.open_loop", "busy"), "ms"),
        "power.clip_ratio": (ratio("power.clipped", "power.transmitters"), "ratio"),
        "feasibility.context.busy_ms": (ms("feasibility.context", "busy"), "ms"),
        "feasibility.entries": (per_drop("feasibility.entries"), "count"),
        "feasibility.density": (ratio("feasibility.feasible", "feasibility.entries"), "ratio"),
        "rrm.proposed.busy_ms": (ms("rrm.proposed", "busy"), "ms"),
        "rrm.proposed.max_nm": (float(max_nm), "count"),
        "rrm.proposed.matched_ratio": (ratio("rrm.proposed.matched", "rrm.proposed.rows"),
                                       "ratio"),
        "rrm.capacity_max.busy_ms": (ms("rrm.capacity_max", "busy"), "ms"),
        "rrm.random.busy_ms": (ms("rrm.random", "busy"), "ms"),
        "metrics.evaluate_drop.busy_ms": (ms("metrics.evaluate_drop", "busy"), "ms"),
        "engine.build_drop.self_ms": (ms("engine.build_drop", "self"), "ms"),
        "engine.run_drop.self_ms": (ms("engine.run_drop", "self"), "ms"),
        "engine.run_drop.busy_ms": (ms("engine.run_drop", "busy"), "ms"),
        "engine.write_outputs.busy_ms": (ms("engine.write_outputs", "busy"), "ms"),
        "engine.output_bytes": (per_drop("engine.output_bytes"), "bytes"),
        "engine.rss_growth_kb_per_drop": (
            1024 * statistics.median(growth) if growth else 0.0, "kB"),
        "trace.overhead_ratio": (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio"),
    }
    # self times of every span under engine.run_drop add up to its busy time
    covered = sum(s["self_s"] for n, s in spans.items() if n != "engine.write_outputs")
    root = spans.get("engine.run_drop", {}).get("busy_s")
    return m, covered / root if root else None


# ---------------------------------------------------------------------------
# run metadata


def metadata(wl_name: str, wl: Workload, seed: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "d2dsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": wl_name, "seed": seed, "drops_per_campaign": wl.drops,
            "nproc": os.cpu_count(), "cpu_model": cpu, **versions,
            "git_commit": git_commit(), "src_sha256": src.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git repository (read, not run)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------


def campaign_seed(seed: int, k: int) -> int:
    """Seed of campaign k of an untraced run; campaign 0 keeps --seed.

    Each campaign computes other drops, so that a run's medians rest on many
    drops and not on the few of one seed (a `hetnet-dense` drop's cost varies
    by ~11% from drop to drop).  Distinct for --seed below 10**6.
    """
    return seed if k == 0 else k * 10**6 + seed


def recorded_digest(workload: str, seed: int) -> dict | None:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "d2dsim", "cli.py")):
        print(f"perfbench: no d2dsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        return run(args, wl, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run is using it
            pass


def run(args, wl: Workload, work_dir: str) -> int:
    start = monotonic()
    deadline = start + BUDGET_S
    seq = itertools.count()

    def one(mode, seed, verify=False):
        r = launch(mode, wl, seed, work_dir, f"{mode}{next(seq)}", deadline, verify)
        shutil.rmtree(r["out_dir"], ignore_errors=True)
        return r

    untraced: list[dict] = []
    traced: list[dict] = []
    if args.trace:  # every campaign on --seed, so that all must write the same files
        untraced.append(one("run", args.seed))
        loop, mode = traced, "trace"
    else:
        loop, mode = untraced, "run"
    # further campaigns only while the next one, as long as the last, fits
    measure_start = untraced[0]["launched_at"] if args.trace else monotonic()
    while True:
        seed = args.seed if args.trace else campaign_seed(args.seed, len(loop))
        loop.append(one(mode, seed, verify=not (args.trace or loop)))
        took = loop[-1]["exited_at"] - loop[-1]["launched_at"]
        now = monotonic()
        enough = args.trace or len(loop) >= MIN_CAMPAIGNS
        if (enough and now + took - measure_start > args.seconds) \
                or now + took > deadline or not loop[-1]["ok"]:
            break

    campaigns = untraced + traced
    errors = [e for c in campaigns for e in c["errors"]]
    digests = {json.dumps(c["digest"], sort_keys=True) for c in campaigns
               if c.get("digest") and c["seed"] == args.seed}
    recorded = recorded_digest(args.workload, args.seed)
    digest_errors = []
    if len(digests) > 1:
        digest_errors.append("campaigns of one seed wrote different outputs (traced vs untraced)")
    if recorded is not None and digests and digests != {json.dumps(recorded, sort_keys=True)}:
        digest_errors.append(f"outputs differ from the digest recorded for seed {args.seed}")
    errors += digest_errors
    attempted = wl.drops * len(campaigns)
    failed = wl.drops * sum(1 for c in campaigns if not c["ok"] or digest_errors)

    versions = next((c["versions"] for c in campaigns if "versions" in c), {})
    meta = metadata(args.workload, wl, args.seed, versions)
    meta.update(trace=args.trace, campaigns=len(campaigns),
                campaign_seeds=[c["seed"] for c in campaigns], attempted_drops=attempted,
                failed_drops=failed, digest_recorded=recorded is not None,
                digest=json.loads(next(iter(digests))) if len(digests) == 1 else None,
                elapsed_s=round(monotonic() - start, 3))
    if args.trace:
        metrics, accounted = per_layer([c for c in traced if c["ok"]], untraced[0])
        meta.update(traced_drops=sum(len(c["drop_s"]) for c in traced),
                    self_time_accounted=accounted,
                    proposed_allocations_checked=sum(
                        c["trace"]["proposed_checked"] for c in traced if "trace" in c))
    else:
        metrics, samples = end_to_end(untraced)
        meta["samples"] = samples
        n = samples["drop_timings"]
        p90 = (f"{samples['drop_ms.p90']:.6g} ms" if "drop_ms.p90" in samples
               else f"n/a ({n} timings, needs 100)")
        print(f"{'drop_ms.p90':<36} {p90}  [n={n} timings]")
    print(f"{'drop_fail_ratio':<36} {failed / attempted:.4f}  [{failed}/{attempted} drops]")
    for e in errors[:10]:
        print(f"ERROR {e}")
    if len(errors) > 10:
        print(f"ERROR ... and {len(errors) - 10} more")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
