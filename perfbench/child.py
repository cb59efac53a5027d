"""One d2dsim campaign in a fresh interpreter, timed from inside.

Usage, from the checkout root (perfbench/run.py starts it this way):

    python3 perfbench/child.py {run,trace} REPORT.json [--verify] -- RUN_ARGS...

RUN_ARGS are the arguments of ``d2dsim run``; the campaign goes through
``d2dsim.cli.main(["run", *RUN_ARGS])``, the entry point a user calls.

run     times every ``engine.run_drop`` call and the whole ``cli.main`` call,
        runs the calibration kernel (calibrate.py) before every drop and
        after the last one, and records the resident memory after each drop.
trace   also wraps the public functions ``d2dsim.engine`` and
        ``d2dsim.channel`` call into each layer; see ``Tracer``.

``--verify`` checks the ``proposed`` allocations of drop 0 against a fresh
``build_drop`` of the same drop.  The trace mode checks every ``proposed``
allocation of the campaign.  Checks run after ``cli.main`` returns, outside
every timed interval, and after peak memory has been read.

The child prints nothing of its own; REPORT.json carries its results.  Timestamps use
CLOCK_MONOTONIC, which is shared by all processes on the machine, so the
parent can subtract its own launch time from ``first_drop_at``.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and exact work counts around the calls into each layer.

    A span's busy time is its whole duration; its self time excludes the
    spans nested in it, so the self times of all spans under
    ``engine.run_drop`` add up to the drop's wall time.  Counts come from the
    wrapped calls' arguments and return values only.
    """

    def __init__(self):
        self.open: list[float] = []  # time covered by children, per open span
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.link_class = "site"
        self.proposed: list[tuple] = []  # (feasibility entries, assignment)

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.open.append(0.0)
            t = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t
                child = self.open.pop()
                self.busy[name] += d
                self.self_s[name] += d - child
                self.calls[name] += 1
                if self.open:
                    self.open[-1] += d
            if on_result is not None:
                on_result(out, *args, **kwargs)
            return out
        return wrapper

    def marking(self, link_class: str, fn):
        """Tag the LOS tests made inside fn with a link class."""
        def wrapper(*args, **kwargs):
            previous, self.link_class = self.link_class, link_class
            try:
                return fn(*args, **kwargs)
            finally:
                self.link_class = previous
        return wrapper

    def install(self) -> None:
        from d2dsim import channel, engine

        c, m = self.counts, self.maxima

        def los(blocked, p0, p1, rects, *_, **__):
            c[f"geometry.los_tests.{self.link_class}"] += len(blocked) * len(rects)
            c["geometry.segments"] += len(blocked)
            c["geometry.blocked"] += int(blocked.sum())

        def users(out, *_):
            c["scenario.users"] += len(out)

        def pairs(out, *_):
            c["scenario.pairs"] += len(out)

        def associate(out, users_, env, *_):
            c["scenario.associate.evals"] += len(users_) * len(env.sectors)

        def gains(out, *_, **__):
            n, mm = out.shape
            c["channel.links"] += mm + 2 * n + n * mm

        def power(out, *_):
            c["power.clipped"] += int(out[1].sum())
            c["power.transmitters"] += out[1].size

        def feasibility(out, *_):
            c["feasibility.entries"] += out.entries.size
            c["feasibility.feasible"] += int(out.entries.sum())

        def proposed(out, feas):
            n, mm = feas.shape
            m["rrm.proposed.max_nm"] = max(m["rrm.proposed.max_nm"], n * mm)
            c["rrm.proposed.rows"] += n
            c["rrm.proposed.matched"] += out.enabled_pairs
            self.proposed.append((feas.entries, out.resource_of_pair))

        def written(paths, *_):
            c["engine.output_bytes"] += sum(os.path.getsize(p) for p in paths.values())

        channel.segments_blocked = self.span(
            "geometry.segments_blocked", channel.segments_blocked, los)
        channel.DropChannel.user_sector_gain_db = self.marking(
            "site", channel.DropChannel.user_sector_gain_db)
        channel.DropChannel.user_user_gain_db = self.marking(
            "ue", channel.DropChannel.user_user_gain_db)
        wraps = {
            "run_drop": ("engine.run_drop", None),
            "build_drop": ("engine.build_drop", None),
            "generate_environment": ("scenario.environment", None),
            "drop_users": ("scenario.drop_users", users),
            "pair_users": ("scenario.pair_users", pairs),
            "associate_users": ("scenario.associate", associate),
            "build_gain_set": ("channel.gain_sets", gains),
            "open_loop_power_w": ("power.open_loop", power),
            "feasibility_context": ("feasibility.context", feasibility),
            "allocate_proposed": ("rrm.proposed", proposed),
            "allocate_capacity_max": ("rrm.capacity_max", None),
            "allocate_random": ("rrm.random", None),
            "evaluate_drop": ("metrics.evaluate_drop", None),
            "write_outputs": ("engine.write_outputs", written),
        }
        for attr, (name, on_result) in wraps.items():
            setattr(engine, attr, self.span(name, getattr(engine, attr), on_result))

    def check_proposed(self) -> list[str]:
        """Every proposed allocation: injective, feasible and maximum."""
        return [e for k, (entries, assignment) in enumerate(self.proposed)
                for e in matching_errors(f"proposed call {k}", entries, assignment)]

    def report(self) -> dict:
        return {
            "spans": {name: {"busy_s": self.busy[name], "self_s": self.self_s[name],
                             "calls": self.calls[name]} for name in self.busy},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "proposed_checked": len(self.proposed),
        }


def resident_mb() -> float | None:
    """Resident set size now, not the high-water mark ru_maxrss gives."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return None


def matching_errors(where: str, entries, assignment) -> list[str]:
    """A proposed allocation must be a maximum matching of its feasibility matrix."""
    import numpy as np
    from d2dsim.rrm import max_matching_size

    cols = [c for c in assignment if c >= 0]
    errors = []
    if len(set(cols)) != len(cols):
        errors.append(f"{where}: a resource is granted twice")
    if any(not entries[m, c] for m, c in enumerate(assignment) if c >= 0):
        errors.append(f"{where}: a grant uses an infeasible entry")
    best = max_matching_size(np.asarray(entries, dtype=bool))
    if len(cols) != best:
        errors.append(f"{where}: {len(cols)} grants, maximum matching has {best}")
    return errors


def verify_first_drop(cfg, seed, out_dir) -> list[str]:
    """Check drop 0's proposed rows of allocations.csv against build_drop."""
    from d2dsim.engine import build_drop

    granted: dict[int, dict[int, int]] = defaultdict(dict)
    with open(os.path.join(out_dir, "allocations.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["drop"] == "0" and row["scheme"] == "proposed":
                granted[int(row["sector"])][int(row["m"])] = int(row["n"])
    errors = []
    states = build_drop(cfg, seed).states
    known = {st.sector_id for st in states}
    if set(granted) - known:
        errors.append(f"drop 0: grants in unscheduled sectors {sorted(set(granted) - known)}")
    for st in states:
        n = st.shape[0]
        rows = granted.get(st.sector_id, {})
        assignment = [rows.get(m, -1) for m in range(n)]
        if any(m >= n for m in rows):
            errors.append(f"drop 0 sector {st.sector_id}: pair row out of range")
            continue
        errors += matching_errors(f"drop 0 sector {st.sector_id}", st.feas_context.entries,
                                  assignment)
    return errors


def main(argv: list[str]) -> int:
    mode, report_path = argv[0], argv[1]
    split = argv.index("--")
    verify = "--verify" in argv[2:split]
    run_args = ["run", *argv[split + 1:]]
    out_dir = run_args[run_args.index("--out") + 1]

    sys.path.insert(0, SRC)
    from d2dsim import cli, engine

    from calibrate import calibrate  # its numpy import is d2dsim's anyway

    report: dict = {"first_drop_at": None, "drop_s": [], "cal_s": [], "cal_total_s": 0.0,
                    "rss_mb": [], "errors": []}
    if not os.path.abspath(engine.__file__).startswith(SRC + os.sep):
        report["errors"].append(f"d2dsim imported from {engine.__file__}, not {SRC}")
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    inner = engine.run_drop
    first_drop: list = []

    def calibrated():
        t = monotonic()
        report["cal_s"].append(calibrate())
        report["cal_total_s"] += monotonic() - t

    def timed_run_drop(*args, **kwargs):
        if report["first_drop_at"] is None:
            report["first_drop_at"] = monotonic()
            first_drop.extend(args[:2])  # (cfg, seed) of drop 0
        calibrated()
        t = monotonic()
        out = inner(*args, **kwargs)
        report["drop_s"].append(monotonic() - t)
        report["rss_mb"].append(resident_mb())
        return out

    engine.run_drop = timed_run_drop
    report["main_start"] = monotonic()
    try:
        report["exit_code"] = cli.main(run_args)
    except SystemExit as exc:
        report["exit_code"] = exc.code
    except Exception:  # the campaign raised: record it, the parent fails its drops
        report["exit_code"] = None
        report["errors"].append(traceback.format_exc(limit=-3))
    report["main_end"] = monotonic()
    calibrated()  # the machine's speed after the last drop
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if tracer is not None:
        report["trace"] = tracer.report()  # before the checks call into d2dsim
    if report["exit_code"] == 0:
        if verify and first_drop:
            report["errors"] += verify_first_drop(*first_drop, out_dir)
        if tracer is not None:
            report["errors"] += tracer.check_proposed()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
