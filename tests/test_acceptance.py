"""End-to-end acceptance gates.

Each test prints one ``[tag] PASS/FAIL`` line with its measured values (run
``pytest -s tests/test_acceptance.py`` to see them live) and then asserts.
Campaign-level gates share three session-scoped 200-drop campaigns run at the
shipped defaults; nothing here tunes or reseeds to pass.
"""

import itertools
import os
import time

import numpy as np
import pytest

from d2dsim.config import ScenarioConfig, apply_scenario
from d2dsim.engine import SCHEMES, run_campaign
from d2dsim.feasibility import feasibility_context, sinr_cell_matrix
from d2dsim.rrm import (allocate_capacity_max, allocate_proposed,
                        brute_force_max_matching)
from d2dsim.feasibility import FeasibilityMatrix
from d2dsim.signaling import (MessageKind, context_gain_reports,
                              full_csi_report_count, run_multi_cell,
                              run_single_cell)
from reference import ExactTargets as SinrTargets, FullGainSet as GainSet
from reference import feasibility_exact, sinr_cell, sinr_d2d, sinr_d2d_matrix

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="session")
def s1_campaign():
    cfg = apply_scenario(ScenarioConfig(), "macro-scheme1")
    return run_campaign(cfg, ("proposed", "random"))


@pytest.fixture(scope="session")
def s2_campaign():
    cfg = apply_scenario(ScenarioConfig(), "macro-scheme2")
    return run_campaign(cfg, ("proposed",))


@pytest.fixture(scope="session")
def hetnet_campaign():
    cfg = apply_scenario(ScenarioConfig(), "hetnet")
    return run_campaign(cfg, ("proposed", "capacity-max", "random"))


# -- solver oracles ---------------------------------------------------------


def test_matching_allocator_equals_brute_force():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        adj = rng.random((n, m)) < rng.uniform(0.05, 0.95)
        feas = FeasibilityMatrix(entries=adj.astype(np.uint8))
        if allocate_proposed(feas).enabled_pairs != brute_force_max_matching(adj):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    line = verdict("matching-oracle", ok,
                   f"{mismatches} mismatches in 1000 instances ({elapsed:.2f} s)")
    assert ok, line


def test_capacity_allocator_equals_permutation_max():
    rng = np.random.default_rng(2025)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(500):
        cap = rng.uniform(0.0, 10.0, (5, 5))
        base = rng.uniform(0.0, 10.0, 5)
        alloc = allocate_capacity_max(cap, base)
        got = sum(cap[r, c] for r, c in alloc.pairs())
        best = max(sum(cap[i, p[i]] for i in range(5))
                   for p in itertools.permutations(range(5)))
        worst = max(worst, abs(got - best) / abs(best))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    line = verdict("assignment-oracle", ok,
                   f"max relative error {worst:.3e} over 500 5x5 instances "
                   f"({elapsed:.2f} s)")
    assert ok, line


# -- reuse SINR and admission fidelity ---------------------------------------


def random_reuse_instance(rng, n, m):
    gains = GainSet(
        h_cell=10.0 ** rng.uniform(-12, -4, m),
        h_d2d=10.0 ** rng.uniform(-12, -4, n),
        h_d2d_bs=10.0 ** rng.uniform(-14, -6, n),
        h_cross=10.0 ** rng.uniform(-14, -5, (n, m)),
    )
    p_cell = rng.uniform(1e-3, 0.2, m)
    p_d2d = rng.uniform(1e-3, 0.2, n)
    s2_cell = 10.0 ** rng.uniform(-15, -11)
    s2_d2d = 10.0 ** rng.uniform(-15, -11)
    return gains, p_cell, p_d2d, s2_cell, s2_d2d


def test_reuse_sinr_matches_scalar_evaluation():
    rng = np.random.default_rng(99)
    checked, worst = 0, 0.0
    for _ in range(200):
        gains, p_cell, p_d2d, s2c, s2d = random_reuse_instance(rng, 5, 10)
        sd_mat = sinr_d2d_matrix(gains, p_cell, p_d2d, s2d)
        sc_mat = sinr_cell_matrix(gains, p_cell, p_d2d, s2c)
        for i in range(5):
            for j in range(10):
                want_d = (gains.h_d2d[i] * p_d2d[i]
                          / (gains.h_cross[i, j] * p_cell[j] + s2d))
                want_c = (gains.h_cell[j] * p_cell[j]
                          / (gains.h_d2d_bs[i] * p_d2d[i] + s2c))
                for got, want in ((sd_mat[i, j], want_d),
                                  (sinr_d2d(gains, p_cell, p_d2d, s2d, i, j), want_d),
                                  (sc_mat[i, j], want_c),
                                  (sinr_cell(gains, p_cell, p_d2d, s2c, i, j), want_c)):
                    worst = max(worst, abs(got - want) / abs(want))
                checked += 1
    ok = checked == 10000 and worst <= 1e-12
    line = verdict("sinr-fidelity", ok,
                   f"max relative error {worst:.3e} over {checked} tuples")
    assert ok, line


def test_admission_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for k in range(1000):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        gains, p_cell, p_d2d, s2c, s2d = random_reuse_instance(rng, n, m)
        t_d2d = rng.uniform(-5.0, 15.0, n)
        base = gains.h_cell * p_cell / s2c
        if k % 2:
            gamma = rng.uniform(3.0, 20.0)
            targets = SinrTargets(d2d_target_db=t_d2d, gamma_cell_db=gamma,
                                  baseline_cell_sinr=base,
                                  ratio_threshold=rng.uniform(0.8, 2.0))
            thr_cell = base * 10.0 ** (-gamma / 10.0)
        else:
            # a fixed target: gamma 0 dB below a baseline of the target itself
            fixed = rng.uniform(0.0, 12.0)
            thr_cell = np.full(m, 10.0 ** (fixed / 10.0))
            targets = SinrTargets(d2d_target_db=t_d2d, gamma_cell_db=0.0,
                                  baseline_cell_sinr=thr_cell,
                                  ratio_threshold=rng.uniform(0.8, 2.0))
        link = rng.uniform(5.0, 60.0, n)
        cross = rng.uniform(5.0, 300.0, (n, m))

        exact = feasibility_exact(gains, p_cell, p_d2d, s2c, s2d, targets)
        ctx = feasibility_context(gains, p_cell, p_d2d, s2c, link, cross, targets)
        floor = targets.ratio_threshold * link
        for i in range(n):
            for j in range(m):
                sd = gains.h_d2d[i] * p_d2d[i] / (gains.h_cross[i, j] * p_cell[j] + s2d)
                sc = gains.h_cell[j] * p_cell[j] / (gains.h_d2d_bs[i] * p_d2d[i] + s2c)
                want_exact = (sd >= 10.0 ** (t_d2d[i] / 10.0)) and (sc >= thr_cell[j])
                want_ctx = (cross[i, j] >= floor[i]) and (sc >= thr_cell[j])
                mismatches += int(bool(exact.entries[i, j]) != want_exact)
                mismatches += int(bool(ctx.entries[i, j]) != want_ctx)
    ok = mismatches == 0
    line = verdict("feasibility-fidelity", ok,
                   f"{mismatches} element mismatches over 1000 instances")
    assert ok, line


# -- campaign-level capacity gates -------------------------------------------


def test_uniform_macro_gains(s1_campaign):
    g = s1_campaign.overall_gain("proposed")
    c = s1_campaign.cellular_gain("proposed")
    g_rnd = s1_campaign.overall_gain("random")
    ok = (0.10 <= g <= 0.70) and (-0.30 <= c <= -0.05) and (g > g_rnd)
    line = verdict("macro-street-gains", ok,
                   f"overall {g:+.2%} (band +10%..+70%), cellular {c:+.2%} "
                   f"(band -30%..-5%), random overall {g_rnd:+.2%}")
    assert ok, line


def test_clustered_pairs_raise_gain(s1_campaign, s2_campaign):
    g1 = s1_campaign.overall_gain("proposed")
    g2 = s2_campaign.overall_gain("proposed")
    c2 = s2_campaign.cellular_gain("proposed")
    ok = (g2 > g1) and (-0.30 <= c2 <= -0.05)
    line = verdict("clustered-gains", ok,
                   f"clustered overall {g2:+.2%} vs uniform {g1:+.2%}, "
                   f"cellular {c2:+.2%} (band -30%..-5%)")
    assert ok, line


def test_hetnet_gain_structure(s1_campaign, hetnet_campaign):
    g1 = s1_campaign.overall_gain("proposed")
    macro = hetnet_campaign.kind_overall_gain("proposed", "macro")
    micro = hetnet_campaign.kind_overall_gain("proposed", "micro")
    comparators = {s: hetnet_campaign.overall_gain(s)
                   for s in ("capacity-max", "random")}
    ok_macro = 0.0 < macro < g1
    ok_micro = 0.0 < micro < macro
    ok_comp = any(v < 0.0 for v in comparators.values())
    ok = ok_macro and ok_micro and ok_comp
    line = verdict(
        "hetnet-gains", ok,
        f"macro {macro:+.2%} vs macro-only {g1:+.2%} "
        f"({'<' if ok_macro else 'NOT <'}), micro {micro:+.2%} "
        f"({'ok' if ok_micro else 'bad'}), comparators "
        + ", ".join(f"{s} {v:+.2%}" for s, v in comparators.items()))
    assert ok, line


# -- signaling gates ----------------------------------------------------------


GOLDEN_TRACES = (
    ("single-cell-accept.txt", lambda: run_single_cell(True)),
    ("single-cell-rejected.txt", lambda: run_single_cell(False)),
    ("single-cell-timeout.txt",
     lambda: run_single_cell(True, response_on_attempt=5, max_retries=3)),
    ("multi-cell-accept.txt", lambda: run_multi_cell(True, True)),
)


def ordered_ok(trace, want_outcome) -> bool:
    steps = trace.steps
    if [s.index for s in steps] != list(range(1, len(steps) + 1)):
        return False
    where = {}
    for s in steps:
        for msg in s.messages:
            where.setdefault(msg.kind, []).append(s.index)
    announce = where.get(MessageKind.DISCOVERY_ANNOUNCE, [])
    response = where.get(MessageKind.DISCOVERY_RESPONSE, [])
    request = where.get(MessageKind.SERVICE_REQUEST, [])
    grants = where.get(MessageKind.RESOURCE_GRANT, [])
    starts = where.get(MessageKind.DATA_START, [])
    decision = [s.index for s in steps if s.phase == "rrm-decision"]

    if trace.outcome != want_outcome:
        return False
    if not announce:
        return False
    if response and min(response) <= min(announce):
        return False
    if not response and trace.outcome != "timeout":
        return False
    if request and (not response or min(request) <= max(response)):
        return False
    if grants and (not decision or min(grants) <= decision[0]):
        return False
    if trace.outcome == "accepted":
        if set(starts) != {steps[-1].index} or steps[-1].phase != "data-start":
            return False
    elif starts:
        return False
    return True


def test_setup_trace_goldens_and_ordering():
    stale = []
    for name, build in GOLDEN_TRACES:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            golden = fh.read()
        if golden != build().to_text().encode("utf-8"):
            stale.append(name)

    rng = np.random.default_rng(1357)
    bad = 0
    for _ in range(10000):
        retries = int(rng.integers(0, 5))
        response_at = int(rng.integers(1, 8))
        model = "A" if rng.random() < 0.5 else "B"
        timeout = response_at > retries + 1
        if rng.random() < 0.5:
            verdict_ = bool(rng.random() < 0.5)
            cov_a, cov_b = True, True
            if rng.random() < 0.3:
                cov_a = bool(rng.random() < 0.5)
                cov_b = not cov_a or bool(rng.random() < 0.5)
            trace = run_single_cell(
                verdict_, discovery_model=model,
                response_on_attempt=response_at, max_retries=retries,
                discoverer_covered=cov_a, discoveree_covered=cov_b)
            want = "timeout" if timeout else ("accepted" if verdict_ else "rejected")
        else:
            va, vb = bool(rng.random() < 0.5), bool(rng.random() < 0.5)
            trace = run_multi_cell(va, vb, discovery_model=model,
                                   response_on_attempt=response_at,
                                   max_retries=retries)
            want = "timeout" if timeout else ("accepted" if va and vb else "rejected")
        bad += int(not ordered_ok(trace, want))
    ok = not stale and bad == 0
    line = verdict("setup-traces", ok,
                   f"goldens {'all byte-exact' if not stale else 'STALE: ' + ','.join(stale)}, "
                   f"{bad} ordering violations in 10000 randomized schedules")
    assert ok, line


def test_signaling_reports_scale_free():
    per_pair = context_gain_reports(run_single_cell(True))
    failures = []
    for m in (10, 50, 100):
        for n in (1, 5, 10):
            # context scheduling: 3 reports per admitted pair, whatever M is
            total_context = n * per_pair
            if total_context != 3 * n:
                failures.append(f"context M={m} N={n}: {total_context}")
            full = full_csi_report_count(m, n)
            if full != m * n + m + 2 * n:
                failures.append(f"full-csi M={m} N={n}: {full}")
    ok = per_pair == 3 and not failures
    line = verdict("signaling-scaling", ok,
                   f"context reports/pair {per_pair} (M-independent), "
                   f"full-CSI MN+M+2N exact for M in 10/50/100, N in 1/5/10"
                   + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


# -- determinism ---------------------------------------------------------------


def test_campaign_rerun_is_byte_identical(tmp_path):
    cfg = ScenarioConfig(num_drops=50)
    t0 = time.monotonic()
    run_campaign(cfg, SCHEMES, out_dir=str(tmp_path / "a"))
    run_campaign(cfg, SCHEMES, out_dir=str(tmp_path / "b"))
    elapsed = time.monotonic() - t0
    names = ("drops.csv", "kinds.csv", "allocations.csv", "summary.txt")
    diffs = []
    for name in names:
        with open(tmp_path / "a" / name, "rb") as fh:
            a = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            b = fh.read()
        if a != b:
            diffs.append(name)
    ok = not diffs and elapsed < 300.0
    line = verdict("determinism", ok,
                   f"50-drop all-scheme rerun {'byte-identical' if not diffs else 'DIFFERS: ' + ','.join(diffs)}"
                   f" ({elapsed:.1f} s)")
    assert ok, line


# -- README ---------------------------------------------------------------------


def test_readme_results_match_campaigns(s1_campaign, s2_campaign, hetnet_campaign):
    """README's measured-results table is what the shared campaigns give."""
    s1, s2, het = s1_campaign, s2_campaign, hetnet_campaign
    rows = [
        ("macro-scheme1 proposed", s1.overall_gain("proposed"), s1.cellular_gain("proposed")),
        ("macro-scheme1 random", s1.overall_gain("random"), s1.cellular_gain("random")),
        ("macro-scheme2 proposed", s2.overall_gain("proposed"), s2.cellular_gain("proposed")),
        ("hetnet proposed (overall)", het.overall_gain("proposed"),
         het.cellular_gain("proposed")),
        ("hetnet proposed (macro cells only)", het.kind_overall_gain("proposed", "macro"), None),
        ("hetnet proposed (micro cells only)", het.kind_overall_gain("proposed", "micro"), None),
        ("hetnet capacity-max", het.overall_gain("capacity-max"), None),
        ("hetnet random", het.overall_gain("random"), None),
    ]
    want = [f"| {label} | {overall:+.1%} | {'—' if cell is None else f'{cell:+.1%}'} |"
            for label, overall, cell in rows]
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| scenario / scheme | overall gain | cellular gain |") + 2
    got = list(itertools.takewhile(str.strip, lines[start:]))
    stale = [w for g, w in itertools.zip_longest(got, want) if g != w]
    ok = not stale
    line = verdict("readme-results", ok,
                   f"{len(want) - len(stale)} of {len(want)} rows match"
                   + ("; campaigns give: " + "; ".join(map(str, stale)) if stale else ""))
    assert ok, line
