"""Acceptance gate: the externally promised behaviors, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers (visible
under pytest -s; under plain pytest -v the per-test PASSED/FAILED lines carry
the same verdicts) and then asserts, so a regression fails loudly instead of
drifting.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import statistics
import time

import pytest

from c2sim.detect import (
    WEIGHTS,
    ChannelSeries,
    DetectorConfig,
    _auc_from_points,
    _roc_points,
    acf_period,
    evaluate,
    interval_regularity,
    write_report,
)
from c2sim.engine import RngStream
from c2sim.hub import HeartbeatPolicy, Hub
from c2sim.orchestrate import MODE_MANUAL, run_scenario
from c2sim.scenario import default_scenario, default_scenario_text, parse_scenario
from c2sim.traffic import (
    BeaconConfig,
    ChannelProfile,
    FlowTable,
    WorkdayModel,
    beacon_ticks,
    synth_background,
    synth_beacon_trace,
    synth_reasoning_nonstreaming,
    synth_reasoning_streaming,
    write_trace,
)

DAY_MS = 86_400_000
HOUR_MS = 3_600_000


def _journaled(sc):
    """The run of sc and the bytes of the journal its hub wrote."""
    journal = io.StringIO()
    run = run_scenario(sc, journal=journal)
    return run, journal.getvalue().encode()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared corpora ---------------------------------------------------------------


@pytest.fixture(scope="session")
def benign_flows():
    """A day of benign traffic from 30 users; well over 50 channels."""
    model = WorkdayModel(horizon_ms=DAY_MS)
    return synth_background(30, model, lambda sid: RngStream(424242, sid))


@pytest.fixture(scope="session")
def beacon_flows():
    """50 beacon channels, intervals 30 s to 1 h, jitter up to 0.2, 24 h."""
    meta = RngStream(555, "acceptance/beacon-params")
    flows = []
    for i in range(50):
        interval = 30_000 + int(meta.unit() * (HOUR_MS - 30_000))
        jitter = meta.unit() * 0.2
        cfg = BeaconConfig(interval_ms=interval, jitter_fraction=jitter,
                           horizon_ms=DAY_MS, src=f"bcn-{i}", dst="c2")
        flows += synth_beacon_trace(cfg, RngStream(9000 + i, f"bcn-{i}/ticks"))
    return flows


@pytest.fixture(scope="session")
def beacon_report(beacon_flows, benign_flows):
    t0 = time.monotonic()
    report = evaluate(FlowTable.from_records([*beacon_flows, *benign_flows]))
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def t_star(beacon_report):
    """Operating point: the most sensitive threshold with FPR at most 5%."""
    report, _ = beacon_report
    eligible = [(tpr, thr) for fpr, tpr, thr in report.roc if fpr <= 0.05]
    best_tpr = max(tpr for tpr, _ in eligible)
    threshold = min(thr for tpr, thr in eligible if tpr == best_tpr)
    return threshold, best_tpr


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_repeat_runs_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    text = (default_scenario_text()
            .replace("chaff_per_hour = 0", "chaff_per_hour = 60")
            .replace("n_users = 0", "n_users = 3"))
    sc = parse_scenario(text)
    artifacts = []
    for tag in ("first", "second"):
        run, journal = _journaled(sc)
        trace_path = tmp_path / f"{tag}-trace.csv"
        report_path = tmp_path / f"{tag}-report.ndjson"
        write_trace(trace_path, run.trace)
        write_report(evaluate(run.trace), report_path)
        artifacts.append((trace_path.read_bytes(),
                          journal,
                          report_path.read_bytes()))
    elapsed = time.monotonic() - t0
    same = [a == b for a, b in zip(artifacts[0], artifacts[1])]
    ok = all(same) and elapsed < 10.0
    _report("criterion-1 determinism", ok,
            f"trace/journal/report identical={same}, "
            f"{len(artifacts[0][0])}-byte trace, elapsed {elapsed:.2f}s "
            f"(limit 10s)")


def test_criterion_2_beacon_detection_quality(beacon_report, t_star):
    report, elapsed = beacon_report
    pos_scored = sum(1 for v in report.channels
                     if v.score is not None and v.label == "beacon_c2")
    neg_scored = sum(1 for v in report.channels
                     if v.score is not None and v.label != "beacon_c2")
    threshold, best_tpr = t_star
    fpr_at = max((fpr for fpr, tpr, thr in report.roc
                  if thr == threshold), default=0.0)
    ok = (pos_scored >= 50 and neg_scored >= 50
          and report.auc is not None and report.auc >= 0.95
          and best_tpr >= 0.9 and fpr_at <= 0.05
          and elapsed < 60.0)
    _report("criterion-2 beacon detection", ok,
            f"auc={report.auc:.4f} (>=0.95), tpr={best_tpr:.3f} at "
            f"fpr={fpr_at:.3f} (threshold {threshold:.3f}), "
            f"{pos_scored} beacon / {neg_scored} benign channels scored, "
            f"elapsed {elapsed:.1f}s (limit 60s)")


def test_criterion_3_event_channels_evade_the_detector(benign_flows, t_star):
    threshold, _ = t_star
    event_flows = []
    runs = 17
    for seed in range(3000, 3000 + runs):
        run = run_scenario(default_scenario().with_seed(seed))
        for f in run.trace:
            if f.leg == "tasking":
                event_flows.append(
                    dataclasses.replace(f, src=f"run{seed}:{f.src}"))
    report = evaluate(FlowTable.from_records([*event_flows, *benign_flows]),
                      DetectorConfig(threshold=threshold))
    event_verdicts = [v for v in report.channels if v.label == "event_c2"]
    n_event = len(event_verdicts)
    flagged = sum(v.flagged for v in event_verdicts)
    insufficient = sum(1 for v in event_verdicts if v.score is None)
    ok = (n_event >= 50 and flagged <= 0.05 * n_event
          and insufficient > n_event / 2)
    _report("criterion-3 event-protocol stealth", ok,
            f"{n_event} tasking channels from {runs} engagements: "
            f"{flagged} flagged at threshold {threshold:.3f} "
            f"(limit {0.05 * n_event:.1f}), {insufficient} below the "
            f"3-contact scoring floor (majority expected)")


def test_criterion_4_reasoning_session_shapes():
    profile = ChannelProfile()
    monotone_failures = 0
    for i in range(100):
        turns = 1 + int(RngStream(i, "acc/turn-count").unit() * 8)
        flows = synth_reasoning_nonstreaming(
            turns, profile, RngStream(i, "acc/nonstreaming"),
            t_start=0, src="agent")
        sizes = [f.bytes_initiator for f in flows]
        if any(b < a for a, b in zip(sizes, sizes[1:])):
            monotone_failures += 1

    meta = RngStream(77, "acc/4b-params")
    beacon_reg = []
    for i in range(100):
        interval = 30_000 + int(meta.unit() * 570_000)
        jitter = meta.unit() * 0.2
        cfg = BeaconConfig(interval_ms=interval, jitter_fraction=jitter,
                           horizon_ms=6 * HOUR_MS, src="b", dst="c2")
        ticks = list(beacon_ticks(cfg, RngStream(600 + i, f"acc/4b-ticks-{i}")))
        series = ChannelSeries(("b", "c2"), ticks, [0] * len(ticks),
                               len(ticks), "beacon_c2")
        beacon_reg.append(interval_regularity(series))
    stream_reg = []
    for i in range(100):
        flows = synth_reasoning_streaming(
            HOUR_MS, profile, RngStream(i, "acc/streaming"),
            t_start=0, src="agent")
        arrivals = [f.ts_start for f in flows]
        series = ChannelSeries(("agent", "planner"), arrivals,
                               [0] * len(arrivals), len(arrivals), "event_c2")
        stream_reg.append(interval_regularity(series))
    assert all(r is not None for r in beacon_reg + stream_reg)
    num2 = 0
    for b in beacon_reg:
        for s in stream_reg:
            num2 += 2 if b > s else (1 if b == s else 0)
    auc = num2 / (2 * len(beacon_reg) * len(stream_reg))
    ok = monotone_failures == 0 and auc >= 0.9
    _report("criterion-4 session shape", ok,
            f"context growth monotone in {100 - monotone_failures}/100 "
            f"sessions, "
            f"regularity separates beacons from streaming sessions with "
            f"auc={auc:.3f} (>=0.9)")


def test_criterion_5_liveness_window_boundary():
    policy = HeartbeatPolicy(50_000, 50_000)
    hub = Hub(policy, journal=io.StringIO())
    aid = hub.register_agent("imp-1", ["alpha"], 0)
    checks = {
        "quiet up to the window is tolerated": hub.sweep_liveness(50_000) == [],
        "one ms past the window flags": hub.sweep_liveness(50_001) == [aid],
        "status is potentially_lost": hub.roster[aid].status == "potentially_lost",
        "repeat sweep is idempotent": hub.sweep_liveness(50_002) == [],
    }
    hub.get_tasks(aid, 60_000)  # any authenticated contact counts
    checks["contact restores active"] = hub.roster[aid].status == "active"
    checks["restored agent gets a fresh window"] = (
        hub.sweep_liveness(110_000) == [])
    checks["and is flagged again past it"] = hub.sweep_liveness(110_001) == [aid]
    marks = sum(r["record_kind"] == "liveness_mark"
                for r in map(json.loads, hub.journal.getvalue().splitlines()))
    checks["exactly two liveness marks journaled"] = marks == 2
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report("criterion-5 liveness boundary", ok,
            "all boundary checks exact" if ok else f"failed: {failed}")


def test_criterion_6_crash_replay_never_loses_acked_intel():
    sc = (default_scenario().with_seed(7).with_mode(MODE_MANUAL)
          .with_beacon_interval(15_000))
    run, blob = _journaled(sc)
    records = [json.loads(line) for line in blob.splitlines()]
    full = Hub.recover(blob)
    full_matches = (full.records_applied == len(records)
                    and not full.truncated
                    and full.hub.state_dict() == run.hub.state_dict())
    boundary_failures = 0
    acked_losses = 0
    acked: list[str] = []
    prefix = b""
    for k, rec in enumerate(records):
        line = (json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                ).encode()
        torn = Hub.recover(prefix + line[:max(1, len(line) // 2)])
        if not (torn.records_applied == k and torn.truncated
                and torn.stopped_at_byte == len(prefix)):
            boundary_failures += 1
        acked_losses += sum(key not in torn.hub.context.items for key in acked)
        prefix += line
        if rec["record_kind"] == "submit":
            acked.extend(item["content_key"] for item in rec["body"]["items"])
        clean = Hub.recover(prefix)
        if not (clean.records_applied == k + 1 and not clean.truncated):
            boundary_failures += 1
        acked_losses += sum(key not in clean.hub.context.items for key in acked)
    ok = (len(records) >= 200 and full_matches
          and boundary_failures == 0 and acked_losses == 0)
    _report("criterion-6 crash replay", ok,
            f"{len(records)} records; replay tested clean+torn at every "
            f"boundary: {boundary_failures} mismatches, {acked_losses} acked "
            f"intel losses, full-journal state match={full_matches}")


def test_criterion_7_swarm_vs_manual():
    seeds = range(4000, 4011)
    intervals = (60_000, 300_000, 900_000)
    swarm_times = []
    manual_times = {iv: [] for iv in intervals}
    swarm_actions_ok = True
    manual_actions_ok = True
    invariant_ok = True
    for seed in seeds:
        base = default_scenario().with_seed(seed)
        ref, ref_bytes = _journaled(base)
        swarm_times.append(ref.metrics.time_to_objective_ms)
        swarm_actions_ok &= ref.metrics.operator_actions == 1
        for iv in intervals:
            manual = run_scenario(base.with_mode(MODE_MANUAL)
                                  .with_beacon_interval(iv))
            manual_times[iv].append(manual.metrics.time_to_objective_ms)
            manual_actions_ok &= manual.metrics.operator_actions >= 10
            swarm, swarm_bytes = _journaled(base.with_beacon_interval(iv))
            invariant_ok &= (swarm_bytes == ref_bytes
                             and swarm.metrics == ref.metrics
                             and swarm.trace == ref.trace)
    med_swarm = statistics.median(swarm_times)
    med_manual = {iv: statistics.median(ts) for iv, ts in manual_times.items()}
    ratio = med_swarm / med_manual[60_000]
    monotone = med_manual[60_000] < med_manual[300_000] < med_manual[900_000]
    ok = (ratio <= 0.4 and swarm_actions_ok and manual_actions_ok
          and monotone and invariant_ok)
    _report("criterion-7 orchestration comparison", ok,
            f"11 seeds: median {med_swarm / 1000:.0f}s swarm vs "
            f"{med_manual[60_000] / 1000:.0f}s manual (ratio {ratio:.3f}, "
            f"limit 0.4); manual medians over beacon intervals "
            f"{[med_manual[iv] for iv in intervals]} strictly increase; "
            f"swarm byte-invariant to the beacon interval; "
            f"operator actions 1 vs >=10 in every run")


def _acf_oracle(arrivals: list[int], bin_ms: int, max_lag: int,
                min_lag: int) -> tuple[float, int]:
    first = arrivals[0]
    bins = [(a - first) // bin_ms for a in arrivals]
    counts = [0.0] * (bins[-1] + 1)
    for b in bins:
        counts[b] += 1.0
    mean = sum(counts) / len(counts)
    d = [c - mean for c in counts]
    denom = sum(v * v for v in d)
    n = len(d)
    best_val = -math.inf
    best_lag = min_lag
    for lag in range(min_lag, min(max_lag, n - 1) + 1):
        acc = 0.0
        for i in range(n - lag):
            acc += d[i] * d[i + lag]
        val = acc / denom
        if val > best_val:
            best_val = val
            best_lag = lag
    return min(1.0, max(0.0, best_val)), best_lag


def test_criterion_8_reference_oracles():
    rng = RngStream(31337, "acc/oracles")
    acf_failures = 0
    for _ in range(50):
        n = 3 + int(rng.unit() * 509)
        span = 130_000 + int(rng.unit() * 8_000_000)
        arrivals = sorted({int(rng.unit() * span) for _ in range(n)})
        while len(arrivals) < 3:
            arrivals = sorted(set(arrivals) | {int(rng.unit() * span)})
        series = ChannelSeries(("s", "d"), arrivals, [100] * len(arrivals),
                               len(arrivals), "benign")
        got_s, got_p = acf_period(series, 1000, 64, min_lag_bins=1,
                                  period_floor=0.0)
        exp_s, exp_lag = _acf_oracle(arrivals, 1000, 64, 1)
        lag_delta = abs((got_p or 0) // 1000 - exp_lag)
        if not (abs(got_s - exp_s) <= 1e-9 and lag_delta <= 1):
            acf_failures += 1

    auc_failures = 0
    for _ in range(50):
        m = 5 + int(rng.unit() * 60)
        scored = [(1.0, True), (0.0, False)]
        for _ in range(m):
            u = rng.unit()
            score = 0.25 if u < 0.2 else (0.5 if u < 0.4 else rng.unit())
            scored.append((score, rng.unit() < 0.5))
        points, pos, neg = _roc_points(scored)
        got = _auc_from_points(points, pos, neg)
        num2 = 0
        for sp, p_is in scored:
            if not p_is:
                continue
            for sn, n_is in scored:
                if n_is:
                    continue
                num2 += 2 if sp > sn else (1 if sp == sn else 0)
        expected = num2 / (2 * pos * neg)
        if got != expected:
            auc_failures += 1
    ok = acf_failures == 0 and auc_failures == 0
    _report("criterion-8 reference oracles", ok,
            f"50 random series: ACF peak within one bin of the O(n^2) oracle "
            f"({acf_failures} misses); 50 random score sets: trapezoid AUC "
            f"bit-equal to pairwise Mann-Whitney ({auc_failures} misses)")


# -- beyond the criteria ----------------------------------------------------------


def test_combined_is_the_fixed_weighted_sum_on_criterion_2_flows(beacon_report):
    # the renormalizing mean the detector once took, over all four
    # components: the weights sum to exactly 1.0, so it is their plain sum
    report, _ = beacon_report
    scored = [v.score for v in report.channels if v.score is not None]
    assert len(scored) >= 100
    for s in scored:
        acc = total = 0.0
        for w, v in zip(WEIGHTS.values(), (s.regularity, s.acf_strength,
                                           s.periodogram, s.size_uniformity)):
            acc += w * v
            total += w
        assert total == 1.0
        assert s.combined == acc / total, s.key
