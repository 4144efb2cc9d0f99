"""Flow synthesis checks.

Beacon schedule properties (jitter band, count pinning) are asserted
universally over randomized configurations, not just on examples.
"""

from __future__ import annotations

import bisect
import collections
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import random
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c2sim import traffic
from c2sim.engine import Dist, RngStream, Simulator, draw_int
from c2sim.traffic import (
    DST_CLASSES,
    LABELS,
    LEGS,
    BeaconConfig,
    ChannelProfile,
    FlowRecord,
    FlowTable,
    WorkdayModel,
    beacon_ticks,
    chaff_gap,
    flows_at_ticks,
    kind_error,
    merge_traces,
    read_trace,
    synth_background,
    synth_beacon_trace,
    synth_chaff,
    synth_event_flows,
    synth_reasoning_nonstreaming,
    synth_reasoning_streaming,
    write_trace,
    TRACE_COLUMNS,
)


def _stream(name="t", seed=1):
    return RngStream(seed, name)


def _in_workday(t: int, model: WorkdayModel) -> bool:
    hour_ms = t % 86_400_000
    return (model.workday_start_hour * 3_600_000 <= hour_ms
            < model.workday_end_hour * 3_600_000)


def _flow(ts=0, src="a", dst="hub", **kw):
    base = dict(ts_start=ts, duration=10, src=src, dst=dst, dst_class="hub",
                bytes_initiator=100, bytes_responder=200, leg="tasking",
                label="event_c2")
    base.update(kw)
    return FlowRecord(**base)


def test_flow_record_is_a_slotted_value_record():
    flow = _flow(ts=7)
    assert flow == _flow(ts=7) and hash(flow) == hash(_flow(ts=7))
    assert flow != _flow(ts=8)
    assert not hasattr(flow, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        flow.ts_start = 8  # type: ignore[misc]


# -- beacons -------------------------------------------------------------------


def test_zero_jitter_beacons_sit_on_exact_multiples():
    cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.0,
                       horizon_ms=600_000, src="imp", dst="c2")
    flows = synth_beacon_trace(cfg, _stream())
    assert [f.ts_start for f in flows] == [k * 60_000 for k in range(1, 11)]
    assert all(f.label == "beacon_c2" and f.leg == "tasking" for f in flows)


def test_horizon_shorter_than_interval_yields_no_flows():
    cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.0,
                       horizon_ms=59_999, src="imp", dst="c2")
    assert list(synth_beacon_trace(cfg, _stream())) == []


def test_jitter_band_and_count_hold_universally():
    rnd = random.Random(88)
    for trial in range(50):
        interval = rnd.randrange(30_000, 3_600_001)
        jitter = rnd.uniform(0.0, 0.5)
        horizon = rnd.randrange(interval, interval * 200)
        cfg = BeaconConfig(interval_ms=interval, jitter_fraction=jitter,
                           horizon_ms=horizon, src="imp", dst="c2")
        ticks = list(beacon_ticks(cfg, _stream(seed=trial)))
        assert all(0 <= t <= horizon for t in ticks)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        lo = interval * (1 - jitter) - 1  # integer rounding slack
        hi = interval * (1 + jitter) + 1
        assert all(lo <= g <= hi for g in gaps)
        expected = horizon // interval
        assert abs(len(ticks) - expected) <= 1


def _per_slot_ticks(cfg: BeaconConfig, stream: RngStream):
    """The reference for beacon_ticks: one unit() a slot, drawn as each
    tick is consumed, in Python ints."""
    half = cfg.jitter_fraction * cfg.interval_ms / 2.0
    for k in itertools.count(1):
        anchor = k * cfg.interval_ms
        if anchor - cfg.horizon_ms > half:   # int against float: exact
            return
        t = anchor + int(round((2.0 * stream.unit() - 1.0) * half))
        if 0 <= t <= cfg.horizon_ms:
            yield t


_JUST_UNDER_1 = math.nextafter(1.0, 0.0)


@st.composite
def _beacon_configs(draw) -> BeaconConfig:
    """Intervals from 1 ms to past 2^62, jitter 0, just under 1 or between,
    and horizons from under one interval to just under 2^63, exact multiples
    of the interval among them; up to 12,000 slots, into the second block of
    the 4,096-slot cap."""
    interval = draw(st.one_of(
        st.integers(1, 1_000), st.integers(1, 2**40),
        st.integers(2**53 - 1_000, 2**53 + 1_000),
        st.integers(2**62 - 1_000, 2**62 + 2**61)))
    jitter = draw(st.sampled_from([0.0, _JUST_UNDER_1, 0.5])
                  | st.floats(0.0, 1.0, exclude_max=True))
    most = min(12_000, (2**63 - 1) // interval)
    slots = draw(st.integers(0, min(40, most)) | st.integers(0, most))
    horizon = slots * interval + draw(
        st.just(0) | st.integers(0, interval - 1))
    if interval > 2**50 and draw(st.booleans()):
        horizon = 2**63 - 1 - draw(st.integers(0, 2**10))  # near 2^63
    return BeaconConfig(interval_ms=interval, jitter_fraction=jitter,
                        horizon_ms=min(horizon, 2**63 - 1), src="imp",
                        dst="c2")


# past 2^53, horizon + half as a float rounds below the second slot
_SLOTS_PAST_2_53 = BeaconConfig(interval_ms=2**53 + 1, jitter_fraction=0.0,
                                horizon_ms=2 * (2**53 + 1), src="imp",
                                dst="c2")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_beacon_configs(), seed=st.integers(0, 2**64),
       consumed=st.integers(0, 300))
@example(cfg=_SLOTS_PAST_2_53, seed=0, consumed=2)
def test_block_beacon_ticks_are_the_per_slot_ticks(cfg, seed, consumed):
    block, ref = RngStream(seed, "b"), RngStream(seed, "b")
    ticks = list(beacon_ticks(cfg, block))
    assert ticks == list(_per_slot_ticks(cfg, ref))
    if cfg.jitter_fraction == 0:   # an oracle in ints alone: every slot
        assert ticks == [k * cfg.interval_ms for k in
                         range(1, cfg.horizon_ms // cfg.interval_ms + 1)]
    assert all(type(t) is int for t in ticks)
    # run to its end, the block generator leaves the stream as the
    # per-slot one does, so draws after the ticks are the same
    assert block.unit() == ref.unit()
    # and a generator stopped early yields the same first ticks
    head = itertools.islice(beacon_ticks(cfg, RngStream(seed, "b")),
                            consumed)
    assert list(head) == ticks[:consumed]
    # synth_beacon_trace draws the flows from the stream the ticks leave
    if max(ticks, default=0) <= 2**63 - 1 - 120:  # the longest flow's end
        ref = RngStream(seed, "b")
        expected = flows_at_ticks(list(_per_slot_ticks(cfg, ref)), cfg, ref)
        assert synth_beacon_trace(cfg, RngStream(seed, "b")) == expected


def test_beacon_ticks_draw_a_block_when_the_one_before_is_used():
    # a week of one-second slots, each of which yields a tick
    cfg = BeaconConfig(interval_ms=1_000, jitter_fraction=0.1,
                       horizon_ms=604_800_000, src="imp", dst="c2")
    stream, ref = RngStream(3, "b"), RngStream(3, "b")
    ticks = beacon_ticks(cfg, stream)
    for size in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 4096):
        next(ticks)
        ref.units(size)
        assert stream._rand.getstate() == ref._rand.getstate()
        assert len(list(itertools.islice(ticks, size - 1))) == size - 1
        assert stream._rand.getstate() == ref._rand.getstate()


def test_beacon_trace_is_reproducible():
    cfg = BeaconConfig(interval_ms=45_000, jitter_fraction=0.2,
                       horizon_ms=3_600_000, src="imp", dst="c2")
    a = synth_beacon_trace(cfg, _stream(seed=9))
    b = synth_beacon_trace(cfg, _stream(seed=9))
    assert a == b
    c = synth_beacon_trace(cfg, _stream(seed=10))
    assert a != c


def test_bad_beacon_configs_rejected():
    with pytest.raises(ValueError):
        BeaconConfig(interval_ms=0, jitter_fraction=0.1, horizon_ms=1, src="a", dst="b")
    with pytest.raises(ValueError):
        BeaconConfig(interval_ms=10, jitter_fraction=1.0, horizon_ms=1, src="a", dst="b")


# -- event-driven hub flows ---------------------------------------------------------


def _contact_flows(seed: int):
    """The flows of implant-1's hub contacts at 1200 ms (a fetch) and
    61000 ms (a submit)."""
    stream = Simulator(seed).stream("implant-1/tasking-bytes")
    return synth_event_flows([1200, 61_000], stream, src="implant-1")


def test_event_flows_are_one_per_fetch_and_submit():
    flows = _contact_flows(3)
    assert [f.ts_start for f in flows] == [1200, 61_000]
    assert all(f.src == "implant-1" and f.dst == "hub" for f in flows)
    assert all(f.leg == "tasking" and f.label == "event_c2" for f in flows)


def test_event_flows_deterministic_across_runs():
    assert _contact_flows(3) == _contact_flows(3)


# -- reasoning sessions --------------------------------------------------------------


def test_nonstreaming_initiator_growth_is_monotone_everywhere():
    rnd = random.Random(42)
    for trial in range(100):
        profile = ChannelProfile(
            request_size=Dist("lognormal", (rnd.uniform(6, 9), rnd.uniform(0.1, 1.0))),
            context_growth=Dist("lognormal", (rnd.uniform(6, 9), rnd.uniform(0.1, 1.2))),
        )
        turns = rnd.randrange(1, 12)
        flows = synth_reasoning_nonstreaming(
            turns, profile, _stream(seed=trial), t_start=0, src="imp")
        sizes = [f.bytes_initiator for f in flows]
        assert len(flows) == turns
        assert sizes == sorted(sizes)
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_degenerate_growth_gives_arithmetic_progression():
    profile = ChannelProfile(
        request_size=Dist("uniform", (1000.0, 1000.0)),
        context_growth=Dist("uniform", (250.0, 250.0)),
        response_size=Dist("uniform", (100.0, 100.0)),
        summary_response=Dist("uniform", (5000.0, 5000.0)),
        turn_gap=Dist("uniform", (2000.0, 2000.0)),
    )
    flows = synth_reasoning_nonstreaming(4, profile, _stream(), t_start=100, src="imp")
    assert [f.bytes_initiator for f in flows] == [1000, 1250, 1500, 1750]
    assert [f.ts_start for f in flows] == [100, 2100, 4100, 6100]
    assert [f.bytes_responder for f in flows] == [100, 100, 100, 5000]
    assert all(f.leg == "reasoning" and f.dst_class == "planner" for f in flows)


def test_final_turn_response_is_enlarged_summary():
    flows = list(synth_reasoning_nonstreaming(6, ChannelProfile(),
                                              _stream(seed=4), t_start=0,
                                              src="imp"))
    body = [f.bytes_responder for f in flows[:-1]]
    assert flows[-1].bytes_responder > max(body)


def test_single_turn_session_is_one_summary_flow():
    flows = list(synth_reasoning_nonstreaming(1, ChannelProfile(), _stream(),
                                              t_start=7, src="imp"))
    assert len(flows) == 1 and flows[0].ts_start == 7


def test_nonstreaming_rejects_zero_turns():
    with pytest.raises(ValueError):
        synth_reasoning_nonstreaming(0, ChannelProfile(), _stream(), t_start=0, src="x")


def test_streaming_bursts_stay_inside_window_and_are_bidirectional():
    for seed in range(20):
        flows = synth_reasoning_streaming(120_000, ChannelProfile(), _stream(seed=seed),
                                          t_start=50_000, src="imp")
        assert flows, "a session emits at least one burst"
        assert all(50_000 <= f.ts_start <= 170_000 for f in flows)
        assert all(f.bytes_initiator > 0 and f.bytes_responder > 0 for f in flows)
        ts = [f.ts_start for f in flows]
        assert ts == sorted(ts)


def test_streaming_gaps_are_irregular():
    # lognormal burst pacing keeps the gap CV well above beacon-like values
    cvs = []
    for seed in range(30):
        flows = list(synth_reasoning_streaming(
            10_000_000, ChannelProfile(), _stream(seed=seed), t_start=0,
            src="imp"))
        gaps = [b.ts_start - a.ts_start for a, b in zip(flows, flows[1:])]
        if len(gaps) >= 3:
            cvs.append(statistics.pstdev(gaps) / statistics.mean(gaps))
    assert cvs and statistics.median(cvs) > 0.5


# -- chaff and background ---------------------------------------------------------------


def test_chaff_rate_zero_is_silent():
    assert list(synth_chaff(0.0, 3_600_000, ChannelProfile(), _stream(),
                            src="imp")) == []


def test_chaff_rate_and_labels():
    horizon_ms = 48 * 3_600_000
    flows = synth_chaff(30.0, horizon_ms, ChannelProfile(), _stream(seed=6),
                        src="imp")
    assert all(f.label == "chaff" and f.dst_class == "planner" for f in flows)
    assert all(0 <= f.ts_start <= horizon_ms for f in flows)
    # 30/hour over 48h -> about 1440 arrivals; allow wide stochastic slack
    assert 1200 <= len(flows) <= 1700


def test_background_off_hours_bound_is_hard():
    model = WorkdayModel(horizon_ms=7 * 86_400_000, off_hours_fraction=0.1)
    flows = synth_background(12, model, Simulator(31).stream)
    assert flows
    off = sum(1 for f in flows if not _in_workday(f.ts_start, model))
    assert off / len(flows) <= model.off_hours_fraction
    assert all(f.label == "benign" and f.leg == "background" for f in flows)


def test_background_zero_fraction_means_no_off_hours_flows():
    model = WorkdayModel(horizon_ms=3 * 86_400_000, off_hours_fraction=0.0)
    flows = synth_background(6, model, Simulator(5).stream)
    assert flows
    assert all(_in_workday(f.ts_start, model) for f in flows)


def test_background_reproducible_and_user_isolated():
    model = WorkdayModel(horizon_ms=2 * 86_400_000)
    a = list(synth_background(4, model, Simulator(7).stream))
    b = list(synth_background(4, model, Simulator(7).stream))
    assert a == b
    # user 0..3 flows are a prefix-stable subset when more users are added
    wider = list(synth_background(6, model, Simulator(7).stream))
    assert [f for f in wider if f.src in {"user-0", "user-1", "user-2", "user-3"}] == a


def _pick_by_cumulative_loop(unit: float) -> int:
    """The index a walk over running sums of the destination weights picks."""
    weights = (0.4, 0.2, 0.2, 0.2)
    target = unit * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if target < acc:
            return i
    return len(weights) - 1


def test_destination_pick_equals_the_cumulative_loop():
    bounds = traffic._DESTINATION_BOUNDS
    units = [0.0, 1.0 - 2.0 ** -53]
    for b in bounds[:-1]:
        units += [math.nextafter(b, 0.0), b, math.nextafter(b, 1.0)]
    rnd = random.Random(15)
    units += [rnd.random() for _ in range(10_000)]
    for u in units:
        assert bisect.bisect_right(bounds, u) == _pick_by_cumulative_loop(u), u


def test_background_destinations_follow_their_weights():
    # one flow a session, so each flow's destination is one session's pick
    model = WorkdayModel(horizon_ms=86_400_000,
                         sessions_per_day=Dist("uniform", (10.0, 10.0)),
                         flows_per_session=Dist("uniform", (1.0, 1.0)))
    flows = synth_background(1000, model, Simulator(3).stream)
    assert len(flows) == 10_000
    counts = collections.Counter(f.dst for f in flows)
    shares = {dst: counts[dst] / len(flows)
              for dst in traffic._BACKGROUND_DESTINATIONS}
    assert shares == pytest.approx({"planner": 0.4, "svc-mail": 0.2,
                                    "svc-repo": 0.2, "svc-files": 0.2},
                                   abs=0.02)


def test_background_none_requested_none_generated():
    model = WorkdayModel(horizon_ms=86_400_000)
    assert list(synth_background(0, model, Simulator(1).stream)) == []


# -- merge and I/O ------------------------------------------------------------------------


def test_merge_orders_by_time_then_src_dst_stably():
    t1 = [_flow(ts=100, src="b"), _flow(ts=100, src="a", bytes_initiator=1)]
    t2 = [_flow(ts=50, src="z"), _flow(ts=100, src="a", bytes_initiator=2)]
    merged = list(merge_traces(t1, t2))
    assert [f.ts_start for f in merged] == [50, 100, 100, 100]
    assert merged[1].bytes_initiator == 1  # first trace wins ties
    assert merged[2].bytes_initiator == 2
    assert merged[3].src == "b"


def test_flow_validation_guards():
    with pytest.raises(ValueError):
        _flow(duration=-1)
    with pytest.raises(ValueError):
        _flow(bytes_initiator=-5)
    with pytest.raises(ValueError):
        _flow(dst_class="mystery")
    with pytest.raises(ValueError):
        _flow(label="beacon_c2", leg="reasoning")
    with pytest.raises(ValueError):
        _flow(label="chaff", dst_class="hub")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_round_trip(tmp_path, fmt):
    cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.1,
                       horizon_ms=600_000, src="imp", dst="c2")
    flows = synth_beacon_trace(cfg, _stream(seed=2))
    path = tmp_path / f"trace.{fmt}"
    write_trace(path, flows, fmt=fmt)
    assert list(read_trace(path)) == list(flows)


def test_trace_csv_header_is_exact(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, FlowTable.from_records([_flow()]), fmt="csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)
    assert header == ("ts_start_ms,duration_ms,src,dst,dst_class,"
                      "bytes_init,bytes_resp,leg,label")


def test_read_trace_reports_malformed_row_number(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, FlowTable.from_records([_flow(), _flow(ts=5)]),
                fmt="csv")
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("tasking", "warp-drive")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace(path)
    assert "row 3" in str(exc.value)


def test_read_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,src\n1,a\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_read_empty_trace(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, FlowTable.from_records([]), fmt="csv")
    assert list(read_trace(path)) == []


# -- the flow table --------------------------------------------------------------


def test_a_flow_table_is_canonical_so_equal_tables_hold_equal_records():
    a, b = _flow(ts=1, src="b"), _flow(ts=2, src="a", duration=0)
    ints = [[1, 2], [10, 0], [100, 100], [200, 200]]
    kinds = [("b", "hub", "hub", "tasking", "event_c2"),
             ("a", "hub", "hub", "tasking", "event_c2"),
             ("unused", "hub", "hub", "tasking", "event_c2")]
    table = FlowTable(kinds, [0, 1], ints)
    assert table.kinds == sorted(kinds[:2]) and table.kind.tolist() == [1, 0]
    assert table == FlowTable.from_records([a, b]) and list(table) == [a, b]
    # the same kind twice is one kind
    assert FlowTable(kinds[:1] * 2, [0, 1], [[1, 2]] * 4).kinds == kinds[:1]
    assert table != FlowTable.from_records([b, a])
    assert table.take(table.ts > 1) == FlowTable.from_records([b])
    assert all(col.dtype == np.int64 for col in (
        table.ts, table.duration, table.bytes_init, table.bytes_resp))


_KIND = ("a", "hub", "hub", "tasking", "event_c2")


@pytest.mark.parametrize("kind,ints,message", [
    (_KIND, [0, -1, 100, 200], "duration must be non-negative"),
    (_KIND, [0, 10, -5, 200], "byte counts must be non-negative"),
    (_KIND, [0, 10, 100, -5], "byte counts must be non-negative"),
    (("a", "hub", "mystery", "tasking", "event_c2"), [0, 10, 100, 200],
     "bad dst_class 'mystery'"),
    (("a", "hub", "hub", "tasking", "chaff"), [0, 10, 100, 200],
     "chaff targets the planner"),
    (_KIND, [2**63, 10, 100, 200],
     "ts_start_ms 9223372036854775808 is outside the int64 range"),
    (_KIND, [-2**63 - 1, 10, 100, 200], "ts_start_ms -9223372036854775809"),
    (_KIND, [0, 2**64, 100, 200], "duration_ms 18446744073709551616"),
    (_KIND, [0, 10, 2**63, 200], "bytes_init 9223372036854775808"),
    (_KIND, [0, 10, 100, 2**63], "bytes_resp 9223372036854775808"),
    (_KIND, [2**63 - 10, 10, 100, 200],
     r"ts_start_ms \+ duration_ms is outside the int64 range"),
], ids=str)
def test_a_flow_table_refuses_what_a_trace_cannot_hold(kind, ints, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            FlowTable([kind], [0], [[v] for v in ints])
        fits = [-2**63, 2**63 - 1, 2**63 - 1, 2**63 - 1]
        assert FlowTable([_KIND], [0], [[v] for v in fits]).ints.tolist() == [
            [v] for v in fits]
        # a FlowRecord holds any int; its table refuses one past int64
        with pytest.raises(ValueError, match="bytes_init 9223372036854775808"):
            FlowTable.from_records([_flow(bytes_initiator=2**63)])


def test_beacon_sizes_outside_int64_are_refused_never_wrapped():
    cfg = BeaconConfig(horizon_ms=600_000, src="imp", dst="c2",
                       request_size=Dist("uniform", (2.0**63, 2.0**63)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bytes_init: uniform"
                                             ".* outside the int64 range"):
            flows_at_ticks([60_000], cfg, _stream())
        top = dataclasses.replace(
            cfg, request_size=Dist("uniform", (2.0**63 - 1024,) * 2))
        assert [f.bytes_initiator for f in flows_at_ticks(
            [60_000], top, _stream())] == [2**63 - 1024]


# -- the merge and the writers against the per-record references --------------------


def _reference_merge(*traces):
    """merge_traces as a sort of records."""
    return sorted(itertools.chain(*traces),
                  key=lambda f: (f.ts_start, f.src, f.dst))


def _reference_row(f):
    return [f.ts_start, f.duration, f.src, f.dst, f.dst_class,
            f.bytes_initiator, f.bytes_responder, f.leg, f.label]


def _reference_write(path, flows, fmt):
    """write_trace as a csv.writer row or a json.dumps line a record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TRACE_COLUMNS)
            w.writerows(map(_reference_row, flows))
        else:
            fh.writelines(json.dumps(dict(zip(TRACE_COLUMNS,
                                              _reference_row(f))),
                                     sort_keys=True, separators=(",", ":"))
                          + "\n" for f in flows)


# names a CSV writer quotes or a JSON encoder escapes, and braces, which
# str.format reads
_NAMES = st.one_of(
    st.sampled_from(["", "a", "a,b", 'say "hi"', "line\nbreak", "cr\r",
                     " lead", "trail ", "é", "\u2603", "{}", "{0}", "}{",
                     "\\", "\t", "implant-1"]),
    st.text(alphabet=',"\n\r {}\\ab\u00e9', max_size=6))
_KINDS = st.tuples(st.sampled_from(DST_CLASSES), st.sampled_from(LEGS),
                   st.sampled_from(LABELS)).filter(
    lambda k: kind_error(*k) is None)
_INT64 = st.integers(0, 2**62)


@st.composite
def _records(draw):
    dst_class, leg, label = draw(_KINDS)
    return FlowRecord(
        ts_start=draw(st.one_of(st.integers(0, 3), st.integers(-2**62, 2**62))),
        duration=draw(st.one_of(st.integers(0, 3), _INT64)),
        src=draw(st.sampled_from(["a", "b"]) | _NAMES),
        dst=draw(st.sampled_from(["hub", ""]) | _NAMES),
        dst_class=dst_class,
        bytes_initiator=draw(_INT64), bytes_responder=draw(_INT64),
        leg=leg, label=label)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(traces=st.lists(st.lists(_records(), max_size=8), max_size=4),
       as_tables=st.lists(st.booleans(), min_size=4, max_size=4))
def test_merge_and_write_give_the_references_records_and_bytes(
        traces, as_tables, tmp_path_factory):
    # small times and two names make ties within and across traces
    inputs = [FlowTable.from_records(t) if table else t
              for t, table in zip(traces, as_tables)]
    merged = merge_traces(*inputs)
    want = _reference_merge(*traces)
    assert list(merged) == want
    path = tmp_path_factory.mktemp("w") / "t"
    for fmt in ("csv", "jsonl"):
        write_trace(path, merged, fmt=fmt)
        got = path.read_bytes()
        _reference_write(path, want, fmt)
        assert got == path.read_bytes()


# -- the session generators against the per-flow references -------------------------
# The record generators the tables replaced: one FlowRecord and one draw_int
# at a time. Each generator must give their flows and leave each stream
# where they leave it.


def _reference_nonstreaming(turns, profile, stream, *, t_start, src):
    if turns < 1:
        raise ValueError("a session has at least one turn")
    flows = []
    t = t_start
    req = draw_int(stream, profile.request_size, 1)
    for turn in range(turns):
        last = turn == turns - 1
        resp_dist = profile.summary_response if last else profile.response_size
        flows.append(FlowRecord(
            ts_start=t, duration=draw_int(stream, profile.duration, 0),
            src=src, dst="planner", dst_class="planner",
            bytes_initiator=req,
            bytes_responder=draw_int(stream, resp_dist, 1),
            leg="reasoning", label="event_c2"))
        if not last:
            req += draw_int(stream, profile.context_growth, 0)
            t += draw_int(stream, profile.turn_gap, 1)
    return flows


def _reference_streaming(session_length_ms, profile, stream, *, t_start, src):
    n = draw_int(stream, profile.burst_count, 1)
    flows = []
    t = t_start
    deadline = t_start + session_length_ms
    for _ in range(n):
        if t > deadline:
            break
        flows.append(FlowRecord(
            ts_start=t, duration=draw_int(stream, profile.duration, 0),
            src=src, dst="planner", dst_class="planner",
            bytes_initiator=draw_int(stream, profile.burst_size, 1),
            bytes_responder=draw_int(stream, profile.burst_size, 1),
            leg="reasoning", label="event_c2"))
        t += draw_int(stream, profile.burst_interval, 1)
    return flows


def _reference_chaff(per_hour, horizon_ms, profile, stream, *, src):
    if per_hour == 0:
        return []
    gap = chaff_gap(per_hour)
    flows = []
    t = draw_int(stream, gap, 0)
    while t <= horizon_ms:
        flows.append(FlowRecord(
            ts_start=t, duration=draw_int(stream, profile.duration, 0),
            src=src, dst="planner", dst_class="planner",
            bytes_initiator=draw_int(stream, profile.request_size, 1),
            bytes_responder=draw_int(stream, profile.response_size, 1),
            leg="reasoning", label="chaff"))
        t += draw_int(stream, gap, 1)
    return flows


def _reference_background(n_users, model, streams):
    flows = []
    day_ms, hour_ms = 86_400_000, 3_600_000
    days = max(1, -(-model.horizon_ms // day_ms))
    work_start = model.workday_start_hour * hour_ms
    work_len = (model.workday_end_hour - model.workday_start_hour) * hour_ms
    for i in range(n_users):
        st_ = streams(f"user-{i}/background")
        src = f"user-{i}"
        on_count = 0
        off_count = 0
        for day in range(days):
            day_base = day * day_ms
            sessions = draw_int(st_, model.sessions_per_day, 0)
            for _ in range(sessions):
                want_off = st_.unit() < model.off_hours_fraction
                n_flows = draw_int(st_, model.flows_per_session, 1)
                if want_off and ((off_count + n_flows)
                                 / max(1, on_count + off_count + n_flows)
                                 <= model.off_hours_fraction):
                    off_len = day_ms - work_len
                    pos = int(st_.unit() * off_len)
                    start_in_day = pos if pos < work_start else pos + work_len
                    window_end = (work_start if pos < work_start else day_ms)
                    is_off = True
                else:
                    start_in_day = work_start + int(st_.unit() * work_len)
                    window_end = work_start + work_len
                    is_off = False
                dst = traffic._BACKGROUND_DESTINATIONS[
                    bisect.bisect_right(traffic._DESTINATION_BOUNDS,
                                        st_.unit())]
                dst_class = "planner" if dst == "planner" else "benign_service"
                t = day_base + start_in_day
                end = day_base + window_end
                for _ in range(n_flows):
                    if t >= end or t > model.horizon_ms:
                        break
                    flows.append(FlowRecord(
                        ts_start=t, duration=draw_int(st_, model.duration, 0),
                        src=src, dst=dst, dst_class=dst_class,
                        bytes_initiator=draw_int(st_, model.request_size, 1),
                        bytes_responder=draw_int(st_, model.response_size, 1),
                        leg="background", label="benign"))
                    if is_off:
                        off_count += 1
                    else:
                        on_count += 1
                    t += draw_int(st_, model.flow_gap, 1)
    return flows


# name -> (generator, its reference); each takes its stream, or for
# background its factory of streams, right after the arguments a call lists
_SESSION_GENERATORS = {
    "nonstreaming": (synth_reasoning_nonstreaming, _reference_nonstreaming),
    "streaming": (synth_reasoning_streaming, _reference_streaming),
    "chaff": (synth_chaff, _reference_chaff),
    "background": (synth_background, _reference_background),
}
_HOUR_MS, _DAY_MS = 3_600_000, 86_400_000


def _fixed(value: float) -> Dist:
    return Dist("uniform", (value, value))


def _dists(lo: int, hi: int):
    """Draws of about lo to hi: uniform (degenerate among them),
    exponential and lognormal, so a flow takes one or two units a draw."""
    return st.one_of(
        st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
            lambda ab: Dist("uniform", (float(min(ab)), float(max(ab))))),
        st.integers(max(lo, 1), hi).map(
            lambda mean: Dist("exponential", (float(mean),))),
        st.tuples(st.floats(0.0, math.log(hi + 1)), st.floats(0.0, 1.5)).map(
            lambda p: Dist("lognormal", p)))


@st.composite
def _session_calls(draw):
    """(name, args, kwargs) of a call of a session generator."""
    name = draw(st.sampled_from(sorted(_SESSION_GENERATORS)))
    sizes, gaps = _dists(0, 5_000), _dists(0, 30_000)
    if name == "background":
        start = draw(st.integers(0, 23))
        model = WorkdayModel(
            horizon_ms=draw(st.integers(0, 3 * _DAY_MS)),
            sessions_per_day=draw(_dists(0, 6)),
            flows_per_session=draw(_dists(1, 12)),
            flow_gap=draw(_dists(1, 2 * _HOUR_MS)),
            request_size=draw(sizes), response_size=draw(sizes),
            duration=draw(sizes), workday_start_hour=start,
            workday_end_hour=draw(st.integers(start + 1, 24)),
            off_hours_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])
                                    | st.floats(0.0, 1.0)))
        return name, (draw(st.integers(0, 4)), model), {}
    profile = ChannelProfile(
        request_size=draw(sizes), response_size=draw(sizes),
        duration=draw(sizes), context_growth=draw(sizes),
        turn_gap=draw(gaps), summary_response=draw(sizes),
        burst_count=draw(_dists(0, 12)), burst_interval=draw(gaps),
        burst_size=draw(sizes))
    t_start = draw(st.integers(0, 10**6))
    if name == "nonstreaming":
        return name, (draw(st.integers(1, 6)), profile), {
            "t_start": t_start, "src": "imp"}
    if name == "streaming":
        return name, (draw(st.integers(0, 200_000)), profile), {
            "t_start": t_start, "src": "imp"}
    per_hour = draw(st.just(0.0) | st.floats(0.01, 120.0))
    return name, (per_hour, draw(st.integers(0, 6 * _HOUR_MS)), profile), {
        "src": "imp"}


def _background(n_users, **kw):
    return ("background", (n_users, WorkdayModel(**kw)), {})


# 61-flow sessions a minute apart in a one-hour workday, 9:00 to 10:00
_HOURLONG_SESSIONS = dict(sessions_per_day=_fixed(24.0),
                          flows_per_session=_fixed(61.0),
                          flow_gap=_fixed(60_000.0), workday_start_hour=9,
                          workday_end_hour=10, off_hours_fraction=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=_session_calls(), seed=st.integers(0, 2**32))
# the third burst starts at the deadline, its count's last
@example(call=("streaming", (2_000, ChannelProfile(
    burst_count=_fixed(3.0), burst_interval=_fixed(1_000.0))),
    {"t_start": 5, "src": "imp"}), seed=0)
# a one-turn session; a chaff rate of 0
@example(call=("nonstreaming", (1, ChannelProfile()),
               {"t_start": 7, "src": "imp"}), seed=0)
@example(call=("chaff", (0.0, _DAY_MS, ChannelProfile()), {"src": "imp"}),
         seed=0)
# every session is cut by its window; with seed 854 one flow starts at 9:59
# and the next would start at 10:00, the window's end
@example(call=_background(1, horizon_ms=_DAY_MS, **_HOURLONG_SESSIONS),
         seed=854)
# cut by the horizon, which with seed 0 is the start of the first session's
# fifth flow (9:57:44.756)
@example(call=_background(1, horizon_ms=35_864_756, **_HOURLONG_SESSIONS),
         seed=0)
# zero sessions
@example(call=_background(3, horizon_ms=_DAY_MS,
                          sessions_per_day=_fixed(0.0)), seed=0)
# two-flow sessions and a cap of one half: with seed 0, seven off-hours
# sessions are admitted that bring the share exactly to the cap
@example(call=_background(3, horizon_ms=3 * _DAY_MS,
                          sessions_per_day=_fixed(4.0),
                          flows_per_session=_fixed(2.0),
                          flow_gap=_fixed(1_000.0), off_hours_fraction=0.5),
         seed=0)
def test_session_generators_give_their_references_flows_and_draws(call, seed):
    name, args, kwargs = call

    def run(generator):
        opened: dict[str, RngStream] = {}

        def streams(sid):
            return opened.setdefault(sid, RngStream(seed, sid))

        flows = generator(*args, streams if name == "background"
                          else streams(name), **kwargs)
        return flows, {sid: s.unit() for sid, s in opened.items()}

    generator, reference = _SESSION_GENERATORS[name]
    table, after = run(generator)
    records, reference_after = run(reference)
    assert table == FlowTable.from_records(records)
    assert after == reference_after
