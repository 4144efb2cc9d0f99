"""Labeled flow-record synthesis for the communication shapes under study.

Five generators of labeled flows:
  * periodic beacons with bounded jitter (the classic heartbeat channel);
  * sparse event-driven hub contacts, one flow at each time an agent
    fetched or submitted, as the runner logged them;
  * non-streaming reasoning sessions whose request sizes grow turn over turn
    as accumulated context is resent, ending in an enlarged summary response;
  * streaming reasoning sessions: irregular bidirectional bursts;
  * chaff (decoy queries to the planner) and benign background traffic.

Flows are timing and byte-count records only. All sizes and gaps come from
caller-supplied named streams, so traces are reproducible byte for byte.

Every generator returns a FlowTable, the trace held as columns through the
merge and the write. Beacons and hub contacts, nearly every flow of a run,
are drawn in one block of units a call. Chaff, streaming bursts and benign
sessions are each a run of flows spaced by drawn gaps, drawn by one loop,
_run_of_flows. Records become a table only through FlowTable.from_records
and merge_traces.

read_trace is the one trace reader, and returns a FlowTable. A CSV trace in
the layout write_trace writes is read from its bytes with numpy, building no
object per row (_csv_columns): the comma and newline positions give every
cell, the four integer columns are parsed digit by digit, and the (src, dst,
dst_class) and (leg, label) spans of at most 64 bytes are coded exactly by
one sort over their 8-byte words; the table's constructor then checks each
kind by FlowRecord's own rule. The cells' positions come from TRACE_COLUMNS,
the names the writer's templates use. Any other file, such as JSONL, a span
past 64 bytes, or a CSV file that breaks a rule of the format, goes to
_read_records, the reference row reader, which gives the same flows or its
exact diagnostic. Its records stream into FlowTable.from_records, so no list
of them is held.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .engine import Dist, RngStream, draw_int, draw_ints

DST_HUB = "hub"
DST_PLANNER = "planner"
DST_BENIGN = "benign_service"
DST_CLASSES = (DST_HUB, DST_PLANNER, DST_BENIGN)

LEG_TASKING = "tasking"
LEG_REASONING = "reasoning"
LEG_BACKGROUND = "background"
LEGS = (LEG_TASKING, LEG_REASONING, LEG_BACKGROUND)

LABEL_BEACON = "beacon_c2"
LABEL_EVENT = "event_c2"
LABEL_CHAFF = "chaff"
LABEL_BENIGN = "benign"
LABELS = (LABEL_BEACON, LABEL_EVENT, LABEL_CHAFF, LABEL_BENIGN)

_HOUR_MS = 3_600_000
_DAY_MS = 86_400_000

# Sizes and durations of an event-driven agent's hub contacts; the scenario
# parser bounds horizon_ms by the largest duration
_TASKING_REQUEST = Dist("lognormal", (6.9, 0.3))
_TASKING_RESPONSE = Dist("lognormal", (8.0, 0.5))
TASKING_DURATION = Dist("lognormal", (5.3, 0.4))

# Where benign users' sessions go, and the running sums of their shares 0.4,
# 0.2, 0.2, 0.2: the last is exactly 1.0, so every unit in [0, 1) picks one
_BACKGROUND_DESTINATIONS = (DST_PLANNER, "svc-mail", "svc-repo", "svc-files")
_DESTINATION_BOUNDS = tuple(itertools.accumulate((0.4, 0.2, 0.2, 0.2)))

TRACE_COLUMNS = ("ts_start_ms", "duration_ms", "src", "dst", "dst_class",
                 "bytes_init", "bytes_resp", "leg", "label")
_COLUMN_SET = frozenset(TRACE_COLUMNS)
# FlowRecord's field types, in TRACE_COLUMNS order
_CELL_TYPES = (int, int, str, str, str, int, int, str, str)
_INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")  # str() of an int, nothing else
# the trace columns of FlowTable.ints' rows, and of a kind
_INT_COLUMNS = ("ts_start_ms", "duration_ms", "bytes_init", "bytes_resp")
_KIND_COLUMNS = ("src", "dst", "dst_class", "leg", "label")
Kind = tuple[str, str, str, str, str]
# a flow as FlowTable.from_rows takes it: kind, ts, duration, bytes_init,
# bytes_resp
Row = tuple[Kind, int, int, int, int]
_INT64_MAX = 2**63 - 1
_CHUNK = 1 << 16  # rows turned into Python objects at a time


@dataclass(frozen=True, slots=True)
class FlowRecord:
    ts_start: int
    duration: int
    src: str
    dst: str
    dst_class: str
    bytes_initiator: int
    bytes_responder: int
    leg: str
    label: str

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.bytes_initiator < 0 or self.bytes_responder < 0:
            raise ValueError("byte counts must be non-negative")
        if problem := kind_error(self.dst_class, self.leg, self.label):
            raise ValueError(problem)


def kind_error(dst_class: str, leg: str, label: str) -> str | None:
    """FlowRecord's message for a (dst_class, leg, label) it refuses, or None."""
    if dst_class not in DST_CLASSES:
        return f"bad dst_class {dst_class!r}"
    if leg not in LEGS:
        return f"bad leg {leg!r}"
    if label not in LABELS:
        return f"bad label {label!r}"
    if label == LABEL_BEACON and leg != LEG_TASKING:
        return "beacon flows ride the tasking leg"
    if label == LABEL_CHAFF and dst_class != DST_PLANNER:
        return "chaff targets the planner"
    return None


class FlowTable:
    """A trace held as columns, one entry per flow in trace order.

    ints holds four int64 rows, which are also attributes: ts, duration,
    bytes_init and bytes_resp. kind (intp) indexes kinds, the sorted
    distinct (src, dst, dst_class, leg, label) tuples the table uses. The
    form is canonical, so two tables are equal exactly when their records
    are. Iterating yields FlowRecords; from_records is the one way records
    become a table.
    """

    __slots__ = ("kinds", "kind", "ints", "ts", "duration", "bytes_init",
                 "bytes_resp")

    def __init__(self, kinds: Sequence[Kind], kind, ints):
        """kind and the four rows of ints are arrays or sequences of ints.
        Refuses what FlowRecord refuses, checking each kind the rows use
        once by kind_error, and an integer or a flow's end, ts + duration,
        outside int64, which the trace's readers refuse."""
        kind = np.asarray(kind, dtype=np.intp)
        try:
            ints = np.asarray(ints, dtype=np.int64)
        except OverflowError:  # a Python int past int64, which no cast may wrap
            column, bad = next((c, v) for c, row in zip(_INT_COLUMNS, ints)
                               for v in row if not -2**63 <= v <= _INT64_MAX)
            raise ValueError(f"{column} {bad} is outside the int64 range"
                             ) from None
        if kind.ndim != 1 or ints.shape != (4, len(kind)):
            raise ValueError("a FlowTable holds a kind and 4 integers a flow")
        if len(kind) and not (0 <= kind.min() and kind.max() < len(kinds)):
            raise ValueError("a FlowTable's kind indexes past its kinds")
        used = np.bincount(kind, minlength=len(kinds)).nonzero()[0].tolist()
        distinct = sorted({tuple(kinds[i]) for i in used})
        for k in distinct:
            if problem := kind_error(*k[2:]):
                raise ValueError(problem)
        ts, duration = ints[0], ints[1]
        if ints[1:].min(initial=0) < 0:
            raise ValueError("duration must be non-negative"
                             if duration.min() < 0
                             else "byte counts must be non-negative")
        if (ts > _INT64_MAX - duration).any():
            raise ValueError("ts_start_ms + duration_ms is outside the int64 "
                             "range")
        if [tuple(k) for k in kinds] != distinct:
            index = {k: i for i, k in enumerate(distinct)}
            remap = np.zeros(len(kinds), np.intp)
            remap[used] = [index[tuple(kinds[i])] for i in used]
            kind = remap[kind]
        self.kinds: list[Kind] = distinct
        self.kind = kind
        self.ints = ints
        self.ts, self.duration, self.bytes_init, self.bytes_resp = ints

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> FlowTable:
        """The table of (kind, ts, duration, bytes_init, bytes_resp) rows,
        in their order. Rows are read one at a time, so a generator of them
        is never held whole."""
        index: dict[Kind, int] = {}
        kind: list[int] = []
        ints: list[list[int]] = [[], [], [], []]
        ts, duration, bytes_init, bytes_resp = ints
        for k, t, d, b_init, b_resp in rows:
            kind.append(index.setdefault(k, len(index)))
            ts.append(t)
            duration.append(d)
            bytes_init.append(b_init)
            bytes_resp.append(b_resp)
        return cls(list(index), kind, ints)

    @classmethod
    def from_records(cls, flows: Iterable[FlowRecord]) -> FlowTable:
        """The table of flow records, in their order."""
        return cls.from_rows(
            ((f.src, f.dst, f.dst_class, f.leg, f.label), f.ts_start,
             f.duration, f.bytes_initiator, f.bytes_responder) for f in flows)

    def take(self, rows) -> FlowTable:
        """The table of the rows that rows selects, a boolean mask or row
        numbers, in that order."""
        return FlowTable(self.kinds, self.kind[rows], self.ints[:, rows])

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self) -> Iterator[FlowRecord]:
        kinds = self.kinds
        for lo in range(0, len(self), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            for k, t, d, b_init, b_resp in zip(self.kind[rows].tolist(),
                                                *self.ints[:, rows].tolist()):
                src, dst, dst_class, leg, label = kinds[k]
                yield FlowRecord(t, d, src, dst, dst_class, b_init, b_resp,
                                 leg, label)

    def __eq__(self, other):
        if not isinstance(other, FlowTable):
            return NotImplemented
        return (self.kinds == other.kinds
                and np.array_equal(self.kind, other.kind)
                and np.array_equal(self.ints, other.ints))

    def __repr__(self) -> str:
        return f"<FlowTable: {len(self)} flows of {len(self.kinds)} kinds>"


@dataclass(frozen=True)
class BeaconConfig:
    horizon_ms: int
    src: str
    dst: str
    interval_ms: int = 60_000
    jitter_fraction: float = 0.1
    request_size: Dist = Dist("uniform", (580.0, 620.0))
    response_size: Dist = Dist("uniform", (280.0, 320.0))
    duration: Dist = Dist("uniform", (40.0, 120.0))

    def __post_init__(self):
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if not (0.0 <= self.jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.horizon_ms < 0:
            raise ValueError("horizon_ms must be non-negative")


@dataclass(frozen=True)
class ChannelProfile:
    """One agent's planner channel, the keys of [channels]: sizes and pacing,
    burst trains when streaming, and chaff_per_hour decoy queries an hour."""

    request_size: Dist = Dist("lognormal", (7.2, 0.4))
    response_size: Dist = Dist("lognormal", (8.5, 0.6))
    duration: Dist = Dist("lognormal", (6.9, 0.5))
    context_growth: Dist = Dist("lognormal", (7.8, 0.7))
    turn_gap: Dist = Dist("exponential", (9000.0,))
    summary_response: Dist = Dist("lognormal", (10.4, 0.4))
    burst_count: Dist = Dist("uniform", (8.0, 40.0))
    burst_interval: Dist = Dist("lognormal", (8.0, 1.2))
    burst_size: Dist = Dist("lognormal", (6.5, 1.0))
    streaming: bool = False
    chaff_per_hour: float = 0.0


@dataclass(frozen=True)
class WorkdayModel:
    """Benign user population: sessions inside working hours with a capped
    fraction allowed outside them."""

    horizon_ms: int
    sessions_per_day: Dist = Dist("uniform", (3.0, 7.0))
    flows_per_session: Dist = Dist("uniform", (3.0, 12.0))
    flow_gap: Dist = Dist("exponential", (20000.0,))
    request_size: Dist = Dist("lognormal", (7.5, 0.9))
    response_size: Dist = Dist("lognormal", (9.0, 1.1))
    duration: Dist = Dist("lognormal", (7.0, 0.8))
    workday_start_hour: int = 9
    workday_end_hour: int = 17
    off_hours_fraction: float = 0.1

    def __post_init__(self):
        if not (0 <= self.workday_start_hour < self.workday_end_hour <= 24):
            raise ValueError("need 0 <= start < end <= 24")
        if not (0.0 <= self.off_hours_fraction <= 1.0):
            raise ValueError("off_hours_fraction must be in [0, 1]")


# -- beacons -------------------------------------------------------------------


def beacon_ticks(cfg: BeaconConfig, stream: RngStream) -> Iterator[int]:
    """Anchored jittered schedule: tick k sits at k*interval + delta_k with
    |delta_k| <= jitter*interval/2.

    Anchoring each tick to its grid slot (instead of accumulating per-gap
    noise) keeps every inter-arrival inside interval*(1 +/- jitter) and pins
    the tick count to floor(horizon/interval) plus or minus one. Each grid
    slot takes one stream.unit(), and delta_k is that unit's
    round((2u - 1) * jitter*interval/2), half to even. Ticks are yielded in
    slot order.

    The units are drawn as ticks are consumed, in blocks of slots that start
    at 16 and double up to 4,096, so a run that stops early never draws the
    rest of the horizon. No block reaches past the last slot: a generator
    run to its end leaves the stream where one unit() a slot leaves it, and
    synth_beacon_trace draws the flow sizes from the same stream after the
    ticks. A generator stopped early may have drawn up to one block ahead,
    which is safe only while no other code draws from its stream; the
    manual runner gives each one an {entity}/beacon stream of its own.
    """
    interval, horizon = cfg.interval_ms, cfg.horizon_ms
    half = cfg.jitter_fraction * interval / 2.0
    # the largest k with k * interval <= horizon + half: k * interval -
    # horizon is an int, so it is at most half exactly when it is at most
    # floor(half), and the sum stays an int (horizon + half would round)
    last = (horizon + math.floor(half)) // interval
    # int64 holds every tick, and each step to it, when the last anchor
    # plus half does; past that, ticks are Python ints, one slot at a time
    in_int64 = max(last * interval + math.ceil(half), horizon) < 2**63
    k, size = 1, 16
    while k <= last:
        n = min(size, last - k + 1)
        delta = np.rint((2.0 * stream.units(n) - 1.0) * half)
        if in_int64:
            t = (np.arange(k, k + n, dtype=np.int64) * interval
                 + delta.astype(np.int64))
            yield from t[(0 <= t) & (t <= horizon)].tolist()
        else:
            for slot, d in enumerate(delta.tolist(), k):
                t = slot * interval + int(d)
                if 0 <= t <= horizon:
                    yield t
        k += n
        size = min(2 * size, 4096)


def _flows_at(times: Iterable[int], stream: RngStream, kind: Kind,
              duration: Dist, request: Dist, response: Dist) -> FlowTable:
    """One flow of kind at each of times. Its duration (at least 0) and its
    request and response sizes (at least 1) are drawn in that order, flow
    after flow, as draw_int would draw them: all in one block of units."""
    ts = list(times)
    draws = (("duration_ms", duration, 0), ("bytes_init", request, 1),
             ("bytes_resp", response, 1))
    width = sum(dist.units_per_draw for _, dist, _ in draws)
    block = stream.units(len(ts) * width).reshape(len(ts), width)
    columns, at = [], 0
    for column, dist, least in draws:
        try:
            columns.append(draw_ints(block[:, at:at + dist.units_per_draw],
                                     dist, least))
        except ValueError as exc:
            raise ValueError(f"{column}: {exc}") from None
        at += dist.units_per_draw
    return FlowTable([kind], np.zeros(len(ts), np.intp), [ts, *columns])


def flows_at_ticks(ticks: Iterable[int], cfg: BeaconConfig,
                   stream: RngStream) -> FlowTable:
    return _flows_at(ticks, stream,
                     (cfg.src, cfg.dst, DST_HUB, LEG_TASKING, LABEL_BEACON),
                     cfg.duration, cfg.request_size, cfg.response_size)


def synth_beacon_trace(cfg: BeaconConfig, stream: RngStream) -> FlowTable:
    # every tick is drawn before any flow size: both come from one stream
    return flows_at_ticks(list(beacon_ticks(cfg, stream)), cfg, stream)


# -- event-driven hub contact ----------------------------------------------------


def synth_event_flows(times: Iterable[int], stream: RngStream, *,
                      src: str) -> FlowTable:
    """One tasking-leg flow from src to the hub at each of its hub contact
    times, a fetch or a submit; src is the implant, not the hub-issued id."""
    return _flows_at(times, stream,
                     (src, DST_HUB, DST_HUB, LEG_TASKING, LABEL_EVENT),
                     TASKING_DURATION, _TASKING_REQUEST, _TASKING_RESPONSE)


# -- reasoning sessions -----------------------------------------------------------


def _run_of_flows(kind: Kind, stream: RngStream, t: int, count: float,
                  last: int, duration: Dist, request: Dist, response: Dist,
                  gap: Dist) -> list[Row]:
    """The rows of up to count flows of kind, the first at t and each next
    one its gap later, stopping before the first flow that starts past
    last. Each flow draws its duration (at least 0), request and response
    sizes (at least 1), then its gap (at least 1), in that order."""
    rows: list[Row] = []
    while len(rows) < count and t <= last:
        rows.append((kind, t, draw_int(stream, duration, 0),
                     draw_int(stream, request, 1),
                     draw_int(stream, response, 1)))
        t += draw_int(stream, gap, 1)
    return rows


def synth_reasoning_nonstreaming(turns: int, profile: ChannelProfile,
                                 stream: RngStream, *, t_start: int,
                                 src: str) -> FlowTable:
    """Request-per-turn session: initiator bytes grow monotonically because
    each turn resends the accumulated context, and the final response is the
    enlarged summary."""
    if turns < 1:
        raise ValueError("a session has at least one turn")
    kind = (src, DST_PLANNER, DST_PLANNER, LEG_REASONING, LABEL_EVENT)
    rows = []
    t = t_start
    req = draw_int(stream, profile.request_size, 1)
    for turn in range(turns):
        last = turn == turns - 1
        resp_dist = profile.summary_response if last else profile.response_size
        rows.append((kind, t, draw_int(stream, profile.duration, 0), req,
                     draw_int(stream, resp_dist, 1)))
        if not last:
            req += draw_int(stream, profile.context_growth, 0)
            t += draw_int(stream, profile.turn_gap, 1)
    return FlowTable.from_rows(rows)


def synth_reasoning_streaming(session_length_ms: int, profile: ChannelProfile,
                              stream: RngStream, *, t_start: int,
                              src: str) -> FlowTable:
    """Streaming session: an irregular burst train, bidirectional throughout."""
    if session_length_ms < 0:
        raise ValueError("session length must be non-negative")
    return FlowTable.from_rows(_run_of_flows(
        (src, DST_PLANNER, DST_PLANNER, LEG_REASONING, LABEL_EVENT), stream,
        t_start, draw_int(stream, profile.burst_count, 1),
        t_start + session_length_ms, profile.duration, profile.burst_size,
        profile.burst_size, profile.burst_interval))


# -- chaff and background ----------------------------------------------------------


def chaff_gap(per_hour: float) -> Dist:
    """The gap between decoy queries at per_hour > 0 a hour: exponential, so
    the queries arrive as a Poisson process. Raises ParameterError for a rate
    so low that the largest gap is not a finite number."""
    return Dist("exponential", (_HOUR_MS / per_hour,))


def synth_chaff(per_hour: float, horizon_ms: int, profile: ChannelProfile,
                stream: RngStream, *, src: str) -> FlowTable:
    """Genuinely benign-shaped decoy queries at a configured hourly rate."""
    if per_hour < 0:
        raise ValueError("per_hour must be non-negative")
    if per_hour == 0:
        return FlowTable.from_rows([])
    gap = chaff_gap(per_hour)
    return FlowTable.from_rows(_run_of_flows(
        (src, DST_PLANNER, DST_PLANNER, LEG_REASONING, LABEL_CHAFF), stream,
        draw_int(stream, gap, 0), math.inf, horizon_ms, profile.duration,
        profile.request_size, profile.response_size, gap))


def synth_background(n_users: int, model: WorkdayModel,
                     streams: Callable[[str], RngStream]) -> FlowTable:
    """Benign user population traffic.

    Sessions land inside working hours by default; a session may start in the
    off-hours region only while the user's off-hours flow share stays at or
    under the configured fraction, which makes the cap a hard bound rather
    than an expectation.
    """
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    rows: list[Row] = []
    days = max(1, -(-model.horizon_ms // _DAY_MS))  # ceil division
    work_start = model.workday_start_hour * _HOUR_MS
    work_len = (model.workday_end_hour - model.workday_start_hour) * _HOUR_MS
    for i in range(n_users):
        st = streams(f"user-{i}/background")
        src = f"user-{i}"
        on_count = 0
        off_count = 0
        for day in range(days):
            day_base = day * _DAY_MS
            sessions = draw_int(st, model.sessions_per_day, 0)
            for _ in range(sessions):
                want_off = st.unit() < model.off_hours_fraction
                # admit an off-hours session only if the running share allows it
                n_flows = draw_int(st, model.flows_per_session, 1)
                if want_off and ((off_count + n_flows)
                                 / max(1, on_count + off_count + n_flows)
                                 <= model.off_hours_fraction):
                    off_len = _DAY_MS - work_len
                    pos = int(st.unit() * off_len)
                    start_in_day = pos if pos < work_start else pos + work_len
                    window_end = (work_start if pos < work_start else _DAY_MS)
                    is_off = True
                else:
                    start_in_day = work_start + int(st.unit() * work_len)
                    window_end = work_start + work_len
                    is_off = False
                dst = _BACKGROUND_DESTINATIONS[
                    bisect.bisect_right(_DESTINATION_BOUNDS, st.unit())]
                dst_class = DST_PLANNER if dst == DST_PLANNER else DST_BENIGN
                # a flow may start before the window's end, and by the horizon
                session = _run_of_flows(
                    (src, dst, dst_class, LEG_BACKGROUND, LABEL_BENIGN), st,
                    day_base + start_in_day, n_flows,
                    min(day_base + window_end - 1, model.horizon_ms),
                    model.duration, model.request_size, model.response_size,
                    model.flow_gap)
                rows += session
                if is_off:
                    off_count += len(session)
                else:
                    on_count += len(session)
    return FlowTable.from_rows(rows)


# -- merge and I/O -------------------------------------------------------------------


def merge_traces(*traces: FlowTable | Iterable[FlowRecord]) -> FlowTable:
    """Stable merge ordered by (ts_start, src, dst): flows that tie keep
    their order, the traces' in argument order. Each trace is a FlowTable
    or flow records."""
    tables = [t if isinstance(t, FlowTable) else FlowTable.from_records(t)
              for t in traces]
    kinds = [k for t in tables for k in t.kinds]
    offsets = itertools.accumulate((len(t.kinds) for t in tables), initial=0)
    kind = np.concatenate([np.zeros(0, np.intp)]
                          + [t.kind + off for t, off in zip(tables, offsets)])
    ints = np.concatenate([np.zeros((4, 0), np.int64)]
                          + [t.ints for t in tables], axis=1)
    pairs = {pair: i for i, pair in enumerate(sorted({k[:2] for k in kinds}))}
    pair_rank = np.array([pairs[k[:2]] for k in kinds], np.intp)
    order = np.lexsort((pair_rank[kind], ints[0]))
    return FlowTable(kinds, kind[order], ints[:, order])


def _cells(*cells: str) -> str:
    """csv.writer's text for a row of string cells, without its line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _csv_template(kind: Kind) -> str:
    # csv.writer writes a row of one empty cell as "", but neither group is
    # one: dst_class and leg, which FlowTable checks, are never empty
    return ("{},{}," + _literal(_cells(*kind[:3])) + ",{},{},"
            + _literal(_cells(*kind[3:])) + "\n")


def _jsonl_template(kind: Kind) -> str:
    text = dict(zip(_KIND_COLUMNS, kind))
    return "{{" + ",".join(
        json.dumps(c) + ":" + (_literal(json.dumps(text[c])) if c in text
                               else "{}")
        for c in sorted(TRACE_COLUMNS)) + "}}\n"


def _literal(text: str) -> str:
    """text as a str.format template that formats to itself."""
    return text.replace("{", "{{").replace("}", "}}")


# format -> (the template of a kind's rows, the rows of FlowTable.ints
# that fill its slots in order)
_WRITERS = {
    "csv": (_csv_template, [0, 1, 2, 3]),
    "jsonl": (_jsonl_template, [_INT_COLUMNS.index(c)
                                for c in sorted(TRACE_COLUMNS)
                                if c in _INT_COLUMNS]),
}


def write_trace(path, table: FlowTable, fmt: str = "csv") -> None:
    """Write a trace's FlowTable as CSV (the header, then one row a flow) or
    as JSONL (one object a flow, keys sorted).

    Each kind's string cells are encoded once, by csv.writer or by the JSON
    string encoder, into a template of its rows; a row is its kind's
    template filled with the row's integers by str().
    """
    if fmt not in _WRITERS:
        raise ValueError(f"unknown trace format {fmt!r}")
    template, slots = _WRITERS[fmt]
    templates = np.array([template(k) for k in table.kinds], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            csv.writer(fh, lineterminator="\n").writerow(TRACE_COLUMNS)
        for lo in range(0, len(table), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            fh.writelines(map(str.format, templates[table.kind[rows]].tolist(),
                              *table.ints[slots, rows].tolist()))


_HEADER = (",".join(TRACE_COLUMNS) + "\n").encode()
# The longest span _distinct codes (8 words): its sort holds rows x words x 8
# bytes. simulate writes at most 37 (user-3999999,svc-files,benign_service).
_MAX_SPAN = 64


def _csv_columns(path) -> FlowTable | None:
    """The flow table of a CSV trace, or None for a file this reader leaves
    to _read_records.

    It takes a file that is the exact header line and then rows of 8 commas
    and a newline, in ASCII without a double quote, CR or NUL, so that
    csv.reader splits each row at its commas. Each integer cell is 1 to 18
    digits with no sign and no leading zero, so it and ts + duration are
    below 2^63. Each string span is at most _MAX_SPAN bytes, and the table
    of the rows must pass FlowTable's constructor, which checks each
    (dst_class, leg, label) by FlowRecord's own rule. _read_records
    accepts every such file and reads the same flows from it. Memory is the file,
    one array of the rows' comma and newline positions, and the table's
    columns.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None   # a pipe can be read only once: by _read_records
        n_bytes = info.st_size
        # 8 bytes past the end, so that a word can be read at every offset
        buf = np.zeros(n_bytes + 8, np.uint8)
        if fh.readinto(buf[:n_bytes]) != n_bytes or fh.read(1):
            return None   # the file changed size while it was read
    if (n_bytes <= len(_HEADER) or buf[:len(_HEADER)].tobytes() != _HEADER
            or buf[n_bytes - 1] != ord("\n")):
        return None
    # 1 a comma, 2 a newline, 3 a byte csv.reader or the UTF-8 decoder may
    # read otherwise: non-ASCII, a double quote, CR or NUL. Every row must
    # be 8 1s and a 2, so one 3 anywhere leaves the file to _read_records.
    table = np.zeros(256, np.uint8)
    table[[ord(","), ord("\n")]] = 1, 2
    table[[0, ord("\r"), ord('"')]] = 3
    table[128:] = 3
    kind = table[buf[:n_bytes]]
    ends = np.flatnonzero(kind)
    if len(ends) % 9 or np.any(kind[ends].reshape(-1, 9) != [1] * 8 + [2]):
        return None
    del kind
    # the comma or newline after each field, the header's row first
    ends = ends.reshape(-1, 9)

    def cells(first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's bytes from the start of field first to the end of
        field last, as start and end offsets."""
        before = ends[:-1, 8] if first == 0 else ends[1:, first - 1]
        return before + 1, ends[1:, last]

    at = TRACE_COLUMNS.index
    ints = [_decimals(buf, *cells(at(c), at(c))) for c in _INT_COLUMNS]
    # (src, dst, dst_class) and (leg, label), each coded as one span
    distinct = [_distinct(buf, *cells(at(span[0]), at(span[-1])))
                for span in (_KIND_COLUMNS[:3], _KIND_COLUMNS[3:])]
    if any(v is None for v in ints) or any(d is None for d in distinct):
        return None
    (triples, triple_of), (pairs, pair_of) = distinct
    # each row's kind, coded triple x pairs + pair
    codes, kind_of = np.unique(triple_of * len(pairs) + pair_of,
                               return_inverse=True)
    kinds = [(*triples[c // len(pairs)], *pairs[c % len(pairs)])
             for c in codes.tolist()]
    try:   # FlowTable refuses what FlowRecord does: _read_records says why
        return FlowTable(kinds, kind_of, ints)
    except ValueError:
        return None


def _decimals(buf: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> np.ndarray | None:
    """Each cell buf[start:end] as an int64, or None unless every cell is 1
    to 18 decimal digits without a leading zero, as str() writes an int in
    [0, 10^18)."""
    lengths = ends - starts
    if (lengths.min() < 1 or lengths.max() > 18
            or np.any((buf[starts] == ord("0")) & (lengths > 1))):
        return None
    values = np.zeros(len(starts), np.int64)
    last = ends - 1
    for k in range(int(lengths.max())):   # the digits worth 10^k
        digit = buf[last - k] - np.uint8(ord("0"))   # others wrap past 9
        digit[lengths <= k] = 0
        if digit.max() > 9:
            return None
        values += digit.astype(np.int64) * 10 ** k
    return values


def _distinct(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
              ) -> tuple[list[list[str]], np.ndarray] | None:
    """The distinct ASCII spans buf[start:end], each split at its commas,
    and each span's index into them; or None past _MAX_SPAN bytes.

    A span is read as its 8-byte words, masked to its bytes. No span holds a
    NUL, so two spans are equal exactly when their words are. One lexsort
    over the word columns puts equal spans side by side, and a span whose
    words differ from the one before it starts a new index.
    """
    lengths = ends - starts
    if lengths.max() > _MAX_SPAN:
        return None
    words = np.ndarray(len(buf) - 7, np.dtype("<u8"), buffer=buf, strides=(1,))
    # a word's first r bytes, for r in [0, 8]
    masks = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)

    def word(j: int) -> np.ndarray:
        # a span shorter than 8 j bytes may start its word past the file;
        # its mask is 0, so where it reads is of no account. (take() would
        # copy the whole unaligned view first.)
        at = np.minimum(starts + 8 * j, len(words) - 1)
        return words[at] & masks[np.clip(lengths - 8 * j, 0, 8)]

    columns = [word(j) for j in range(-(-int(lengths.max()) // 8))]
    order = np.lexsort(columns)
    # a span is new where a word differs: uint64 diffs wrap, but 0 iff equal
    new = np.ones(len(order), bool)
    new[1:] = np.any([np.diff(column[order]) != 0 for column in columns], 0)
    codes = np.empty(len(order), np.intp)
    codes[order] = np.cumsum(new) - 1
    firsts = order[new]
    return ([buf[s:e].tobytes().decode("ascii").split(",")
             for s, e in zip(starts[firsts], ends[firsts])], codes)


def _parse_row(cells: list, row_no: int, text: bool) -> FlowRecord:
    """One trace row, cells in TRACE_COLUMNS order, each of its column's type
    exactly: an integer is the decimal text write_trace writes (CSV,
    text=True) or a JSON integer that is not a bool (JSONL), in int64 range,
    and the flow's end time is too; every other cell is a string."""
    if text:
        try:
            cells = [int(c) if kind is int and _INT_TEXT.fullmatch(c) else c
                     for c, kind in zip(cells, _CELL_TYPES)]
        except ValueError as exc:  # past int()'s limit on digits
            raise ValueError(f"malformed trace row {row_no}: {exc}") from exc
    if tuple(map(type, cells)) != _CELL_TYPES:
        column, value, kind = next(
            cell for cell in zip(TRACE_COLUMNS, cells, _CELL_TYPES)
            if type(cell[1]) is not cell[2])
        raise ValueError(f"malformed trace row {row_no}: {column} is "
                         f"{value!r}, not {kind.__name__}")
    # the detector holds times and sizes in int64 arrays
    ints = (cells[0], cells[1], cells[5], cells[6], cells[0] + cells[1])
    if min(ints) < -2**63 or max(ints) >= 2**63:
        raise ValueError(f"malformed trace row {row_no}: an integer cell or "
                         "ts_start_ms + duration_ms is outside the int64 range")
    try:
        return FlowRecord(*cells)
    except ValueError as exc:
        raise ValueError(f"malformed trace row {row_no}: {exc}") from exc


def read_trace(path) -> FlowTable:
    """The flow table of a trace written by write_trace. A CSV trace is read
    from its bytes with numpy (_csv_columns); any other file, JSONL among
    them, goes to _read_records, the reference reader, which gives the same
    flows or its exact diagnostic."""
    table = _csv_columns(path)
    if table is None:
        table = FlowTable.from_records(_read_records(path))
    return table


def _read_records(path) -> Iterator[FlowRecord]:
    """The flows of a trace, one record at a time; the format is sniffed
    from content. Raises ValueError, naming the row, for a malformed one."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            for i, line in enumerate(fh, start=1):
                try:
                    values = json.loads(line)
                except ValueError as exc:  # not JSON, or too many digits
                    raise ValueError(f"malformed trace row {i}: {exc}") from exc
                if not isinstance(values, dict) or values.keys() != _COLUMN_SET:
                    raise ValueError(f"malformed trace row {i}: expected an "
                                     f"object with the keys {TRACE_COLUMNS}")
                yield _parse_row([values[c] for c in TRACE_COLUMNS], i,
                                 text=False)
            return
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"malformed trace row 1: header {header!r}")
        for i, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row {i}: {len(row)} fields, "
                                 f"expected {len(TRACE_COLUMNS)}")
            yield _parse_row(row, i, text=True)
