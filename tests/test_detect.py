"""Detector component checks against independent oracles.

The ACF comparison uses a direct O(n^2) reimplementation, the periodogram
comparison a direct O(k*M) DFT over the occupied bins, and the AUC
comparison the integer Mann-Whitney statistic, so the fast paths are
validated against slow unambiguous math rather than against themselves.
Both ACF methods (sparse over event positions, dense by FFT) and both
periodogram methods (sparse over event positions, a NUFFT over the band)
are checked, and so is the choice between them.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math
import random
import statistics
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sim import detect
from c2sim.detect import (
    BIN_MS,
    MAX_BINS,
    BeaconScore,
    ChannelSeries,
    acf_period,
    evaluate,
    group_channels,
    interval_regularity,
    periodogram_strength,
    report_records,
    score_channel,
    size_uniformity,
    write_report,
    write_roc_csv,
    _auc_from_points,
    _roc_points,
)
from c2sim.engine import Dist, RngStream
from c2sim.orchestrate import run_scenario
from c2sim.scenario import (MODE_MANUAL, default_scenario_text,
                            parse_scenario)
from c2sim.traffic import (
    DST_CLASSES,
    LABELS,
    LEGS,
    TRACE_COLUMNS,
    BeaconConfig,
    FlowRecord,
    FlowTable,
    WorkdayModel,
    merge_traces,
    read_trace,
    synth_background,
    synth_beacon_trace,
    write_trace,
    _csv_columns,
    _read_records,
)


def _series(arrivals, sizes=None, key=("a", "b"), label="benign", n_flows=None):
    sizes = sizes if sizes is not None else [100] * len(arrivals)
    return ChannelSeries(key=key, arrivals=list(arrivals), sizes=list(sizes),
                         n_flows=n_flows or len(arrivals), label=label)


def _flow(ts, src, dst, size=100, label="benign", leg="background",
          dst_class="benign_service"):
    return FlowRecord(ts_start=ts, duration=5, src=src, dst=dst,
                      dst_class=dst_class, bytes_initiator=size,
                      bytes_responder=200, leg=leg, label=label)


def _beacon_series(interval_ms, jitter, horizon_ms, seed=0, label="beacon_c2"):
    cfg = BeaconConfig(interval_ms=interval_ms, jitter_fraction=jitter,
                       horizon_ms=horizon_ms, src="imp", dst="c2")
    flows = synth_beacon_trace(cfg, RngStream(seed, f"test/{seed}"))
    return _series([f.ts_start for f in flows],
                   [f.bytes_initiator for f in flows], label=label)


# -- grouping ------------------------------------------------------------------


def _as_lists(series: list[ChannelSeries]) -> list[tuple]:
    """Each series' fields, its int64 arrays as lists, to compare by value."""
    for s in series:
        assert s.arrivals.dtype == s.sizes.dtype == np.int64
    return [(s.key, s.arrivals.tolist(), s.sizes.tolist(), s.n_flows, s.label)
            for s in series]


def test_group_channels_partitions_the_trace():
    trace = [_flow(1, "a", "x"), _flow(2, "a", "x"), _flow(2, "a", "x"),
             _flow(9, "b", "x"), _flow(3, "a", "y")]
    series = group_channels(FlowTable.from_records(trace))
    assert [s.key for s in series] == [("a", "x"), ("a", "y"), ("b", "x")]
    assert sum(s.n_flows for s in series) == len(trace)
    ax = series[0]
    # equal stamps deduped
    assert _as_lists([ax]) == [(("a", "x"), [1, 2], [100, 100], 3, "benign")]
    assert len(ax.arrivals) == len(ax.sizes)


def test_group_channels_label_priority():
    trace = [_flow(1, "a", "x"), _flow(2, "a", "x", label="beacon_c2",
                                       leg="tasking", dst_class="hub")]
    assert group_channels(FlowTable.from_records(trace))[0].label == "beacon_c2"


# -- reading a trace as columns ------------------------------------------------


# names that csv.writer writes unquoted, as simulate's are
_PLAIN = st.characters(min_codepoint=1, max_codepoint=127,
                       exclude_characters=',"\r\n')
_NAMES = st.one_of(st.sampled_from(["a", "b", "implant-1"]),
                   st.text(_PLAIN, max_size=4))
_VALID_KINDS = [(c, leg, label) for c, leg, label
                in itertools.product(DST_CLASSES, LEGS, LABELS)
                if (label != "beacon_c2" or leg == "tasking")
                and (label != "chaff" or c == "planner")]
_TIMES = st.one_of(st.integers(0, 20), st.integers(0, 2**62))
_SIZES = st.integers(0, 10**6)


@st.composite
def _flows(draw):
    dst_class, leg, label = draw(st.sampled_from(_VALID_KINDS))
    return FlowRecord(draw(_TIMES), draw(_SIZES), draw(_NAMES), draw(_NAMES),
                      dst_class, draw(_SIZES), draw(_SIZES), leg, label)


# Edits to a trace's text that read_trace accepts or refuses, and that the
# column reader takes or leaves to it: integer texts str() never writes, 18
# to 20 digits and the int64 edge; an empty, quoted, non-ASCII, NUL or CR
# name; dst_class, leg and label values in and out of their sets and the
# cross-field rules; rows of 8 or 10 fields, or a newline in place of the
# comma after src; and whole-text edits.
_INT_TEXTS = ["07", "00", "-0", "+7", " 7", "1_000", "\u0663", "9" * 18,
              "1" + "0" * 18, "1" + "0" * 19, str(2**63 - 1), str(2**63), ""]
_NAME_TEXTS = ["", '"a,b"', '"x"', "\u00e9", "a\x00b", "a\rb", "\ufeffa"]
_KIND_TEXTS = [  # (dst_class, leg, label)
    ("hub", "tasking", "chaff"), ("benign_service", "background", "chaff"),
    ("planner", "reasoning", "beacon_c2"), ("hub", "background", "beacon_c2"),
    ("hubx", "tasking", "event_c2"), ("hub", "Tasking", "event_c2"),
    ("hub", "tasking", "beacon"), ("planner", "reasoning", "chaff"),
    ("hub", "tasking", "beacon_c2"),
    ("benign_service", "background", "benign")]
_TEXT_EDITS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr": lambda t: t.replace("\n", "\r", 2),
    "blank line": lambda t: t.replace("\n", "\n\n", 1),
    "bom": lambda t: "\ufeff" + t,
    "no final newline": lambda t: t[:-1],
    "unterminated last row": lambda t: t + "7",
    "bad header": lambda t: t.replace("label", "labels", 1),
}
_ROW = st.integers(0, 99)
_EDITS = st.one_of(
    st.tuples(st.just("end"), _ROW),   # ts + duration = 2^63
    st.tuples(st.just("fields"), _ROW, st.sampled_from([-1, 1])),
    st.tuples(st.just("split"), _ROW),
    st.tuples(st.just("cells"), _ROW, st.builds(
        dict, st.tuples(st.tuples(st.sampled_from([0, 1, 5, 6]),
                                  st.sampled_from(_INT_TEXTS))))),
    st.tuples(st.just("cells"), _ROW, st.builds(
        dict, st.tuples(st.tuples(st.sampled_from([2, 3]),
                                  st.sampled_from(_NAME_TEXTS))))),
    st.tuples(st.just("cells"), _ROW, st.sampled_from(_KIND_TEXTS).map(
        lambda kind: dict(zip((4, 7, 8), kind)))),
    st.tuples(st.just("text"), st.sampled_from(sorted(_TEXT_EDITS))))


def _edited(text: str, edits: list[tuple]) -> str:
    """text with its row edits applied, then its whole-text edits."""
    lines = text.split("\n")   # the header, the rows, then ""
    order = ("end", "fields", "split", "cells", "text")
    for edit in sorted(edits, key=lambda e: order.index(e[0])):
        if edit[0] == "text":
            continue
        row = 1 + edit[1] % (len(lines) - 2)
        cells = lines[row].split(",")
        if edit[0] == "end":
            cells[0] = str(2**63 - int(cells[1]))
        elif edit[0] == "fields":
            cells = cells[:-1] if edit[2] < 0 else cells + ["x"]
        elif edit[0] == "split":
            cells[2:4] = [cells[2] + "\n" + cells[3]]
        else:
            for col, value in edit[2].items():
                cells[col % len(cells)] = value
        lines[row] = ",".join(cells)
    text = "\n".join(lines)
    for edit in edits:
        if edit[0] == "text":
            text = _TEXT_EDITS[edit[1]](text)
    return text


def _loop_groups(trace: list[FlowRecord]) -> list[ChannelSeries]:
    """group_channels as a loop over records: the reference for the sort."""
    rank = {"beacon_c2": 3, "event_c2": 2, "chaff": 1, "benign": 0}
    buckets: dict[tuple[str, str], list[FlowRecord]] = {}
    for flow in trace:
        buckets.setdefault((flow.src, flow.dst), []).append(flow)
    series = []
    for key in sorted(buckets):
        flows = sorted(buckets[key], key=lambda f: f.ts_start)
        arrivals: list[int] = []
        sizes: list[int] = []
        for f in flows:
            if not arrivals or f.ts_start != arrivals[-1]:
                arrivals.append(f.ts_start)
                sizes.append(f.bytes_initiator)
        label = max((f.label for f in flows), key=rank.__getitem__)
        series.append(ChannelSeries(key=key, arrivals=arrivals, sizes=sizes,
                                    n_flows=len(flows), label=label))
    return series


def _read_alike(path: Path, flows: list[FlowRecord],
                edits: list[tuple]) -> bool:
    """Write flows as a trace, edit its text, and check that read_trace
    reads the table of what the row reader reads, every column of it, or
    raises its message; returns whether the column reader took the file
    rather than leaving it to the row reader."""
    write_trace(path, FlowTable.from_records(flows))
    text = _edited(path.read_text(encoding="utf-8"), edits)
    path.write_text(text, encoding="utf-8", newline="")
    try:
        records = list(_read_records(path))
    except ValueError as exc:
        assert _csv_columns(path) is None
        with pytest.raises(ValueError) as got:
            read_trace(path)
        assert str(got.value) == str(exc)
        return False
    table = read_trace(path)
    assert table == FlowTable.from_records(records)
    assert (_as_lists(group_channels(table))
            == _as_lists(_loop_groups(records)))
    return _csv_columns(path) is not None


# two channels with equal timestamps, a beacon and a chaff flow among them
_BASE = [_flow(t, src, dst, size=100 + t, **kind) for t, src, dst, kind in [
    (5, "a", "hub", {}), (3, "a", "hub", {}), (5, "a", "hub", {}),
    (9, "b", "planner", dict(label="chaff", leg="reasoning",
                             dst_class="planner")),
    (2, "a", "hub", dict(label="beacon_c2", leg="tasking", dst_class="hub")),
    (9, "b", "planner", {})]]
# name -> (edits to _BASE, whether the column reader takes the result)
_EDIT_CASES = {
    "unedited": ([], True),
    **{f"int {text!r} in {TRACE_COLUMNS[col]}": (
        [("cells", row, {col: text})], text == "9" * 18)
       for row, (col, text) in enumerate(zip(itertools.cycle([0, 1, 5, 6]),
                                             _INT_TEXTS))},
    "ts + duration = 2^63": ([("end", 2)], False),
    **{f"name {text!r} in {TRACE_COLUMNS[col]}": (
        [("cells", row, {col: text})], text == "")
       for row, (col, text) in enumerate(zip(itertools.cycle([2, 3]),
                                             _NAME_TEXTS))},
    **{f"kind {kind}": ([("cells", 1, dict(zip((4, 7, 8), kind)))],
                        kind in _VALID_KINDS)
       for kind in _KIND_TEXTS},
    **{f"text {name}": ([("text", name)], False) for name in _TEXT_EDITS},
    "8 fields": ([("fields", 3, -1)], False),
    "10 fields": ([("fields", 3, 1)], False),
    # the trace's commas and newlines still come in nines
    "8 fields then 10": ([("fields", 3, -1), ("fields", 4, 1)], False),
    "newline after src": ([("split", 3)], False),
}


@pytest.mark.parametrize("case", list(_EDIT_CASES))
def test_column_reader_on_each_edit(case, tmp_path):
    edits, taken = _EDIT_CASES[case]
    assert _read_alike(tmp_path / "trace.csv", _BASE, edits) is taken


def test_column_reader_matches_read_trace():
    """The numpy reader takes only files the row reader accepts, and reads
    the same columns from them; read_trace gives the row reader's exact
    diagnostic for every file the row reader refuses."""
    taken = []

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(flows=st.lists(_flows(), min_size=1, max_size=10),
           edits=st.lists(_EDITS, max_size=2))
    def check(flows, edits):
        with tempfile.TemporaryDirectory() as tmp:
            taken.append(_read_alike(Path(tmp) / "trace.csv", flows, edits))

    check()
    # unedited traces and edits the row reader accepts keep the fast path
    # busy
    assert sum(taken) >= 100, sum(taken)


def test_column_reader_leaves_a_header_only_trace_to_read_trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, FlowTable.from_records([]))
    assert _csv_columns(path) is None
    assert group_channels(read_trace(path)) == []


def _spans_near(length: int) -> list[tuple[str, str]]:
    """(src, dst) names whose "src,dst,hub" spans are length bytes long, or
    one shorter, and differ from one another in one byte."""
    a = "a" * (length - 6)   # all but one byte of src and dst together
    return [(a + "a", ""), ("", a + "a"), (a + "b", ""), ("b" + a, ""),
            (a, "a"), (a, "b"), (a, "")]


# (src, dst) names whose src,dst,dst_class spans _distinct must tell apart
_SPAN_CASES = {
    # spans that share their last word
    "first word differs": [("b" * 8, "hub"), ("c" * 8, "hub")],
    "one word differs": [("x" * 40, "hub"), ("x" * 40, "hob")] + [
        ("x" * k + "y" + "x" * (39 - k), "hub") for k in (0, 7, 8, 31, 39)],
    "prefixes": [("a", "b"), ("a", "bb"), ("ab", "b"), ("a", ""), ("", "a"),
                 ("implant", "hub"), ("implant-1", "hub")],
    **{f"{length}-byte spans": _spans_near(length) for length in (8, 16, 64)},
}


@pytest.mark.parametrize("case", list(_SPAN_CASES))
def test_column_reader_groups_spans_exactly(case, tmp_path):
    legs = [("tasking", "event_c2"), ("tasking", "beacon_c2"),
            ("background", "benign"), ("reasoning", "benign")]
    flows = [_flow(1000 * t + i, src, dst, leg=legs[(t + i) % 4][0],
                   label=legs[(t + i) % 4][1], dst_class="hub")
             for t in range(4)
             for i, (src, dst) in enumerate(_SPAN_CASES[case])]
    assert _read_alike(tmp_path / "trace.csv", flows, [])


def test_column_reader_checks_each_kind_a_file_holds(tmp_path):
    # hub and "reasoning,chaff" each occur in a valid row of _BASE, so only
    # their combination is refused
    edit = ("cells", 1, {4: "hub", 7: "reasoning", 8: "chaff"})
    assert not _read_alike(tmp_path / "trace.csv", _BASE, [edit])


def test_column_read_cost_follows_the_file(tmp_path):
    # A span past _MAX_SPAN bytes goes to the row reader, so one long name
    # costs its bytes once, not once a row: 50,000 rows with one
    # 100,000-byte src. Measured on 2 vCPUs, read_trace took 0.52-0.67 s,
    # nearly all of it in the row reader; coding the name word by word took
    # 17 s, and sorting its 12,500 words a row would need 5 GB.
    n = 50_000
    path = tmp_path / "trace.csv"

    def write(src: str) -> None:
        write_trace(path, FlowTable.from_records([
            _flow(1000 * i, src if i == n // 2 else f"implant-{i % 3}", "hub",
                  label="event_c2", leg="tasking", dst_class="hub")
            for i in range(n)]))

    write("x" * 100_000)
    start = time.perf_counter()
    table = read_trace(path)
    assert time.perf_counter() - start < 5.0
    assert table == FlowTable.from_records(_read_records(path))
    for length, taken in ((64, True), (65, False)):
        write("x" * (length - len(",hub,hub")))
        assert (_csv_columns(path) is not None) is taken
        assert read_trace(path) == FlowTable.from_records(_read_records(path))


def _write_polls(path: Path, n: int) -> None:
    """n rows of 59 bytes on average, as simulate writes a beacon and a
    user, each at a distinct time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{2000 * i + i % 97},{40 + i % 80},implant-{1 + i % 3},hub,hub,"
            f"{580 + i % 40},{280 + i % 40},tasking,beacon_c2\n"
            if i % 10 else
            f"{2000 * i},{900 + i % 300},user-{i % 7},svc-mail,"
            f"benign_service,{1500 + i % 999},{8000 + i % 777},background,"
            "benign\n" for i in range(n))


def test_column_read_memory_follows_rows(tmp_path):
    # Measured here, the column reader with the grouping peaks at 244 bytes
    # a row, and a list of the row reader's records with the grouping of
    # them at 503.
    n = 200_000
    path = tmp_path / "trace.csv"
    _write_polls(path, n)
    tracemalloc.start()
    try:
        series = group_channels(read_trace(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(s.n_flows for s in series) == n
    assert peak < 320 * n


def test_jsonl_read_memory_follows_rows(tmp_path):
    # A JSONL trace goes to the row reader, whose records stream into the
    # table. Measured here, read_trace peaks at 176 bytes a row and holds
    # 40; a list of the records peaked at 477 and held all of it.
    n = 200_000
    csv_path, path = tmp_path / "trace.csv", tmp_path / "trace.jsonl"
    _write_polls(csv_path, n)
    write_trace(path, read_trace(csv_path), fmt="jsonl")
    tracemalloc.start()
    try:
        table = read_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert peak < 250 * n


def test_grouped_series_hold_no_per_flow_object(tmp_path):
    # The series are int64 arrays, an arrival and a size a row: 16 bytes a
    # row held here; Python-int lists of them held 80.
    n = 100_000
    path = tmp_path / "trace.csv"
    _write_polls(path, n)
    # once untraced, so the modules numpy imports on first use are not held
    group_channels(read_trace(path))
    tracemalloc.start()
    try:
        series = group_channels(read_trace(path))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(s.arrivals) for s in series) == n
    assert held < 24 * n


# -- interval regularity -----------------------------------------------------------


def test_regularity_matches_hand_computation():
    arrivals = [0, 10_000, 100_000, 110_000]   # gaps 10s, 90s, 10s
    gaps = [10_000.0, 90_000.0, 10_000.0]
    want = 1.0 / (1.0 + statistics.pstdev(gaps) / statistics.mean(gaps))
    got = interval_regularity(_series(arrivals))
    assert got == pytest.approx(want, abs=1e-12)


def test_regularity_is_one_for_perfect_train():
    assert interval_regularity(_series(range(0, 600_000, 60_000))) == 1.0


def test_regularity_needs_three_arrivals():
    assert interval_regularity(_series([0, 100])) is None
    assert interval_regularity(_series([5])) is None


def test_regularity_declines_with_jitter():
    jitters = [0.0, 0.05, 0.1, 0.2, 0.4]
    means = []
    for j in jitters:
        vals = [interval_regularity(_beacon_series(60_000, j, 86_400_000, seed=s))
                for s in range(5)]
        means.append(statistics.mean(vals))
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[0] == pytest.approx(1.0, abs=1e-9)


def _reference_inverse_cv(values: list[float]) -> float:
    """_inverse_cv in Python floats: sums by left-to-right +, squares as
    d * d."""
    mean = 0.0
    for v in values:
        mean = mean + v
    mean = mean / len(values)
    if mean == 0:
        return 0.0
    var = 0.0
    for v in values:
        var = var + (v - mean) * (v - mean)
    var = var / len(values)
    return 1.0 / (1.0 + math.sqrt(var) / mean)


_INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def _cv_series(draw):
    """Arrivals over the whole int64 range, so gaps pass 2^53 and 2^63, with
    sizes up to 2^63 - 1, small, or all zero."""
    arrivals = sorted(draw(st.sets(st.one_of(
        _INT64, st.integers(-1000, 1000), st.integers(2**53 - 9, 2**53 + 9)),
        min_size=3, max_size=30)))
    size = draw(st.sampled_from([st.just(0), st.integers(0, 2**63 - 1),
                                 st.integers(0, 1500)]))
    return _series(arrivals, sizes=draw(st.lists(
        size, min_size=len(arrivals), max_size=len(arrivals))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series=_cv_series())
def test_cv_scores_equal_a_python_reference_bit_for_bit(series):
    arrivals = [int(a) for a in series.arrivals]
    gaps = [float(b - a) for a, b in zip(arrivals, arrivals[1:])]
    sizes = [float(int(v)) for v in series.sizes]
    for got, want in ((interval_regularity(series), _reference_inverse_cv(gaps)),
                      (size_uniformity(series), _reference_inverse_cv(sizes))):
        assert type(got) is float and got.hex() == want.hex()


def test_cv_scores_square_by_product():
    # a deviation here squares differently by x ** 2, which glibc's pow
    # rounds to 0x1.83845aa089e48p-1 for this score
    sizes = [221662901009, 495754568252, 333481791039]
    got = size_uniformity(_series([0, 1, 2], sizes=sizes))
    assert got == float.fromhex("0x1.83845aa089e4ap-1")
    assert got == _reference_inverse_cv([float(v) for v in sizes])


def test_scores_add_left_to_right_on_every_python_version(monkeypatch):
    # sum() compensates float sums from Python 3.12 on, and there these
    # read 1.0 and 0x1.0f5c28f5c28f6p-2; the pins are Python 3.11's
    assert detect._inverse_cv([0.1] * 10) == 0.9999999999999998
    monkeypatch.setattr(detect, "interval_regularity", lambda s: 0.1)
    monkeypatch.setattr(detect, "acf_period", lambda *a: (0.2, None))
    monkeypatch.setattr(detect, "periodogram_strength", lambda *a: 0.3)
    monkeypatch.setattr(detect, "size_uniformity", lambda s: 0.7)
    score = score_channel(_series([0, 1000, 2000]))
    assert score.combined == float.fromhex("0x1.0f5c28f5c28f5p-2")


# -- autocorrelation ---------------------------------------------------------------


def _acf_oracle(arrivals, bin_ms, max_lag, min_lag):
    """Direct quadratic autocorrelation peak search."""
    t0 = arrivals[0]
    idx = [(t - t0) // bin_ms for t in arrivals]
    n = idx[-1] + 1
    counts = [0.0] * n
    for i in idx:
        counts[i] += 1.0
    mean = sum(counts) / n
    d = [c - mean for c in counts]
    denom = sum(x * x for x in d)
    if denom == 0:
        return 0.0, None
    best_k, best_v = None, -math.inf
    for k in range(min_lag, min(max_lag, n - 1) + 1):
        v = sum(d[t] * d[t + k] for t in range(n - k)) / denom
        if v > best_v:
            best_v, best_k = v, k
    return min(1.0, max(0.0, best_v)), best_k


def test_acf_finds_impulse_train_period():
    arrivals = list(range(0, 10_800_001, 60_000))   # 3 hours at 60 s
    strength, period = acf_period(_series(arrivals), bin_ms=1000,
                                  max_lag_bins=4096)
    assert strength > 0.9
    assert period == 60_000


def test_acf_short_span_scores_zero():
    arrivals = list(range(0, 600_000, 60_000))       # 10 min span
    strength, period = acf_period(_series(arrivals), bin_ms=1000,
                                  max_lag_bins=4096)
    assert (strength, period) == (0.0, None)


def test_acf_uniform_random_arrivals_stay_weak():
    worst = 0.0
    for seed in range(10):
        rnd = random.Random(seed)
        arrivals = sorted(rnd.sample(range(86_400_000), 200))
        strength, _ = acf_period(_series(arrivals), bin_ms=1000,
                                 max_lag_bins=4096)
        worst = max(worst, strength)
    assert worst < 0.3


def test_acf_single_and_dual_event_series():
    assert acf_period(_series([5]), 1000, 64) == (0.0, None)
    # two far-apart arrivals: the scan runs but the peak stays clamped
    strength, _ = acf_period(_series([5, 9_000_000]), 1000, 64)
    assert 0.0 <= strength <= 1.0


def test_acf_matches_bruteforce_oracle_on_random_series():
    rnd = random.Random(2020)
    for _ in range(20):
        bin_ms = 1000
        n_bins = rnd.randrange(64, 512)
        count = rnd.randrange(5, 60)
        arrivals = sorted(rnd.sample(range(n_bins * bin_ms), count))
        span_bins = (arrivals[-1] - arrivals[0]) // bin_ms
        max_lag = max(2, span_bins // 2)
        got_s, got_p = acf_period(_series(arrivals), bin_ms, max_lag,
                                  min_lag_bins=1, period_floor=0.0)
        want_s, want_k = _acf_oracle(arrivals, bin_ms, max_lag, min_lag=1)
        assert got_s == pytest.approx(want_s, abs=1e-9)
        if got_p is not None and want_k is not None:
            assert abs(got_p // bin_ms - want_k) <= 1


def _random_sparse_arrivals(rnd, bin_ms=1000):
    n_bins = rnd.randrange(200, 5000)
    return sorted(rnd.sample(range(n_bins * bin_ms), rnd.randrange(5, 80)))


def _dense_arrivals(rnd, bin_ms=1000):
    """An arrival in nine bins of ten: here the FFT methods are the cheaper."""
    n_bins = rnd.randrange(600, 1500)
    return [b * bin_ms + rnd.randrange(bin_ms) for b in range(n_bins)
            if rnd.random() < 0.9]


def _assert_acf_matches_oracle(arrivals, max_lag, got_s, got_p):
    want_s, want_k = _acf_oracle(arrivals, 1000, max_lag, min_lag=1)
    assert got_s == pytest.approx(want_s, abs=1e-9)
    # the lag must be the oracle's peak, up to ties within the tolerance
    at_got, _ = _acf_oracle(arrivals, 1000, got_p // 1000, got_p // 1000)
    assert got_p // 1000 == want_k or at_got == pytest.approx(want_s, abs=1e-9)


@pytest.mark.parametrize("shape", [_random_sparse_arrivals, _dense_arrivals])
def test_acf_methods_match_oracle(shape):
    rnd = random.Random(4242)
    for _ in range(4):
        arrivals = shape(rnd)
        bins, counts, n = detect._occupancy(arrivals, 1000)
        mean = counts.sum() / n
        denom = float(np.sum((counts - mean) ** 2)
                      + (n - len(bins)) * mean * mean)
        windows = [method(bins, counts, n, 1, 64) / denom
                   for method in (detect._autocov_sparse,
                                  detect._autocov_dense)]
        for window in windows:
            strength = min(1.0, max(0.0, float(window.max())))
            lag = int(np.argmax(window)) + 1
            _assert_acf_matches_oracle(arrivals, 64, strength, lag * 1000)
        # every lag, not just the peak, agrees between the two methods
        assert np.max(np.abs(windows[0] - windows[1])) <= 1e-9
        got_s, got_p = acf_period(_series(arrivals), 1000, 64,
                                  min_lag_bins=1, period_floor=0.0)
        _assert_acf_matches_oracle(arrivals, 64, got_s, got_p)


def _fail(*args):
    raise AssertionError("the cost model picked the costlier method")


def test_cost_model_scores_sparse_series_from_event_positions(monkeypatch):
    monkeypatch.setattr(detect, "_autocov_dense", _fail)
    monkeypatch.setattr(detect, "_band_power_nufft", _fail)
    rnd = random.Random(8)
    for count, span_ms in ((100, 604_800_000), (500, 172_800_000)):
        series = _series(sorted(rnd.sample(range(span_ms), count)))
        acf_period(series, 1000, 64, min_lag_bins=1)
        periodogram_strength(series, 1000, 512, min_lag_bins=4)


def test_cost_model_scores_dense_series_by_fft(monkeypatch):
    monkeypatch.setattr(detect, "_autocov_sparse", _fail)
    monkeypatch.setattr(detect, "_band_power_sparse", _fail)
    rnd = random.Random(9)
    for series in (_series(range(0, 3_000_000, 1000)),
                   _series(_dense_arrivals(rnd))):
        acf_period(series, 1000, 64, min_lag_bins=1)
        periodogram_strength(series, 1000, 512, min_lag_bins=4)


def test_cost_model_splits_a_minute_beacon_over_days(monkeypatch):
    # few lags per event keep the ACF sparse; thousands of events times
    # thousands of band bins send the periodogram to the rfft
    monkeypatch.setattr(detect, "_autocov_dense", _fail)
    monkeypatch.setattr(detect, "_band_power_sparse", _fail)
    series = _series(range(0, 2000 * 60_000, 60_000))
    assert acf_period(series, 1000, 4096)[1] == 60_000
    assert periodogram_strength(series, 1000, 4096) == 1.0


def test_acf_period_floor_suppresses_weak_periods():
    rnd = random.Random(5)
    arrivals = sorted(rnd.sample(range(86_400_000), 300))
    strength, period = acf_period(_series(arrivals), 1000, 4096,
                                  period_floor=0.9)
    assert strength < 0.9 and period is None


# -- periodogram -------------------------------------------------------------------


def _pgram_oracle(arrivals, bin_ms, max_lag, min_lag, null_scale=8.0):
    """Direct O(k*M) DFT over the k occupied bins, one band frequency at a time.

    The demeaned series' transform equals the raw counts' at every band
    frequency f in (0, n), where the mean's own transform is exactly zero.
    Phases are reduced as exact integers, (f * b) mod n, before the complex
    exponential, so the oracle's error does not grow with the span.
    """
    bins = {}
    for t in arrivals:
        b = (t - arrivals[0]) // bin_ms
        bins[b] = bins.get(b, 0) + 1
    n = max(bins) + 1
    k_lo, k_hi = max(1, -(-n // max_lag)), min(n // 2, n // min_lag)
    power = []
    for f in range(k_lo, k_hi + 1):
        x = sum(c * cmath.exp(-2j * math.pi * (f * b % n) / n)
                for b, c in bins.items())
        power.append(abs(x) ** 2)
    g = max(power) / sum(power)
    m = len(power)
    g_null = (math.log(m) + 0.5772156649015329) / m if m > 1 else 1.0
    return power, min(1.0, g / (g_null * null_scale)), (k_lo, k_hi)


@pytest.mark.parametrize("shape", [_random_sparse_arrivals, _dense_arrivals])
def test_periodogram_methods_match_oracle(shape):
    rnd = random.Random(1717)
    for _ in range(3):
        arrivals = shape(rnd)
        want_power, want, (k_lo, k_hi) = _pgram_oracle(arrivals, 1000, 512, 4)
        bins, counts, n = detect._occupancy(arrivals, 1000)
        for method in (detect._band_power_sparse, detect._band_power_nufft):
            got_power = method(bins, counts, n, k_lo, k_hi)
            assert (np.max(np.abs(got_power - want_power))
                    <= 1e-9 * max(want_power))
        got = periodogram_strength(_series(arrivals), 1000, 512,
                                   min_lag_bins=4)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("max_lag, width", [(10, 1), (15, 2), (30, 3)])
def test_nufft_matches_oracle_on_bands_narrower_than_its_spread(max_lag,
                                                                 width):
    # a band of 1 to 3 bins gets a grid of 2 to 8 points, so every event's
    # spread wraps the grid several times; bins 0 and n - 1 are occupied
    rnd = random.Random(2004 + width)
    for _ in range(5):
        arrivals = [0, *sorted(rnd.sample(range(1000, 29_000), 8)), 29_500]
        want, _, (k_lo, k_hi) = _pgram_oracle(arrivals, 1000, max_lag, 10)
        bins, counts, n = detect._occupancy(arrivals, 1000)
        assert (bins[0], bins[-1], k_hi - k_lo + 1) == (0, n - 1, width)
        got = detect._band_power_nufft(bins, counts, n, k_lo, k_hi)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(want)


def test_nufft_matches_sparse_dft_at_a_length_with_large_prime_factors():
    # a jittered minute beacon over 33 h: 119,161 = 7 * 29 * 587 bins
    rnd = random.Random(1993)
    n = 119_161
    bins = np.array(sorted({0, n - 1, *(60 * i + rnd.randrange(6)
                                        for i in range(1985))}))
    counts = np.array([float(rnd.randrange(1, 4)) for _ in bins])
    k_lo, k_hi = -(-n // detect.MAX_LAG_BINS), n // detect.MIN_LAG_BINS
    want = detect._band_power_sparse(bins, counts, n, k_lo, k_hi)
    got = detect._band_power_nufft(bins, counts, n, k_lo, k_hi)
    assert np.max(np.abs(got - want)) <= 1e-9 * want.max()


def test_periodogram_matches_oracle_on_long_sparse_span():
    rnd = random.Random(31)
    arrivals = sorted(rnd.sample(range(5 * 86_400_000), 40))
    _, want, _ = _pgram_oracle(arrivals, 1000, 4096, 10)
    got = periodogram_strength(_series(arrivals), 1000, 4096)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("method", ["_band_power_sparse", "_band_power_nufft"])
def test_periodogram_of_constant_series_is_zero(monkeypatch, method):
    # one arrival in every bin: no spectrum, whichever method runs
    monkeypatch.setattr(detect, "_band_power", getattr(detect, method))
    for seconds in (30, 40, 49):
        series = _series(range(0, seconds * 1000, 1000))
        assert periodogram_strength(series, 1000, 4096) == 0.0


def test_score_cost_follows_events_not_span():
    # 10^12 ms is past MAX_BINS one-second bins, so it is scored at a wider bin
    for span in (10_000_000_000, 10**12):
        series = _series([0, 3 * span // 10, 7 * span // 10 + 123, span],
                         sizes=[100, 120, 100, 90])
        tracemalloc.start()
        try:
            score = score_channel(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert all(math.isfinite(v) for v in (
            score.regularity, score.acf_strength, score.periodogram,
            score.size_uniformity, score.combined))


def test_dense_periodogram_memory_follows_the_band(monkeypatch):
    # 3,000 events over MAX_BINS bins take the NUFFT, whose memory follows
    # its grid of 2^22 points (a 168 MiB peak measured), not the 2^24 bins
    monkeypatch.setattr(detect, "_band_power_sparse", _fail)
    rnd = random.Random(24)
    span = (MAX_BINS - 1) * BIN_MS
    series = _series([0, *sorted(rnd.sample(range(1, span), 2998)), span])
    tracemalloc.start()
    try:
        score = score_channel(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 192 * 2**20
    assert 0.0 <= score.periodogram <= 1.0


def test_score_widens_the_bin_only_past_max_bins(monkeypatch):
    seen = []
    score = detect.periodogram_strength

    def spy(series, bin_ms, *args):  # the bin as bench/tracing.py reads it
        seen.append(bin_ms)
        return score(series, bin_ms, *args)

    monkeypatch.setattr(detect, "periodogram_strength", spy)
    for span, want in [((MAX_BINS - 1) * BIN_MS, BIN_MS),
                       (MAX_BINS * BIN_MS, 2 * BIN_MS),
                       (10**12, 60 * BIN_MS)]:
        arrivals = [0, span // 3, span]
        score_channel(_series(arrivals))
        assert seen.pop() == want
        assert detect._occupancy(arrivals, want)[2] <= MAX_BINS


def test_occupancy_offsets_are_exact_across_the_int64_range():
    arrivals = [-2**63, -2**62 - 5, 0, 7, 2**62, 2**63 - 1]
    for bin_ms in (1000, 3 * 10**11):
        bins, counts, n = detect._occupancy(arrivals, bin_ms)
        want = sorted({(a - arrivals[0]) // bin_ms for a in arrivals})
        assert bins.tolist() == want and n == want[-1] + 1
        assert counts.sum() == len(arrivals)
    bins, _, _ = detect._occupancy([-2**62 - 5, 0, 2**62], 1000)
    assert bins.tolist() == [0, (2**62 + 5) // 1000, (2**63 + 5) // 1000]


def _score_as_list_and_array(arrivals, sizes):
    """score_channel of one channel given as Python-int lists and as int64
    arrays, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [score_channel(ChannelSeries(("a", "b"), as_(arrivals),
                                            as_(sizes), len(arrivals),
                                            "benign"))
                for as_ in (list, lambda v: np.array(v, np.int64))]


def test_spans_past_int64_are_scored_from_arrays_as_from_lists():
    arrivals = [-2**63, -2**62 - 5, 0, 7, 2**62, 2**63 - 1]
    from_list, from_array = _score_as_list_and_array(arrivals, range(1, 7))
    assert from_array == from_list
    assert from_array.periodogram == 0.03058119429029909
    assert from_array.combined == 0.34178846847503686


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(arrivals=st.sets(st.one_of(_INT64, st.sampled_from([-2**63, 2**63 - 1])),
                        min_size=3, max_size=8).map(sorted),
       data=st.data())
def test_lists_and_int64_arrays_score_alike_across_the_int64_range(arrivals,
                                                                   data):
    sizes = data.draw(st.lists(st.integers(0, 2**63 - 1),
                               min_size=len(arrivals), max_size=len(arrivals)))
    from_list, from_array = _score_as_list_and_array(arrivals, sizes)
    assert from_array == from_list


def test_periodogram_dominant_line_for_clean_train():
    arrivals = list(range(0, 10_800_001, 60_000))
    series = _series(arrivals)
    score = periodogram_strength(series, bin_ms=1000, max_lag_bins=4096)
    assert score > 0.9
    # oracle: the strongest in-band spectral line sits at the train frequency
    counts = np.bincount((np.array(arrivals) // 1000))
    d = counts - counts.mean()
    power = np.abs(np.fft.rfft(d)) ** 2
    n = len(counts)
    k_lo, k_hi = max(1, math.ceil(n / 4096)), n // 10
    k_star = k_lo + int(np.argmax(power[k_lo:k_hi + 1]))
    assert abs(k_star - round(n / 60)) <= 1


def test_periodogram_translation_invariance():
    arrivals = list(range(0, 10_800_001, 60_000))
    shifted = [t + 123_456 for t in arrivals]
    a = periodogram_strength(_series(arrivals), 1000, 4096)
    b = periodogram_strength(_series(shifted), 1000, 4096)
    assert a == b


def test_periodogram_random_arrivals_stay_low():
    worst = 0.0
    for seed in range(10):
        rnd = random.Random(100 + seed)
        arrivals = sorted(rnd.sample(range(86_400_000), 200))
        worst = max(worst, periodogram_strength(_series(arrivals), 1000, 4096))
    assert worst < 0.5


def test_periodogram_degenerate_inputs():
    assert periodogram_strength(_series([7]), 1000, 64) == 0.0
    assert periodogram_strength(_series([0, 1, 2, 3]), 1000, 64) == 0.0


# -- size uniformity ---------------------------------------------------------------


def test_size_uniformity_hand_values():
    assert size_uniformity(_series([1, 2, 3], sizes=[100, 100, 100])) == 1.0
    sizes = [50.0, 100.0, 150.0]
    want = 1.0 / (1.0 + statistics.pstdev(sizes) / statistics.mean(sizes))
    got = size_uniformity(_series([1, 2, 3], sizes=[50, 100, 150]))
    assert got == pytest.approx(want, abs=1e-12)
    assert size_uniformity(_series([1, 2], sizes=[5, 5])) is None


def test_channel_of_zero_byte_flows_is_scored_with_size_uniformity_zero():
    flows = [_flow(t, "h", "hub", size=0) for t in (0, 60_000, 120_000, 180_000)]
    (verdict,) = evaluate(FlowTable.from_records(flows)).channels
    assert verdict.score is not None
    assert verdict.score.size_uniformity == 0.0


# -- combination -------------------------------------------------------------------


def test_score_channel_insufficient_below_three_events():
    assert score_channel(_series([1, 2])) is None
    assert score_channel(_series([1, 2, 3])) is not None


@pytest.mark.parametrize("arrivals, sizes", [
    ([1, 2, 3], [100, 100]),
    ([1, 2, 3], [100, 100, 100, 100]),
    ([1, 2], [100]),    # refused even where it would not be scored
])
def test_score_channel_refuses_sizes_not_aligned_with_arrivals(arrivals,
                                                               sizes):
    with pytest.raises(ValueError, match="sizes for"):
        score_channel(_series(arrivals, sizes=sizes))


# -- ROC / AUC ---------------------------------------------------------------------


def _mw_auc(scored):
    pos = [s for s, p in scored if p]
    neg = [s for s, p in scored if not p]
    if not pos or not neg:
        return None
    two_u = 0
    for p in pos:
        for n in neg:
            if p > n:
                two_u += 2
            elif p == n:
                two_u += 1
    return two_u / (2 * len(pos) * len(neg))


def test_auc_equals_mann_whitney_exactly_on_random_sets():
    rnd = random.Random(99)
    for _ in range(50):
        n = rnd.randrange(2, 60)
        scored = [(rnd.choice([rnd.random(), 0.25, 0.5]), rnd.random() < 0.5)
                  for _ in range(n)]
        points, pos, neg = _roc_points(scored)
        got = _auc_from_points(points, pos, neg)
        want = _mw_auc(scored)
        if want is None:
            assert got is None
        else:
            assert got == want  # bitwise: both divide the same integers


def test_auc_trivial_cases():
    sep = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
    points, pos, neg = _roc_points(sep)
    assert _auc_from_points(points, pos, neg) == 1.0
    tied = [(0.5, True), (0.5, False), (0.5, True), (0.5, False)]
    points, pos, neg = _roc_points(tied)
    assert _auc_from_points(points, pos, neg) == 0.5


# -- evaluate ----------------------------------------------------------------------


def _mixed_trace():
    flows = []
    cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.05,
                       horizon_ms=86_400_000, src="imp-1", dst="c2")
    flows += synth_beacon_trace(cfg, RngStream(1, "b1"))
    rnd = random.Random(7)
    for ch in range(3):
        last = 0
        for _ in range(40):
            last += rnd.randrange(1000, 7_200_000)
            flows.append(_flow(last, f"user-{ch}", "svc",
                               size=rnd.randrange(200, 9000)))
    flows.append(_flow(10, "tiny", "svc"))   # insufficient channel
    flows.append(_flow(20, "tiny", "svc"))
    return FlowTable.from_records(flows)


def test_evaluate_separates_beacon_from_irregular_channels():
    report = evaluate(_mixed_trace())
    assert report.auc == 1.0
    assert report.tp + report.fn == 1          # one beacon channel
    assert report.fp + report.tn == 4          # three users plus the tiny one
    assert report.insufficient == 1
    assert report.degenerate is None
    total = report.tp + report.fp + report.tn + report.fn
    assert total == len(report.channels)


def test_evaluate_is_order_invariant():
    trace = _mixed_trace()
    shuffled = list(trace)
    random.Random(3).shuffle(shuffled)
    assert evaluate(FlowTable.from_records(shuffled)) == evaluate(trace)


@pytest.mark.parametrize("mode", ["autonomous_swarm", MODE_MANUAL])
def test_evaluate_reads_a_flow_tables_columns_without_records(mode,
                                                              monkeypatch):
    # both runs hold users' channels beside the implants'; the swarm's
    # chaff shares the planner channels of its reasoning flows
    text = (default_scenario_text()
            .replace("chaff_per_hour = 0", "chaff_per_hour = 120")
            .replace("n_users = 0", "n_users = 2"))
    trace = run_scenario(parse_scenario(text).with_mode(mode)).trace
    assert isinstance(trace, FlowTable)
    expected = evaluate(FlowTable.from_records(list(trace)))
    assert {v.label for v in expected.channels} == {
        "benign", "beacon_c2" if mode == MODE_MANUAL else "event_c2"}

    def no_records(self):
        raise AssertionError("a FlowTable was turned into records")

    monkeypatch.setattr(FlowTable, "__iter__", no_records)
    assert evaluate(trace) == expected
    assert evaluate(FlowTable([], [], [[]] * 4)) == evaluate(
        FlowTable.from_records([]))


def test_evaluate_empty_and_degenerate_traces():
    empty = evaluate(FlowTable.from_records([]))
    assert empty.channels == [] and empty.auc is None
    assert empty.degenerate == "no scorable channels"
    benign_only = evaluate(FlowTable.from_records(
        [_flow(t, "u", "svc") for t in range(0, 50_000, 500)]))
    assert benign_only.auc is None
    assert benign_only.degenerate == "no positive-labeled channels among scored"


def test_insufficient_channels_count_as_unflagged_negatives():
    trace = [_flow(1, "u", "svc"), _flow(2, "u", "svc")]
    report = evaluate(FlowTable.from_records(trace))
    assert report.insufficient == 1
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 1, 0)


def test_report_files_round_trip(tmp_path):
    report = evaluate(_mixed_trace())
    write_report(report, tmp_path / "report.ndjson")
    write_roc_csv(report, tmp_path / "roc.csv")
    import json
    lines = (tmp_path / "report.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["type"] == "summary"
    assert records[-1]["auc"] == 1.0
    assert len(records) == len(report.channels) + 1
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr,threshold"
    assert len(roc_lines) == len(report.roc) + 1
    fprs = [float(row.split(",")[0]) for row in roc_lines[1:]]
    assert fprs == sorted(fprs)


def test_report_records_mark_insufficient_channels():
    recs = report_records(evaluate(FlowTable.from_records(
        [_flow(1, "u", "svc"), _flow(2, "u", "svc")])))
    chan = [r for r in recs if r["type"] == "channel"][0]
    assert chan["insufficient"] is True and chan["flagged"] is False


# -- a detection-quality guard that can fail ---------------------------------------


def _hard_corpus(seed: int) -> FlowTable:
    """Criterion 2's corpus (50 beacons with intervals of 30 s to 1 h, 30
    users, 24 h) with beacon jitter drawn from [0, 1), not [0, 0.2), and
    beacon request sizes lognormal(6, 1), not uniform 580-620: hard enough
    that the scores do not separate every beacon from every user."""
    hour_ms, day_ms = 3_600_000, 86_400_000
    meta = RngStream(seed, "corpus/beacon-params")
    tables = []
    for i in range(50):
        interval = 30_000 + int(meta.unit() * (hour_ms - 30_000))
        cfg = BeaconConfig(interval_ms=interval,
                           jitter_fraction=meta.unit(),
                           horizon_ms=day_ms, src=f"bcn-{i}", dst="c2",
                           request_size=Dist("lognormal", (6.0, 1.0)))
        tables.append(synth_beacon_trace(cfg, RngStream(seed,
                                                        f"bcn-{i}/ticks")))
    users = synth_background(30, WorkdayModel(horizon_ms=day_ms),
                             lambda sid: RngStream(seed, f"corpus/{sid}"))
    return merge_traces(*tables, users)


# seed -> (AUC floor, floor of the TPR at an FPR of at most 5%), each about
# halfway between the scores as they are and the scores with the ACF and
# periodogram weights at 0. Measured (AUC; TPR):
#   today:                 0.9911, 0.9901, 0.9845; 0.96, 1, 0.88
#   ACF and periodogram 0: 0.9788, 0.9795, 0.9733; 0.80, 0.92, 0.80
# so each AUC floor sits 0.005-0.006 from both rows, and each TPR floor 2
# (seed 1) or 4 (seeds 0 and 2) of the 50 beacon channels from both. The
# periodogram weight alone at 0 (0.9880, 0.9864, 0.9774; 0.90, 0.96, 0.86)
# fails seed 2's AUC floor only.
_QUALITY_FLOORS = {0: (0.985, 0.88), 1: (0.985, 0.96), 2: (0.979, 0.84)}
# sha256 of (report.ndjson, roc.csv) written for each seed's corpus
_QUALITY_REPORTS = {
    0: ("5578f4915b979aea8703b0a2ac5810107aa5aa4480c32f7715786e5be74d2d90",
        "31bd5501cbcf5c82756e4fe393e68d49a420959a355166dcfdf49f4bd3061df9"),
    1: ("186935c93c536c91eefa2809bb650d2d3841af6b0c84ea14658f0f3821f1c6d3",
        "42129362b74126ea2e7c37cde1442a22394663f1a19bbb0ce447f4f250a7578f"),
    2: ("0ae48bdbf646afd36561090ac6deebe83cd25fac60ed6585f99d2f2d90526adc",
        "ce8e10b35c1d93545b97df840d3774d5c28cf1044e89fbf248f246387236b19d"),
}


@pytest.mark.parametrize("seed", sorted(_QUALITY_FLOORS))
def test_detection_quality_floors_on_a_hard_corpus(seed, tmp_path):
    report = evaluate(_hard_corpus(seed))
    assert (report.tp + report.fn, report.insufficient) == (50, 0)
    auc_floor, tpr_floor = _QUALITY_FLOORS[seed]
    tpr = max(tpr for fpr, tpr, _ in report.roc if fpr <= 0.05)
    assert report.auc >= auc_floor and tpr >= tpr_floor, (report.auc, tpr)
    write_report(report, tmp_path / "report.ndjson")
    write_roc_csv(report, tmp_path / "roc.csv")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("report.ndjson", "roc.csv")
                 ) == _QUALITY_REPORTS[seed]
