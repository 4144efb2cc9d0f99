"""End-to-end command-line behavior, run in-process through main()."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scenario_corpus import artifact_digests, corpus, read_table

from c2sim import traffic
from c2sim.cli import main
from c2sim.detect import evaluate
from c2sim.engine import RngStream
from c2sim.orchestrate import run_scenario
from c2sim.scenario import default_scenario_text, parse_scenario
from c2sim.traffic import (
    TRACE_COLUMNS,
    BeaconConfig,
    FlowTable,
    WorkdayModel,
    read_trace,
    synth_background,
    synth_beacon_trace,
    write_trace,
)


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "exercise.ini"
    p.write_text(default_scenario_text(), encoding="utf-8")
    return p


def _mixed_trace_file(tmp_path, name="mixed.csv"):
    flows = []
    for i in range(3):
        cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.1,
                           horizon_ms=6 * 3_600_000, src=f"b-{i}", dst="hub")
        flows += synth_beacon_trace(cfg, RngStream(i, f"b-{i}/beacon"))
    model = WorkdayModel(horizon_ms=2 * 86_400_000)
    flows += synth_background(5, model, lambda sid: RngStream(7, sid))
    p = tmp_path / name
    write_trace(p, FlowTable.from_records(flows))
    return p


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_diagnostics(tmp_path, capsys):
    p = tmp_path / "broken.ini"
    p.write_text("[scenario]\nseed = 1\nmode = nope\n", encoding="utf-8")
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert "[topology]" in err and "[agents]" in err
    # value-level diagnostics surface once the structure is in place
    p.write_text(default_scenario_text().replace("autonomous_swarm", "nope"),
                 encoding="utf-8")
    assert main(["validate", str(p)]) == 1
    assert "mode" in capsys.readouterr().err


# Distributions whose draws are not all finite numbers, and a chaff rate
# whose gaps are not: each is an input error at its key and line, in
# validate and simulate alike
@pytest.mark.parametrize("old, new", [
    ("task_duration = lognormal(10.9, 0.35)", "task_duration = exponential(inf)"),
    ("chaff_per_hour = 0", "chaff_per_hour = 1e-302"),
    ("planner_turn_latency = lognormal(9.0, 0.4)",
     "planner_turn_latency = lognormal(1e308, 5)"),
    ("event_dispatch_latency = uniform(200, 1500)",
     "event_dispatch_latency = uniform(nan, 1)"),
    ("manual_think_time = lognormal(10.3, 0.4)",
     "manual_think_time = exponential(1e307)"),
], ids=["exponential-inf", "chaff-gap", "lognormal-overflow", "uniform-nan",
        "exponential-largest-draw"])
def test_non_finite_draws_are_located_input_errors(old, new, tmp_path,
                                                    capsys):
    text = default_scenario_text().replace(old, new)
    key = new.split(" = ")[0]
    line = text.splitlines().index(new) + 1
    p = tmp_path / "scenario.ini"
    p.write_text(text, encoding="utf-8")
    located = rf"\[(timing|channels)\] {key}: .+ \(line {line}\)\n"
    assert main(["validate", str(p)]) == 1
    assert re.fullmatch(located, capsys.readouterr().err)
    assert main(["simulate", "--scenario", str(p),
                 "--out", str(tmp_path / "run")]) == 1
    assert re.fullmatch(located, capsys.readouterr().err)


def test_readme_scenario_example_validates(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert example is not None, "README.md has no ```ini example"
    p = tmp_path / "readme.ini"
    p.write_text(example.group(1), encoding="utf-8")
    assert main(["validate", str(p)]) == 0, capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.ini")]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_writes_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    for name in ("trace.csv", "journal.ndjson", "metrics.json", "manifest.json"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["objective_met"] is True
    assert metrics["seed"] == 42
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 42
    by_name = {o["name"]: o for o in manifest["outputs"]}
    assert set(by_name) == {"trace.csv", "journal.ndjson", "metrics.json"}
    for name, entry in by_name.items():
        data = (out / name).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert "objective met" in capsys.readouterr().out


def test_simulate_deterministic_artifacts(scenario_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("trace.csv", "journal.ndjson", "metrics.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_simulate_force_overwrite(scenario_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    journal_bytes = (out / "journal.ndjson").read_bytes()
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out), "--force"]) == 0
    # overwrite truly replaces: the append-mode journal must not double up
    assert (out / "journal.ndjson").read_bytes() == journal_bytes


def test_simulate_jsonl_format(scenario_file, tmp_path):
    a = tmp_path / "csv_run"
    b = tmp_path / "jsonl_run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(b), "--format", "jsonl"]) == 0
    assert read_trace(a / "trace.csv") == read_trace(b / "trace.jsonl")


def test_simulate_seed_override(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out), "--seed", "99"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 99
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_simulate_tasking_flows_match_journal(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    contacts = 0
    with open(out / "journal.ndjson", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["record_kind"] in ("fetch", "submit"):
                contacts += 1
    flows = read_trace(out / "trace.csv")
    tasking = [f for f in flows if f.leg == "tasking"]
    assert len(tasking) == contacts
    assert all(f.label == "event_c2" for f in tasking)


def test_detect_reports(tmp_path, capsys):
    trace = _mixed_trace_file(tmp_path)
    out = tmp_path / "det"
    assert main(["detect", str(trace), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "channels=" in printed and "auc=" in printed
    lines = (out / "report.ndjson").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    assert records[-1]["type"] == "summary"
    chan_records = [r for r in records if r["type"] == "channel"]
    assert len(chan_records) == records[-1]["channels"]
    roc_lines = (out / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr,threshold"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "detect"
    assert "trace" in manifest["inputs"]


def test_detect_threshold_flag(tmp_path):
    trace = _mixed_trace_file(tmp_path)
    out = tmp_path / "det"
    assert main(["detect", str(trace), "--out", str(out),
                 "--threshold", "0.9"]) == 0
    lines = (out / "report.ndjson").read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["threshold"] == 0.9


@pytest.mark.parametrize("threshold", ["1.5", "nan"])
def test_detect_refuses_a_threshold_outside_the_unit_interval(threshold,
                                                              tmp_path, capsys):
    trace = _mixed_trace_file(tmp_path)
    assert main(["detect", str(trace), "--out", str(tmp_path / "det"),
                 "--threshold", threshold]) == 1
    assert "threshold must be in [0, 1]" in capsys.readouterr().err


def test_detect_refuses_existing_outputs_before_reading(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("not a trace\n", encoding="utf-8")
    out = tmp_path / "det"
    out.mkdir()
    (out / "report.ndjson").write_text("kept\n", encoding="utf-8")
    assert main(["detect", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "output already exists" in err and "report.ndjson" in err
    assert (out / "report.ndjson").read_text(encoding="utf-8") == "kept\n"


def test_detect_force_reads_a_trace_inside_out_before_replacing_it(tmp_path):
    out = tmp_path / "det"
    out.mkdir()
    trace = _mixed_trace_file(out, name="roc.csv")   # one of detect's outputs
    channels = {(f.src, f.dst) for f in read_trace(trace)}
    assert main(["detect", str(trace), "--out", str(out), "--force"]) == 0
    assert (out / "roc.csv").read_text().startswith("fpr,tpr,threshold\n")
    summary = json.loads((out / "report.ndjson").read_text().splitlines()[-1])
    assert summary["channels"] == len(channels)


def test_detect_malformed_trace(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text(
        "ts_start_ms,duration_ms,src,dst,dst_class,bytes_init,bytes_resp,leg,label\n"
        "0,10,a,b,hub,5,5,tasking,beacon_c2\n"
        "oops,10,a,b,hub,5,5,tasking,beacon_c2\n",
        encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    assert "malformed trace row 3" in capsys.readouterr().err


_ROW = dict(zip(TRACE_COLUMNS, (0, 10, "a", "b", "hub", 5, 5, "tasking",
                                "beacon_c2")))


@pytest.mark.parametrize("fmt,second", [
    ("csv", {**_ROW, "note": "x"}),          # a tenth field
    ("csv", {k: _ROW[k] for k in TRACE_COLUMNS[:-1]}),  # an eighth
    ("jsonl", {**_ROW, "note": "x"}),        # a tenth key
])
def test_detect_rejects_rows_of_the_wrong_shape(fmt, second, tmp_path, capsys):
    p = tmp_path / f"bad.{fmt}"
    if fmt == "csv":
        rows = [TRACE_COLUMNS, _ROW.values(), second.values()]
        text = "".join(",".join(map(str, r)) + "\n" for r in rows)
    else:
        text = json.dumps(_ROW) + "\n" + json.dumps(second) + "\n"
    p.write_text(text, encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    row = 3 if fmt == "csv" else 2  # a CSV trace's first row is its header
    assert f"malformed trace row {row}" in capsys.readouterr().err


def test_detect_refuses_a_blank_jsonl_line(tmp_path, capsys):
    # write_trace never writes a blank line, in JSONL as in CSV
    p = tmp_path / "blank.jsonl"
    p.write_text(json.dumps(_ROW) + "\n\n" + json.dumps(_ROW) + "\n",
                 encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    assert "malformed trace row 2" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [
    {"ts_start_ms": 1.7, "duration_ms": True, "bytes_init": 5.9},
    {"duration_ms": True},
    {"bytes_resp": "5"},
    {"src": 7},
    {"dst": None},
])
def test_detect_rejects_jsonl_cells_of_the_wrong_type(cells, tmp_path, capsys):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(_ROW) + "\n" + json.dumps({**_ROW, **cells}) + "\n",
                 encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    assert "malformed trace row 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["07", " 7", "+7", "-0", "1_000", "\u0663"])
def test_detect_rejects_integers_write_trace_never_writes(text, tmp_path,
                                                          capsys):
    p = tmp_path / "bad.csv"
    p.write_text(",".join(TRACE_COLUMNS) + "\n" + ",".join(
        text if k == "bytes_init" else str(v) for k, v in _ROW.items()) + "\n",
        encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    assert "malformed trace row 2" in capsys.readouterr().err


def test_detect_scores_a_channel_spanning_2_to_the_62_ms(tmp_path, capsys):
    p = tmp_path / "span.jsonl"
    p.write_text("".join(json.dumps({**_ROW, "ts_start_ms": t}) + "\n"
                         for t in (0, 5, 2**62)), encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 0
    assert "channels=1 insufficient=0" in capsys.readouterr().out


def test_detect_scores_channels_spanning_the_int64_range(tmp_path, capsys):
    # a beacon and a user channel whose spans pass 2^63 ms; the digests are
    # of the report and roc that Python-int series gave
    p = tmp_path / "span.jsonl"
    user = dict(src="u", dst="svc", dst_class="benign_service",
                leg="background", label="benign")
    rows = [{**_ROW, "ts_start_ms": t, "bytes_init": i + 1} for i, t in
            enumerate([-2**63, -2**62 - 5, 0, 7, 2**62, 2**63 - 11])]
    rows += [{**_ROW, **user, "ts_start_ms": t, "bytes_init": 7 * i}
             for i, t in enumerate([-2**63, -5, 2**62 + 999, 2**63 - 11])]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "det"
    assert main(["detect", str(p), "--out", str(out)]) == 0
    assert "channels=2 insufficient=0" in capsys.readouterr().out
    assert [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.ndjson", "roc.csv")] == [
        "7acc99217c1590d42dfa0f545e7e76248d599a2db5cc798849e694e30792b7a8",
        "650466f16fd283f67a1331cb56607d956801a50115156420890391641a43db26"]


# an integer past int()'s limit of 4300 digits, written unquoted in JSONL
_DIGITS = "9" * 5000


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("cells", [
    {"ts_start_ms": 2**70}, {"ts_start_ms": 2**63}, {"duration_ms": 2**63},
    {"bytes_init": 2**64}, {"bytes_resp": 2**63}, {"ts_start_ms": -2**63 - 1},
    {"ts_start_ms": 2**63 - 1, "duration_ms": 1},  # ends at 2**63
    {"ts_start_ms": _DIGITS},
])
def test_detect_rejects_integers_outside_int64(fmt, cells, tmp_path, capsys):
    p = tmp_path / f"big.{fmt}"
    rows = [_ROW, {**_ROW, **cells}]
    if fmt == "csv":
        p.write_text("".join(",".join(map(str, r)) + "\n"
                             for r in [TRACE_COLUMNS, *map(dict.values, rows)]),
                     encoding="utf-8")
    else:
        p.write_text("".join(json.dumps(r).replace(f'"{_DIGITS}"', _DIGITS)
                             + "\n" for r in rows), encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    row = 3 if fmt == "csv" else 2  # a CSV trace's first row is its header
    assert f"malformed trace row {row}" in capsys.readouterr().err


def _cell_text(value) -> str:
    """The CSV cell csv.writer writes for value."""
    return "" if value is None else str(value)


_INT_FIELDS = {"ts_start_ms": "ts_start", "duration_ms": "duration",
               "bytes_init": "bytes_initiator", "bytes_resp": "bytes_responder"}
# cells a flow record accepts; a few names, so that channels recur
_NAME = st.one_of(st.sampled_from(["a", "b"]), st.text())
_NATIVE = {"ts_start_ms": st.integers(), "src": _NAME, "dst": _NAME}
_KINDS = st.sampled_from([  # (dst_class, leg, label) as simulate writes them
    ("hub", "tasking", "beacon_c2"), ("hub", "tasking", "event_c2"),
    ("planner", "reasoning", "event_c2"), ("planner", "reasoning", "chaff"),
    ("benign_service", "background", "benign")])
_DROP = object()
_ANY_CELL = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(),
                      st.none())


@st.composite
def _fuzzed_rows(draw):
    """Rows of cells a flow record accepts, some then damaged: a cell
    replaced by a value of any type, a column dropped, or one added."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = {col: draw(_NATIVE.get(col, st.integers(min_value=0)))
               for col in TRACE_COLUMNS}
        row["dst_class"], row["leg"], row["label"] = draw(_KINDS)
        rows.append(row)
    for i, col, value in draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1),
            st.sampled_from(TRACE_COLUMNS + ("note",)),
            st.one_of(_ANY_CELL, st.just(_DROP))), max_size=2)):
        if value is _DROP:
            rows[i].pop(col, None)
        else:
            rows[i][col] = value
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=_fuzzed_rows(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_fuzzed_trace_is_read_exactly_or_rejected(rows, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / f"fuzz.{fmt}"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(TRACE_COLUMNS)
                w.writerows(row.values() for row in rows)
            else:
                fh.writelines(json.dumps(row) + "\n" for row in rows)
        try:
            flows = read_trace(p)
        except ValueError:
            flows = None
        if flows is not None:
            assert len(flows) == len(rows)
            for flow, row in zip(flows, rows):
                for col in TRACE_COLUMNS:
                    got = getattr(flow, _INT_FIELDS.get(col, col))
                    assert type(got) is (int if col in _INT_FIELDS else str)
                    if fmt == "csv":
                        assert str(got) == _cell_text(row[col])
                    else:
                        assert type(got) is type(row[col])
                        assert got == row[col]
        code = main(["detect", str(p), "--out", str(Path(tmp) / "det")])
        assert code == (1 if flows is None else 0)


def test_compare_table(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_file),
                 "--seeds", "3", "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("seed,time_swarm_ms,time_manual_ms,"
                        "actions_swarm,actions_manual,speedup")
    assert len(lines) == 1 + 3 + 1  # header, three seeds, median row
    assert lines[-1].startswith("median,")
    assert "median speedup" in capsys.readouterr().out


def test_compare_rejects_two_seeds(scenario_file, tmp_path, capsys):
    assert main(["compare", "--scenario", str(scenario_file),
                 "--seeds", "2", "--out", str(tmp_path / "cmp")]) == 1
    assert "seeds" in capsys.readouterr().err


def test_compare_without_any_met_objective_exits_one(tmp_path, capsys):
    text = default_scenario_text()
    scenario = tmp_path / "short.ini"
    scenario.write_text(text.replace(
        next(line for line in text.splitlines()
             if line.startswith("horizon_ms")), "horizon_ms = 1000"),
        encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario),
                 "--seeds", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no seed met the objective" in err and "horizon_ms=1000" in err
    assert not (out / "comparison.csv").exists()
    assert not (out / "manifest.json").exists()


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "x"])  # missing --out
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["simulate", "--scenario", "{dir}", "--out", "{tmp}/run"],
    ["detect", "{dir}", "--out", "{tmp}/det"],
    ["simulate", "--scenario", "{scenario}", "--out", "{file}"],
    ["detect", "{trace}", "--out", "{file}"],
], ids=["validate-dir", "simulate-dir", "detect-dir", "simulate-out-file",
        "detect-out-file"])
def test_path_of_the_wrong_kind_exits_one(argv, scenario_file, tmp_path,
                                          capsys):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("x", encoding="utf-8")
    paths = {"dir": tmp_path / "a-dir", "file": tmp_path / "a-file",
             "tmp": tmp_path, "scenario": scenario_file,
             "trace": _mixed_trace_file(tmp_path)}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unexpected" not in err


_PIVOT_CHAIN = """\
[scenario]
seed = 5
mode = manual_baseline
horizon_ms = 604800000

[topology]
subnets = z0, z1, z2, z3
hosts_per_subnet = 3
intel =
    credential c0 @ z0/host-1
    credential c1 @ z1/host-1
    credential c2 @ z2/host-1
    share target @ z3/host-2
pivot_edges =
    c0: z0 -> z1
    c1: z1 -> z2
    c2: z2 -> z3
required_intel = share:target

[agents]
count = 5
capabilities =
    implant-1: z0
    implant-2: z1
    implant-3: z2
    implant-4: z0
    implant-5: z1
"""


def _default_with(*edits: tuple[str, str]) -> str:
    text = default_scenario_text()
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return text


_MANUAL = ("mode = autonomous_swarm", "mode = manual_baseline")
_CHAFF_USERS = (("chaff_per_hour = 0", "chaff_per_hour = 60"),
                ("n_users = 0", "n_users = 3"))

# Each case runs through defaults the scenario parser fills in: [timing] and
# [channels] distributions, the [beacon] sizes and the [background] model.
_PINNED_TEXT = {
    "default-swarm": _default_with(),
    "default-manual": _default_with(_MANUAL),
    "pivot-chain": _PIVOT_CHAIN,
    "chaff-users-swarm": _default_with(*_CHAFF_USERS),
    "chaff-users-manual": _default_with(_MANUAL, *_CHAFF_USERS),
    "streaming-overrides": _default_with(
        ("streaming = false", "streaming = true\n"
         "burst_interval = lognormal(7.5, 1.0)\n"
         "request_size = lognormal(7.0, 0.3)"),
        ("n_users = 0", "n_users = 2\n"
         "sessions_per_day = uniform(2, 4)\n"
         "flow_gap = exponential(15000)\n"
         "workday_start_hour = 8\n"
         "workday_end_hour = 18\n"
         "off_hours_fraction = 0.3")),
    "beacon-overrides-manual": _default_with(
        _MANUAL,
        ("interval_ms = 60000\njitter_fraction = 0.1",
         "interval_ms = 45000\njitter_fraction = 0.2\n"
         "request_size = uniform(400, 500)\n"
         "response_size = uniform(200, 260)\n"
         "duration = uniform(30, 90)"),
        ("n_users = 0", "n_users = 1")),
}

# sha256 of (trace.csv, journal.ndjson, metrics.json). A change that moves
# any of these changes what the simulator produces and must say why.
_PINNED = {
    "default-swarm": (
        "d055bafff5d10f25b42c11b99fc137bc1c33bfdd2fa64451457891cece858337",
        "cde1490bb820306e0b39952938829fe524e1eaa5255df542b80c9998444a6e98",
        "09b997d08fb147ad113d9a60bce1baf1da062cffa9f47dd961753318b73281df"),
    "default-manual": (
        "16814fc89bef526dd1e07577e2f02ac5fcdcd867267b6a64194ab3aceb121e58",
        "a950b5241f78251474c438acd84d85e43f8bfa891d1e002f19aca85c4efbaaf5",
        "6171f34670c5fbd68cfad29184ec5d67234e21f646156640d2f94783b07728ca"),
    "pivot-chain": (
        "8203f38ea95294c56b014283844b0fb2c9a9f5630a06ee48dc293b825a9f784f",
        "73afe8b2121b5503937ccdf1e7c53c6d4f48f351fc61f87a0dadfb7656848312",
        "392cb795a856e1821eef4349f6fb9e8df42935179b11f256b61369657020f443"),
    "chaff-users-swarm": (
        "3e6e61f3abd16cac8eb892dbb557306bd177abd6a593545c65d2fcbd7c3af53e",
        "cde1490bb820306e0b39952938829fe524e1eaa5255df542b80c9998444a6e98",
        "09b997d08fb147ad113d9a60bce1baf1da062cffa9f47dd961753318b73281df"),
    "chaff-users-manual": (
        "6af5eed5005a65167e501cd118fd1e5e87908de19ad35570f352cc8677591d19",
        "a950b5241f78251474c438acd84d85e43f8bfa891d1e002f19aca85c4efbaaf5",
        "6171f34670c5fbd68cfad29184ec5d67234e21f646156640d2f94783b07728ca"),
    "streaming-overrides": (
        "72f7684249cf70c67a70122f5f02017ed8c696ebeb39b88bdf55c27342a1e3bd",
        "bd09c23c4febf97bfdcfadab7e3c75a452af57d0c490ca1052431bc4982c3873",
        "09b997d08fb147ad113d9a60bce1baf1da062cffa9f47dd961753318b73281df"),
    "beacon-overrides-manual": (
        "3c86b9317f65ee032d1d2eaf540c279ffbe13803a05fe83c79ee9890d67b51d1",
        "bc76413dc63e9e0bbe43d0f9540ce22511acfaa7aa19015c726e1e859ebb2447",
        "1ee332481f9d3b6a9421da09df5c0a80d5c0518e3e8d55f0a3a52f3c2cbfbdde"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_simulate_artifact_bytes_are_pinned(case, tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(_PINNED_TEXT[case], encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("trace.csv", "journal.ndjson", "metrics.json"))
    assert got == _PINNED[case]


def test_simulate_jsonl_trace_bytes_are_pinned(tmp_path):
    # event, chaff and benign flows; the digest of the per-record writer
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(_PINNED_TEXT["chaff-users-swarm"], encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                 "--format", "jsonl"]) == 0
    assert hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest() == (
        "5390938f033f905dc537962936596acb1761cea0d909926ac51c44e626c8fbcc")


@pytest.mark.parametrize("case", ["default-swarm", "default-manual",
                                  "pivot-chain"])
def test_simulate_journal_is_the_runs_decoded_records(case, tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(_PINNED_TEXT[case], encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    written = (out / "journal.ndjson").read_bytes()
    journal = io.StringIO()  # a journal held in memory, not a file
    run_scenario(parse_scenario(_PINNED_TEXT[case]), journal=journal)
    assert written == journal.getvalue().encode()
    if case == "pivot-chain":  # fetches that carry tasks, not only polls
        assert any(r["body"]["task_ids"]
                   for r in map(json.loads, written.splitlines())
                   if r["record_kind"] == "fetch")


# evaluate() on the trace of each chaff-users case: per channel (src, dst,
# label, flagged, period_ms, scores), where scores are regularity, acf,
# periodogram, size and combined, or None for an insufficient-data channel;
# then (tp, fp, tn, fn) and the AUC. The users' channels are the same in both
# modes. Flags, periods and counts are exact, scores and the AUC within 1e-9.
_PINNED_USER_CHANNELS = [
    ("user-0", "planner", "benign", False, None, (
        0.2046260590715786, 0.08145434531910568,
        0.3004400174447007, 0.47505752174924487,
        0.23835133962839083)),
    ("user-0", "svc-files", "benign", False, 53000, (
        0.16043900453283025, 0.1249265393496449,
        0.4175899473961623, 0.5428317917831129,
        0.2732075420404093)),
    ("user-0", "svc-mail", "benign", False, 33000, (
        0.1855926710300001, 0.1094864172245779,
        0.4310550795957616, 0.5201413068443225,
        0.2781140050922333)),
    ("user-0", "svc-repo", "benign", False, 10000, (
        0.23374905434691864, 0.1040902654177958,
        0.3667666719924503, 0.5407565218401935,
        0.2806398816500121)),
    ("user-1", "planner", "benign", False, None, (
        0.21102196658177097, 0.06851803183179933,
        0.3683965990377619, 0.5353732383617766,
        0.26339233177527666)),
    ("user-1", "svc-files", "benign", False, 56000, (
        0.20379550608137678, 0.1379018190652863,
        0.20021124612144897, 0.5596146215647283,
        0.23979888665987492)),
    ("user-1", "svc-mail", "benign", False, 10000, (
        0.23573913187840975, 0.1561518332227605,
        0.21848833292125855, 0.5004464273301972,
        0.2512357017929778)),
    ("user-1", "svc-repo", "benign", False, None, (
        0.2249543799254324, 0.0644466965829367,
        0.4030551310649758, 0.5332382972810099,
        0.27559523447803097)),
    ("user-2", "planner", "benign", False, None, (
        0.2232650714031106, 0.08208364305920786,
        0.43873182227425495, 0.5255092060752365,
        0.28717302223573987)),
    ("user-2", "svc-files", "benign", False, None, (
        0.2276751865321869, 0.09074564356706168,
        0.4125373951717154, 0.5333726102724322,
        0.2855129665118245)),
    ("user-2", "svc-mail", "benign", False, 30000, (
        0.2025678597848962, 0.1362538395416011,
        0.1769307880918751, 0.5981689764979918,
        0.23892025430778152)),
    ("user-2", "svc-repo", "benign", False, None, (
        0.18288997307056853, 0.06777930030150561,
        0.4088579251856692, 0.41600823748516597,
        0.24557203256926757)),
]
_PINNED_DETECTION = {
    "chaff-users-swarm": ([
        ("implant-1", "hub", "event_c2", False, None, None),
        ("implant-1", "planner", "event_c2", False, None, (
            0.38467078264928173, 0.0,
            0.08563711633472637, 0.6032539845276244,
            0.24653215069007384)),
        ("implant-2", "hub", "event_c2", False, None, (
            0.5854270190647034, 0.0,
            0.09154637454155513, 0.8184565021124334,
            0.35055452562489997)),
        ("implant-2", "planner", "event_c2", False, None, (
            0.5290635057019047, 0.0,
            0.09665296577704297, 0.5114797392148844,
            0.28605742932216005)),
        ("implant-3", "hub", "event_c2", False, None, None),
        ("implant-3", "planner", "event_c2", False, None, (
            0.46191787759120945, 0.0,
            0.10091785018495474, 0.490642437112555,
            0.2604970852700452)),
    ] + _PINNED_USER_CHANNELS, (0, 0, 18, 0), None),
    "chaff-users-manual": ([
        ("implant-1", "hub", "beacon_c2", True, None, (
            0.964477072893768, 0.0,
            0.5991430720329883, 0.9817206166839668,
            0.6346108360236609)),
        ("implant-2", "hub", "beacon_c2", True, None, (
            0.9559721853475663, 0.0,
            0.5738835635187922, 0.9795755632875328,
            0.6249974902444762)),
        ("implant-3", "hub", "beacon_c2", True, None, (
            0.9577157965571569, 0.0,
            0.5952316590210048, 0.9798568946526877,
            0.6309869777481592)),
    ] + _PINNED_USER_CHANNELS, (3, 0, 12, 0), 1.0),
}


@pytest.mark.parametrize("case", sorted(_PINNED_DETECTION))
def test_detector_output_on_pinned_traces_is_pinned(case):
    channels, confusion, auc = _PINNED_DETECTION[case]
    report = evaluate(run_scenario(parse_scenario(_PINNED_TEXT[case])).trace)
    assert (report.tp, report.fp, report.tn, report.fn) == confusion
    if auc is None:
        assert report.auc is None
    else:
        assert report.auc == pytest.approx(auc, rel=0, abs=1e-9)
    assert len(report.channels) == len(channels)
    for got, (src, dst, label, flagged, period_ms, scores) in zip(
            report.channels, channels):
        assert (got.key, got.label) == ((src, dst), label)
        assert got.flagged is flagged
        if scores is None:
            assert got.score is None
            continue
        s = got.score
        assert s.period_ms == period_ms
        assert (s.regularity, s.acf_strength, s.periodogram, s.size_uniformity,
                s.combined) == pytest.approx(scores, rel=0, abs=1e-9)


# sha256 of (report.ndjson, roc.csv) that `c2sim detect` writes on each
# pinned case's trace
_PINNED_REPORTS = {
    "beacon-overrides-manual": (
        "c65dbb56e237e4a3b8055b16c02bd4c4bbf5c1560ae10ea2bdc9cdfdf5014b11",
        "2bc34f2f86a117af1c0a8acd1105c1f86d601ff10512a09ebfd436cec1748302"),
    "chaff-users-manual": (
        "5aede04cd2859e7524562cb324d7bab44627ec00e249e76e50b78aa657dd89de",
        "916712a2082c1f4f2ecb11bd318830e2747a4419064ce22b592d9ae97d9aa988"),
    "chaff-users-swarm": (
        "baa644df16e2784486d1b20ec2455eacb85e75ac51ba94761eee70e01343f6f0",
        "9942939bfb36df7910739c9dfe2e7e3d10b6b3330b663d53b8aa5f3c84f3dd2c"),
    "default-manual": (
        "d6e015e1d285ffd44ada938547d04ff29f1bdfb7936f480fcbe3645e13866d3b",
        "d0655835df229d31f6a0392660a36049d5217196603a576a65fa2eeaab676861"),
    "default-swarm": (
        "085d48278f4b9460c6e823d304883640e84a152bd22351b5296fae0a73918721",
        "e8e5466545f94803aa5f855ca1cc84a00ee60414398af2539d99b6451cbdcc65"),
    "pivot-chain": (
        "6b5ea1e1c4c8fd4bb652bf0f4e62cbfc77664fda706ca55b714f0e45da855cc3",
        "fd1f4e2a8862dee2d16470ded6df04d2b4abf7c70496615605800a9663996af0"),
    "streaming-overrides": (
        "8d5aa169fcd6c75cc27fc836fabc0c63f6d328b1d575fe4eb7d5c487940e8288",
        "e4fd7a9c79172cc51f4a7f62ff2910626a09bd2d18703d092c96ef4332374fb7"),
}
_CORPUS = corpus()
_CORPUS_SAMPLE = list(_CORPUS)[::10]


def _no_read_records(path):
    raise AssertionError(f"{path} was left to the row reader")


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS) + _CORPUS_SAMPLE)
def test_simulated_traces_take_the_column_reader(name, tmp_path, monkeypatch):
    # a trace left to the per-row reader would exit 2 here
    monkeypatch.setattr(traffic, "_read_records", _no_read_records)
    if name in _PINNED_REPORTS:
        text, reports = _PINNED_TEXT[name], _PINNED_REPORTS[name]
    else:
        text, reports = _CORPUS[name], read_table()[name][3:]
    assert artifact_digests(text, tmp_path)[3:] == reports
