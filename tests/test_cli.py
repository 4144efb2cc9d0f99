"""End-to-end command-line behavior, run in-process through main()."""

from __future__ import annotations

import hashlib
import json

import pytest

from c2sim.cli import main
from c2sim.engine import RngStream
from c2sim.scenario import default_scenario_text
from c2sim.traffic import (
    BeaconConfig,
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
    write_trace(p, flows)
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


def test_detect_malformed_trace(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text(
        "ts_start_ms,duration_ms,src,dst,dst_class,bytes_init,bytes_resp,leg,label\n"
        "0,10,a,b,hub,5,5,tasking,beacon_c2\n"
        "oops,10,a,b,hub,5,5,tasking,beacon_c2\n",
        encoding="utf-8")
    assert main(["detect", str(p), "--out", str(tmp_path / "det")]) == 1
    assert "malformed trace row 3" in capsys.readouterr().err


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
