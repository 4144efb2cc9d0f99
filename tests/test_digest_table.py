"""Every scenario of the generated corpus against its row of the digest table:
the artifacts' bytes, a second run's bytes and objective, and replay of its
journal."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest
from scenario_corpus import artifact_digests, corpus, read_table

from c2sim.hub import Hub
from c2sim.orchestrate import run_scenario
from c2sim.scenario import parse_scenario
from c2sim.traffic import write_trace

CASES = corpus()
TABLE = read_table()


def test_the_table_has_a_row_for_each_scenario():
    assert list(TABLE) == list(CASES)
    assert len(CASES) >= 150


@pytest.mark.parametrize("name", list(CASES))
def test_generated_scenario_matches_its_digests(name, tmp_path):
    text = CASES[name]
    assert artifact_digests(text, tmp_path) == TABLE[name]
    # a second run of the same scenario writes the same bytes
    journal = io.StringIO()
    run = run_scenario(parse_scenario(text), journal=journal)
    # every scenario is built to be winnable, in both modes
    assert run.metrics.objective_met
    sim = tmp_path / "sim"
    blob = journal.getvalue().encode()
    assert blob == (sim / "journal.ndjson").read_bytes()
    write_trace(tmp_path / "again.csv", run.trace)
    assert ((tmp_path / "again.csv").read_bytes()
            == (sim / "trace.csv").read_bytes())
    assert dataclasses.asdict(run.metrics) == json.loads(
        (sim / "metrics.json").read_text())
    # and replay of its journal rebuilds the hub that wrote it
    rec = Hub.recover(blob)
    assert not rec.truncated
    assert rec.hub.state_dict() == run.hub.state_dict()
