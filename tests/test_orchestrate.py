"""Planner decomposition, both engagement runners, and paired comparison."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sim import hub as hub_module
from c2sim import orchestrate
from c2sim.cli import main
from c2sim.engine import Simulator, draw_int
from c2sim.hub import Hub
from c2sim.orchestrate import (
    MODE_MANUAL,
    MODE_SWARM,
    compare,
    decompose,
    follow_up,
    run_scenario,
)
from c2sim.scenario import (
    Topology,
    default_scenario,
    default_scenario_text,
    parse_scenario,
)
from c2sim.traffic import LABEL_BEACON, LABEL_BENIGN, LABEL_CHAFF, LABEL_EVENT


def _journaled(sc):
    """The run of sc, and the journal its hub wrote: its text and its
    records."""
    journal = io.StringIO()
    run = run_scenario(sc, journal=journal)
    text = journal.getvalue()
    return run, text, [json.loads(line) for line in text.splitlines()]


def _times_by_entity(records, kinds) -> dict[str, list[int]]:
    """entity -> the times of its journaled records of the given kinds."""
    entity_of = {}
    times: dict[str, list[int]] = {}
    for rec in records:
        if rec["record_kind"] == "register":
            entity_of[rec["body"]["agent_id"]] = rec["body"]["entity"]
        elif rec["record_kind"] in kinds:
            entity = entity_of[rec["body"]["agent_id"]]
            times.setdefault(entity, []).append(rec["time_ms"])
    return times


def _parallel_text(n_agents: int) -> str:
    caps = "\n".join(f"    implant-{i}: a, b, c" for i in range(1, n_agents + 1))
    return f"""\
[scenario]
seed = 5
mode = autonomous_swarm

[topology]
subnets = a, b, c
intel =
    share s-a @ a/host-0
    share s-b @ b/host-0
    share s-c @ c/host-0
required_intel = share:s-a, share:s-b, share:s-c

[agents]
count = {n_agents}
capabilities =
{caps}
"""


# -- planner ------------------------------------------------------------------


def test_decompose_assignments():
    sc = default_scenario()
    load: dict[str, int] = {}
    planned = decompose(sc.topology, sc.agents, load)
    assert [(p.subnet, p.assignee) for p in planned] == [
        ("user_zone", "implant-1"), ("dmz", "implant-3"), ("server_zone", None)]
    assert all(p.requires == frozenset({p.subnet}) for p in planned)
    assert all(p.kind == "recon" for p in planned)
    assert load == {"implant-1": 1, "implant-3": 1}


def test_decompose_spreads_load():
    sc = parse_scenario(_parallel_text(3))
    load: dict[str, int] = {}
    planned = decompose(sc.topology, sc.agents, load)
    assert [p.assignee for p in planned] == ["implant-1", "implant-2", "implant-3"]


def test_follow_up_gating():
    sc = default_scenario()
    cred = "credential:name=cred-server"
    agents = sc.agents
    issued: set[str] = set()

    # no credential yet
    assert follow_up(sc.topology, set(), issued, agents, {}) == []
    # credential in hand but the source subnet is unexplored: hold and retry
    assert follow_up(sc.topology, {cred}, issued, agents, {}) == []
    assert issued == set()
    # source subnet explored: plan the pivot, least-loaded agent gets it
    keys = {cred, "host:name=user_zone/host-0"}
    load = {"implant-1": 1}
    planned = follow_up(sc.topology, keys, issued, agents, load)
    assert len(planned) == 1
    assert planned[0].kind == "pivot"
    assert planned[0].assignee == "implant-2"
    assert planned[0].meta == {"grants": "server_zone"}
    assert planned[0].requires == frozenset({"user_zone"})
    # consumed: the same turn inputs plan nothing on the next turn
    assert follow_up(sc.topology, keys, issued, agents, load) == []


def test_follow_up_counts_only_the_source_subnets_own_hosts():
    text = """\
[scenario]
seed = 1
mode = autonomous_swarm

[topology]
subnets = a, a/b, c
intel =
    credential key @ a/host-0
pivot_edges =
    key: a -> c
required_intel = host:c/host-0

[agents]
count = 1
"""
    sc = parse_scenario(text)
    cred = "credential:name=key"
    # a host of subnet a/b is not a host of subnet a
    assert follow_up(sc.topology, {cred, "host:name=a/b/host-0"}, set(),
                     sc.agents, {}) == []
    planned = follow_up(sc.topology, {cred, "host:name=a/host-3"}, set(),
                        sc.agents, {})
    assert [(p.subnet, p.grants) for p in planned] == [("a", "c")]


class _CountedAgent:
    """A roster record whose capability reads are counted in reads[0]."""

    def __init__(self, entity: str, capabilities: set[str], reads: list[int]):
        self.entity = entity
        self._capabilities = capabilities
        self._reads = reads

    @property
    def capabilities(self) -> set[str]:
        self._reads[0] += 1
        return self._capabilities


def test_decompose_reads_each_agent_once_and_assigns_as_the_pairwise_rule():
    rng = random.Random(7)
    subnets = [f"s{i}" for i in range(300)]
    reads = [0]
    agents = [_CountedAgent(f"implant-{i}", set(rng.sample(subnets, 3)), reads)
              for i in range(200)]
    topology = Topology(subnets=tuple(subnets), hosts_per_subnet=1, intel=(),
                        pivot_edges=(), required_keys=())
    load = {a.entity: rng.randrange(3) for a in agents[::4]}
    expected_load = dict(load)
    planned = decompose(topology, agents, load)
    # each agent's capabilities are read once, not once per subnet
    assert reads[0] == len(agents)
    # the rule as it reads: per subnet, the least-loaded capable agent,
    # roster order breaking ties
    expected = []
    for subnet in subnets:
        capable = [i for i, a in enumerate(agents)
                   if subnet in a._capabilities]
        if not capable:
            expected.append(None)
            continue
        i = min(capable,
                key=lambda i: (expected_load.get(agents[i].entity, 0), i))
        entity = agents[i].entity
        expected_load[entity] = expected_load.get(entity, 0) + 1
        expected.append(entity)
    assert [p.assignee for p in planned] == expected
    assert None in expected and load == expected_load


# -- autonomous runner -----------------------------------------------------------


def test_swarm_run_completes():
    run = run_scenario(default_scenario())
    m = run.metrics
    assert m.objective_met
    assert m.time_to_objective_ms is not None
    assert m.time_to_objective_ms < 600_000  # minutes, not hours
    assert m.operator_actions == 1
    assert m.tasks_issued == 4  # three surveys plus one pivot
    assert m.tasks_completed == 4
    assert m.pivots_executed == 1
    # 12 hosts, one credential, one share, one pivot result
    assert m.intel_items == 15
    assert m.window_ms == m.time_to_objective_ms


def test_swarm_determinism():
    a, a_journal, _ = _journaled(default_scenario())
    b, b_journal, _ = _journaled(default_scenario())
    assert a_journal == b_journal
    assert a.trace == b.trace
    assert a.metrics == b.metrics


def test_swarm_seed_variation():
    a = run_scenario(default_scenario())
    b = run_scenario(default_scenario().with_seed(43))
    assert a.metrics.time_to_objective_ms != b.metrics.time_to_objective_ms


def test_swarm_dispatch_bound():
    run, _, records = _journaled(default_scenario())
    issued_at = {}
    assigned = set()
    for rec in records:
        if rec["record_kind"] == "task_issue":
            issued_at[rec["body"]["task_id"]] = rec["time_ms"]
            if rec["body"]["assigned_to"] is not None:
                assigned.add(rec["body"]["task_id"])
    assert len(assigned) == 3
    for tid in assigned:
        task = run.hub.tasks[tid]
        assert task.fetched_at is not None
        assert task.fetched_at - issued_at[tid] <= 1500


def test_swarm_serial_execution_per_agent():
    run = run_scenario(_scenario_with_contention())
    by_entity: dict[str, list] = {}
    for s in run.sessions:
        by_entity.setdefault(s.entity, []).append(s)
    assert any(len(v) > 1 for v in by_entity.values())
    for sessions in by_entity.values():
        sessions.sort(key=lambda s: s.start)
        for prev, cur in zip(sessions, sessions[1:]):
            assert cur.start >= prev.start + prev.length_ms


def _scenario_with_contention():
    # one agent, two subnets to survey: work must serialize
    text = _parallel_text(1)
    return parse_scenario(text)


def test_swarm_trace_composition():
    run, _, records = _journaled(default_scenario())
    labels = {f.label for f in run.trace}
    assert labels == {LABEL_EVENT}
    contacts = sum(r["record_kind"] in ("fetch", "submit") for r in records)
    tasking = [f for f in run.trace if f.leg == "tasking"]
    assert len(tasking) == contacts
    reasoning = [f for f in run.trace if f.leg == "reasoning"]
    assert len(reasoning) >= 2 * run.metrics.tasks_issued
    assert all(f.ts_start <= run.metrics.window_ms for f in run.trace)


@pytest.mark.parametrize("mode, kinds", [
    (MODE_SWARM, ("fetch", "submit")),
    # a manual upload rides a poll: one flow per beacon, at its fetch
    (MODE_MANUAL, ("fetch",)),
], ids=["swarm", "manual"])
@pytest.mark.parametrize("text", [
    default_scenario_text(),
    default_scenario_text().replace("chaff_per_hour = 0", "chaff_per_hour = 60")
                           .replace("n_users = 0", "n_users = 3"),
    _parallel_text(3),
], ids=["default", "chaff-users", "parallel"])
def test_tasking_flows_start_at_each_entitys_hub_contacts(mode, kinds, text):
    run, _, records = _journaled(parse_scenario(text).with_mode(mode))
    flows: dict[str, list[int]] = {}
    for f in run.trace:
        if f.leg == "tasking":
            flows.setdefault(f.src, []).append(f.ts_start)
    assert flows == _times_by_entity(records, kinds)


def test_swarm_ignores_beacon_interval():
    base, base_journal, _ = _journaled(default_scenario())
    slow, slow_journal, _ = _journaled(
        default_scenario().with_beacon_interval(300_000))
    assert base_journal == slow_journal
    assert base.metrics == slow.metrics
    assert base.trace == slow.trace


@pytest.mark.parametrize("edits", [
    (),
    # every task outlasts the horizon, so no submit ever wakes the planner;
    # a planner on a 1 ms clock would turn 200,000 times
    (("horizon_ms = 604800000", "horizon_ms = 200000"),
     ("task_duration = lognormal(10.9, 0.35)",
      "task_duration = uniform(1000000000, 1000000000)"),
     ("planner_turn_latency = lognormal(9.0, 0.4)",
      "planner_turn_latency = uniform(1, 1)")),
], ids=["default", "unit-latency-long-tasks"])
def test_planner_turns_at_start_and_after_each_submit(edits, monkeypatch):
    text = default_scenario_text()
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    turns = []
    schedule = Simulator.schedule

    def counted(sim, time, handler, *args):
        if handler.__name__ == "_on_planner_turn":
            turns.append(time)
        return schedule(sim, time, handler, *args)

    monkeypatch.setattr(Simulator, "schedule", counted)
    _, _, records = _journaled(parse_scenario(text))
    submits = sum(r["record_kind"] == "submit" for r in records)
    assert 1 <= len(turns) <= 1 + submits


def test_agent_scaling_speeds_up_parallel_work():
    solo, crew = [], []
    for seed in (5, 6, 7):
        solo.append(run_scenario(
            parse_scenario(_parallel_text(1)).with_seed(seed)
        ).metrics.time_to_objective_ms)
        crew.append(run_scenario(
            parse_scenario(_parallel_text(3)).with_seed(seed)
        ).metrics.time_to_objective_ms)
    assert sorted(crew)[1] < sorted(solo)[1]


def test_a_swarm_chain_matches_tasks_a_bounded_number_of_times(monkeypatch):
    # one agent in z0 on a chain of n subnets: each pivot grants one tag,
    # and the hub's index tests each task against an agent a bounded number
    # of times, where a scan per fetch tests every queued task (n^2)
    n = 500
    text = _chain_text(seed=3, n_subnets=n, hosts=2, caps=[[0]],
                       interval=60_000, jitter=0.1, horizon=604_800_000,
                       think=(1_000, 2_000), work=(1_000, 2_000), users=0)
    sc = parse_scenario(text.replace(f"mode = {MODE_MANUAL}",
                                     f"mode = {MODE_SWARM}"))
    calls = []
    eligible = hub_module._eligible
    monkeypatch.setattr(hub_module, "_eligible",
                        lambda *a: calls.append(a) or eligible(*a))
    run = run_scenario(sc)
    assert run.metrics.objective_met and run.metrics.pivots_executed == n - 1
    assert len(calls) <= 8 * n


# -- manual runner ---------------------------------------------------------------


def test_manual_run_metrics():
    run = run_scenario(default_scenario().with_mode(MODE_MANUAL))
    m = run.metrics
    assert m.objective_met
    assert m.operator_actions == m.tasks_issued
    assert m.operator_actions >= 10
    assert m.pivots_executed == 1
    swarm = run_scenario(default_scenario())
    assert m.time_to_objective_ms > 2.5 * swarm.metrics.time_to_objective_ms


def test_manual_fetches_ride_beacon_ticks():
    run, _, records = _journaled(default_scenario().with_mode(MODE_MANUAL))
    beacon_ts: dict[str, list[int]] = {}
    for f in run.trace:
        if f.label == LABEL_BEACON:
            beacon_ts.setdefault(f.src, []).append(f.ts_start)
    # one poll per beacon, and polls happen exactly at beacon times
    assert _times_by_entity(records, ("fetch",)) == beacon_ts
    for rec in records:
        if rec["record_kind"] == "task_issue":
            task = run.hub.tasks[rec["body"]["task_id"]]
            assert task.fetched_at >= rec["time_ms"]


def test_manual_trace_is_beacon_only():
    run = run_scenario(default_scenario().with_mode(MODE_MANUAL))
    assert {f.label for f in run.trace} == {LABEL_BEACON}
    assert {f.src for f in run.trace} == {"implant-1", "implant-2", "implant-3"}
    assert all(f.dst == "hub" for f in run.trace)
    assert all(f.ts_start <= run.metrics.window_ms for f in run.trace)


def test_manual_slows_with_beacon_interval():
    times = []
    for interval in (60_000, 300_000, 900_000):
        sc = default_scenario().with_mode(MODE_MANUAL).with_beacon_interval(interval)
        times.append(run_scenario(sc).metrics.time_to_objective_ms)
    assert times[0] < times[1] < times[2]


def test_manual_determinism():
    sc = default_scenario().with_mode(MODE_MANUAL)
    a, a_journal, _ = _journaled(sc)
    b, b_journal, _ = _journaled(sc)
    assert a_journal == b_journal
    assert a.trace == b.trace


def test_a_manual_run_polls_at_its_horizon_past_2_to_the_53_ms():
    # the probe fetched at the first poll is uploaded at the second, which
    # falls exactly on the horizon
    interval = 2**53 + 1
    sc = parse_scenario(_chain_text(
        seed=1, n_subnets=1, hosts=1, caps=[[0]], interval=interval,
        jitter=0.0, horizon=2 * interval, think=(1000, 1000),
        work=(1000, 1000), users=0))
    run = run_scenario(sc)
    assert run.trace.ts.tolist() == [interval, 2 * interval]
    assert run.metrics.tasks_completed == 1
    assert run.metrics.objective_met


def test_a_manual_runs_trace_holds_no_per_flow_object():
    # Polls every 18 s over the week, with an operator who never acts: 100,798
    # flows. The trace is a FlowTable, a kind and four int64s a flow: 40 bytes
    # a flow held here, hub included; a list of FlowRecords held 211.
    text = (default_scenario_text()
            .replace("mode = autonomous_swarm", "mode = manual_baseline")
            .replace("interval_ms = 60000", "interval_ms = 18000")
            .replace("manual_think_time = lognormal(10.3, 0.4)",
                     "manual_think_time = uniform(700000000, 700000000)"))
    sc = parse_scenario(text)
    # once untraced, so the modules numpy imports on first use are not held
    run_scenario(default_scenario().with_mode(MODE_MANUAL))
    tracemalloc.start()
    try:
        run = run_scenario(sc)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.trace) >= 100_000 and not run.metrics.objective_met
    assert held < 48 * len(run.trace)


class _PerPollRun(orchestrate._ManualRun):
    """The manual runner with every poll dispatched by run_until and
    fetched by get_tasks: the reference for the idle stretch."""

    def _on_tick(self, entity: str) -> None:
        now = self.sim.clock
        self.contacts[entity].append(now)
        agent_id = self.hub.agent_id_for(entity)
        if (self.executing is not None and self.executing[0] == entity
                and self.executing[2] <= now):
            _, task_id, _ = self.executing
            self.executing = None
            self._upload(agent_id, task_id, now)
        for task in self.hub.get_tasks(agent_id, now):
            dur = draw_int(self.sim.stream(f"{entity}/work"),
                           self.sc.timing.task_duration, 1)
            self.executing = (entity, task.task_id, now + dur)
        self._schedule_tick(entity)


def _manual_run(kind, sc):
    """The run of sc by runner class kind, the journal it wrote, and the
    number of get_tasks calls it made."""
    journal = io.StringIO()
    runner = kind(sc, journal)
    calls = []
    get_tasks = runner.hub.get_tasks
    runner.hub.get_tasks = lambda *a: calls.append(a) or get_tasks(*a)
    try:
        run = runner.run()
    finally:
        runner.sim.clear()
    return run, journal.getvalue(), len(calls)


def _chain_text(seed: int, n_subnets: int, hosts: int, caps: list[list[int]],
                interval: int, jitter: float, horizon: int,
                think: tuple[int, int], work: tuple[int, int],
                users: int) -> str:
    """A manual run over a pivot chain z0 -> z1 -> ...: credential c_i on
    z_i/host-0 opens z_{i+1}, and the objective is a share on the last
    subnet. caps lists each agent's subnets by number."""
    last = n_subnets - 1
    intel = [f"    credential c{i} @ z{i}/host-0" for i in range(last)]
    intel.append(f"    share target @ z{last}/host-{hosts - 1}")
    edges = [f"    c{i}: z{i} -> z{i + 1}" for i in range(last)]
    agents = [f"    implant-{k}: {', '.join(f'z{c}' for c in sorted(cs))}"
              for k, cs in enumerate(caps, 1)]
    nl = "\n"
    return f"""\
[scenario]
seed = {seed}
mode = {MODE_MANUAL}
horizon_ms = {horizon}

[topology]
subnets = {", ".join(f"z{i}" for i in range(n_subnets))}
hosts_per_subnet = {hosts}
intel =
{nl.join(intel)}
pivot_edges =
{nl.join(edges)}
required_intel = share:target

[agents]
count = {len(caps)}
capabilities =
{nl.join(agents)}

[timing]
task_duration = uniform{work}
manual_think_time = uniform{think}

[beacon]
interval_ms = {interval}
jitter_fraction = {jitter}

[background]
n_users = {users}
"""


@st.composite
def _small_manual_scenarios(draw):
    """Up to 8 agents, some without a subnet's capability (the last
    subnet, where the objective is, may be nobody's until a pivot), on one
    interval with jitter 0 so that every agent polls at the same ms, or
    jittered; horizons that end the run before, near or after the
    objective."""
    n_subnets = draw(st.integers(1, 3))
    caps = draw(st.lists(
        st.frozensets(st.integers(0, n_subnets - 1), min_size=1),
        min_size=1, max_size=8))
    think_lo = draw(st.integers(0, 3_000))
    work_lo = draw(st.integers(0, 5_000))
    return parse_scenario(_chain_text(
        seed=draw(st.integers(0, 2**32)), n_subnets=n_subnets,
        hosts=draw(st.integers(1, 3)),
        caps=[sorted(c) for c in caps],
        interval=draw(st.sampled_from([500, 1_000, 3_000])),
        jitter=draw(st.sampled_from([0.0, 0.0, 0.2, 0.9])),
        horizon=draw(st.integers(20_000, 120_000) | st.integers(1, 20_000)),
        think=(think_lo, think_lo + draw(st.integers(0, 3_000))),
        work=(work_lo, work_lo + draw(st.integers(0, 5_000))),
        users=draw(st.integers(0, 1))))


def _assert_same_run(sc):
    run, journal, calls = _manual_run(orchestrate._ManualRun, sc)
    ref, ref_journal, ref_calls = _manual_run(_PerPollRun, sc)
    assert journal == ref_journal
    assert run.trace == ref.trace
    assert run.metrics == ref.metrics
    assert run.hub.state_dict() == ref.hub.state_dict()
    assert run.hub._seq == ref.hub._seq
    assert calls <= ref_calls
    return run, calls, ref_calls


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sc=_small_manual_scenarios())
def test_the_idle_stretch_runs_as_the_per_poll_runner(sc):
    _assert_same_run(sc)


@pytest.mark.parametrize("edits", [
    (),  # the default scenario: jittered, objective met
    (("jitter_fraction = 0.1", "jitter_fraction = 0.0"),),  # ties each tick
    (("horizon_ms = 604800000", "horizon_ms = 3000000"),),  # not met
    (("implant-2: user_zone", "implant-2: server_zone"),),  # idle until pivot
])
def test_the_idle_stretch_on_the_default_scenario(edits):
    text = default_scenario_text().replace("mode = autonomous_swarm",
                                           f"mode = {MODE_MANUAL}")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    run, calls, ref_calls = _assert_same_run(parse_scenario(text))
    # nearly every poll is empty, and the stretch takes it without get_tasks;
    # the trace is one beacon flow a poll
    assert ref_calls == len(run.trace) and calls < len(run.trace) / 2


def test_the_objective_met_mid_stretch_keeps_that_ms_polls():
    # jitter 0: all three agents poll at every whole minute; the objective
    # is met at one of those polls, and the others at that ms still run
    text = (default_scenario_text()
            .replace("mode = autonomous_swarm", f"mode = {MODE_MANUAL}")
            .replace("jitter_fraction = 0.1", "jitter_fraction = 0.0"))
    run, _, _ = _assert_same_run(parse_scenario(text))
    done = run.metrics.time_to_objective_ms
    assert done % 60_000 == 0
    at_done = [f.src for f in run.trace if f.ts_start == done]
    assert sorted(at_done) == ["implant-1", "implant-2", "implant-3"]


def test_a_long_idle_stretch_runs_in_bounded_memory():
    # 302,400 polls, every one empty, in one stretch: the memory above the
    # contact log is one chunk of polls and lines, whatever the stretch's
    # length
    text = (default_scenario_text()
            .replace("mode = autonomous_swarm", f"mode = {MODE_MANUAL}")
            .replace("interval_ms = 60000", "interval_ms = 6000")
            .replace("jitter_fraction = 0.1", "jitter_fraction = 0.0")
            .replace("manual_think_time = lognormal(10.3, 0.4)",
                     "manual_think_time = uniform(700000000, 700000000)"))
    sc = parse_scenario(text)
    with open(os.devnull, "w", encoding="utf-8") as journal:
        runner = orchestrate._ManualRun(sc, journal)
        try:
            for spec in sc.agents:
                runner.hub.register_agent(spec.entity,
                                          sorted(spec.capabilities), 0)
            runner._start()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                runner.sim.run_until(sc.horizon_ms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            contacts = list(runner.contacts.values())
        finally:
            runner.sim.clear()
    polls = sum(map(len, contacts))
    log = sum(sys.getsizeof(c) + sum(map(sys.getsizeof, c))
              for c in contacts)
    assert polls >= 300_000 and runner.hub._seq == polls + 3
    assert peak - before - log < 16 * polls


# -- optional traffic layers ----------------------------------------------------


def test_chaff_and_background_layers():
    text = (default_scenario_text()
            .replace("chaff_per_hour = 0", "chaff_per_hour = 120")
            .replace("n_users = 0", "n_users = 2"))
    swarm = run_scenario(parse_scenario(text))
    labels = {f.label for f in swarm.trace}
    assert LABEL_CHAFF in labels and LABEL_BENIGN in labels
    assert all(f.dst_class == "planner"
               for f in swarm.trace if f.label == LABEL_CHAFF)
    window = swarm.metrics.window_ms
    # attacker-origin flows end with the engagement; background does not
    assert all(f.ts_start <= window
               for f in swarm.trace if f.label != LABEL_BENIGN)
    assert max(f.ts_start for f in swarm.trace
               if f.label == LABEL_BENIGN) > window
    manual = run_scenario(parse_scenario(text).with_mode(MODE_MANUAL))
    assert {f.label for f in manual.trace} == {LABEL_BEACON, LABEL_BENIGN}


# -- comparison ------------------------------------------------------------------


def test_compare_rows_and_summary():
    result = compare(default_scenario(), n_seeds=3)
    columns = ("seed", "time_swarm_ms", "time_manual_ms", "actions_swarm",
               "actions_manual", "speedup")
    assert len(result.rows) == 3
    assert [r["seed"] for r in result.rows] == [42, 43, 44]
    for row in result.rows:
        assert tuple(row) == columns
        assert row["actions_swarm"] == 1
        assert row["actions_manual"] >= 10
        assert row["speedup"] > 2.5
    assert tuple(result.summary) == columns
    assert result.summary["seed"] == "median"
    assert result.summary["speedup"] > 2.5
    assert result.summary["actions_swarm"] == 1


def test_compare_rejects_too_few_seeds():
    with pytest.raises(ValueError):
        compare(default_scenario(), n_seeds=2)


def test_journal_is_closed_when_a_handler_raises(tmp_path, monkeypatch,
                                                 capsys):
    handles = []

    class RecordingHub(Hub):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            handles.append(self.journal)

    def fail(self, ev):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(orchestrate, "Hub", RecordingHub)
    monkeypatch.setattr(orchestrate._SwarmRun, "_on_checkin", fail)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(default_scenario_text(), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "handler failed" in capsys.readouterr().err
    assert len(handles) == 1 and handles[0].closed
    # the records before the failure
    assert (out / "journal.ndjson").read_bytes()


@pytest.mark.parametrize("mode", [MODE_SWARM, MODE_MANUAL])
def test_finished_run_frees_its_hub_without_a_cyclic_collection(mode):
    gc.disable()
    try:
        run = run_scenario(default_scenario().with_mode(mode))
        hub = weakref.ref(run.hub)
        del run
        assert hub() is None
    finally:
        gc.enable()
