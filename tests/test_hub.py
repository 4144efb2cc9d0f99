"""Hub state machine and journal checks.

The replay tests compare the production reducer against a small independent
interpreter written here, record by record, so recovery correctness never
rests on the code under test alone.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from c2sim.engine import Simulator
from c2sim.hub import (
    AGENT_ACTIVE,
    AGENT_POTENTIALLY_LOST,
    DuplicateAgentError,
    HeartbeatPolicy,
    Hub,
    HubError,
    IntelItem,
    RetiredAgentError,
    Task,
    TaskStateError,
    UnknownAgentError,
    journal_lines,
    make_content_key,
)

POLICY = HeartbeatPolicy(min_window_ms=3_600_000, max_window_ms=172_800_000)


def _hub(policy=POLICY, seed=11, path=None):
    sim = Simulator(seed)
    return Hub(policy, journal_path=path, streams=sim.stream)


def _task(tid, requires=(), assigned=None, meta=None):
    return Task(task_id=tid, objective_ref="obj-1", description=f"recon {tid}",
                requires=frozenset(requires), assigned_to=assigned,
                work_model="lognormal(10.9, 0.35)", meta=meta or {})


def _intel(iid, agent, kind="host", **fields):
    return IntelItem.create(iid, agent, kind, **fields)


# -- registration ------------------------------------------------------------


def test_register_issues_ids_and_rejects_duplicates():
    hub = _hub()
    a1 = hub.register_agent("implant-1", ["user_zone"], now=0)
    a2 = hub.register_agent("implant-2", ["user_zone", "dmz"], now=5)
    assert (a1, a2) == ("agent-1", "agent-2")
    with pytest.raises(DuplicateAgentError) as exc:
        hub.register_agent("implant-1", ["dmz"], now=10)
    assert "agent-1" in str(exc.value)


def test_register_requires_a_capability():
    with pytest.raises(HubError):
        _hub().register_agent("implant-1", [], now=0)


def test_ten_agents_draw_windows_inside_policy_range():
    hub = _hub()
    for i in range(10):
        hub.register_agent(f"implant-{i}", ["user_zone"], now=0)
    windows = [a.window_ms for a in hub.roster.values()]
    assert all(POLICY.min_window_ms <= w <= POLICY.max_window_ms for w in windows)
    assert len(set(windows)) > 1  # jittered, not a shared constant


def test_window_draws_are_reproducible_per_entity():
    h1, h2 = _hub(seed=99), _hub(seed=99)
    h1.register_agent("implant-1", ["a"], now=0)
    h2.register_agent("implant-1", ["a"], now=0)
    assert (h1.roster["agent-1"].window_ms == h2.roster["agent-1"].window_ms)


# -- tasking -----------------------------------------------------------------


def test_assigned_task_fetch_and_close_lifecycle():
    hub = _hub()
    aid = hub.register_agent("implant-1", ["user_zone"], now=0)
    hub.issue_task(_task("t-1", assigned=aid), now=100)
    got = hub.get_tasks(aid, now=250)
    assert [t.task_id for t in got] == ["t-1"]
    assert hub.tasks["t-1"].state == "fetched"
    assert hub.tasks["t-1"].fetched_at == 250
    hub.close_task("t-1", "completed", now=900)
    assert hub.tasks["t-1"].state == "completed"
    assert hub.tasks["t-1"].closed_at == 900


def test_unassigned_task_requires_capability_subset():
    hub = _hub()
    weak = hub.register_agent("implant-1", ["user_zone"], now=0)
    strong = hub.register_agent("implant-2", ["user_zone", "dmz"], now=0)
    hub.issue_task(_task("t-1", requires={"user_zone", "dmz"}), now=1)
    assert hub.get_tasks(weak, now=2) == []
    got = hub.get_tasks(strong, now=3)
    assert [t.task_id for t in got] == ["t-1"]
    assert hub.tasks["t-1"].assigned_to == strong  # first fetch wins


def test_first_fetch_wins_between_equally_capable_agents():
    hub = _hub()
    a1 = hub.register_agent("implant-1", ["dmz"], now=0)
    a2 = hub.register_agent("implant-2", ["dmz"], now=0)
    hub.issue_task(_task("t-1", requires={"dmz"}), now=1)
    assert [t.task_id for t in hub.get_tasks(a2, now=5)] == ["t-1"]
    assert hub.get_tasks(a1, now=6) == []
    assert hub.tasks["t-1"].assigned_to == a2


def test_every_task_appears_in_exactly_one_fetch_record():
    hub = _hub()
    a1 = hub.register_agent("implant-1", ["user_zone"], now=0)
    a2 = hub.register_agent("implant-2", ["user_zone", "dmz"], now=0)
    for i in range(3):
        hub.issue_task(_task(f"t-{i}", requires={"user_zone"}), now=10)
    hub.issue_task(_task("t-3", requires={"dmz"}), now=10)
    hub.issue_task(_task("t-4", assigned=a1), now=10)
    for now in (20, 30, 40):
        hub.get_tasks(a1, now=now)
        hub.get_tasks(a2, now=now)
    fetched = [tid for rec in hub.journal if rec["record_kind"] == "fetch"
               for tid in rec["body"]["task_ids"]]
    assert sorted(fetched) == ["t-0", "t-1", "t-2", "t-3", "t-4"]
    assert len(fetched) == len(set(fetched))


def test_get_tasks_errors():
    hub = _hub()
    with pytest.raises(UnknownAgentError):
        hub.get_tasks("agent-9", now=0)
    aid = hub.register_agent("implant-1", ["a"], now=0)
    hub.retire_agent(aid, now=5)
    with pytest.raises(RetiredAgentError):
        hub.get_tasks(aid, now=6)


def test_close_task_transitions_are_guarded():
    hub = _hub()
    aid = hub.register_agent("implant-1", ["a"], now=0)
    hub.issue_task(_task("t-1", assigned=aid), now=1)
    with pytest.raises(TaskStateError):
        hub.close_task("t-1", "completed", now=2)  # queued, never fetched
    hub.get_tasks(aid, now=3)
    with pytest.raises(TaskStateError):
        hub.close_task("t-1", "queued", now=4)
    hub.close_task("t-1", "failed", now=5)
    with pytest.raises(TaskStateError):
        hub.close_task("t-9", "completed", now=6)


def test_duplicate_task_id_rejected():
    hub = _hub()
    hub.register_agent("implant-1", ["a"], now=0)
    hub.issue_task(_task("t-1", requires={"a"}), now=1)
    with pytest.raises(TaskStateError):
        hub.issue_task(_task("t-1", requires={"a"}), now=2)


def test_completed_pivot_grants_capability_to_fetcher():
    hub = _hub()
    aid = hub.register_agent("implant-1", ["user_zone"], now=0)
    hub.issue_task(_task("p-1", requires={"user_zone"},
                         meta={"kind": "pivot", "grants": "server_zone"}), now=1)
    hub.get_tasks(aid, now=2)
    hub.close_task("p-1", "completed", now=3)
    assert "server_zone" in hub.roster[aid].capabilities


# -- intelligence ------------------------------------------------------------


def test_submit_accepts_dedups_and_tracks_provenance():
    hub = _hub()
    a1 = hub.register_agent("implant-1", ["a"], now=0)
    a2 = hub.register_agent("implant-2", ["a"], now=0)
    r1 = hub.submit_intelligence(a1, [
        _intel("i-1", a1, "credential", name="cred-server"),
        _intel("i-2", a1, "host", name="dmz/host-0"),
    ], now=100)
    assert (r1.accepted, r1.deduplicated, r1.rejected) == (2, 0, [])
    r2 = hub.submit_intelligence(a2, [
        _intel("i-3", a2, "credential", name="cred-server"),
    ], now=200)
    assert (r2.accepted, r2.deduplicated) == (0, 1)
    key = make_content_key("credential", {"name": "cred-server"})
    item = hub.context.items[key]
    assert item.source_agent == a1 and item.submitted_at == 100
    assert hub.context.provenance[key] == [(a1, 100), (a2, 200)]


def test_submit_dedups_within_one_batch():
    hub = _hub()
    aid = hub.register_agent("implant-1", ["a"], now=0)
    res = hub.submit_intelligence(aid, [
        _intel("i-1", aid, "host", name="x"),
        _intel("i-2", aid, "host", name="x"),
    ], now=5)
    assert (res.accepted, res.deduplicated) == (1, 1)


def test_malformed_items_rejected_and_never_journaled():
    hub = _hub()
    aid = hub.register_agent("implant-1", ["a"], now=0)
    bad_key = _intel("i-1", aid, "host", name="x")
    bad_key.content_key = "host:name=tampered"
    bad_kind = _intel("i-2", aid, "host", name="y")
    bad_kind.kind = "exploit"
    empty = _intel("i-3", aid, "host", name="z")
    empty.payload = {}
    res = hub.submit_intelligence(
        aid, [bad_key, bad_kind, empty, _intel("i-4", aid, "host", name="w")], now=9)
    assert res.rejected == ["i-1", "i-2", "i-3"]
    assert res.accepted == 1
    journaled = [i["intel_id"] for rec in hub.journal
                 if rec["record_kind"] == "submit" for i in rec["body"]["items"]]
    assert journaled == ["i-4"]


def test_content_key_is_pure_and_order_insensitive():
    k1 = make_content_key("service", {"port": 443, "host": "dmz/host-1"})
    k2 = make_content_key("service", {"host": "dmz/host-1", "port": 443})
    assert k1 == k2 == "service:host=dmz/host-1,port=443"
    with pytest.raises(ValueError):
        make_content_key("exploit", {"name": "x"})
    with pytest.raises(ValueError):
        make_content_key("host", {})


# -- liveness ----------------------------------------------------------------


def test_sweep_boundary_is_strict():
    hub = _hub(policy=HeartbeatPolicy(1000, 1000))
    aid = hub.register_agent("implant-1", ["a"], now=0)
    assert hub.sweep_liveness(now=1000) == []           # exactly the window
    assert hub.roster[aid].status == AGENT_ACTIVE
    assert hub.sweep_liveness(now=1001) == [aid]        # one past the window
    assert hub.roster[aid].status == AGENT_POTENTIALLY_LOST


def test_sweep_is_idempotent_and_contact_restores():
    hub = _hub(policy=HeartbeatPolicy(1000, 1000))
    aid = hub.register_agent("implant-1", ["a"], now=0)
    assert hub.sweep_liveness(now=5000) == [aid]
    assert hub.sweep_liveness(now=6000) == []           # already marked
    hub.get_tasks(aid, now=7000)                        # any contact restores
    assert hub.roster[aid].status == AGENT_ACTIVE
    assert hub.sweep_liveness(now=7500) == []
    assert hub.sweep_liveness(now=8001) == [aid]


def test_submit_also_restores_liveness():
    hub = _hub(policy=HeartbeatPolicy(100, 100))
    aid = hub.register_agent("implant-1", ["a"], now=0)
    hub.sweep_liveness(now=500)
    hub.submit_intelligence(aid, [_intel("i-1", aid, "host", name="h")], now=600)
    assert hub.roster[aid].status == AGENT_ACTIVE


def test_sweep_matches_independent_recomputation():
    # oracle: replay the contact log by hand and flag on the same rule
    rnd = random.Random(404)
    hub = _hub(policy=HeartbeatPolicy(50, 500), seed=5)
    ids = [hub.register_agent(f"implant-{i}", ["a"], now=0) for i in range(8)]
    last = {aid: 0 for aid in ids}
    windows = {aid: hub.roster[aid].window_ms for aid in ids}
    marked = set()
    now = 0
    for _ in range(300):
        now += rnd.randrange(1, 120)
        if rnd.random() < 0.5:
            aid = rnd.choice(ids)
            hub.get_tasks(aid, now=now)
            last[aid] = now
            marked.discard(aid)
        else:
            got = set(hub.sweep_liveness(now=now))
            want = {aid for aid in ids
                    if aid not in marked and now - last[aid] > windows[aid]}
            assert got == want
            marked |= want


# -- journal and recovery ------------------------------------------------------


def _scripted_hub(path=None):
    hub = _hub(seed=21, path=path)
    a1 = hub.register_agent("implant-1", ["user_zone"], now=0)
    a2 = hub.register_agent("implant-2", ["user_zone", "dmz"], now=0)
    hub.issue_task(_task("t-1", assigned=a1), now=10)
    hub.issue_task(_task("t-2", requires={"dmz"}), now=10)
    hub.issue_task(_task("t-3", requires={"user_zone"},
                         meta={"kind": "pivot", "grants": "server_zone"}), now=12)
    hub.get_tasks(a1, now=40)
    hub.get_tasks(a2, now=45)
    hub.submit_intelligence(a1, [
        _intel("i-1", a1, "host", name="user_zone/host-0"),
        _intel("i-2", a1, "credential", name="cred-server"),
    ], now=200)
    hub.close_task("t-1", "completed", now=210)
    hub.close_task("t-2", "failed", now=215)
    hub.submit_intelligence(a2, [
        _intel("i-3", a2, "credential", name="cred-server"),
        _intel("i-4", a2, "share", name="crown-jewels"),
    ], now=230)
    hub.get_tasks(a1, now=300)
    hub.close_task("t-3", "completed", now=350)
    hub.sweep_liveness(now=400)
    hub.retire_agent(a2, now=500)
    return hub


def test_journal_records_have_fixed_shape():
    hub = _scripted_hub()
    kinds = set()
    for i, rec in enumerate(hub.journal):
        assert set(rec) == {"seq", "time_ms", "record_kind", "body"}
        assert rec["seq"] == i
        kinds.add(rec["record_kind"])
    assert kinds == {"register", "task_issue", "fetch", "submit", "task_close",
                     "liveness_mark"}
    times = [r["time_ms"] for r in hub.journal]
    assert times == sorted(times)


def test_journal_file_matches_in_memory_records(tmp_path):
    path = tmp_path / "journal.ndjson"
    hub = _scripted_hub(path=path)
    hub.close()
    assert path.read_bytes() == journal_lines(hub.journal)


def test_full_replay_reproduces_state_exactly():
    hub = _scripted_hub()
    rec = Hub.recover(journal_lines(hub.journal))
    assert not rec.truncated
    assert rec.records_applied == len(hub.journal)
    assert rec.hub.state_dict() == hub.state_dict()


def _reference_replay(records):
    """Independent journal interpreter used as the recovery oracle."""
    agents, tasks, items, prov = {}, {}, {}, {}
    for rec in records:
        b, t, kind = rec["body"], rec["time_ms"], rec["record_kind"]
        if kind == "register":
            agents[b["agent_id"]] = {"caps": set(b["capabilities"]),
                                     "last": t, "status": "active",
                                     "window": b["window_ms"]}
        elif kind == "task_issue":
            tasks[b["task_id"]] = {"state": "queued", "assigned": b["assigned_to"],
                                   "meta": b["meta"]}
        elif kind == "fetch":
            for tid in b["task_ids"]:
                tasks[tid]["state"] = "fetched"
                if tasks[tid]["assigned"] is None:
                    tasks[tid]["assigned"] = b["agent_id"]
            agents[b["agent_id"]]["last"] = t
            if agents[b["agent_id"]]["status"] == "potentially_lost":
                agents[b["agent_id"]]["status"] = "active"
        elif kind == "submit":
            for it in b["items"]:
                items.setdefault(it["content_key"], it["intel_id"])
                prov.setdefault(it["content_key"], []).append([b["agent_id"], t])
            agents[b["agent_id"]]["last"] = t
            if agents[b["agent_id"]]["status"] == "potentially_lost":
                agents[b["agent_id"]]["status"] = "active"
        elif kind == "task_close":
            task = tasks[b["task_id"]]
            task["state"] = b["state"]
            grant = task["meta"].get("grants")
            if grant and b["state"] == "completed" and task["assigned"]:
                agents[task["assigned"]]["caps"].add(grant)
        elif kind == "liveness_mark":
            agents[b["agent_id"]]["status"] = b["status"]
    return agents, tasks, items, prov


def _project(hub):
    state = hub.state_dict()
    agents = {aid: {"caps": set(a["capabilities"]), "last": a["last_contact"],
                    "status": a["status"], "window": a["window_ms"]}
              for aid, a in state["agents"].items()}
    tasks = {tid: {"state": t["state"], "assigned": t["assigned_to"],
                   "meta": t["meta"]} for tid, t in state["tasks"].items()}
    items = {k: v["intel_id"] for k, v in state["context"]["items"].items()}
    prov = {k: [list(p) for p in v]
            for k, v in state["context"]["provenance"].items()}
    return agents, tasks, items, prov


def test_recovery_at_every_record_boundary_matches_oracle():
    hub = _scripted_hub()
    blob = journal_lines(hub.journal)
    boundaries = [0]
    pos = 0
    for line in blob.splitlines(keepends=True):
        pos += len(line)
        boundaries.append(pos)
    for n, cut in enumerate(boundaries):
        rec = Hub.recover(blob[:cut])
        assert not rec.truncated
        assert rec.records_applied == n
        assert _project(rec.hub) == _reference_replay(hub.journal[:n])


def test_recovery_stops_at_torn_record_and_reports_position():
    hub = _scripted_hub()
    blob = journal_lines(hub.journal)
    lines = blob.splitlines(keepends=True)
    keep = 5
    prefix = b"".join(lines[:keep])
    torn = prefix + lines[keep][: len(lines[keep]) // 2]
    rec = Hub.recover(torn)
    assert rec.truncated
    assert rec.records_applied == keep
    assert rec.stopped_at_byte == len(prefix)
    assert _project(rec.hub) == _reference_replay(hub.journal[:keep])


def test_recovery_rejects_garbage_line_midstream():
    hub = _scripted_hub()
    lines = journal_lines(hub.journal).splitlines(keepends=True)
    blob = b"".join(lines[:4]) + b'{"seq": 4, "oops": true}\n' + b"".join(lines[4:])
    rec = Hub.recover(blob)
    assert rec.truncated and rec.records_applied == 4


@pytest.mark.parametrize("body", [
    {"task_ids": []},                                   # no agent_id
    {"agent_id": "agent-99", "task_ids": []},           # unknown agent
    {"agent_id": "agent-1", "task_ids": ["t-1", "t-404"]},  # unknown task
    {"agent_id": "agent-1", "task_ids": 7},             # wrong type
    [],                                                 # not an object
])
def test_recovery_stops_at_fetch_with_bad_body(body):
    hub = _scripted_hub()
    lines = journal_lines(hub.journal).splitlines(keepends=True)
    keep = next(i for i, r in enumerate(hub.journal)
                if r["record_kind"] == "fetch")
    bad = {"seq": keep, "time_ms": 40, "record_kind": "fetch", "body": body}
    prefix = b"".join(lines[:keep])
    blob = prefix + journal_lines([bad]) + b"".join(lines[keep + 1:])
    rec = Hub.recover(blob)
    assert rec.truncated
    assert rec.records_applied == keep
    assert rec.stopped_at_byte == len(prefix)
    # the rejected record leaves no partial trace in the recovered state
    assert _project(rec.hub) == _reference_replay(hub.journal[:keep])
    assert rec.hub.state_dict() == Hub.recover(prefix).hub.state_dict()


@pytest.mark.parametrize("line", [b"\xff\xfe\n", b"[" * 100_000 + b"\n"],
                         ids=["not-utf8", "nested-too-deep"])
def test_recovery_stops_at_line_json_cannot_read(line):
    hub = _scripted_hub()
    lines = journal_lines(hub.journal).splitlines(keepends=True)
    rec = Hub.recover(b"".join(lines[:3]) + line + lines[3])
    assert rec.truncated and rec.records_applied == 3


def test_acked_submissions_survive_any_later_crash():
    hub = _scripted_hub()
    blob = journal_lines(hub.journal)
    lines = blob.splitlines(keepends=True)
    # keys acknowledged as of each record index
    acked_by = []
    seen = set()
    for rec in hub.journal:
        if rec["record_kind"] == "submit":
            seen |= {i["content_key"] for i in rec["body"]["items"]}
        acked_by.append(set(seen))
    pos = 0
    for i, line in enumerate(lines):
        pos += len(line)
        recovered = Hub.recover(blob[:pos]).hub
        assert acked_by[i] <= set(recovered.context.items)


def test_recovery_consumes_no_randomness():
    # windows come from the journal, not from fresh draws
    hub = _scripted_hub()
    rec = Hub.recover(journal_lines(hub.journal))
    assert rec.hub._streams is None
    assert ([a["window_ms"] for a in rec.hub.state_dict()["agents"].values()]
            == [a["window_ms"] for a in hub.state_dict()["agents"].values()])


def test_state_dict_is_json_serializable_snapshot():
    hub = _scripted_hub()
    snap = json.loads(json.dumps(hub.state_dict(), sort_keys=True))
    again = json.loads(json.dumps(hub.state_dict(), sort_keys=True))
    assert snap == again
    assert copy.deepcopy(snap) == snap
