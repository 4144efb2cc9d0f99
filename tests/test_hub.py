"""Hub state machine and journal checks.

The replay tests compare the production reducer against a small independent
interpreter written here, record by record, so recovery correctness never
rests on the code under test alone.
"""

from __future__ import annotations

import copy
import functools
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c2sim import hub as hub_module
from c2sim.engine import Simulator
from c2sim.hub import (
    AGENT_ACTIVE,
    AGENT_POTENTIALLY_LOST,
    INTEL_KINDS,
    DuplicateAgentError,
    HeartbeatPolicy,
    Hub,
    HubError,
    IntelItem,
    RECORD_KINDS,
    TASK_COMPLETED,
    TASK_FAILED,
    TASK_FETCHED,
    TASK_QUEUED,
    Task,
    TaskStateError,
    UnknownAgentError,
    _encode,
    make_content_key,
)
from c2sim.orchestrate import MODE_MANUAL, run_scenario
from c2sim.scenario import MODE_SWARM, default_scenario

POLICY = HeartbeatPolicy(min_window_ms=3_600_000, max_window_ms=172_800_000)


def journal_lines(records: list[dict]) -> bytes:
    """Serialize journal records exactly as the hub writes them."""
    return b"".join((_encode(r) + "\n").encode() for r in records)


def _hub(policy=POLICY, seed=11, journal=None):
    """A hub that writes its journal to journal, or to a new StringIO."""
    sim = Simulator(seed)
    return Hub(policy, journal=io.StringIO() if journal is None else journal,
               streams=sim.stream)


def _bytes(hub) -> bytes:
    """The journal hub wrote to its StringIO."""
    return hub.journal.getvalue().encode()


def _records(hub) -> list[dict]:
    """The records hub wrote to its StringIO, decoded."""
    return [json.loads(line) for line in hub.journal.getvalue().splitlines()]


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
    fetched = [tid for rec in _records(hub) if rec["record_kind"] == "fetch"
               for tid in rec["body"]["task_ids"]]
    assert sorted(fetched) == ["t-0", "t-1", "t-2", "t-3", "t-4"]
    assert len(fetched) == len(set(fetched))


def test_get_tasks_errors():
    hub = _hub()
    with pytest.raises(UnknownAgentError):
        hub.get_tasks("agent-9", now=0)


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
    journaled = [i["intel_id"] for rec in _records(hub)
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


@pytest.mark.parametrize("lo,hi", [(0, 1), (2, 1)])
def test_heartbeat_policy_needs_a_positive_ordered_range(lo, hi):
    with pytest.raises(ValueError):
        HeartbeatPolicy(lo, hi)


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


def _scripted_hub(journal=None):
    hub = _hub(seed=21, journal=journal)
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
    # past both agents' windows, so the journal holds liveness marks
    hub.sweep_liveness(now=400 + POLICY.max_window_ms)
    return hub


def test_journal_records_have_fixed_shape():
    hub = _scripted_hub()
    kinds = set()
    for i, rec in enumerate(_records(hub)):
        assert set(rec) == {"seq", "time_ms", "record_kind", "body"}
        assert rec["seq"] == i
        kinds.add(rec["record_kind"])
    assert kinds == {"register", "task_issue", "fetch", "submit", "task_close",
                     "liveness_mark"}
    times = [r["time_ms"] for r in _records(hub)]
    assert times == sorted(times)


def test_journal_file_matches_in_memory_records(tmp_path):
    path = tmp_path / "journal.ndjson"
    with open(path, "a", encoding="utf-8") as fh:
        _scripted_hub(journal=fh)
    in_memory = _scripted_hub()
    assert path.read_bytes() == _bytes(in_memory)
    assert _bytes(in_memory) == journal_lines(_records(in_memory))


# Journal text: arbitrary code points, lone surrogates included, and a mix
# weighted to what JSON escapes (quotes, backslashes, controls) or writes as
# \u escapes under ensure_ascii (non-ASCII, astral, U+2028, surrogates).
_JOURNAL_TEXT = (
    st.text(st.characters(exclude_categories=()), max_size=8)
    | st.text(st.sampled_from('"\\/\x00\x08\n\x1f\x7f a-1\u00e9\u2028\u20ac'
                              '\U0001f600\ud800\udbff\udc00\udfff'),
              max_size=8))
# zero, negatives, the int64 edges and one past, 19 and 20 digits, and more
_JOURNAL_INTS = (
    st.sampled_from([0, -1, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**18,
                     10**19 - 1, -(10**19 - 1), 10**19, 10**20 - 1,
                     -(10**20 - 1)])
    | st.integers(-2**70, 2**70))


class _ChunkJournal(io.StringIO):
    """A journal that keeps each write, with the hub's state at that write,
    and counts flushes, once hub is set."""

    def __init__(self):
        super().__init__()
        self.hub = None
        self.writes: list[tuple[str, dict]] = []
        self.flushes = 0

    def write(self, text):
        if self.hub is not None:
            self.writes.append((text, self.hub.state_dict()))
        return super().write(text)

    def flush(self):
        self.flushes += self.hub is not None
        super().flush()


def _hub_with_agents(agent_ids, journal):
    """A hub holding an agent of each id, and a queued task none of them is
    eligible for."""
    hub = _hub(journal=journal)
    for i, agent_id in enumerate(agent_ids):
        hub._record(0, "register", {"entity": f"implant-{i}",
                                    "agent_id": agent_id,
                                    "capabilities": ["a"], "window_ms": 1})
    hub.issue_task(_task("t-1", requires={"b"}), now=0)
    return hub


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(agent_ids=st.lists(_JOURNAL_TEXT, min_size=1, max_size=3, unique=True),
       picks=st.lists(st.tuples(st.integers(0, 2), _JOURNAL_INTS),
                      max_size=12),
       chunk=st.integers(1, 5), seq=_JOURNAL_INTS.map(abs))
def test_empty_fetches_are_get_tasks_polls_written_a_chunk_at_a_time(
        agent_ids, picks, chunk, seq):
    # get_tasks journals through _encode, the reference for the template
    polls = [(agent_ids[i % len(agent_ids)], t) for i, t in picks]
    ref = _hub_with_agents(agent_ids, io.StringIO())
    ref._seq = seq
    states = [ref.state_dict()]  # after each poll
    for agent_id, t in polls:
        assert ref.get_tasks(agent_id, t) == []
        states.append(ref.state_dict())
    journal = _ChunkJournal()
    hub = _hub_with_agents(agent_ids, journal)
    hub._seq = seq
    journal.hub, start = hub, journal.getvalue()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hub_module, "FETCH_CHUNK", chunk)
        hub.empty_fetches(polls)
    assert journal.getvalue() == ref.journal.getvalue()
    assert hub.state_dict() == states[-1] and hub._seq == ref._seq
    # one write and one flush a chunk, each made before its chunk applies
    lines = ref.journal.getvalue()[len(start):].splitlines(keepends=True)
    assert journal.flushes == len(journal.writes) == -(-len(polls) // chunk)
    for k, (text, state) in enumerate(journal.writes):
        assert text == "".join(lines[k * chunk:(k + 1) * chunk])
        assert state == states[k * chunk]


@pytest.mark.parametrize("task, bad", [
    (_task("t-1", requires={"a"}), "agent-2"),   # eligible by capability
    (_task("t-1", assigned="agent-3"), "agent-3"),  # its assignee
    (_task("t-1", requires={"b"}), "agent-9"),   # unknown
])
def test_empty_fetches_refuse_a_run_before_writing_any_of_it(task, bad):
    hub = _hub()
    for i in range(3):
        hub.register_agent(f"implant-{i}", ["a"] if i == 1 else ["c"], now=0)
    hub.issue_task(task, now=0)
    before, seq, state = _bytes(hub), hub._seq, hub.state_dict()
    # the refused poll comes after more than one chunk of good ones
    polls = [("agent-1", t) for t in range(hub_module.FETCH_CHUNK + 1)]
    with pytest.raises(HubError, match=bad):
        hub.empty_fetches(polls + [(bad, 10**6)])
    assert (_bytes(hub), hub._seq, hub.state_dict()) == (before, seq, state)


def test_full_replay_reproduces_state_exactly():
    hub = _scripted_hub()
    rec = Hub.recover(_bytes(hub))
    assert not rec.truncated
    assert rec.records_applied == len(_records(hub))
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
    blob, records = _bytes(hub), _records(hub)
    boundaries = [0]
    pos = 0
    for line in blob.splitlines(keepends=True):
        pos += len(line)
        boundaries.append(pos)
    for n, cut in enumerate(boundaries):
        rec = Hub.recover(blob[:cut])
        assert not rec.truncated
        assert rec.records_applied == n
        assert _project(rec.hub) == _reference_replay(records[:n])


def test_recovery_stops_at_torn_record_and_reports_position():
    hub = _scripted_hub()
    blob = _bytes(hub)
    lines = blob.splitlines(keepends=True)
    keep = 5
    prefix = b"".join(lines[:keep])
    torn = prefix + lines[keep][: len(lines[keep]) // 2]
    rec = Hub.recover(torn)
    assert rec.truncated
    assert rec.records_applied == keep
    assert rec.stopped_at_byte == len(prefix)
    assert _project(rec.hub) == _reference_replay(_records(hub)[:keep])


def test_recovery_rejects_garbage_line_midstream():
    hub = _scripted_hub()
    lines = _bytes(hub).splitlines(keepends=True)
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
    lines = _bytes(hub).splitlines(keepends=True)
    keep = next(i for i, r in enumerate(_records(hub))
                if r["record_kind"] == "fetch")
    bad = {"seq": keep, "time_ms": 40, "record_kind": "fetch", "body": body}
    prefix = b"".join(lines[:keep])
    blob = prefix + journal_lines([bad]) + b"".join(lines[keep + 1:])
    rec = Hub.recover(blob)
    assert rec.truncated
    assert rec.records_applied == keep
    assert rec.stopped_at_byte == len(prefix)
    # the rejected record leaves no partial trace in the recovered state
    assert _project(rec.hub) == _reference_replay(_records(hub)[:keep])
    assert rec.hub.state_dict() == Hub.recover(prefix).hub.state_dict()


@pytest.mark.parametrize("line", [b"\xff\xfe\n", b"[" * 100_000 + b"\n"],
                         ids=["not-utf8", "nested-too-deep"])
def test_recovery_stops_at_line_json_cannot_read(line):
    hub = _scripted_hub()
    lines = _bytes(hub).splitlines(keepends=True)
    rec = Hub.recover(b"".join(lines[:3]) + line + lines[3])
    assert rec.truncated and rec.records_applied == 3


def _lifecycle(steps):
    """Journal of one agent and task t-1 taken through the first `steps` of
    issue, fetch and close, all written by the live hub."""
    hub = _hub()
    aid = hub.register_agent("implant-1", ["a"], now=0)
    ops = [lambda: hub.issue_task(_task("t-1", assigned=aid), now=1),
           lambda: hub.get_tasks(aid, now=2),
           lambda: hub.close_task("t-1", "completed", now=3)]
    for op in ops[:steps]:
        op()
    return _records(hub)


# (live steps before it, record kind, body) of a record the live hub refuses
_REFUSED = {
    "close-to-queued": (2, "task_close", {"task_id": "t-1", "state": "queued"}),
    "close-never-fetched": (1, "task_close",
                            {"task_id": "t-1", "state": "completed"}),
    "re-issue": (1, "task_issue", {
        "task_id": "t-1", "objective_ref": "obj-1", "description": "again",
        "requires": [], "assigned_to": None, "work_model": "", "meta": {}}),
    "fetch-completed": (3, "fetch", {"agent_id": "agent-1",
                                     "task_ids": ["t-1"]}),
    "close-extra-field": (2, "task_close", {"task_id": "t-1",
                                            "state": "completed", "note": "x"}),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_recovery_stops_at_a_transition_the_live_hub_refuses(case):
    steps, kind, body = _REFUSED[case]
    records = _lifecycle(steps)
    prefix = journal_lines(records)
    bad = {"seq": len(records), "time_ms": 9, "record_kind": kind, "body": body}
    rec = Hub.recover(prefix + journal_lines([bad]))
    assert rec.truncated
    assert rec.records_applied == len(records)
    assert rec.stopped_at_byte == len(prefix)
    assert rec.hub.state_dict() == Hub.recover(prefix).hub.state_dict()


def _item(kind, payload, content_key):
    return {"intel_id": "i-1", "kind": kind, "payload": payload,
            "content_key": content_key}


_ISSUE = {"task_id": "t-1", "objective_ref": "obj-1", "description": "d",
          "requires": ["a"], "assigned_to": None, "work_model": "", "meta": {}}

# (record kind, body) of a record the live hub refuses, written after agent-1
# (implant-1, active), agent-2 (implant-2, active) and task t-0 (queued,
# requires a); _ISSUE's t-1 is not issued, so each task_issue case is refused
# for its field alone
_REFUSED_RECORDS = {
    "register-reused-id": ("register", {
        "entity": "implant-3", "agent_id": "agent-1", "capabilities": ["a"],
        "window_ms": 5}),
    "register-same-entity": ("register", {
        "entity": "implant-1", "agent_id": "agent-3", "capabilities": ["a"],
        "window_ms": 5}),
    "register-no-capability": ("register", {
        "entity": "implant-3", "agent_id": "agent-3", "capabilities": [],
        "window_ms": 5}),
    "liveness-bogus-status": ("liveness_mark",
                              {"agent_id": "agent-1", "status": "bogus"}),
    "liveness-unknown-agent": ("liveness_mark", {
        "agent_id": "agent-9", "status": "potentially_lost"}),
    # a sweep sets one status; the live hub writes no other
    "liveness-retired-status": ("liveness_mark",
                                {"agent_id": "agent-2", "status": "retired"}),
    "submit-bogus-kind": ("submit", {"agent_id": "agent-1", "items": [
        _item("bogus", {"name": "x"}, "bogus:name=x")]}),
    "submit-empty-payload": ("submit", {"agent_id": "agent-1", "items": [
        _item("host", {}, "host:")]}),
    "submit-made-up-key": ("submit", {"agent_id": "agent-1", "items": [
        _item("host", {"name": "x"}, "host:name=y")]}),
    "fetch-same-task-twice": ("fetch", {"agent_id": "agent-1",
                                        "task_ids": ["t-0", "t-0"]}),
    "issue-unknown-assignee": ("task_issue", {**_ISSUE,
                                              "assigned_to": "agent-9"}),
    # one field of the wrong type, or a field too many
    "type-register-capabilities": ("register", {
        "entity": "implant-3", "agent_id": "agent-3", "capabilities": "ab",
        "window_ms": 5}),
    "type-register-window": ("register", {
        "entity": "implant-3", "agent_id": "agent-3", "capabilities": ["a"],
        "window_ms": "soon"}),
    "type-register-capability": ("register", {
        "entity": "implant-3", "agent_id": "agent-3", "capabilities": [1],
        "window_ms": 5}),
    "type-register-window-bool": ("register", {
        "entity": "implant-3", "agent_id": "agent-3", "capabilities": ["a"],
        "window_ms": True}),
    "type-issue-description": ("task_issue", {**_ISSUE, "description": None}),
    "type-issue-requires": ("task_issue", {**_ISSUE, "requires": "ab"}),
    "type-issue-work-model": ("task_issue", {**_ISSUE, "work_model": []}),
    "type-issue-extra-field": ("task_issue", {**_ISSUE, "note": "x"}),
    "type-issue-grants": ("task_issue", {**_ISSUE, "meta": {"grants": 5}}),
    "type-submit-intel-id": ("submit", {"agent_id": "agent-1", "items": [
        {**_item("host", {"name": "x"}, "host:name=x"), "intel_id": 1}]}),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_RECORDS))
def test_recovery_stops_at_any_record_the_live_hub_refuses(case):
    kind, body = _REFUSED_RECORDS[case]
    hub = _hub()
    hub.register_agent("implant-1", ["a"], now=0)
    hub.register_agent("implant-2", ["a"], now=1)
    hub.issue_task(_task("t-0", requires=["a"]), now=3)
    prefix = _bytes(hub)
    bad = {"seq": len(_records(hub)), "time_ms": 9, "record_kind": kind,
           "body": body}
    rec = Hub.recover(prefix + journal_lines([bad]))
    assert rec.truncated
    assert rec.records_applied == len(_records(hub))
    assert rec.stopped_at_byte == len(prefix)
    assert rec.hub.state_dict() == Hub.recover(prefix).hub.state_dict()


@functools.cache
def _run_journal() -> bytes:
    journal = io.StringIO()
    run_scenario(default_scenario().with_mode(MODE_MANUAL), journal=journal)
    return journal.getvalue().encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_recovery_of_damaged_run_journal_stops_cleanly(data):
    blob = bytearray(_run_journal())
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=3))
    for pos, mask in flips:
        blob[pos] ^= mask
    cut = data.draw(st.integers(0, len(blob)))
    damaged = bytes(blob[:cut])
    rec = Hub.recover(damaged)  # must not raise
    stop = rec.stopped_at_byte
    assert stop == 0 or damaged[stop - 1:stop] == b"\n"
    again = Hub.recover(damaged[:stop])
    assert not again.truncated
    assert again.records_applied == rec.records_applied
    assert again.hub.state_dict() == rec.hub.state_dict()
    assert _outcome(rec) == _reference_recover(damaged)


def _reference_recover(blob: bytes) -> tuple:
    """Replay with every line read by the JSON decoder: the slow reference
    for Hub.recover's direct read of the empty fetch layout. Returns what
    _outcome does."""
    hub = Hub(HeartbeatPolicy(1, 1))
    applied = offset = 0
    for raw in blob.splitlines(keepends=True):
        try:
            rec = json.loads(raw.decode()) if raw.endswith(b"\n") else None
        except (ValueError, RecursionError):
            rec = None
        if (not isinstance(rec, dict)
                or set(rec) != {"seq", "time_ms", "record_kind", "body"}
                or type(rec["seq"]) is not int or rec["seq"] != applied
                or type(rec["time_ms"]) is not int
                or rec["record_kind"] not in RECORD_KINDS):
            return applied, offset, True, hub.state_dict()
        try:
            hub._check(rec["record_kind"], rec["body"])
            hub._apply(rec["record_kind"], rec["time_ms"], rec["body"])
        except (HubError, KeyError, TypeError, ValueError):
            return applied, offset, True, _reference_recover(blob[:offset])[3]
        applied += 1
        offset += len(raw)
    return applied, offset, False, hub.state_dict()


def _outcome(rec) -> tuple:
    return (rec.records_applied, rec.stopped_at_byte, rec.truncated,
            rec.hub.state_dict())


def test_recovery_matches_reference_at_every_boundary_clean_and_torn():
    blob = _run_journal()
    lines = blob.splitlines(keepends=True)
    assert sum(b'"task_ids":[]' in line for line in lines) > len(lines) // 2
    cut = 0
    for line in lines:
        for prefix in (blob[:cut], blob[:cut] + line[:len(line) // 2]):
            assert _outcome(Hub.recover(prefix)) == _reference_recover(prefix)
        cut += len(line)
    assert _outcome(Hub.recover(blob)) == _reference_recover(blob)


@functools.cache
def _swarm_journal() -> bytes:
    journal = io.StringIO()
    run_scenario(default_scenario().with_mode(MODE_SWARM), journal=journal)
    return journal.getvalue().encode()


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
            | st.text(max_size=3))
# any value a journal line's JSON may hold
_JSON = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)


@st.composite
def _intel_items(draw):
    kind = draw(st.sampled_from(sorted(INTEL_KINDS) + ["bogus"]))
    payload = draw(st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))
    try:
        key = make_content_key(kind, payload)
    except ValueError:
        key = f"{kind}:"
    return {"intel_id": draw(st.text(max_size=3)), "kind": kind,
            "payload": payload,
            "content_key": draw(st.sampled_from([key, key + "x"]))}


@st.composite
def _bodies(draw, hub):
    """(record kind, body) of a record against hub: each field of its type,
    naming the hub's agents, entities, tasks and tags or new ones, and a
    task_close naming a fetched task whenever the hub holds one; or, about
    half the time, a body with one field of any type, a field dropped or
    added, or no object at all."""
    def named(known):
        return st.sampled_from(sorted(known) + ["new"]) | st.text(max_size=3)

    agents, tasks = named(hub.roster), named(hub.tasks)
    fetched = sorted(t.task_id for t in hub.tasks.values()
                     if t.state == TASK_FETCHED)
    tags = named({c for a in hub.roster.values() for c in a.capabilities}
                 | {r for t in hub.tasks.values() for r in t.requires})
    fields = {
        "register": dict(entity=named(hub._by_entity), agent_id=agents,
                         capabilities=st.lists(tags, max_size=2),
                         window_ms=st.integers(-5, 10**6)),
        "task_issue": dict(
            task_id=tasks, objective_ref=st.text(max_size=3),
            description=st.text(max_size=3),
            requires=st.lists(tags, max_size=2),
            assigned_to=st.none() | agents, work_model=st.text(max_size=3),
            meta=st.fixed_dictionaries({}, optional={"grants": tags | _JSON})),
        "fetch": dict(agent_id=agents, task_ids=st.lists(
            named(hub._queued) | tasks, max_size=2)),
        "submit": dict(agent_id=agents,
                       items=st.lists(_intel_items(), max_size=2)),
        "task_close": dict(task_id=st.sampled_from(fetched)
                           if fetched else tasks, state=st.sampled_from(
            [TASK_COMPLETED, TASK_FAILED, TASK_QUEUED, "x"])),
        "liveness_mark": dict(agent_id=agents, status=st.sampled_from(
            [AGENT_POTENTIALLY_LOST, AGENT_ACTIVE, "x"])),
    }
    kind = draw(st.sampled_from(RECORD_KINDS))
    body = draw(st.fixed_dictionaries(fields[kind]))
    if not draw(st.booleans()):
        return kind, body
    damage = draw(st.sampled_from(["retype", "drop", "add", "whole"]))
    name = draw(st.sampled_from(sorted(body)))
    if damage == "retype":
        body[name] = draw(_JSON)
    elif damage == "drop":
        del body[name]
    elif damage == "add":
        body[draw(st.text(max_size=3))] = draw(_JSON)
    elif damage == "whole":
        body = draw(_JSON)
    return kind, body


@functools.cache
def _cuts_holding_a_fetched_task(blob: bytes) -> tuple[int, ...]:
    """The line counts of blob's prefixes that leave some task fetched and
    not closed: the prefixes after which a task_close can pass _check."""
    cuts, fetched = [], set()
    for n, line in enumerate(blob.splitlines(keepends=True), start=1):
        rec = json.loads(line)
        if rec["record_kind"] == "fetch":
            fetched.update(rec["body"]["task_ids"])
        elif rec["record_kind"] == "task_close":
            fetched.discard(rec["body"]["task_id"])
        if fetched:
            cuts.append(n)
    assert cuts
    return tuple(cuts)


def test_check_refuses_only_by_hub_error_and_apply_takes_what_it_passes():
    # Replay stops at the first record _check refuses, with the state as it
    # is: that holds only while _check raises nothing but HubError and
    # _apply never fails on a record _check passed. About half the prefixes
    # drawn hold a fetched task, which a task_close then names, so that some
    # task_close passes whatever else the draws follow.
    passed = []

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def check(data):
        blob = data.draw(st.sampled_from([_run_journal(), _swarm_journal()]))
        lines = blob.splitlines(keepends=True)
        cut = data.draw(st.sampled_from(range(len(lines) + 1))
                        | st.sampled_from(_cuts_holding_a_fetched_task(blob)))
        hub = Hub.recover(b"".join(lines[:cut])).hub
        hub.agents_with_work()  # builds the task index, which _apply keeps
        kind, body = data.draw(_bodies(hub))
        try:
            hub._check(kind, body)
        except HubError:
            return
        hub._apply(kind, data.draw(st.integers(0, 2**63 - 1)), body)
        passed.append(kind)

    check()
    assert set(passed) == set(RECORD_KINDS), sorted(set(passed))


@pytest.mark.parametrize("field,value", [
    ("seq", True), ("seq", 1.0), ("time_ms", 1.5), ("time_ms", "late"),
    ("time_ms", True), ("time_ms", None),
])
def test_recovery_stops_at_seq_or_time_that_is_not_an_integer(field, value):
    hub = _hub()
    hub.register_agent("implant-1", ["a"], now=0)
    prefix = _bytes(hub)
    bad = {"seq": 1, "time_ms": 7, "record_kind": "fetch",
           "body": {"agent_id": "agent-1", "task_ids": []}, field: value}
    rec = Hub.recover(prefix + journal_lines([bad]))
    assert rec.truncated
    assert rec.records_applied == 1
    assert rec.stopped_at_byte == len(prefix)


def test_recovery_stops_at_the_first_body_of_the_wrong_type():
    records = [
        {"seq": 0, "time_ms": 0, "record_kind": "register", "body": {
            "entity": "implant-1", "agent_id": "agent-1", "capabilities": "ab",
            "window_ms": "soon"}},
        {"seq": 1, "time_ms": 1, "record_kind": "task_issue", "body": {
            **_ISSUE, "requires": "ab", "description": None,
            "work_model": []}},
        {"seq": 2, "time_ms": "late", "record_kind": "fetch",
         "body": {"agent_id": "agent-1", "task_ids": ["t-1"]}},
    ]
    rec = Hub.recover(journal_lines(records))
    assert (rec.truncated, rec.records_applied, rec.stopped_at_byte) == (
        True, 0, 0)
    assert rec.hub.state_dict() == Hub(POLICY).state_dict()


def test_recovered_hub_keeps_no_records_and_continues_the_sequence():
    blob = _bytes(_scripted_hub())
    rec = Hub.recover(blob)
    assert rec.hub.journal is None
    rec.hub.journal = io.StringIO()  # a caller continuing the journal
    rec.hub.get_tasks("agent-1", now=600)
    assert [r["seq"] for r in _records(rec.hub)] == [rec.records_applied]
    again = Hub.recover(blob + _bytes(rec.hub))
    assert not again.truncated
    assert again.records_applied == rec.records_applied + 1


def _number(draw, n: int) -> str:
    """The text of n, or of a number JSON reads differently or not at all."""
    if draw(st.integers(0, 3)):
        return str(n)
    return draw(st.sampled_from([
        f"0{n}", "-0", str(-n), f"{n}.0", "true", "false", "null",
        "1" + "0" * 19, "9" * 4301]))


@st.composite
def _fetch_journals(draw):
    """An agent registered under arbitrary text, an open task, then fetch
    lines in the hub's layout built by hand: the agent id raw or escaped,
    numbers as _number draws them, and task lists empty or not."""
    agent = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126),
                         max_size=6)
                 | st.text(st.characters(max_codepoint=127), max_size=6)
                 | st.text(max_size=6))
    blob = journal_lines([
        {"seq": 0, "time_ms": 0, "record_kind": "register", "body": {
            "entity": "implant-1", "agent_id": agent, "capabilities": ["a"],
            "window_ms": 5}},
        {"seq": 1, "time_ms": 0, "record_kind": "task_issue",
         "body": _ISSUE},
    ])
    for seq in range(2, draw(st.integers(3, 6))):
        text = draw(st.sampled_from([
            json.dumps(agent)[1:-1], json.dumps(agent, ensure_ascii=False)[1:-1],
            agent]))
        task_ids = draw(st.sampled_from(["", "", '"t-1"', " "]))
        blob += ('{"body":{"agent_id":"%s","task_ids":[%s]},"record_kind":'
                 '"fetch","seq":%s,"time_ms":%s}\n' % (
                     text, task_ids, _number(draw, seq),
                     _number(draw, 10 * seq))).encode()
    return blob


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(blob=_fetch_journals())
def test_recovery_of_hand_built_fetch_lines_matches_reference(blob):
    assert _outcome(Hub.recover(blob)) == _reference_recover(blob)


def _line(draw, rec: dict) -> bytes:
    """rec as the hub writes it, or with its text raw UTF-8 or a CRLF end,
    both of which replay reads; or, now and then, with a bare CR inside it,
    which stops replay."""
    text = _encode(rec)
    form = draw(st.sampled_from(["hub"] * 6 + ["utf8", "crlf"] * 2
                                + ["cr"]))
    if form == "utf8":
        text = json.dumps(rec, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
    elif form == "crlf":
        text += "\r"
    elif form == "cr":
        cut = draw(st.integers(0, len(text) - 1))
        text = text[:cut] + "\r" + text[cut:]
    return (text + "\n").encode("utf-8", "surrogatepass")


@st.composite
def _poll_run_journals(draw):
    """Two agents, the second under any journal text, and a queued task
    agent-1 may fetch; then runs of empty fetches, each ended by a liveness
    mark, with each line written as _line draws it. Now and then a fetch
    names an unknown agent, or its seq skips or repeats one."""
    other = draw(st.sampled_from(["agent-2", 'agent-"2"', "ag\u00e9nt-2"])
                 | _JOURNAL_TEXT.filter(lambda s: s != "agent-1"))
    blob = journal_lines([
        {"seq": i, "time_ms": 0, "record_kind": "register", "body": {
            "entity": f"implant-{i}", "agent_id": agent_id,
            "capabilities": ["a"], "window_ms": 5}}
        for i, agent_id in enumerate(["agent-1", other])] + [
        {"seq": 2, "time_ms": 0, "record_kind": "task_issue", "body": _ISSUE}])
    seq = 3
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 4))):
            fault = draw(st.sampled_from([None] * 16
                                         + ["unknown", "gap", "repeat"]))
            seq += {"gap": 1, "repeat": -1}.get(fault, 0)
            agent = ("agent-9" if fault == "unknown"
                     else draw(st.sampled_from(["agent-1", other])))
            blob += _line(draw, {
                "seq": seq, "time_ms": draw(st.integers(-2, 99)),
                "record_kind": "fetch",
                "body": {"agent_id": agent, "task_ids": []}})
            seq += 1
        blob += _line(draw, {
            "seq": seq, "time_ms": 100, "record_kind": "liveness_mark",
            "body": {"agent_id": draw(st.sampled_from(["agent-1", other])),
                     "status": AGENT_POTENTIALLY_LOST}})
        seq += 1
    return blob


def _polls(agent_id: str, seqs, t=7) -> bytes:
    return journal_lines([{"seq": s, "time_ms": t, "record_kind": "fetch",
                           "body": {"agent_id": agent_id, "task_ids": []}}
                          for s in seqs])


_REGISTER_1 = journal_lines([{"seq": 0, "time_ms": 0, "record_kind": "register",
                              "body": {"entity": "implant-1",
                                       "agent_id": "agent-1",
                                       "capabilities": ["a"], "window_ms": 5}}])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(blob=_poll_run_journals())
# a bare CR cuts a line: before an empty fetch, and inside a JSON line
@example(blob=_REGISTER_1 + _polls("agent-1", [1]) + b"\r"
         + _polls("agent-1", [2, 3]))
@example(blob=_REGISTER_1 + _polls("agent-1", [1])[:-1] + b"\r\n"
         + _REGISTER_1.replace(b'"agent_id"', b'\r"agent_id"'))
# a run that names an unknown agent after a known one
@example(blob=_REGISTER_1 + _polls("agent-1", [1]) + _polls("agent-9", [2]))
# CRLF line ends, which JSON reads as whitespace: every record applies
@example(blob=(_REGISTER_1 + _polls("agent-1", [1, 2, 3])).replace(
    b"\n", b"\r\n"))
def test_recovery_of_poll_runs_matches_reference_at_every_byte(blob):
    for cut in range(len(blob) + 1):
        prefix = blob[:cut]
        assert _outcome(Hub.recover(prefix)) == _reference_recover(prefix)


def test_replay_memory_does_not_follow_the_journal():
    # Replay walks the bytes and builds no line list. Measured on this
    # journal, a list of its lines peaked at 138 bytes a record, and the
    # walk peaks under one.
    n = 200_000
    hub = _hub()
    agent_ids = [hub.register_agent(f"implant-{i}", ["a"], now=0)
                 for i in range(4)]
    hub.empty_fetches([(agent_ids[i % 4], i) for i in range(n)])
    blob = _bytes(hub)
    tracemalloc.start()
    try:
        rec = Hub.recover(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rec.records_applied, rec.truncated) == (n + 4, False)
    assert rec.hub.state_dict() == hub.state_dict()
    assert peak < 8 * n


def test_acked_submissions_survive_any_later_crash():
    hub = _scripted_hub()
    blob = _bytes(hub)
    lines = blob.splitlines(keepends=True)
    # keys acknowledged as of each record index
    acked_by = []
    seen = set()
    for rec in _records(hub):
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
    rec = Hub.recover(_bytes(hub))
    assert rec.hub._streams is None
    assert ([a["window_ms"] for a in rec.hub.state_dict()["agents"].values()]
            == [a["window_ms"] for a in hub.state_dict()["agents"].values()])


def test_state_dict_is_json_serializable_snapshot():
    hub = _scripted_hub()
    snap = json.loads(json.dumps(hub.state_dict(), sort_keys=True))
    again = json.loads(json.dumps(hub.state_dict(), sort_keys=True))
    assert snap == again
    assert copy.deepcopy(snap) == snap


# -- queued-task index against a full scan ---------------------------------------


def _scan(hub, agent_id):
    """The matching rule as a scan of every task ever issued: the slow
    reference for the hub's queued-task index."""
    caps = hub.roster[agent_id].capabilities
    return [t.task_id for t in hub.tasks.values()
            if t.state == "queued"
            and (t.assigned_to == agent_id
                 or (t.assigned_to is None and t.requires <= caps))]


_CAPS = st.frozensets(st.sampled_from(("a", "b", "c")))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("register"), _CAPS.filter(bool)),
    # (assignee index or None, requires, capability granted on completion)
    st.tuples(st.just("issue"), st.none() | st.integers(0, 7), _CAPS,
              st.none() | st.sampled_from(("a", "b", "c"))),
    st.tuples(st.just("poll"), st.integers(0, 7)),
    st.tuples(st.just("close"), st.integers(0, 63),
              st.sampled_from(("completed", "failed"))),
    st.tuples(st.just("submit"), st.integers(0, 7), st.integers(0, 3)),
), max_size=40)


def _assert_index_matches_scan(hub, agents):
    for aid in agents:
        assert hub.has_work_for(aid) == bool(_scan(hub, aid))
    assert hub.agents_with_work() == {a for a in agents if _scan(hub, a)}


_A, _B = frozenset("a"), frozenset("b")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ops=_OPS)
# a grant of a tag the agent holds, which already holds the unassigned task
# queued under it: filed once, not twice
@example(ops=[("register", _A), ("issue", 0, frozenset(), "a"), ("poll", 0),
              ("issue", None, _A, None), ("close", 0, "completed"),
              ("poll", 0)])
# a new tag: the grantee gains the unassigned tasks under it that need no
# other tag, in issue order among its own
@example(ops=[("register", _A), ("issue", 0, frozenset(), "b"), ("poll", 0),
              ("issue", None, _B | {"c"}, None), ("issue", None, _B, None),
              ("issue", 0, _A, None), ("close", 0, "completed"),
              ("poll", 0)])
def test_queued_index_matches_full_scan_live_and_replayed(ops):
    hub = _hub()
    agents: list[str] = []
    for now, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "register":
            agents.append(hub.register_agent(f"implant-{len(agents)}",
                                             sorted(op[1]), now))
        elif kind == "issue":
            _, who, requires, grants = op
            assigned = (agents[who % len(agents)]
                        if who is not None and agents else None)
            hub.issue_task(_task(f"t-{len(hub.tasks)}", requires, assigned,
                                 {"grants": grants} if grants else None), now)
        elif kind == "close":
            fetched = [t.task_id for t in hub.tasks.values()
                       if t.state == TASK_FETCHED]
            if fetched:
                hub.close_task(fetched[op[1] % len(fetched)], op[2], now)
        elif agents:
            aid = agents[op[1] % len(agents)]
            if kind == "poll":
                want = _scan(hub, aid)
                assert [t.task_id for t in hub.get_tasks(aid, now)] == want
            else:
                hub.submit_intelligence(
                    aid, [_intel(f"i-{now}", aid, name=f"h-{op[2]}")], now)
        _assert_index_matches_scan(hub, agents)
    rebuilt = Hub.recover(_bytes(hub)).hub
    assert rebuilt.state_dict() == hub.state_dict()
    _assert_index_matches_scan(rebuilt, agents)
    now = len(ops) + 1
    for aid in agents:
        assert rebuilt.has_work_for(aid) == hub.has_work_for(aid)
        assert ([t.task_id for t in rebuilt.get_tasks(aid, now)]
                == [t.task_id for t in hub.get_tasks(aid, now)])
