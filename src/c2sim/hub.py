"""Coordination hub: agent registry, pull-based tasking, intelligence fusion,
jittered-window liveness, and an append-only journal.

Every state change is checked and journaled before it is applied or
acknowledged, and the same check and reducer that handle live records replay
them during recovery, so a rebuilt hub is structurally identical to the one
that wrote the journal, and replay stops at any record the live hub would have
refused. The hub never contacts agents on its own; all communication is
agent-initiated.

Journal framing: one JSON object per line with fixed fields
{"seq": int, "time_ms": int, "record_kind": str, "body": {...}}. Record kinds:
register, task_issue, fetch, submit, task_close, liveness_mark; _BODY_FIELDS
names each kind's body fields and their types. The hub issues task_issue
records itself so that queued-but-unfetched tasks survive replay.

Tasking reads an index of, for each agent, the queued tasks _eligible
gives it. It is built from the queued tasks on its first read and kept by
_apply from then on; replay reads none of it, so builds none. A fetch
returns its agent's set, "does this agent have work" is one lookup, and
_eligible, the one matching rule, runs only when a task is queued, an
agent registers, or a grant adds a tag, each time against the tasks or
agents that change can concern.

The hub writes each journal line once, to `Hub.journal`: a text stream its
caller opens, owns and closes, or None for a hub that writes no journal. It
keeps no copy of a line after writing it. Each record is encoded as JSON,
except the empty fetches `Hub.empty_fetches` journals, nearly every line of
a beacon run, which one template writes with the encoder's bytes. Only
`Hub.recover` reads a journal back, in one pass over its bytes. It reads the
one line layout the hub writes for a fetch with no task directly and applies
it by `_touch`, after the one check `_check` makes of such a fetch: its
agent is known. Every other line goes through JSON framing, `_check` and
`_apply`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TextIO

from .engine import RngStream

AGENT_ACTIVE = "active"
AGENT_POTENTIALLY_LOST = "potentially_lost"

TASK_QUEUED = "queued"
TASK_FETCHED = "fetched"
TASK_COMPLETED = "completed"
TASK_FAILED = "failed"

INTEL_KINDS = frozenset({"host", "port", "service", "credential", "share", "misc"})


# Journal body fields are typed exactly: a bool is not an int, and a float is
# neither. A field's type is a type, or a test for a value no one type covers.
def _str_or_null(value) -> bool:
    return value is None or type(value) is str


def _strs(value) -> bool:
    if type(value) is not list:
        return False
    for v in value:
        if type(v) is not str:
            return False
    return True


def _fits(obj, fields: dict) -> bool:
    """Whether obj is an object with exactly the named fields, each of its
    type: as many fields as named, and each one named."""
    if type(obj) is not dict or len(obj) != len(fields):
        return False
    for name, value in obj.items():
        kind = fields.get(name)
        if type(value) is not kind and (
                kind is None or type(kind) is type or not kind(value)):
            return False
    return True


_ITEM_FIELDS = {"intel_id": str, "kind": str, "content_key": str,
                "payload": dict}


def _items(value) -> bool:
    return type(value) is list and all(_fits(v, _ITEM_FIELDS) for v in value)


# Each record kind's body: its field names and their types.
_BODY_FIELDS = {
    "register": {"entity": str, "agent_id": str, "capabilities": _strs,
                 "window_ms": int},
    "task_issue": {"task_id": str, "objective_ref": str, "description": str,
                   "requires": _strs, "assigned_to": _str_or_null,
                   "work_model": str, "meta": dict},
    "fetch": {"agent_id": str, "task_ids": _strs},
    "submit": {"agent_id": str, "items": _items},
    "task_close": {"task_id": str, "state": str},
    "liveness_mark": {"agent_id": str, "status": str},
}
RECORD_KINDS = tuple(_BODY_FIELDS)

_JOURNAL_FIELDS = frozenset({"seq", "time_ms", "record_kind", "body"})

# one encoder for every journal line; json.dumps(**opts) builds one per call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# the string escape _encode applies (ensure_ascii is on)
_json_str = json.encoder.encode_basestring_ascii
# and one decoder: journal lines are UTF-8, so json.loads' sniffing is waste
_decode = json.JSONDecoder().decode
# The line _encode writes for a fetch with no task, which is nearly every
# record of a beacon run. Its agent id holds only characters JSON neither
# escapes nor unescapes, and its numbers at most 19 digits, so the groups
# read as JSON would; any other line, this layout with longer numbers among
# them, goes to _decode. It holds no line end but its final newline, so a
# match at a line's first byte is that whole line as bytes.splitlines cuts it.
_EMPTY_FETCH = re.compile(
    rb'\{"body":\{"agent_id":"([ !#-\[\]-~]*)","task_ids":\[\]\},'
    rb'"record_kind":"fetch","seq":(0|[1-9][0-9]{0,18}),'
    rb'"time_ms":(-?(?:0|[1-9][0-9]{0,18}))\}\n').match


# the fetch records Hub.empty_fetches journals with one write
FETCH_CHUNK = 4096


class HubError(RuntimeError):
    pass


class DuplicateAgentError(HubError):
    pass


class UnknownAgentError(HubError):
    pass


class TaskStateError(HubError):
    pass


def make_content_key(kind: str, fields: dict) -> str:
    """Canonical dedup key: a pure function of kind and payload fields."""
    if kind not in INTEL_KINDS:
        raise ValueError(f"unknown intel kind {kind!r}")
    if not fields:
        raise ValueError("intel payload must not be empty")
    inner = ",".join(f"{k}={fields[k]}" for k in sorted(fields))
    return f"{kind}:{inner}"


@dataclass
class AgentRecord:
    agent_id: str
    entity: str
    capabilities: set[str]
    registered_at: int
    last_contact: int
    status: str = AGENT_ACTIVE
    window_ms: int = 0


@dataclass
class Task:
    task_id: str
    objective_ref: str
    description: str
    requires: frozenset[str] = frozenset()
    assigned_to: str | None = None
    state: str = TASK_QUEUED
    created_at: int = 0
    fetched_at: int | None = None
    closed_at: int | None = None
    work_model: str = ""
    meta: dict = field(default_factory=dict)


def _eligible(task: Task, agent: AgentRecord) -> bool:
    """The matching rule: a queued task goes to its assignee or, unassigned,
    to any agent holding every capability it requires. Callers pass queued
    tasks only: from Hub._queued, which _apply keeps equal to the queued
    tasks, or from the index _apply keeps beside it."""
    return (task.assigned_to == agent.agent_id
            or (task.assigned_to is None and task.requires <= agent.capabilities))


def _valid_item(kind, payload, content_key) -> bool:
    """The intel item rule: a known kind, a non-empty payload, and the
    content key those two determine."""
    try:
        return content_key == make_content_key(kind, payload)
    except ValueError:
        return False


@dataclass
class IntelItem:
    intel_id: str
    source_agent: str
    kind: str
    content_key: str
    payload: dict
    submitted_at: int | None = None

    @classmethod
    def create(cls, intel_id: str, source_agent: str, kind: str, **fields) -> "IntelItem":
        return cls(intel_id=intel_id, source_agent=source_agent, kind=kind,
                   content_key=make_content_key(kind, fields), payload=dict(fields))


@dataclass
class SharedContext:
    """Deduplicated intelligence store plus per-key provenance history."""

    items: dict[str, IntelItem] = field(default_factory=dict)
    provenance: dict[str, list[tuple[str, int]]] = field(default_factory=dict)


@dataclass(frozen=True)
class HeartbeatPolicy:
    """Liveness windows are drawn per agent from [min, max] at registration."""

    min_window_ms: int
    max_window_ms: int

    def __post_init__(self):
        if not (0 < self.min_window_ms <= self.max_window_ms):
            raise ValueError("need 0 < min_window_ms <= max_window_ms")


@dataclass
class SubmitResult:
    accepted: int
    deduplicated: int
    rejected: list[str]


@dataclass
class RecoveryResult:
    hub: "Hub"
    records_applied: int
    stopped_at_byte: int
    truncated: bool


class Hub:
    """Single-writer hub store. Ops validate, journal, then apply."""

    def __init__(self, policy: HeartbeatPolicy, journal: TextIO | None = None,
                 streams: Callable[[str], RngStream] | None = None):
        self.policy = policy
        self.roster: dict[str, AgentRecord] = {}
        self.tasks: dict[str, Task] = {}
        # queued tasks in issue order, and each one's place in that order,
        # kept by _apply so replay rebuilds them
        self._queued: dict[str, Task] = {}
        self._rank: dict[str, int] = {}
        # The index: per agent id, the queued tasks _eligible gives it, by
        # task id; per queued task, the agents whose set holds it; per tag,
        # the unassigned queued tasks requiring it, for the agent a grant
        # makes eligible. Built from _queued on its first read (_index), so
        # replay, which reads none of it, pays nothing for it; kept by
        # _apply from then on.
        self._work: dict[str, dict[str, Task]] | None = None
        self._holders: dict[str, list[str]] = {}
        self._wanting: dict[str, dict[str, Task]] = {}
        # agent id -> the line of its empty fetch up to the seq's digits
        self._fetch_heads: dict[str, str] = {}
        self.context = SharedContext()
        self.journal = journal
        self._by_entity: dict[str, str] = {}
        self._streams = streams
        self._seq = 0

    # -- journaling --------------------------------------------------------

    def _record(self, time_ms: int, record_kind: str, body: dict) -> dict:
        self._check(record_kind, body)
        t = int(time_ms)
        line = _encode({"seq": self._seq, "time_ms": t,
                        "record_kind": record_kind, "body": body}) + "\n"
        self._seq += 1
        # durability before acknowledgment: persist, then mutate
        if self.journal is not None:
            self.journal.write(line)
            self.journal.flush()
        return self._apply(record_kind, t, body)

    def _check(self, kind: str, body: dict) -> None:
        """Every rule a record must meet, shared by live ops and replay.

        Every body has exactly the fields _BODY_FIELDS names, of their
        types. An agent registers once, under a new id, with some
        capability; a task is issued once, granting at most one capability
        tag, fetched once, by a known agent while the task is queued and
        eligible for it, and closed once, from fetched, as completed or
        failed; a submit carries only valid items; a liveness mark names a
        known agent and the one status a sweep sets, potentially_lost.
        """
        if not _fits(body, _BODY_FIELDS[kind]):
            raise HubError(f"malformed {kind} body")
        if kind == "register":
            if not body["capabilities"]:
                raise HubError("registration needs at least one capability tag")
            if body["entity"] in self._by_entity:
                raise DuplicateAgentError(
                    f"entity {body['entity']!r} already registered as "
                    f"{self._by_entity[body['entity']]}")
            if body["agent_id"] in self.roster:
                raise DuplicateAgentError(
                    f"agent id {body['agent_id']!r} already registered")
        elif kind == "task_issue":
            if body["task_id"] in self.tasks:
                raise TaskStateError(f"task {body['task_id']!r} already issued")
            assignee = body["assigned_to"]
            if assignee is not None and assignee not in self.roster:
                raise UnknownAgentError(f"assignee {assignee!r} not registered")
            grant = body["meta"].get("grants")
            if grant is not None and type(grant) is not str:
                raise HubError(f"task {body['task_id']!r} grants {grant!r}, "
                               "not a capability tag")
        elif kind == "fetch":
            agent = self._require(body["agent_id"])
            task_ids = body["task_ids"]
            if len(task_ids) > 1 and len(set(task_ids)) < len(task_ids):
                raise TaskStateError(f"fetch names a task twice: {task_ids!r}")
            for tid in task_ids:
                task = self._queued.get(tid)
                if task is None or not _eligible(task, agent):
                    raise TaskStateError(
                        f"task {tid!r} is not queued for {agent.agent_id}")
        elif kind == "task_close":
            task = self.tasks.get(body["task_id"])
            if task is None:
                raise TaskStateError(f"unknown task {body['task_id']!r}")
            if body["state"] not in (TASK_COMPLETED, TASK_FAILED):
                raise TaskStateError("close state must be completed or failed, "
                                     f"got {body['state']!r}")
            if task.state != TASK_FETCHED:
                raise TaskStateError(f"task {task.task_id!r} is {task.state}; "
                                     "only fetched tasks close")
        elif kind == "submit":
            self._require(body["agent_id"])
            for raw in body["items"]:
                if not _valid_item(raw["kind"], raw["payload"],
                                   raw["content_key"]):
                    raise HubError(f"invalid intel item {raw['intel_id']!r}")
        elif kind == "liveness_mark":
            self._require(body["agent_id"])
            if body["status"] != AGENT_POTENTIALLY_LOST:
                raise HubError(f"unknown liveness status {body['status']!r}")

    def _apply(self, kind: str, t: int, body: dict) -> dict:
        """Reducer shared by live ops and replay. Returns op-result info."""
        if kind == "register":
            agent = AgentRecord(agent_id=body["agent_id"], entity=body["entity"],
                                capabilities=set(body["capabilities"]),
                                registered_at=t, last_contact=t,
                                window_ms=body["window_ms"])
            self.roster[agent.agent_id] = agent
            self._by_entity[agent.entity] = agent.agent_id
            self._fetch_heads[agent.agent_id] = (
                f'{{"body":{{"agent_id":{_json_str(agent.agent_id)},'
                '"task_ids":[]},"record_kind":"fetch","seq":')
            if self._work is not None:
                self._work[agent.agent_id] = {}
                for task in self._queued.values():
                    if _eligible(task, agent):
                        self._file(task, agent.agent_id)
            return {}
        if kind == "task_issue":
            task = Task(task_id=body["task_id"], objective_ref=body["objective_ref"],
                        description=body["description"],
                        requires=frozenset(body["requires"]),
                        assigned_to=body["assigned_to"], created_at=t,
                        work_model=body["work_model"], meta=dict(body["meta"]))
            self._rank[task.task_id] = len(self.tasks)
            self.tasks[task.task_id] = task
            self._queued[task.task_id] = task
            if self._work is not None:
                self._file_queued(task)
            return {}
        if kind == "fetch":
            agent = self.roster[body["agent_id"]]
            for tid in body["task_ids"]:
                task = self._queued.pop(tid)  # the one way out of the queue
                del self._rank[tid]
                if self._work is not None:
                    for holder in self._holders.pop(tid):
                        del self._work[holder][tid]
                    if task.assigned_to is None:
                        for tag in task.requires:
                            del self._wanting[tag][tid]
                task.state = TASK_FETCHED
                task.fetched_at = t
                # first fetch wins an unassigned task
                if task.assigned_to is None:
                    task.assigned_to = agent.agent_id
            self._touch(agent, t)
            return {}
        if kind == "submit":
            agent = self.roster[body["agent_id"]]
            accepted = 0
            dedup = 0
            for raw in body["items"]:
                item = IntelItem(intel_id=raw["intel_id"], source_agent=body["agent_id"],
                                 kind=raw["kind"], content_key=raw["content_key"],
                                 payload=dict(raw["payload"]), submitted_at=t)
                key = item.content_key
                if key in self.context.items:
                    dedup += 1
                else:
                    self.context.items[key] = item
                    accepted += 1
                self.context.provenance.setdefault(key, []).append((body["agent_id"], t))
            self._touch(agent, t)
            return {"accepted": accepted, "deduplicated": dedup}
        if kind == "task_close":
            task = self.tasks[body["task_id"]]
            task.state = body["state"]
            task.closed_at = t
            grant = task.meta.get("grants")
            if grant and task.state == TASK_COMPLETED and task.assigned_to:
                agent = self.roster[task.assigned_to]
                if grant not in agent.capabilities:
                    agent.capabilities.add(grant)
                    # an agent without the tag held no task requiring it
                    if self._work is not None:
                        for wanted in self._wanting.get(grant, {}).values():
                            if _eligible(wanted, agent):
                                self._file(wanted, agent.agent_id)
            return {}
        if kind == "liveness_mark":
            self.roster[body["agent_id"]].status = body["status"]
            return {}
        raise HubError(f"unknown record kind {kind!r}")

    def _index(self) -> dict[str, dict[str, Task]]:
        """The per-agent sets of queued tasks, built on the first read by
        filing each queued task as _apply files a task it queues."""
        if self._work is None:
            self._work = {agent_id: {} for agent_id in self.roster}
            for task in self._queued.values():
                self._file_queued(task)
        return self._work

    def _file_queued(self, task: Task) -> None:
        """File a queued task: under its assignee, or under every agent
        _eligible gives it and every tag it requires."""
        self._holders[task.task_id] = []
        if task.assigned_to is not None:
            self._file(task, task.assigned_to)
            return
        for agent in self.roster.values():
            if _eligible(task, agent):
                self._file(task, agent.agent_id)
        for tag in task.requires:
            self._wanting.setdefault(tag, {})[task.task_id] = task

    def _file(self, task: Task, agent_id: str) -> None:
        """Add a queued task to the set of an agent _eligible gives it."""
        self._work[agent_id][task.task_id] = task
        self._holders[task.task_id].append(agent_id)

    def _touch(self, agent: AgentRecord, t: int) -> None:
        agent.last_contact = t
        if agent.status == AGENT_POTENTIALLY_LOST:
            agent.status = AGENT_ACTIVE

    # -- operations ----------------------------------------------------

    def register_agent(self, entity: str, capabilities: Iterable[str], now: int) -> str:
        caps = sorted(set(capabilities))
        agent_id = f"agent-{len(self.roster) + 1}"
        if self._streams is not None:
            u = self._streams(f"{entity}/heartbeat").unit()
            span = self.policy.max_window_ms - self.policy.min_window_ms
            window = self.policy.min_window_ms + int(round(u * span))
        else:
            window = (self.policy.min_window_ms + self.policy.max_window_ms) // 2
        self._record(now, "register", {
            "entity": entity, "agent_id": agent_id,
            "capabilities": caps, "window_ms": window,
        })
        return agent_id

    def issue_task(self, task: Task, now: int) -> None:
        if task.state != TASK_QUEUED:
            raise TaskStateError(f"new task must be queued, got {task.state!r}")
        self._record(now, "task_issue", {
            "task_id": task.task_id, "objective_ref": task.objective_ref,
            "description": task.description, "requires": sorted(task.requires),
            "assigned_to": task.assigned_to, "work_model": task.work_model,
            "meta": task.meta,
        })

    def get_tasks(self, agent_id: str, now: int) -> list[Task]:
        """Fetch, in issue order, every queued task _eligible gives
        agent_id: its set in the index, which nearly always holds no task
        or one."""
        self._require(agent_id)
        matched = list(self._index()[agent_id].values())
        if len(matched) > 1:
            matched.sort(key=lambda t: self._rank[t.task_id])
        self._record(now, "fetch", {
            "agent_id": agent_id, "task_ids": [t.task_id for t in matched],
        })
        return matched

    def empty_fetches(self, polls: Sequence[tuple[str, int]]) -> None:
        """Journal and apply, in order, a fetch that returns no task for
        each (agent_id, time) of polls: what get_tasks does for each poll of
        a run in which no agent has work.

        Refuses the whole run before writing anything if an agent is unknown
        or has a queued task _eligible gives it, a check made once per call
        from agents_with_work(). An empty fetch changes no task, so that
        check holds for every poll of the run. The lines are the bytes
        _encode gives, filled into one template: keys in sorted order, the
        agent id escaped as _encode escapes it, integers written by str().
        Each agent's line head is built once, at its registration, so a
        poll fills in only its seq and time. The lines are written as one
        write and one flush per chunk of FETCH_CHUNK records; only then is
        the chunk applied, by touching each of its agents once with its
        last poll's time, which leaves the state that touching every poll
        in order leaves. So persist-then-mutate holds for every chunk, and
        memory for the lines is one chunk's. Replay does not come back through
        here: it applies each journaled empty fetch by _touch after _check's
        one rule for it, a known agent, and so accepts an empty fetch from
        an agent with work, which this refuses.
        """
        busy, heads = self.agents_with_work(), self._fetch_heads
        for agent_id in dict(polls):
            if agent_id not in heads:  # not on the roster
                self._require(agent_id)
            if agent_id in busy:
                raise TaskStateError(f"{agent_id} has a queued task, so "
                                     "its fetch is not empty")
        roster, touch = self.roster, self._touch
        for lo in range(0, len(polls), FETCH_CHUNK):
            chunk = polls[lo:lo + FETCH_CHUNK]
            seq = self._seq
            self._seq += len(chunk)
            if self.journal is not None:
                self.journal.write("".join([
                    f'{heads[a]}{s!s},"time_ms":{t!s}}}\n'
                    for s, (a, t) in enumerate(chunk, seq)]))
                self.journal.flush()
            for a, t in dict(chunk).items():
                touch(roster[a], t)

    def has_work_for(self, agent_id: str) -> bool:
        """Whether agent_id's next poll would fetch anything: one lookup in
        the index."""
        self._require(agent_id)
        return bool(self._index()[agent_id])

    def agents_with_work(self) -> set[str]:
        """The agents whose next poll would fetch anything."""
        return {agent_id for agent_id, work in self._index().items() if work}

    def submit_intelligence(self, agent_id: str, items: Iterable[IntelItem],
                            now: int) -> SubmitResult:
        good: list[IntelItem] = []
        rejected: list[str] = []
        for item in items:
            if _valid_item(item.kind, item.payload, item.content_key):
                good.append(item)
            else:
                rejected.append(item.intel_id)
        info = self._record(now, "submit", {
            "agent_id": agent_id,
            "items": [{"intel_id": i.intel_id, "kind": i.kind,
                       "content_key": i.content_key, "payload": i.payload}
                      for i in good],
        })
        return SubmitResult(accepted=info["accepted"],
                            deduplicated=info["deduplicated"], rejected=rejected)

    def close_task(self, task_id: str, state: str, now: int) -> None:
        self._record(now, "task_close", {"task_id": task_id, "state": state})

    def sweep_liveness(self, now: int) -> list[str]:
        """Mark agents silent for strictly longer than their window."""
        flagged = [a.agent_id for a in self.roster.values()
                   if a.status == AGENT_ACTIVE and now - a.last_contact > a.window_ms]
        for agent_id in flagged:
            self._record(now, "liveness_mark",
                         {"agent_id": agent_id, "status": AGENT_POTENTIALLY_LOST})
        return flagged

    def agent_id_for(self, entity: str) -> str:
        return self._by_entity[entity]

    def _require(self, agent_id: str) -> AgentRecord:
        agent = self.roster.get(agent_id)
        if agent is None:
            raise UnknownAgentError(f"unknown agent {agent_id!r}")
        return agent

    # -- snapshots and recovery ---------------------------------------------

    def state_dict(self) -> dict:
        """Canonical deep snapshot for equality checks and persistence."""
        return {
            "agents": {a.agent_id: {
                "entity": a.entity, "capabilities": sorted(a.capabilities),
                "registered_at": a.registered_at, "last_contact": a.last_contact,
                "status": a.status, "window_ms": a.window_ms,
            } for a in sorted(self.roster.values(), key=lambda r: r.agent_id)},
            "tasks": {t.task_id: {
                "objective_ref": t.objective_ref, "description": t.description,
                "requires": sorted(t.requires), "assigned_to": t.assigned_to,
                "state": t.state, "created_at": t.created_at,
                "fetched_at": t.fetched_at, "closed_at": t.closed_at,
                "work_model": t.work_model, "meta": t.meta,
            } for t in sorted(self.tasks.values(), key=lambda t: t.task_id)},
            "context": {
                "items": {k: {
                    "intel_id": v.intel_id, "source_agent": v.source_agent,
                    "kind": v.kind, "payload": v.payload,
                    "submitted_at": v.submitted_at,
                } for k, v in sorted(self.context.items.items())},
                "provenance": {k: [list(p) for p in v]
                               for k, v in sorted(self.context.provenance.items())},
            },
        }

    @classmethod
    def recover(cls, journal_bytes: bytes) -> RecoveryResult:
        """Rebuild hub state from raw journal bytes.

        Replay stops at the last complete record: a record is complete when
        its line is newline-terminated, parses as JSON with the fixed field
        set, an integer seq that continues the sequence and an integer
        time_ms, and is a record the live hub would write (see _check), which
        _apply then cannot fail to apply. The result reports how far
        replay got so a caller can see exactly what a crash cut off. The
        rebuilt hub writes no journal until a caller that continues the
        journal assigns it a stream.

        Replay walks the bytes once, line by line as bytes.splitlines(
        keepends=True) cuts them, and builds no list of lines. At each line
        it first tries the empty fetch layout (_EMPTY_FETCH). That layout
        fixes the body to exactly an agent_id, a str, and task_ids == [].
        For that body _check reduces to _require(agent_id) and _apply to
        _touch, so a matched line whose seq continues the sequence and whose
        agent is on the roster is applied by _touch alone. Every other line
        goes through _frame, _check and _apply.
        """
        hub = cls(HeartbeatPolicy(1, 1))
        buf, end = journal_bytes, len(journal_bytes)
        roster, touch = hub.roster, hub._touch
        # roster agents by id as the layout spells it; the roster never
        # shrinks, and a miss sends its line to _check, which stops replay
        known: dict[bytes, AgentRecord | None] = {}
        pos = applied = 0
        truncated = False
        while pos < end:
            fetch = _EMPTY_FETCH(buf, pos)
            if fetch is not None:
                agent_id, seq, t = fetch.groups()
                agent = known.get(agent_id)
                if agent is None:
                    agent = known[agent_id] = roster.get(agent_id.decode())
                if agent is not None and int(seq) == applied:
                    touch(agent, int(t))
                    applied += 1
                    pos = fetch.end()
                    continue
            raw = buf[pos:buf.find(b"\n", pos) + 1 or end]
            if 13 in raw:  # a CR, where splitlines also ends a line
                raw = raw.splitlines(keepends=True)[0]
            rec = _frame(raw)
            if rec is None or rec[0] != applied:
                truncated = True
                break
            _, t, kind, body = rec
            try:
                hub._check(kind, body)
            except HubError:   # a well-framed record the live hub would refuse
                truncated = True
                break
            hub._apply(kind, t, body)
            applied += 1
            pos += len(raw)
        hub._seq = applied
        return RecoveryResult(hub=hub, records_applied=applied,
                              stopped_at_byte=pos, truncated=truncated)


def _frame(raw: bytes) -> tuple | None:
    """(seq, time_ms, record_kind, body) of one journal line, or None when
    the line is not a whole record of the journal's framing."""
    if not raw.endswith(b"\n"):
        return None
    try:
        rec = _decode(raw.decode())
    except (ValueError, RecursionError):  # not JSON or UTF-8, too deep
        return None
    if type(rec) is not dict or rec.keys() != _JOURNAL_FIELDS:
        return None
    seq, t, kind = rec["seq"], rec["time_ms"], rec["record_kind"]
    if type(seq) is not int or type(t) is not int or kind not in RECORD_KINDS:
        return None
    return seq, t, kind, rec["body"]
