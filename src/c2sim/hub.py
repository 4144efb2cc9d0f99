"""Coordination hub: agent registry, pull-based tasking, intelligence fusion,
jittered-window liveness, and an append-only journal.

Every state change is journaled before it is applied or acknowledged, and the
same reducer that applies live records replays them during recovery, so a
rebuilt hub is structurally identical to the one that wrote the journal. The
hub never contacts agents on its own; all communication is agent-initiated.

Journal framing: one JSON object per line with fixed fields
{"seq": int, "time_ms": int, "record_kind": str, "body": {...}}. Record kinds:
register, task_issue, fetch, submit, task_close, liveness_mark. The hub issues
task_issue records itself so that queued-but-unfetched tasks survive replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .engine import RngStream

AGENT_ACTIVE = "active"
AGENT_POTENTIALLY_LOST = "potentially_lost"
AGENT_RETIRED = "retired"

TASK_QUEUED = "queued"
TASK_FETCHED = "fetched"
TASK_COMPLETED = "completed"
TASK_FAILED = "failed"

INTEL_KINDS = frozenset({"host", "port", "service", "credential", "share", "misc"})

RECORD_KINDS = ("register", "task_issue", "fetch", "submit", "task_close",
                "liveness_mark")

_JOURNAL_FIELDS = {"seq", "time_ms", "record_kind", "body"}


class HubError(RuntimeError):
    pass


class DuplicateAgentError(HubError):
    pass


class UnknownAgentError(HubError):
    pass


class RetiredAgentError(HubError):
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

    def keys(self) -> set[str]:
        return set(self.items)


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

    def __init__(self, policy: HeartbeatPolicy,
                 journal_path=None,
                 streams: Callable[[str], RngStream] | None = None):
        self.policy = policy
        self.roster: dict[str, AgentRecord] = {}
        self.tasks: dict[str, Task] = {}
        self.context = SharedContext()
        self.journal: list[dict] = []
        self._by_entity: dict[str, str] = {}
        self._streams = streams
        self._seq = 0
        self._fh = open(journal_path, "a", encoding="utf-8") if journal_path else None

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None

    # -- journaling --------------------------------------------------------

    def _record(self, time_ms: int, record_kind: str, body: dict) -> dict:
        rec = {"seq": self._seq, "time_ms": int(time_ms),
               "record_kind": record_kind, "body": body}
        self._seq += 1
        # durability before acknowledgment: persist, then mutate
        if self._fh:
            self._fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
            self._fh.flush()
        self.journal.append(rec)
        return self._apply(rec)

    def _apply(self, rec: dict) -> dict:
        """Reducer shared by live ops and replay. Returns op-result info."""
        kind = rec["record_kind"]
        body = rec["body"]
        t = rec["time_ms"]
        if kind == "register":
            agent = AgentRecord(agent_id=body["agent_id"], entity=body["entity"],
                                capabilities=set(body["capabilities"]),
                                registered_at=t, last_contact=t,
                                window_ms=body["window_ms"])
            self.roster[agent.agent_id] = agent
            self._by_entity[agent.entity] = agent.agent_id
            return {}
        if kind == "task_issue":
            task = Task(task_id=body["task_id"], objective_ref=body["objective_ref"],
                        description=body["description"],
                        requires=frozenset(body["requires"]),
                        assigned_to=body["assigned_to"], created_at=t,
                        work_model=body["work_model"], meta=dict(body["meta"]))
            self.tasks[task.task_id] = task
            return {}
        if kind == "fetch":
            agent = self.roster[body["agent_id"]]
            for tid in body["task_ids"]:
                task = self.tasks[tid]
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
                self.roster[task.assigned_to].capabilities.add(grant)
            return {}
        if kind == "liveness_mark":
            self.roster[body["agent_id"]].status = body["status"]
            return {}
        raise HubError(f"unknown record kind {kind!r}")

    def _touch(self, agent: AgentRecord, t: int) -> None:
        agent.last_contact = t
        if agent.status == AGENT_POTENTIALLY_LOST:
            agent.status = AGENT_ACTIVE

    # -- operations ----------------------------------------------------

    def register_agent(self, entity: str, capabilities: Iterable[str], now: int) -> str:
        caps = sorted(set(capabilities))
        if not caps:
            raise HubError("registration needs at least one capability tag")
        if entity in self._by_entity:
            raise DuplicateAgentError(
                f"entity {entity!r} already registered as {self._by_entity[entity]}")
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
        if task.task_id in self.tasks:
            raise TaskStateError(f"task {task.task_id!r} already issued")
        if task.state != TASK_QUEUED:
            raise TaskStateError(f"new task must be queued, got {task.state!r}")
        if task.assigned_to is not None and task.assigned_to not in self.roster:
            raise UnknownAgentError(f"assignee {task.assigned_to!r} not registered")
        self._record(now, "task_issue", {
            "task_id": task.task_id, "objective_ref": task.objective_ref,
            "description": task.description, "requires": sorted(task.requires),
            "assigned_to": task.assigned_to, "work_model": task.work_model,
            "meta": task.meta,
        })

    def get_tasks(self, agent_id: str, now: int) -> list[Task]:
        agent = self._require(agent_id)
        if agent.status == AGENT_RETIRED:
            raise RetiredAgentError(f"{agent_id} is retired")
        matched = [t for t in self.tasks.values()
                   if t.state == TASK_QUEUED
                   and (t.assigned_to == agent_id
                        or (t.assigned_to is None and t.requires <= agent.capabilities))]
        self._record(now, "fetch", {
            "agent_id": agent_id, "task_ids": [t.task_id for t in matched],
        })
        return matched

    def submit_intelligence(self, agent_id: str, items: Iterable[IntelItem],
                            now: int) -> SubmitResult:
        agent = self._require(agent_id)
        good: list[IntelItem] = []
        rejected: list[str] = []
        for item in items:
            try:
                ok = (item.kind in INTEL_KINDS and bool(item.payload)
                      and item.content_key == make_content_key(item.kind, item.payload))
            except ValueError:
                ok = False
            if ok:
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
        task = self.tasks.get(task_id)
        if task is None:
            raise TaskStateError(f"unknown task {task_id!r}")
        if state not in (TASK_COMPLETED, TASK_FAILED):
            raise TaskStateError(f"close state must be completed or failed, got {state!r}")
        if task.state != TASK_FETCHED:
            raise TaskStateError(
                f"task {task_id!r} is {task.state}; only fetched tasks close")
        self._record(now, "task_close", {"task_id": task_id, "state": state})

    def sweep_liveness(self, now: int) -> list[str]:
        """Mark agents silent for strictly longer than their window."""
        flagged = [a.agent_id for a in self.roster.values()
                   if a.status == AGENT_ACTIVE and now - a.last_contact > a.window_ms]
        for agent_id in flagged:
            self._record(now, "liveness_mark",
                         {"agent_id": agent_id, "status": AGENT_POTENTIALLY_LOST})
        return flagged

    def retire_agent(self, agent_id: str, now: int) -> None:
        self._require(agent_id)
        self._record(now, "liveness_mark",
                     {"agent_id": agent_id, "status": AGENT_RETIRED})

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
    def recover(cls, journal_bytes: bytes, policy: HeartbeatPolicy | None = None
                ) -> RecoveryResult:
        """Rebuild hub state from raw journal bytes.

        Replay stops at the last complete record: a record is complete when
        its line is newline-terminated, parses as JSON with the fixed field
        set, continues the sequence, and its body applies to the state built
        so far. The result reports how far replay got so a caller can see
        exactly what a crash cut off.
        """
        hub = cls(policy or HeartbeatPolicy(1, 1))
        offset = 0
        applied = 0
        truncated = False
        for raw in journal_bytes.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                truncated = True
                break
            try:
                rec = json.loads(raw)
            except (ValueError, RecursionError):  # not JSON or UTF-8, too deep
                truncated = True
                break
            if (not isinstance(rec, dict) or set(rec) != _JOURNAL_FIELDS
                    or rec["seq"] != applied
                    or rec["record_kind"] not in RECORD_KINDS):
                truncated = True
                break
            try:
                hub._apply(rec)
            except (KeyError, TypeError, ValueError):
                # A well-framed record whose body does not fit the state (a
                # missing field, an unknown agent). The failed apply may have
                # changed part of that state, so rebuild it from the records
                # before this one.
                hub = cls.recover(journal_bytes[:offset], policy).hub
                truncated = True
                break
            hub.journal.append(rec)
            applied += 1
            offset += len(raw)
        hub._seq = applied
        return RecoveryResult(hub=hub, records_applied=applied,
                              stopped_at_byte=offset, truncated=truncated)


def journal_lines(records: list[dict]) -> bytes:
    """Serialize journal records exactly as the hub writes them."""
    return b"".join(
        (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n").encode()
        for r in records)
