"""Engagement orchestration: an autonomous planner-driven swarm and a manual
operator baseline, driven over the same hub, topology, and timing model.

Swarm mode: a planner turn decomposes the objective into one reconnaissance
task per subnet, agents are notified of assignments after a short dispatch
delay, results are pushed the moment work finishes, and later planner turns
issue pivot tasks once a usable credential shows up in shared context. The
operator appears exactly once, to state the objective.

Manual mode: agents poll the hub on their beacon schedule and nothing else.
A single operator thinks, issues one probe at a time, waits for the tasking
to ride out on the next poll, and sees the result only when the agent's next
beacon uploads it. Every probe, pivot, and follow-up is one operator action.

Both runners stop the clock the moment the objective set is fully present in
shared context, so time-to-objective is exact rather than sampled.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .engine import Simulator
from .hub import TASK_COMPLETED, Hub, IntelItem, Task
from .scenario import MODES, AgentSpec, Scenario, Topology
from .traffic import (
    ChaffModel,
    FlowRecord,
    beacon_ticks,
    flows_at_ticks,
    merge_traces,
    synth_background,
    synth_chaff,
    synth_event_flows,
    synth_reasoning_nonstreaming,
    synth_reasoning_streaming,
)

MODE_SWARM = "autonomous_swarm"
MODE_MANUAL = "manual_baseline"

OBJECTIVE_REF = "objective-1"


@dataclass(frozen=True)
class PlannedTask:
    """Planner output: one task the hub should issue."""

    kind: str  # "recon" or "pivot"
    description: str
    requires: frozenset[str]
    assignee: str | None  # entity name, None leaves the task up for grabs
    subnet: str
    meta: dict = field(default_factory=dict)


@dataclass
class Session:
    """One reasoning-leg consultation tied to a task execution."""

    task_id: str
    entity: str
    start: int
    length_ms: int
    turns: int


@dataclass
class RunMetrics:
    mode: str
    seed: int
    objective_met: bool
    time_to_objective_ms: int | None
    window_ms: int
    operator_actions: int
    tasks_issued: int
    tasks_completed: int
    intel_items: int
    pivots_executed: int


@dataclass
class ScenarioRun:
    scenario: Scenario
    metrics: RunMetrics
    hub: Hub
    sessions: list[Session]
    trace: list[FlowRecord]

    @property
    def journal(self) -> list[dict]:
        return self.hub.journal


def _least_loaded(candidates: list[AgentSpec], load: dict[str, int],
                  roster: tuple[AgentSpec, ...]) -> str:
    order = {spec.entity: i for i, spec in enumerate(roster)}
    return min(candidates,
               key=lambda s: (load.get(s.entity, 0), order[s.entity])).entity


def decompose(topology: Topology, agents: tuple[AgentSpec, ...],
              load: dict[str, int]) -> list[PlannedTask]:
    """One reconnaissance task per subnet, spread over capable agents.

    Subnets nobody can reach yet still get a task; it sits queued until a
    pivot grant makes some agent eligible. Updates load in place.
    """
    planned = []
    for subnet in topology.subnets:
        capable = [a for a in agents if subnet in a.capabilities]
        assignee = _least_loaded(capable, load, agents) if capable else None
        if assignee is not None:
            load[assignee] = load.get(assignee, 0) + 1
        planned.append(PlannedTask(
            kind="recon", description=f"survey {subnet}",
            requires=frozenset({subnet}), assignee=assignee, subnet=subnet))
    return planned


def follow_up(topology: Topology, context_keys: set[str],
              issued_pivots: set[str], agents: tuple[AgentSpec, ...],
              load: dict[str, int]) -> list[PlannedTask]:
    """Pivot tasks for credentials that are in hand and usable.

    Usable means the edge's source subnet has been explored (some host there
    is in shared context), so a credential that arrives early is retried on
    every later planner turn instead of being dropped. Updates load in place.
    """
    planned = []
    for edge in topology.pivot_edges:
        if edge.credential_key in issued_pivots:
            continue
        if edge.credential_key not in context_keys:
            continue
        prefix = f"host:name={edge.from_subnet}/"
        if not any(k.startswith(prefix) for k in context_keys):
            continue
        capable = [a for a in agents if edge.from_subnet in a.capabilities]
        if not capable:
            continue
        assignee = _least_loaded(capable, load, agents)
        load[assignee] = load.get(assignee, 0) + 1
        issued_pivots.add(edge.credential_key)
        planned.append(PlannedTask(
            kind="pivot",
            description=f"use credential to open {edge.to_subnet}",
            requires=frozenset({edge.from_subnet}), assignee=assignee,
            subnet=edge.from_subnet, meta={"grants": edge.to_subnet}))
    return planned


def _register_all(sc: Scenario, hub: Hub) -> None:
    for spec in sc.agents:
        hub.register_agent(spec.entity, sorted(spec.capabilities), 0)


def _round_ms(x: float) -> int:
    return max(1, int(round(x)))


class _RunBase:
    def __init__(self, sc: Scenario, journal_path=None):
        self.sc = sc
        self.sim = Simulator(sc.seed)
        self.hub = Hub(sc.timing.heartbeat, journal_path=journal_path,
                       streams=self.sim.stream)
        self.done_at: int | None = None
        self.sessions: list[Session] = []
        self.operator_actions = 0
        self.pivots = 0
        self._task_no = 0
        self.task_kind: dict[str, PlannedTask] = {}
        self.required = set(sc.topology.required_keys)

    def _next_task_id(self) -> str:
        self._task_no += 1
        return f"task-{self._task_no}"

    def _check_objective(self, now: int) -> None:
        if self.done_at is None and self.required <= self.hub.context.keys():
            self.done_at = now

    def _drain(self) -> None:
        horizon = self.sc.horizon_ms
        while self.done_at is None:
            nt = self.sim.next_event_time()
            if nt is None or nt > horizon:
                break
            self.sim.run_until(nt)

    def _submit(self, agent_id: str, task_id: str,
                found: list[tuple[str, str]], now: int) -> None:
        items = [IntelItem.create(f"intel-{task_id}-{i}", agent_id, kind,
                                  name=name)
                 for i, (kind, name) in enumerate(found)]
        self.hub.submit_intelligence(agent_id, items, now)

    def _finish(self) -> ScenarioRun:
        window = self.done_at if self.done_at is not None else self.sc.horizon_ms
        tasks = self.hub.tasks.values()
        metrics = RunMetrics(
            mode=self.sc.mode, seed=self.sc.seed,
            objective_met=self.done_at is not None,
            time_to_objective_ms=self.done_at, window_ms=window,
            operator_actions=self.operator_actions,
            tasks_issued=len(tasks),
            tasks_completed=sum(t.state == TASK_COMPLETED for t in tasks),
            intel_items=len(self.hub.context.items),
            pivots_executed=self.pivots)
        trace = self._trace(window)
        return ScenarioRun(scenario=self.sc, metrics=metrics, hub=self.hub,
                           sessions=self.sessions, trace=trace)

    def _background(self) -> list[FlowRecord]:
        """Benign cover traffic spans the whole observation horizon; only
        attacker-origin flows stop when the engagement does."""
        if self.sc.n_users == 0:
            return []
        return synth_background(self.sc.n_users, self.sc.background,
                                self.sim.stream)

    def _trace(self, window: int) -> list[FlowRecord]:
        raise NotImplementedError


class _SwarmRun(_RunBase):
    """Event-driven mode: dispatch notifications, push-on-complete."""

    def __init__(self, sc: Scenario, journal_path=None):
        super().__init__(sc, journal_path)
        self.load: dict[str, int] = {}
        self.issued_pivots: set[str] = set()
        self.busy_until: dict[str, int] = {}
        self.decomposed = False
        self.sim.on("planner-turn", self._on_planner_turn)
        self.sim.on("agent-checkin", self._on_checkin)
        self.sim.on("task-complete", self._on_complete)

    def run(self) -> ScenarioRun:
        _register_all(self.sc, self.hub)
        self._schedule_planner_turn(0)
        self._drain()
        return self._finish()

    def _schedule_planner_turn(self, now: int) -> None:
        gap = _round_ms(self.sim.draw("planner/turn-latency",
                                      self.sc.timing.planner_turn_latency))
        self.sim.schedule(now + gap, "planner", "planner-turn")

    def _dispatch(self, entity: str, now: int) -> None:
        delay = _round_ms(self.sim.draw(f"{entity}/dispatch",
                                        self.sc.timing.event_dispatch_latency))
        self.sim.schedule(now + delay, entity, "agent-checkin")

    def _on_planner_turn(self, ev) -> None:
        now = self.sim.clock
        planned: list[PlannedTask] = []
        if not self.decomposed:
            self.decomposed = True
            self.operator_actions = 1  # the one human act: stating the objective
            planned += decompose(self.sc.topology, self.sc.agents, self.load)
        planned += follow_up(self.sc.topology, self.hub.context.keys(),
                             self.issued_pivots, self.sc.agents, self.load)
        for p in planned:
            task_id = self._next_task_id()
            assigned = (self.hub.agent_id_for(p.assignee)
                        if p.assignee is not None else None)
            self.hub.issue_task(Task(
                task_id=task_id, objective_ref=OBJECTIVE_REF,
                description=p.description, requires=p.requires,
                assigned_to=assigned,
                work_model="streaming" if self.sc.channels.streaming
                else "turn_based",
                meta=dict(p.meta)), now)
            self.task_kind[task_id] = p
            if p.assignee is not None:
                self._dispatch(p.assignee, now)
        if self.done_at is None:
            self._schedule_planner_turn(now)

    def _on_checkin(self, ev) -> None:
        now = self.sim.clock
        entity = ev.entity
        agent_id = self.hub.agent_id_for(entity)
        for task in self.hub.get_tasks(agent_id, now):
            start = max(now, self.busy_until.get(entity, 0))
            dur = _round_ms(self.sim.draw(f"{entity}/work",
                                          self.sc.timing.task_duration))
            self.busy_until[entity] = start + dur
            turns = _round_ms(self.sim.draw(f"{entity}/turns",
                                            self.sc.timing.planner_turns))
            self.sessions.append(Session(task_id=task.task_id, entity=entity,
                                         start=start, length_ms=dur,
                                         turns=turns))
            self.sim.schedule(start + dur, entity, "task-complete",
                              payload=task.task_id)

    def _on_complete(self, ev) -> None:
        now = self.sim.clock
        entity = ev.entity
        task_id = ev.payload
        agent_id = self.hub.agent_id_for(entity)
        planned = self.task_kind[task_id]
        if planned.kind == "recon":
            found = self.sc.topology.recon_yield(planned.subnet)
        else:
            found = [("misc", f"pivot-result:{task_id}")]
        self._submit(agent_id, task_id, found, now)
        self.hub.close_task(task_id, TASK_COMPLETED, now)
        if planned.kind == "pivot":
            self.pivots += 1
        self._check_objective(now)
        if self.done_at is None and self.hub.has_work_for(agent_id):
            self._dispatch(entity, now)

    def _trace(self, window: int) -> list[FlowRecord]:
        profile = self.sc.channels.profile
        parts = [synth_event_flows(self.hub.journal, profile, self.sim.stream)]
        for s in sorted(self.sessions, key=lambda s: (s.start, s.task_id)):
            st = self.sim.stream(f"{s.entity}/reasoning/{s.task_id}")
            if self.sc.channels.streaming:
                parts.append(synth_reasoning_streaming(
                    s.length_ms, profile, st, t_start=s.start, src=s.entity))
            else:
                parts.append(synth_reasoning_nonstreaming(
                    s.turns, profile, st, t_start=s.start, src=s.entity))
        if self.sc.channels.chaff_per_hour > 0:
            model = ChaffModel(per_hour=self.sc.channels.chaff_per_hour,
                               horizon_ms=window)
            for spec in self.sc.agents:
                parts.append(synth_chaff(
                    model, profile, self.sim.stream(f"{spec.entity}/chaff"),
                    src=spec.entity))
        c2 = [f for f in merge_traces(*parts) if f.ts_start <= window]
        return merge_traces(c2, self._background())


@dataclass(frozen=True)
class _Action:
    """One queued operator intent in the manual baseline."""

    kind: str  # "probe" or "pivot"
    subnet: str
    host: str | None = None
    grants: str | None = None


class _ManualRun(_RunBase):
    """Beacon-polling mode with a strictly sequential human operator."""

    def __init__(self, sc: Scenario, journal_path=None):
        super().__init__(sc, journal_path)
        self.queue: deque[_Action] = deque()
        self.queued_hosts: set[str] = set()
        self.queued_pivots: set[str] = set()
        self.ticks: dict[str, Iterator[int]] = {}
        self.fired: dict[str, list[int]] = {spec.entity: []
                                            for spec in sc.agents}
        # (entity, task_id, completion time) of the one task in flight
        self.executing: tuple[str, str, int] | None = None
        self.awaiting_think = False
        self.sim.on("agent-checkin", self._on_tick)
        self.sim.on("task-issued", self._on_issue)

    def run(self) -> ScenarioRun:
        _register_all(self.sc, self.hub)
        for spec in self.sc.agents:
            cfg = dataclasses.replace(self.sc.beacon, src=spec.entity)
            self.ticks[spec.entity] = beacon_ticks(
                cfg, self.sim.stream(f"{spec.entity}/beacon"))
            self._schedule_tick(spec.entity)
        reachable = set()
        for spec in self.sc.agents:
            reachable |= spec.capabilities
        for subnet in self.sc.topology.subnets:
            if subnet in reachable:
                self._queue_probes(subnet)
        self._think_next(0)
        self._drain()
        return self._finish()

    def _schedule_tick(self, entity: str) -> None:
        t = next(self.ticks[entity], None)
        if t is not None:
            self.sim.schedule(t, entity, "agent-checkin")

    def _queue_probes(self, subnet: str) -> None:
        for host in self.sc.topology.hosts(subnet):
            if host not in self.queued_hosts:
                self.queued_hosts.add(host)
                self.queue.append(_Action(kind="probe", subnet=subnet,
                                          host=host))

    def _think_next(self, now: int) -> None:
        if self.done_at is not None or self.awaiting_think or not self.queue:
            return
        self.awaiting_think = True
        think = _round_ms(self.sim.draw("operator/think",
                                        self.sc.timing.manual_think_time))
        self.sim.schedule(now + think, "operator", "task-issued",
                          payload=self.queue.popleft())

    def _on_issue(self, ev) -> None:
        now = self.sim.clock
        action: _Action = ev.payload
        self.awaiting_think = False
        task_id = self._next_task_id()
        meta = {"grants": action.grants} if action.grants else {}
        desc = (f"probe {action.host}" if action.kind == "probe"
                else f"use credential to open {action.grants}")
        self.hub.issue_task(Task(
            task_id=task_id, objective_ref=OBJECTIVE_REF, description=desc,
            requires=frozenset({action.subnet}), assigned_to=None,
            work_model="manual", meta=meta), now)
        self.task_kind[task_id] = PlannedTask(
            kind=action.kind, description=desc,
            requires=frozenset({action.subnet}), assignee=None,
            subnet=action.subnet,
            meta={"host": action.host, "grants": action.grants})
        self.operator_actions += 1

    def _on_tick(self, ev) -> None:
        now = self.sim.clock
        entity = ev.entity
        self.fired[entity].append(now)
        agent_id = self.hub.agent_id_for(entity)
        # upload leg: results ride the beacon that follows completion
        if (self.executing is not None and self.executing[0] == entity
                and self.executing[2] <= now):
            _, task_id, _ = self.executing
            self.executing = None
            self._upload(entity, agent_id, task_id, now)
        # poll leg: even an empty poll is a journaled hub contact
        for task in self.hub.get_tasks(agent_id, now):
            dur = _round_ms(self.sim.draw(f"{entity}/work",
                                          self.sc.timing.task_duration))
            self.executing = (entity, task.task_id, now + dur)
        self._schedule_tick(entity)

    def _upload(self, entity: str, agent_id: str, task_id: str,
                now: int) -> None:
        planned = self.task_kind[task_id]
        if planned.kind == "probe":
            host = planned.meta["host"]
            found = [("host", host)]
            found += [(i.kind, i.name) for i in self.sc.topology.intel
                      if i.host == host]
        else:
            found = [("misc", f"pivot-result:{task_id}")]
        self._submit(agent_id, task_id, found, now)
        self.hub.close_task(task_id, TASK_COMPLETED, now)
        if planned.kind == "pivot":
            self.pivots += 1
            self._queue_probes(planned.meta["grants"])
        else:
            # operator reads the result and plans around new credentials
            keys = {f"{kind}:name={name}" for kind, name in found}
            for edge in self.sc.topology.pivot_edges:
                if (edge.credential_key in keys
                        and edge.credential_key not in self.queued_pivots):
                    self.queued_pivots.add(edge.credential_key)
                    self.queue.append(_Action(
                        kind="pivot", subnet=edge.from_subnet,
                        grants=edge.to_subnet))
        self._check_objective(now)
        self._think_next(now)

    def _trace(self, window: int) -> list[FlowRecord]:
        parts = []
        for spec in self.sc.agents:
            cfg = dataclasses.replace(self.sc.beacon, src=spec.entity)
            fired = [t for t in self.fired[spec.entity] if t <= window]
            parts.append(flows_at_ticks(
                fired, cfg, self.sim.stream(f"{spec.entity}/beacon-bytes")))
        c2 = [f for f in merge_traces(*parts) if f.ts_start <= window]
        return merge_traces(c2, self._background())


def run_scenario(scenario: Scenario, journal_path=None) -> ScenarioRun:
    kind = {MODE_SWARM: _SwarmRun, MODE_MANUAL: _ManualRun}.get(scenario.mode)
    if kind is None:
        raise ValueError(f"unknown mode {scenario.mode!r}")
    runner = kind(scenario, journal_path)
    try:
        return runner.run()
    finally:
        runner.hub.close()  # also when a handler raises mid-run


@dataclass
class CompareResult:
    mode_a: str
    mode_b: str
    rows: list[dict]
    summary: dict


def compare(scenario: Scenario, n_seeds: int, base_seed: int | None = None,
            modes: tuple[str, str] = (MODE_SWARM, MODE_MANUAL)) -> CompareResult:
    """Paired runs over consecutive seeds plus a median summary row.

    speedup is time_b / time_a, so with the default mode order it reads as
    "the manual baseline takes this many times longer".
    """
    if n_seeds < 3:
        raise ValueError("need at least 3 seeds for a stable median")
    mode_a, mode_b = modes
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    start = scenario.seed if base_seed is None else base_seed
    rows = []
    for i in range(n_seeds):
        seed = start + i
        run_a = run_scenario(scenario.with_seed(seed).with_mode(mode_a))
        run_b = run_scenario(scenario.with_seed(seed).with_mode(mode_b))
        ta = run_a.metrics.time_to_objective_ms
        tb = run_b.metrics.time_to_objective_ms
        rows.append({
            "seed": seed,
            "time_a_ms": ta, "time_b_ms": tb,
            "actions_a": run_a.metrics.operator_actions,
            "actions_b": run_b.metrics.operator_actions,
            "speedup": (tb / ta) if ta and tb else None,
        })
    summary: dict = {"seed": "median"}
    for col in ("time_a_ms", "time_b_ms", "actions_a", "actions_b", "speedup"):
        values = [r[col] for r in rows if r[col] is not None]
        summary[col] = statistics.median(values) if values else None
    return CompareResult(mode_a=mode_a, mode_b=mode_b, rows=rows,
                         summary=summary)
