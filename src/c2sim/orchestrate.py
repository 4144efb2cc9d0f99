"""Engagement orchestration: an autonomous planner-driven swarm and a manual
operator baseline, driven over the same hub, topology, and timing model.

Swarm mode: a planner turn decomposes the objective into one reconnaissance
task per subnet, agents are notified of assignments after a short dispatch
delay, and results are pushed the moment work finishes. The planner turns
again after each submit, never on a clock, and issues pivot tasks once a
usable credential shows up in shared context. The operator appears exactly
once, to state the objective.

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
from dataclasses import dataclass
from typing import Collection, Iterator, TextIO

import numpy as np

from .engine import Simulator, draw_int
from .hub import (FETCH_CHUNK, TASK_COMPLETED, AgentRecord, HeartbeatPolicy,
                  Hub, IntelItem, Task, make_content_key)
from .scenario import MODE_MANUAL, MODE_SWARM, AgentSpec, Scenario, Topology
from .traffic import (
    LEG_BACKGROUND,
    FlowTable,
    beacon_ticks,
    flows_at_ticks,
    merge_traces,
    synth_background,
    synth_chaff,
    synth_event_flows,
    synth_reasoning_nonstreaming,
    synth_reasoning_streaming,
)

OBJECTIVE_REF = "objective-1"


@dataclass(frozen=True)
class PlannedTask:
    """One task the hub should issue, in either mode: a survey of a subnet
    (swarm), a probe of one host (manual), or a pivot from subnet that
    opens grants."""

    kind: str  # "recon", "probe" or "pivot"
    subnet: str
    assignee: str | None = None  # entity name, None leaves it up for grabs
    host: str | None = None
    grants: str | None = None

    @property
    def requires(self) -> frozenset[str]:
        return frozenset({self.subnet})

    @property
    def meta(self) -> dict:
        return {"grants": self.grants} if self.grants else {}

    @property
    def description(self) -> str:
        if self.kind == "recon":
            return f"survey {self.subnet}"
        if self.kind == "probe":
            return f"probe {self.host}"
        return f"use credential to open {self.grants}"


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
    trace: FlowTable


def _least_loaded(candidates: list[AgentRecord | AgentSpec],
                  load: dict[str, int]) -> str:
    """The least-loaded candidate, the first in roster order breaking ties;
    its load goes up by the task it is handed."""
    entity = min(candidates, key=lambda a: load.get(a.entity, 0)).entity
    load[entity] = load.get(entity, 0) + 1
    return entity


def decompose(topology: Topology,
              agents: Collection[AgentRecord | AgentSpec],
              load: dict[str, int]) -> list[PlannedTask]:
    """One reconnaissance task per subnet, spread over capable agents.

    Subnets nobody can reach yet still get a task; it sits queued until a
    pivot grant makes some agent eligible. Updates load in place.
    """
    capable: dict[str, list] = {}  # subnet -> its agents, in roster order
    for agent in agents:
        for subnet in agent.capabilities:
            capable.setdefault(subnet, []).append(agent)
    return [PlannedTask(kind="recon", subnet=subnet,
                        assignee=(_least_loaded(capable[subnet], load)
                                  if subnet in capable else None))
            for subnet in topology.subnets]


def follow_up(topology: Topology, context_keys: Collection[str],
              issued_pivots: set[str],
              agents: Collection[AgentRecord | AgentSpec],
              load: dict[str, int]) -> list[PlannedTask]:
    """Pivot tasks for credentials that are in hand and usable.

    Usable means the edge's source subnet has been explored (some host there
    is in shared context); an early credential waits for the submit that
    explores its subnet, which wakes the planner again. Updates load in place.
    """
    planned = []
    for edge in topology.pivot_edges:
        if edge.credential_key in issued_pivots:
            continue
        if edge.credential_key not in context_keys:
            continue
        if not any(make_content_key("host", {"name": host}) in context_keys
                   for host in topology.hosts(edge.from_subnet)):
            continue
        capable = [a for a in agents if edge.from_subnet in a.capabilities]
        if not capable:
            continue
        issued_pivots.add(edge.credential_key)
        planned.append(PlannedTask(
            kind="pivot", subnet=edge.from_subnet,
            assignee=_least_loaded(capable, load), grants=edge.to_subnet))
    return planned


class _RunBase:
    """The engagement both modes share: one task record, one issue path, one
    completion path, one run and one trace merge. A runner adds its
    contact discipline: how tasks reach agents and results come back, and
    the times of each agent's hub contacts, which its tasking flows mirror."""

    work_model: str  # the Task.work_model of every task a runner issues

    def __init__(self, sc: Scenario, journal: TextIO | None = None):
        self.sc = sc
        self.sim = Simulator(sc.seed)
        self.hub = Hub(HeartbeatPolicy(sc.timing.heartbeat_min_window_ms,
                                       sc.timing.heartbeat_max_window_ms),
                       journal=journal, streams=self.sim.stream)
        # entity -> the times of its hub contacts, in the order they were made
        self.contacts: dict[str, list[int]] = {spec.entity: []
                                               for spec in sc.agents}
        self.done_at: int | None = None
        self.sessions: list[Session] = []
        self.operator_actions = 0
        self.pivots = 0
        self.plans: dict[str, PlannedTask] = {}  # by task id, issue order
        self.required = set(sc.topology.required_keys)

    def run(self) -> ScenarioRun:
        for spec in self.sc.agents:
            self.hub.register_agent(spec.entity, sorted(spec.capabilities), 0)
        self._start()
        self.sim.run_until(self.sc.horizon_ms)
        return self._finish()

    def _issue(self, p: PlannedTask, now: int) -> None:
        task_id = f"task-{len(self.plans) + 1}"
        self.hub.issue_task(Task(
            task_id=task_id, objective_ref=OBJECTIVE_REF,
            description=p.description, requires=p.requires,
            assigned_to=(self.hub.agent_id_for(p.assignee)
                         if p.assignee is not None else None),
            work_model=self.work_model, meta=p.meta), now)
        self.plans[task_id] = p

    def _complete(self, agent_id: str, task_id: str,
                  now: int) -> tuple[PlannedTask, set[str]]:
        """Submit what the task found, close it, count a pivot and check the
        objective. Returns the plan and the content keys submitted."""
        p = self.plans[task_id]
        topology = self.sc.topology
        if p.kind == "recon":
            found = topology.recon_yield(p.subnet)
        elif p.kind == "probe":
            found = [("host", p.host)]
            found += [(i.kind, i.name)
                      for i in topology.intel_by_host.get(p.host, ())]
        else:
            found = [("misc", f"pivot-result:{task_id}")]
        items = [IntelItem.create(f"intel-{task_id}-{i}", agent_id, kind,
                                  name=name)
                 for i, (kind, name) in enumerate(found)]
        self.hub.submit_intelligence(agent_id, items, now)
        self.hub.close_task(task_id, TASK_COMPLETED, now)
        if p.kind == "pivot":
            self.pivots += 1
        context = self.hub.context.items
        if self.done_at is None and self.required <= context.keys():
            self.done_at = now
            self.sim.stop()
        return p, {item.content_key for item in items}

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

    def _with_background(self, parts: list[FlowTable],
                         window: int) -> FlowTable:
        """Attacker-origin flows stop when the engagement does; benign cover
        traffic spans the whole observation horizon. Cutting after the
        stable merge keeps the order a merge of the cut parts has, and
        checks the rows once."""
        trace = merge_traces(*parts, synth_background(
            self.sc.n_users, self.sc.background, self.sim.stream))
        cover = np.array([k[3] == LEG_BACKGROUND for k in trace.kinds], bool)
        return trace.take((trace.ts <= window) | cover[trace.kind])


class _SwarmRun(_RunBase):
    """Event-driven mode: dispatch notifications, push-on-complete."""

    def __init__(self, sc: Scenario, journal: TextIO | None = None):
        super().__init__(sc, journal)
        self.work_model = ("streaming" if sc.channels.streaming
                           else "turn_based")
        self.load: dict[str, int] = {}
        self.issued_pivots: set[str] = set()
        self.busy_until: dict[str, int] = {}

    def _start(self) -> None:
        self._schedule_planner_turn(0)

    def _schedule_planner_turn(self, now: int) -> None:
        gap = draw_int(self.sim.stream("planner/turn-latency"),
                       self.sc.timing.planner_turn_latency, 1)
        self.sim.schedule(now + gap, self._on_planner_turn)

    def _dispatch(self, entity: str, now: int) -> None:
        delay = draw_int(self.sim.stream(f"{entity}/dispatch"),
                         self.sc.timing.event_dispatch_latency, 1)
        self.sim.schedule(now + delay, self._on_checkin, entity)

    def _on_planner_turn(self) -> None:
        now = self.sim.clock
        planned: list[PlannedTask] = []
        roster = self.hub.roster.values()
        if not self.plans:
            self.operator_actions = 1  # the one human act: stating the objective
            planned += decompose(self.sc.topology, roster, self.load)
        planned += follow_up(self.sc.topology, self.hub.context.items.keys(),
                             self.issued_pivots, roster, self.load)
        for p in planned:
            self._issue(p, now)
            if p.assignee is not None:
                self._dispatch(p.assignee, now)

    def _on_checkin(self, entity: str) -> None:
        now = self.sim.clock
        agent_id = self.hub.agent_id_for(entity)
        self.contacts[entity].append(now)  # the fetch
        for task in self.hub.get_tasks(agent_id, now):
            start = max(now, self.busy_until.get(entity, 0))
            dur = draw_int(self.sim.stream(f"{entity}/work"),
                           self.sc.timing.task_duration, 1)
            self.busy_until[entity] = start + dur
            turns = draw_int(self.sim.stream(f"{entity}/turns"),
                             self.sc.timing.planner_turns, 1)
            self.sessions.append(Session(task_id=task.task_id, entity=entity,
                                         start=start, length_ms=dur,
                                         turns=turns))
            self.sim.schedule(start + dur, self._on_complete, entity,
                              task.task_id)

    def _on_complete(self, entity: str, task_id: str) -> None:
        now = self.sim.clock
        agent_id = self.hub.agent_id_for(entity)
        self.contacts[entity].append(now)  # the submit
        self._complete(agent_id, task_id, now)
        if self.done_at is None:
            self._schedule_planner_turn(now)  # new intelligence: plan on it
            if self.hub.has_work_for(agent_id):
                self._dispatch(entity, now)

    def _trace(self, window: int) -> FlowTable:
        profile = self.sc.channels
        parts = [synth_event_flows(
            self.contacts[spec.entity],
            self.sim.stream(f"{spec.entity}/tasking-bytes"), src=spec.entity)
            for spec in self.sc.agents]
        for s in sorted(self.sessions, key=lambda s: (s.start, s.task_id)):
            st = self.sim.stream(f"{s.entity}/reasoning/{s.task_id}")
            if profile.streaming:
                parts.append(synth_reasoning_streaming(
                    s.length_ms, profile, st, t_start=s.start, src=s.entity))
            else:
                parts.append(synth_reasoning_nonstreaming(
                    s.turns, profile, st, t_start=s.start, src=s.entity))
        for spec in self.sc.agents:
            parts.append(synth_chaff(
                profile.chaff_per_hour, window, profile,
                self.sim.stream(f"{spec.entity}/chaff"), src=spec.entity))
        return self._with_background(parts, window)


class _ManualRun(_RunBase):
    """Beacon-polling mode with a strictly sequential human operator."""

    work_model = "manual"

    def __init__(self, sc: Scenario, journal: TextIO | None = None):
        super().__init__(sc, journal)
        self.queue: deque[PlannedTask] = deque()
        self.queued_hosts: set[str] = set()
        self.queued_pivots: set[str] = set()
        self.ticks: dict[str, Iterator[int]] = {}
        # (entity, task_id, completion time) of the one task in flight
        self.executing: tuple[str, str, int] | None = None
        self.awaiting_think = False

    def _start(self) -> None:
        for spec in self.sc.agents:
            self.ticks[spec.entity] = beacon_ticks(
                self.sc.beacon, self.sim.stream(f"{spec.entity}/beacon"))
            self._schedule_tick(spec.entity)
        reachable = set()
        for spec in self.sc.agents:
            reachable |= spec.capabilities
        for subnet in self.sc.topology.subnets:
            if subnet in reachable:
                self._queue_probes(subnet)
        self._think_next(0)

    def _schedule_tick(self, entity: str) -> None:
        t = next(self.ticks[entity], None)
        if t is not None:
            self.sim.schedule(t, self._on_tick, entity)

    def _queue_probes(self, subnet: str) -> None:
        for host in self.sc.topology.hosts(subnet):
            if host not in self.queued_hosts:
                self.queued_hosts.add(host)
                self.queue.append(PlannedTask(kind="probe", subnet=subnet,
                                              host=host))

    def _think_next(self, now: int) -> None:
        if self.done_at is not None or self.awaiting_think or not self.queue:
            return
        self.awaiting_think = True
        think = draw_int(self.sim.stream("operator/think"),
                         self.sc.timing.manual_think_time, 1)
        self.sim.schedule(now + think, self._on_issue, self.queue.popleft())

    def _on_issue(self, p: PlannedTask) -> None:
        self.awaiting_think = False
        self._issue(p, self.sim.clock)
        self.operator_actions += 1

    def _on_tick(self, entity: str) -> None:
        now = self.sim.clock
        self.contacts[entity].append(now)  # the poll, carrying any upload
        agent_id = self.hub.agent_id_for(entity)
        # upload leg: results ride the beacon that follows completion
        if (self.executing is not None and self.executing[0] == entity
                and self.executing[2] <= now):
            _, task_id, _ = self.executing
            self.executing = None
            self._upload(agent_id, task_id, now)
        # poll leg: even an empty poll is a journaled hub contact
        for task in self.hub.get_tasks(agent_id, now):
            dur = draw_int(self.sim.stream(f"{entity}/work"),
                           self.sc.timing.task_duration, 1)
            self.executing = (entity, task.task_id, now + dur)
        self._schedule_tick(entity)
        self._idle_stretch()

    def _idle_stretch(self) -> None:
        """Run the empty polls at the head of the event queue as one step.

        A poll is empty when it is an _on_tick due by the run's end whose
        agent has no task _eligible gives it and uploads nothing: it is not
        the agent executing a task done by the poll's time. Such a poll
        notes the contact, journals an empty fetch and schedules the agent's
        next tick, and changes nothing another poll reads, so the hub's
        work check holds for the whole stretch and is made once, at its
        start. The polls are taken from the queue in its own order, and
        each is requeued as its successor tick in the same heap operation,
        with the sequence number scheduling it then would give: so every
        call keeps the time and sequence number the per-poll run gives it.
        The first call that is not an empty poll stays queued for
        run_until. The polls go to the hub a chunk at a time, so a stretch
        holds at most one chunk.
        """
        sim, hub, tick, ticks = self.sim, self.hub, self._on_tick, self.ticks
        agent_id_for, contacts = hub.agent_id_for, self.contacts
        executing = self.executing
        busy = hub.agents_with_work()
        polls: list[tuple[str, int]] = []
        while (call := sim.peek()) is not None:
            now, handler, args = call
            if handler != tick:
                break
            entity = args[0]
            agent_id = agent_id_for(entity)
            if agent_id in busy or (executing is not None
                                    and executing[0] == entity
                                    and executing[2] <= now):
                break
            sim.take(next(ticks[entity], None))
            contacts[entity].append(now)
            polls.append((agent_id, now))
            if len(polls) == FETCH_CHUNK:
                hub.empty_fetches(polls)
                polls.clear()
        if polls:
            hub.empty_fetches(polls)

    def _upload(self, agent_id: str, task_id: str, now: int) -> None:
        p, keys = self._complete(agent_id, task_id, now)
        if p.kind == "pivot":
            self._queue_probes(p.grants)
        else:
            # operator reads the result and plans around new credentials,
            # in the order of the edges they open
            topology = self.sc.topology
            by_key = topology.pivot_edges_by_key
            for at in sorted(at for key in keys for at in by_key.get(key, ())):
                edge = topology.pivot_edges[at]
                if edge.credential_key not in self.queued_pivots:
                    self.queued_pivots.add(edge.credential_key)
                    self.queue.append(PlannedTask(
                        kind="pivot", subnet=edge.from_subnet,
                        grants=edge.to_subnet))
        self._think_next(now)

    def _trace(self, window: int) -> FlowTable:
        parts = []
        for spec in self.sc.agents:
            cfg = dataclasses.replace(self.sc.beacon, src=spec.entity)
            parts.append(flows_at_ticks(
                self.contacts[spec.entity], cfg,
                self.sim.stream(f"{spec.entity}/beacon-bytes")))
        return self._with_background(parts, window)


def run_scenario(scenario: Scenario,
                 journal: TextIO | None = None) -> ScenarioRun:
    """Run the engagement; the hub writes its journal to the text stream
    journal, which the caller opens and closes."""
    kind = {MODE_SWARM: _SwarmRun, MODE_MANUAL: _ManualRun}.get(scenario.mode)
    if kind is None:
        raise ValueError(f"unknown mode {scenario.mode!r}")
    runner = kind(scenario, journal)
    try:
        return runner.run()
    finally:
        # Queued events call the runner's bound methods and the hub holds
        # the simulator's streams, so runner, simulator and hub form a cycle;
        # broken here, reference counting frees the hub with the run.
        runner.sim.clear()


@dataclass
class CompareResult:
    rows: list[dict]
    summary: dict


def compare(scenario: Scenario, n_seeds: int) -> CompareResult:
    """Paired swarm and manual runs over consecutive seeds plus a median
    summary row, each keyed by the columns of comparison.csv.

    speedup is time_manual / time_swarm: "the manual baseline takes this
    many times longer".
    """
    if n_seeds < 3:
        raise ValueError("need at least 3 seeds for a stable median")
    rows = []
    for i in range(n_seeds):
        seed = scenario.seed + i
        swarm = run_scenario(scenario.with_seed(seed).with_mode(MODE_SWARM))
        manual = run_scenario(scenario.with_seed(seed).with_mode(MODE_MANUAL))
        ts = swarm.metrics.time_to_objective_ms
        tm = manual.metrics.time_to_objective_ms
        rows.append({
            "seed": seed,
            "time_swarm_ms": ts, "time_manual_ms": tm,
            "actions_swarm": swarm.metrics.operator_actions,
            "actions_manual": manual.metrics.operator_actions,
            "speedup": (tm / ts) if ts and tm else None,
        })
    summary: dict = {"seed": "median"}
    for col in list(rows[0])[1:]:
        values = [r[col] for r in rows if r[col] is not None]
        summary[col] = statistics.median(values) if values else None
    return CompareResult(rows=rows, summary=summary)
