"""Scenario files: a strict INI dialect describing topology, agents, timing,
and traffic shaping for one simulated engagement.

The loader validates the whole file and reports every problem it finds with
section and key context (plus a line number where one can be located),
instead of stopping at the first error. Unknown sections and keys are errors:
a typo must never silently fall back to a default.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import re
from dataclasses import dataclass

from .engine import Dist, ParameterError
from .hub import INTEL_KINDS, make_content_key
from .traffic import (DST_HUB, TASKING_DURATION, BeaconConfig, ChannelProfile,
                      WorkdayModel, chaff_gap)

MODE_SWARM = "autonomous_swarm"
MODE_MANUAL = "manual_baseline"
MODES = (MODE_SWARM, MODE_MANUAL)

DEFAULT_HORIZON_MS = 7 * 86_400_000
DEFAULT_HOSTS_PER_SUBNET = 4
# Upper bounds on what a scenario makes the parser and the runners build,
# checked before any agent or host name is built
MAX_AGENTS = 10_000
MAX_HOSTS = 100_000
# Upper bound on the beacon polls and on the expected decoy queries a
# scenario can make a run write: at about 0.7 KB a poll in a manual run,
# 4,000,000 polls take about 2.7 GB
MAX_EVENTS = 4_000_000
# Keys whose draws a trace writes as byte counts and durations, which the
# detector holds in int64
_TRACE_INT_KEYS = ("request_size", "response_size", "duration",
                   "summary_response", "burst_size")


class ScenarioError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class IntelSpec:
    kind: str
    name: str
    subnet: str
    host: str

    @property
    def content_key(self) -> str:
        return make_content_key(self.kind, {"name": self.name})


@dataclass(frozen=True)
class PivotEdge:
    credential_key: str
    from_subnet: str
    to_subnet: str


def _host_names(subnet: str, n: int) -> list[str]:
    return [f"{subnet}/host-{i}" for i in range(n)]


@dataclass(frozen=True)
class Topology:
    subnets: tuple[str, ...]
    hosts_per_subnet: int
    intel: tuple[IntelSpec, ...]
    pivot_edges: tuple[PivotEdge, ...]
    required_keys: tuple[str, ...]

    def hosts(self, subnet: str) -> list[str]:
        return _host_names(subnet, self.hosts_per_subnet)

    def recon_yield(self, subnet: str) -> list[tuple[str, str]]:
        """(kind, name) pairs a full sweep of the subnet discovers."""
        found = [("host", h) for h in self.hosts(subnet)]
        found += [(i.kind, i.name)
                  for i in self.intel_by_subnet.get(subnet, ())]
        return found

    # Lookups by key, each built once on first use and kept in file order

    @functools.cached_property
    def intel_by_subnet(self) -> dict[str, list[IntelSpec]]:
        return _group(self.intel, lambda i: i.subnet)

    @functools.cached_property
    def intel_by_host(self) -> dict[str, list[IntelSpec]]:
        return _group(self.intel, lambda i: i.host)

    @functools.cached_property
    def pivot_edges_by_key(self) -> dict[str, list[int]]:
        """Credential key -> the positions in pivot_edges of its edges."""
        return _group(range(len(self.pivot_edges)),
                      lambda k: self.pivot_edges[k].credential_key)


def _group(items, key) -> dict:
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


@dataclass(frozen=True)
class AgentSpec:
    entity: str
    capabilities: frozenset[str]


@dataclass(frozen=True)
class Timing:
    task_duration: Dist = Dist("lognormal", (10.9, 0.35))
    planner_turns: Dist = Dist("uniform", (2.0, 6.0))
    planner_turn_latency: Dist = Dist("lognormal", (9.0, 0.4))
    event_dispatch_latency: Dist = Dist("uniform", (200.0, 1500.0))
    manual_think_time: Dist = Dist("lognormal", (10.3, 0.4))
    # the hub's HeartbeatPolicy windows
    heartbeat_min_window_ms: int = 3_600_000
    heartbeat_max_window_ms: int = 172_800_000


@dataclass(frozen=True)
class Scenario:
    seed: int
    mode: str
    horizon_ms: int
    topology: Topology
    agents: tuple[AgentSpec, ...]
    timing: Timing
    beacon: BeaconConfig  # src is set per agent by the runner
    channels: ChannelProfile
    background: WorkdayModel
    n_users: int

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(self, seed=seed)

    def with_mode(self, mode: str) -> "Scenario":
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        return dataclasses.replace(self, mode=mode)

    def with_beacon_interval(self, interval_ms: int) -> "Scenario":
        """Raises ScenarioError for more polls than parse_scenario accepts."""
        beacon = dataclasses.replace(self.beacon, interval_ms=interval_ms)
        if excess := _excess_polls(len(self.agents), beacon):
            raise ScenarioError([f"[beacon] interval_ms: {excess}"])
        return dataclasses.replace(self, beacon=beacon)


def _excess_polls(count: int, beacon: BeaconConfig) -> str | None:
    """Why count agents polling as beacon says make more than MAX_EVENTS
    polls, or None when they make no more."""
    ticks = beacon.horizon_ms // beacon.interval_ms + 1
    return None if count * ticks <= MAX_EVENTS else (
        f"count x (horizon_ms // interval_ms + 1) = {count} x {ticks}, "
        f"more than {MAX_EVENTS} polls")


def _key_fields(cls) -> list[dataclasses.Field]:
    """The fields of record cls that are scenario keys: those whose default
    is a value the reader reads. The parser sets horizon_ms, src and dst."""
    return [f for f in dataclasses.fields(cls)
            if isinstance(f.default, (Dist, bool, int, float))]


def _keys(*records) -> set[str]:
    return {f.name for cls in records for f in _key_fields(cls)}


_SECTIONS = {
    "scenario": {"seed", "mode", "horizon_ms"},
    "topology": {"subnets", "hosts_per_subnet", "intel", "pivot_edges",
                 "required_intel"},
    "agents": {"count", "capabilities"},
    "timing": _keys(Timing),
    "beacon": _keys(BeaconConfig),
    "channels": _keys(ChannelProfile),
    "background": _keys(WorkdayModel) | {"n_users"},
}
_REQUIRED_SECTIONS = ("scenario", "topology", "agents")
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_EXPECTED = {int: "an integer", float: "a finite number",
             bool: "true or false"}


class _Reader:
    """Accumulates diagnostics while pulling typed values out of the parser."""

    def __init__(self, cp: configparser.ConfigParser, text: str):
        self.cp = cp
        self.diagnostics: list[str] = []
        # (section, key) of each diagnostic
        self.refused: set[tuple[str, str | None]] = set()
        # (section, key) -> the first line that sets the key, and
        # (section, None) -> the section's header line. Keys are lowercased,
        # as configparser reads them.
        self.lines: dict[tuple[str, str | None], int] = {}
        section = None
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if stripped.startswith("["):
                section = stripped[1:-1] if stripped.endswith("]") else None
                self.lines.setdefault((section, None), i)
            elif section is not None and "=" in raw:
                key = raw.split("=", 1)[0].strip().lower()
                self.lines.setdefault((section, key), i)

    def fail(self, section: str, key: str | None, message: str) -> None:
        self.refused.add((section, key))
        where = f"[{section}]" + (f" {key}" if key else "")
        line = self.lines.get((section, key))
        suffix = f" (line {line})" if line else ""
        self.diagnostics.append(f"{where}: {message}{suffix}")

    def refused_any(self, section: str, *keys: str) -> bool:
        return any((section, key) in self.refused for key in keys)

    def get(self, section: str, key: str) -> str | None:
        if not self.cp.has_section(section) or not self.cp.has_option(section, key):
            return None
        return self.cp.get(section, key)

    def read(self, section: str, key: str, default,
             lo: float | None = None, hi: float | None = None,
             hi_open: bool = False):
        """The key read as the type of default (a Dist, bool, int or float),
        which is also the fallback when the key is absent or refused. A
        number must lie in [lo, hi], or [lo, hi) when hi_open."""
        raw = self.get(section, key)
        if raw is None:
            return default
        kind = type(default)
        try:
            if kind is Dist:
                return Dist.parse(raw)
            value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
        except ParameterError as exc:
            self.fail(section, key, str(exc))
            return default
        except (KeyError, ValueError):
            value = None
        # nan would pass every bound below
        if value is None or (kind is float and not math.isfinite(value)):
            self.fail(section, key, f"expected {_EXPECTED[kind]}, got {raw!r}")
            return default
        if lo is not None and value < lo:
            self.fail(section, key, f"must be >= {lo}, got {value}")
            return default
        if hi is not None and (value > hi or (hi_open and value == hi)):
            op = "<" if hi_open else "<="
            self.fail(section, key, f"must be {op} {hi}, got {value}")
            return default
        return value

    def get_fields(self, section: str, cls, **bounds: dict) -> dict:
        """Each key field of cls, in field order, read from the section.
        bounds[name] holds the bounds of that field's value."""
        return {f.name: self.read(section, f.name, f.default,
                                  **bounds.get(f.name, {}))
                for f in _key_fields(cls)}

    def multiline(self, section: str, key: str) -> list[str]:
        raw = self.get(section, key)
        if raw is None:
            return []
        return [line.strip() for line in raw.splitlines() if line.strip()]


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   strict=True)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError([f"unparseable scenario file: {exc}"]) from exc

    r = _Reader(cp, text)

    for section in cp.sections():
        if section not in _SECTIONS:
            r.fail(section, None, "unknown section")
        else:
            for key in cp.options(section):
                if key not in _SECTIONS[section]:
                    r.fail(section, key, "unknown key")
    for section in _REQUIRED_SECTIONS:
        if not cp.has_section(section):
            r.diagnostics.append(f"[{section}]: required section is missing")

    if r.diagnostics:
        raise ScenarioError(r.diagnostics)

    # [scenario]
    seed = r.read("scenario", "seed", 0)
    if r.get("scenario", "seed") is None:
        r.fail("scenario", None, "seed is required")
    mode = r.get("scenario", "mode") or ""
    if mode not in MODES:
        r.fail("scenario", "mode",
               f"must be one of {', '.join(MODES)}, got {mode!r}")
        mode = MODES[0]
    horizon = r.read("scenario", "horizon_ms", DEFAULT_HORIZON_MS, lo=1)

    # [topology]
    subnets_raw = r.get("topology", "subnets") or ""
    subnets = tuple(s.strip() for s in subnets_raw.split(",") if s.strip())
    subnet_set = set(subnets)
    if not subnets:
        r.fail("topology", "subnets", "at least one subnet is required")
    elif len(subnet_set) != len(subnets):
        r.fail("topology", "subnets", "subnet names must be unique")
    hosts_per = r.read("topology", "hosts_per_subnet",
                       DEFAULT_HOSTS_PER_SUBNET, lo=1)
    if len(subnets) * hosts_per > MAX_HOSTS:
        r.fail("topology", "hosts_per_subnet",
               f"subnets x hosts_per_subnet = {len(subnets)} x {hosts_per}, "
               f"more than {MAX_HOSTS} hosts")
        hosts_per = DEFAULT_HOSTS_PER_SUBNET
    host_subnet = {host: s for s in subnets
                   for host in _host_names(s, hosts_per)}
    # content key -> the subnet the item sits in, for each declared item and
    # each required host
    sits_in: dict[str, str] = {}

    intel: list[IntelSpec] = []
    intel_names: dict[str, IntelSpec] = {}
    for line in r.multiline("topology", "intel"):
        m = re.fullmatch(r"(\w+)\s+([\w./-]+)\s*@\s*([\w-]+)/([\w-]+)", line)
        if not m:
            r.fail("topology", "intel",
                   f"expected '<kind> <name> @ <subnet>/<host>', got {line!r}")
            continue
        kind, name, subnet, host = m.groups()
        if kind == "host" or kind not in INTEL_KINDS:
            r.fail("topology", "intel",
                   f"kind must be port/service/credential/share/misc, got {kind!r}")
            continue
        if subnet not in subnet_set:
            r.fail("topology", "intel", f"unknown subnet {subnet!r} in {line!r}")
            continue
        if f"{subnet}/{host}" not in host_subnet:
            r.fail("topology", "intel", f"unknown host {host!r} in {line!r}")
            continue
        spec = IntelSpec(kind=kind, name=name, subnet=subnet,
                         host=f"{subnet}/{host}")
        if f"{kind}:{name}" in intel_names:
            r.fail("topology", "intel", f"duplicate item {kind} {name}")
            continue
        intel_names[f"{kind}:{name}"] = spec
        sits_in[spec.content_key] = subnet
        intel.append(spec)

    edges: list[PivotEdge] = []
    for line in r.multiline("topology", "pivot_edges"):
        m = re.fullmatch(r"([\w./-]+)\s*:\s*([\w-]+)\s*->\s*([\w-]+)", line)
        if not m:
            r.fail("topology", "pivot_edges",
                   f"expected '<credential>: <from> -> <to>', got {line!r}")
            continue
        cred, from_s, to_s = m.groups()
        spec = intel_names.get(f"credential:{cred}")
        if spec is None:
            r.fail("topology", "pivot_edges",
                   f"{cred!r} is not a declared credential")
            continue
        if from_s not in subnet_set or to_s not in subnet_set:
            r.fail("topology", "pivot_edges", f"unknown subnet in {line!r}")
            continue
        edges.append(PivotEdge(credential_key=spec.content_key,
                               from_subnet=from_s, to_subnet=to_s))

    required: list[str] = []
    required_raw = r.get("topology", "required_intel") or ""
    if not required_raw.strip():
        r.fail("topology", "required_intel", "at least one item is required")
    for ref in (x.strip() for x in required_raw.split(",") if x.strip()):
        if ":" not in ref:
            r.fail("topology", "required_intel",
                   f"expected '<kind>:<name>', got {ref!r}")
            continue
        kind, name = ref.split(":", 1)
        if kind == "host":
            if name not in host_subnet:
                r.fail("topology", "required_intel", f"unknown host {name!r}")
                continue
            key = make_content_key("host", {"name": name})
            sits_in[key] = host_subnet[name]
            required.append(key)
        else:
            spec = intel_names.get(ref)
            if spec is None:
                r.fail("topology", "required_intel",
                       f"{ref!r} is not a declared item")
                continue
            required.append(spec.content_key)

    # [agents]
    count = r.read("agents", "count", 0, lo=1, hi=MAX_AGENTS)
    if r.get("agents", "count") is None:
        r.fail("agents", None, "count is required")
    default_caps = {subnets[0]} if subnets else set()
    caps = {f"implant-{i}": default_caps for i in range(1, count + 1)}
    for line in r.multiline("agents", "capabilities"):
        m = re.fullmatch(r"([\w-]+)\s*:\s*(.+)", line)
        if not m:
            r.fail("agents", "capabilities",
                   f"expected '<implant>: <subnet, ...>', got {line!r}")
            continue
        entity, rest = m.groups()
        if entity not in caps:
            r.fail("agents", "capabilities",
                   f"{entity!r} is not implant-1..implant-{count}")
            continue
        tags = {t.strip() for t in rest.split(",") if t.strip()}
        bad = tags - subnet_set
        if bad:
            r.fail("agents", "capabilities",
                   f"unknown subnet(s) {sorted(bad)} for {entity}")
            continue
        caps[entity] = tags
    agents = tuple(AgentSpec(entity=e, capabilities=frozenset(c))
                   for e, c in caps.items())

    # [timing]
    timing = Timing(**r.get_fields("timing", Timing,
                                   heartbeat_min_window_ms={"lo": 1},
                                   heartbeat_max_window_ms={"lo": 1}))
    # an ordering check compares only values the file sets, not a default
    if (timing.heartbeat_min_window_ms > timing.heartbeat_max_window_ms
            and not r.refused_any("timing", "heartbeat_min_window_ms",
                                  "heartbeat_max_window_ms")):
        r.fail("timing", "heartbeat_min_window_ms",
               f"min window {timing.heartbeat_min_window_ms} exceeds max "
               f"window {timing.heartbeat_max_window_ms}")

    # [beacon]
    beacon = BeaconConfig(
        horizon_ms=horizon, src="", dst=DST_HUB,
        **r.get_fields("beacon", BeaconConfig, interval_ms={"lo": 1},
                       jitter_fraction={"lo": 0.0, "hi": 1.0, "hi_open": True}))
    if excess := _excess_polls(count, beacon):
        r.fail("beacon", "interval_ms", excess)

    # [channels]
    channels = ChannelProfile(**r.get_fields("channels", ChannelProfile,
                                             chaff_per_hour={"lo": 0.0}))
    if channels.chaff_per_hour > 0:
        try:
            chaff_gap(channels.chaff_per_hour)
        except ParameterError as exc:
            r.fail("channels", "chaff_per_hour",
                   f"too low a rate for a finite gap between queries: {exc}")
    # horizon_ms may be past what a float holds, so it is compared, not
    # multiplied
    rate = count * channels.chaff_per_hour
    if rate > 0 and horizon > MAX_EVENTS * 3_600_000 / rate:
        r.fail("channels", "chaff_per_hour",
               f"count x chaff_per_hour x horizon_ms / 3600000 = {count} x "
               f"{channels.chaff_per_hour} x {horizon} / 3600000, more than "
               f"{MAX_EVENTS} decoy queries")

    # [background]
    workday = r.get_fields("background", WorkdayModel,
                           workday_start_hour={"lo": 0, "hi": 23},
                           workday_end_hour={"lo": 1, "hi": 24},
                           off_hours_fraction={"lo": 0.0, "hi": 1.0})
    start_h, end_h = workday["workday_start_hour"], workday["workday_end_hour"]
    if start_h >= end_h:
        if not r.refused_any("background", "workday_start_hour",
                             "workday_end_hour"):
            r.fail("background", "workday_start_hour",
                   f"start hour {start_h} must precede end hour {end_h}")
        # fall back to WorkdayModel's own hours
        del workday["workday_start_hour"], workday["workday_end_hour"]
    background = WorkdayModel(horizon_ms=horizon, **workday)
    n_users = r.read("background", "n_users", 0, lo=0)
    # benign traffic loops over every user-day, even one that draws no
    # session, and draws each session's flows
    days = max(1, -(-horizon // 86_400_000))
    sessions = max(1, round(background.sessions_per_day.largest))
    flows = max(1, round(background.flows_per_session.largest))
    if n_users * days * sessions * flows > MAX_EVENTS:
        r.fail("background", "n_users",
               f"n_users x days x sessions_per_day x flows_per_session = "
               f"{n_users} x {days} x {sessions} x {flows}, more than "
               f"{MAX_EVENTS} benign flows")
    # a swarm runs one reasoning session per recon (one a subnet) and per
    # pivot (one an edge): turns of a request each, or bursts when streaming
    if channels.streaming:
        section, key, dist = ("channels", "burst_count", channels.burst_count)
    else:
        section, key, dist = ("timing", "planner_turns", timing.planner_turns)
    per_session = max(1, round(dist.largest))
    if (len(subnets) + len(edges)) * per_session > MAX_EVENTS:
        r.fail(section, key,
               f"(subnets + pivot_edges) x {key} = ({len(subnets)} + "
               f"{len(edges)}) x {per_session}, more than {MAX_EVENTS} "
               "reasoning flows")

    # every byte count and duration a trace holds must be below 2^63
    for section, record in (("beacon", beacon), ("channels", channels),
                            ("background", background)):
        for key in _TRACE_INT_KEYS:
            dist = getattr(record, key, None)
            if dist is not None and round(dist.largest) >= 2 ** 63:
                r.fail(section, key, f"largest draw {dist.largest} rounds "
                       "to 2^63 or more, past the int64 cells of a trace")
    # and so is every flow's end: a flow starts at or before the horizon,
    # and lasts at most the largest draw of its duration (one refused above
    # is left out)
    durations = [round(dist.largest) for dist in (
        beacon.duration, channels.duration, background.duration,
        TASKING_DURATION)]
    longest = max(d for d in durations if d < 2 ** 63)
    if horizon + longest >= 2 ** 63:
        r.fail("scenario", "horizon_ms",
               f"{horizon} + largest duration draw {longest} is 2^63 or "
               "more, past the int64 cells of a trace")
    # and a non-streaming request grows by context_growth each turn after
    # the first
    request = channels.request_size.largest
    turns = timing.planner_turns.largest
    growth = channels.context_growth.largest
    if round(request) < 2 ** 63 <= round(request) + (
            max(1, round(turns)) - 1) * max(0, round(growth)):
        r.fail("channels", "request_size",
               f"largest draw {request} + (planner_turns {turns} - 1) x "
               f"context_growth {growth} rounds to 2^63 or more, past the "
               "int64 cells of a trace")

    # reachability: every required item must be collectable by some agent
    # through the declared pivot chain
    if subnets and agents and required:
        # an edge is looked at again only when its source subnet or its
        # credential's subnet turns reachable
        waiting: dict[str, list[PivotEdge]] = {}
        for edge in edges:
            for subnet in {edge.from_subnet, sits_in[edge.credential_key]}:
                waiting.setdefault(subnet, []).append(edge)
        reachable = set().union(*(spec.capabilities for spec in agents))
        frontier = list(reachable)
        while frontier:
            for edge in waiting.pop(frontier.pop(), ()):
                if (edge.to_subnet not in reachable
                        and edge.from_subnet in reachable
                        and sits_in[edge.credential_key] in reachable):
                    reachable.add(edge.to_subnet)
                    frontier.append(edge.to_subnet)
        for key in required:
            subnet = sits_in[key]
            if subnet not in reachable:
                r.fail("topology", "required_intel",
                       f"{key!r} sits in {subnet!r}, which no agent can reach")

    if r.diagnostics:
        raise ScenarioError(r.diagnostics)

    topology = Topology(subnets=subnets, hosts_per_subnet=hosts_per,
                        intel=tuple(intel), pivot_edges=tuple(edges),
                        required_keys=tuple(required))
    return Scenario(seed=seed, mode=mode, horizon_ms=horizon,
                    topology=topology, agents=agents, timing=timing,
                    beacon=beacon, channels=channels, background=background,
                    n_users=n_users)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=str(path))


def default_scenario_text() -> str:
    """A ready-to-run engagement: three zones, one credential-locked pivot.

    implant-1 and implant-2 sit in the user zone, implant-3 in the DMZ. The
    credential found on a DMZ host unlocks the server zone from the user
    zone, and the objective is the share on a server-zone host.
    """
    return """\
# Three-zone exercise with one credential-locked pivot.
[scenario]
seed = 42
mode = autonomous_swarm
horizon_ms = 604800000

[topology]
subnets = user_zone, dmz, server_zone
hosts_per_subnet = 4
intel =
    credential cred-server @ dmz/host-1
    share crown-jewels @ server_zone/host-2
pivot_edges =
    cred-server: user_zone -> server_zone
required_intel = share:crown-jewels

[agents]
count = 3
capabilities =
    implant-1: user_zone
    implant-2: user_zone
    implant-3: dmz

[timing]
task_duration = lognormal(10.9, 0.35)
planner_turns = uniform(2, 6)
planner_turn_latency = lognormal(9.0, 0.4)
event_dispatch_latency = uniform(200, 1500)
manual_think_time = lognormal(10.3, 0.4)
heartbeat_min_window_ms = 3600000
heartbeat_max_window_ms = 172800000

[beacon]
interval_ms = 60000
jitter_fraction = 0.1

[channels]
streaming = false
chaff_per_hour = 0

[background]
n_users = 0
"""


def default_scenario() -> Scenario:
    return parse_scenario(default_scenario_text(), source="<default>")
