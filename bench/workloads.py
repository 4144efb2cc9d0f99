"""Workload definitions for the c2sim benchmark.

A workload is a set of scenario files (one per orchestration mode) plus, for
the detector-only workload, one trace corpus per timed operation. Every input
is a pure function of its parameters and a seed, so the same seed gives the
same files. The scenario texts are pinned here rather than taken from
`c2sim.scenario.default_scenario_text`, so a change to the program's default
scenario cannot silently change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SWARM = "autonomous_swarm"
MANUAL = "manual_baseline"

DAY_MS = 86_400_000
HOUR_MS = 3_600_000
WEEK_MS = 7 * DAY_MS

# A corpus workload writes this many corpora in set-up, one per timed
# operation; a run that uses them all ends early instead of reusing one.
CORPORA = 16


def three_zone_text(mode: str, chaff_per_hour: int, n_users: int,
                    horizon_ms: int = WEEK_MS) -> str:
    """The default three-zone engagement with one credential-locked pivot."""
    return f"""\
[scenario]
seed = 42
mode = {mode}
horizon_ms = {horizon_ms}

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
chaff_per_hour = {chaff_per_hour}

[background]
n_users = {n_users}
"""


def chain_text(n_subnets: int, hosts_per_subnet: int, n_agents: int,
               n_users: int, horizon_ms: int = WEEK_MS) -> str:
    """Manual sweep over a pivot chain z0 -> z1 -> ... -> z{n-1}.

    Credential c_i sits on z_i/host-1 and opens z_{i+1}; implant-k starts in
    z_{k mod (n-1)}; the objective is a share on the last subnet's host-2.
    """
    last = n_subnets - 1
    intel = [f"    credential c{i} @ z{i}/host-1" for i in range(last)]
    intel.append(f"    share target @ z{last}/host-2")
    edges = [f"    c{i}: z{i} -> z{i + 1}" for i in range(last)]
    caps = [f"    implant-{k}: z{k % last}" for k in range(1, n_agents + 1)]
    nl = "\n"
    return f"""\
[scenario]
seed = 42
mode = {MANUAL}
horizon_ms = {horizon_ms}

[topology]
subnets = {", ".join(f"z{i}" for i in range(n_subnets))}
hosts_per_subnet = {hosts_per_subnet}
intel =
{nl.join(intel)}
pivot_edges =
{nl.join(edges)}
required_intel = share:target

[agents]
count = {n_agents}
capabilities =
{nl.join(caps)}

[background]
n_users = {n_users}
"""


@dataclass(frozen=True)
class Corpus:
    """Criterion 2's detector corpus: jittered beacons plus benign users."""

    n_beacons: int
    n_users: int
    horizon_ms: int

    def flows(self, seed: int) -> list:
        """Beacon intervals 30 s to 1 h, jitter up to 0.2, as in criterion 2."""
        from c2sim.engine import RngStream
        from c2sim.traffic import (BeaconConfig, WorkdayModel, merge_traces,
                                   synth_background, synth_beacon_trace)
        meta = RngStream(seed, "corpus/beacon-params")
        flows = []
        for i in range(self.n_beacons):
            interval = 30_000 + int(meta.unit() * (HOUR_MS - 30_000))
            jitter = meta.unit() * 0.2
            cfg = BeaconConfig(interval_ms=interval, jitter_fraction=jitter,
                               horizon_ms=self.horizon_ms, src=f"bcn-{i}",
                               dst="c2")
            flows += synth_beacon_trace(cfg, RngStream(seed, f"bcn-{i}/ticks"))
        flows += synth_background(self.n_users,
                                  WorkdayModel(horizon_ms=self.horizon_ms),
                                  lambda sid: RngStream(seed, f"corpus/{sid}"))
        return merge_traces(flows)


@dataclass(frozen=True)
class Workload:
    """scenarios maps mode -> scenario text; each timed operation simulates
    every mode with the operation's seed and replays each journal. detect
    scores each simulated trace, or, when corpus is set, the operation's own
    corpus once."""

    name: str
    scenarios: dict
    corpus: Corpus | None = None


WORKLOADS = {
    # Criterion 1's settings; detector-bound (7-day benign channel spans).
    "mixed_week": Workload("mixed_week", {
        SWARM: three_zone_text(SWARM, chaff_per_hour=60, n_users=3),
        MANUAL: three_zone_text(MANUAL, chaff_per_hour=60, n_users=3),
    }),
    # Simulation-bound: 119k polls over a growing task table. One benign
    # user gives the report negative channels, so detect_auc is defined.
    "manual_sweep": Workload("manual_sweep", {
        MANUAL: chain_text(40, 20, 60, n_users=1),
    }),
    # Criterion 2's corpus for detect; simulate and replay run the plain
    # default scenario in both modes.
    "detect_corpus": Workload("detect_corpus", {
        SWARM: three_zone_text(SWARM, chaff_per_hour=0, n_users=0),
        MANUAL: three_zone_text(MANUAL, chaff_per_hour=0, n_users=0),
    }, corpus=Corpus(n_beacons=50, n_users=30, horizon_ms=DAY_MS)),
}

# Same shapes at a size that runs in well under a second, for the self-test.
TINY = {
    "mixed_week": Workload("mixed_week", {
        SWARM: three_zone_text(SWARM, 60, 1, horizon_ms=DAY_MS),
        MANUAL: three_zone_text(MANUAL, 60, 1, horizon_ms=DAY_MS),
    }),
    "manual_sweep": Workload("manual_sweep", {
        MANUAL: chain_text(4, 3, 5, n_users=1, horizon_ms=DAY_MS),
    }),
    "detect_corpus": Workload("detect_corpus", {
        SWARM: three_zone_text(SWARM, 0, 0, horizon_ms=DAY_MS),
        MANUAL: three_zone_text(MANUAL, 0, 0, horizon_ms=DAY_MS),
    }, corpus=Corpus(n_beacons=4, n_users=3, horizon_ms=DAY_MS // 2)),
}


def op_seed(run_seed: int, index: int) -> int:
    """Each timed operation gets its own seed, so no operation replays
    another's exact input in a warm process."""
    return run_seed * 1_000_000 + index


def scenario_path(directory, mode: str):
    return Path(directory) / f"{mode}.ini"


def corpus_path(directory, index: int):
    return Path(directory) / f"corpus-{index}.csv"


def write_inputs(workload: Workload, run_seed: int, directory) -> None:
    """Write the workload's scenario files and, for a corpus workload, one
    corpus per operation the run may time."""
    from c2sim.traffic import write_trace
    Path(directory).mkdir(parents=True, exist_ok=True)
    for mode, text in workload.scenarios.items():
        scenario_path(directory, mode).write_text(text, encoding="utf-8")
    if workload.corpus is not None:
        for i in range(CORPORA):
            write_trace(corpus_path(directory, i),
                        workload.corpus.flows(op_seed(run_seed, i)))
