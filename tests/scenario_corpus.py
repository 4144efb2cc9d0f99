"""A deterministic corpus of small scenarios and the digests of what each one
makes: the artifacts `c2sim simulate` and `c2sim detect` write.

Every topology shape runs under every traffic shape in both modes, on two
seeds, plus a few scenarios sized right at a budget of the scenario parser.
Horizons are hours long, so the corpus runs in seconds.

    python tests/scenario_corpus.py

rewrites `digest_table.txt` from the code as it stands. Do that only for a
change that means to move artifact bytes; the table's diff then names every
scenario whose bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("digest_table.txt")
# artifact name -> the directory simulate ("sim") or detect ("det") writes it to
ARTIFACTS = (("sim", "trace.csv"), ("sim", "journal.ndjson"),
             ("sim", "metrics.json"), ("det", "report.ndjson"),
             ("det", "roc.csv"))

# topology shape -> ([topology] body, [agents] body)
_TOPOLOGIES = {
    "zones": ("""\
subnets = user_zone, dmz, server_zone
hosts_per_subnet = 4
intel =
    credential cred-server @ dmz/host-1
    share crown-jewels @ server_zone/host-2
pivot_edges =
    cred-server: user_zone -> server_zone
required_intel = share:crown-jewels
""", """\
count = 3
capabilities =
    implant-1: user_zone
    implant-2: user_zone
    implant-3: dmz
"""),
    "chain2": ("""\
subnets = z0, z1, z2
hosts_per_subnet = 3
intel =
    credential c0 @ z0/host-1
    credential c1 @ z1/host-2
    share target @ z2/host-0
pivot_edges =
    c0: z0 -> z1
    c1: z1 -> z2
required_intel = share:target
""", """\
count = 2
capabilities =
    implant-1: z0
    implant-2: z0
"""),
    "chain3": ("""\
subnets = z0, z1, z2, z3
hosts_per_subnet = 3
intel =
    credential c0 @ z0/host-1
    credential c1 @ z1/host-1
    credential c2 @ z2/host-1
    share target @ z3/host-2
pivot_edges =
    c0: z0 -> z1
    c1: z1 -> z2
    c2: z2 -> z3
required_intel = share:target
""", """\
count = 5
capabilities =
    implant-1: z0
    implant-2: z1
    implant-3: z2
    implant-4: z0
    implant-5: z1
"""),
    "flat": ("""\
subnets = a
hosts_per_subnet = 2
required_intel = host:a/host-1
""", """\
count = 2
"""),
    "slash": ("""\
subnets = lab/a, lab/b
hosts_per_subnet = 3
required_intel = host:lab/a/host-2, host:lab/b/host-0
""", """\
count = 2
capabilities =
    implant-1: lab/a
    implant-2: lab/b
"""),
    "parallel": ("""\
subnets = a, b, c
intel =
    share s-a @ a/host-0
    share s-b @ b/host-0
    share s-c @ c/host-0
required_intel = share:s-a, share:s-b, share:s-c
""", """\
count = 3
capabilities =
    implant-1: a, b, c
    implant-2: a, b, c
    implant-3: a, b, c
"""),
}

# traffic shape -> extra sections
_TRAFFIC = {
    "plain": "",
    "chaff": "[channels]\nchaff_per_hour = 30\n",
    "users": "[background]\nn_users = 2\n",
    "chaff-users": "[channels]\nchaff_per_hour = 60\n\n[background]\n"
                   "n_users = 3\n",
    "streaming": "[channels]\nstreaming = true\nchaff_per_hour = 6\n",
    "jitter0": "[beacon]\njitter_fraction = 0\n\n[background]\nn_users = 1\n"
               "off_hours_fraction = 0.5\n",
}
_MODES = {"swarm": "autonomous_swarm", "manual": "manual_baseline"}
_HORIZONS = (4 * 3_600_000, 12 * 3_600_000, 30 * 3_600_000)
_INTERVALS = (30_000, 60_000, 90_000)
_WINDOWS = ((3_600_000, 172_800_000), (60_000, 600_000))


def _text(seed: int, mode: str, horizon_ms: int, topology: str,
          extra: str = "", interval_ms: int | None = None,
          windows: tuple[int, int] | None = None) -> str:
    topo, agents = _TOPOLOGIES[topology]
    text = (f"[scenario]\nseed = {seed}\nmode = {_MODES[mode]}\n"
            f"horizon_ms = {horizon_ms}\n\n[topology]\n{topo}\n"
            f"[agents]\n{agents}\n")
    if windows is not None:
        text += (f"[timing]\nheartbeat_min_window_ms = {windows[0]}\n"
                 f"heartbeat_max_window_ms = {windows[1]}\n\n")
    if interval_ms is not None and "[beacon]" not in extra:
        text += f"[beacon]\ninterval_ms = {interval_ms}\n\n"
    elif interval_ms is not None:
        extra = extra.replace("[beacon]\n",
                              f"[beacon]\ninterval_ms = {interval_ms}\n")
    return text + extra


# Scenarios sized right at a budget the parser enforces; each runs in well
# under a second. The polls budget binds only a manual run and the decoy
# budget only a swarm run, so each sits at its budget in the mode that does
# not spend it.
_AT_BUDGET = {
    # 4 x (999999 // 1 + 1) potential polls = MAX_EVENTS
    "budget-polls-swarm": _text(11, "swarm", 999_999, "zones",
                                "[beacon]\ninterval_ms = 1\n").replace(
                                    "count = 3", "count = 4"),
    # 4 x 100000 x 36000000 / 3600000 expected decoy queries = MAX_EVENTS
    "budget-decoys-manual": _text(
        12, "manual", 36_000_000, "flat",
        "[channels]\nchaff_per_hour = 100000\n").replace(
            "count = 2", "count = 4"),
    # the largest byte count a trace holds: 2^63 - 1024, the largest double
    # below 2^63
    "budget-sizes-manual": _text(
        13, "manual", 4 * 3_600_000, "zones",
        "[beacon]\nrequest_size = uniform(580, 9223372036854774784)\n"),
    "budget-sizes-swarm": _text(
        14, "swarm", 4 * 3_600_000, "zones",
        "[channels]\nresponse_size = uniform(1, 9223372036854774784)\n"),
    # MAX_HOSTS hosts, queued one probe each
    "budget-hosts-manual": _text(
        16, "manual", 4 * 3_600_000, "flat").replace(
            "hosts_per_subnet = 2", "hosts_per_subnet = 100000"),
    # MAX_AGENTS agents, most of them never contacted
    "budget-agents-swarm": _text(15, "swarm", 4 * 3_600_000, "flat").replace(
        "count = 2", "count = 10000"),
}


def corpus() -> dict[str, str]:
    """Scenario name -> scenario text, in a fixed order."""
    cases: dict[str, str] = {}
    k = 0
    for topology in _TOPOLOGIES:
        for traffic, extra in _TRAFFIC.items():
            for mode in _MODES:
                for rep in range(2):
                    k += 1
                    cases[f"{topology}-{traffic}-{mode}-{rep}"] = _text(
                        seed=k, mode=mode, horizon_ms=_HORIZONS[k % 3],
                        topology=topology, extra=extra,
                        interval_ms=_INTERVALS[(k // 3) % 3],
                        windows=_WINDOWS[k % 2] if rep else None)
    cases.update(_AT_BUDGET)
    return cases


def artifact_digests(text: str, directory: Path) -> tuple[str, ...]:
    """Simulate the scenario and detect on its trace through the CLI, in
    directory; the sha256 of each artifact, in ARTIFACTS order. Raises
    AssertionError when either verb does not exit 0."""
    from c2sim.cli import main

    scenario = directory / "scenario.ini"
    scenario.write_text(text, encoding="utf-8")
    sim, det = directory / "sim", directory / "det"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(sim)]) == 0
        assert main(["detect", str(sim / "trace.csv"),
                     "--out", str(det)]) == 0
    where = {"sim": sim, "det": det}
    return tuple(hashlib.sha256((where[d] / name).read_bytes()).hexdigest()
                 for d, name in ARTIFACTS)


def read_table() -> dict[str, tuple[str, ...]]:
    rows = (line.split() for line in TABLE.read_text().splitlines())
    return {row[0]: tuple(row[1:]) for row in rows}


def write_table() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, text) in enumerate(corpus().items()):
            directory = Path(tmp) / str(i)
            directory.mkdir()
            lines.append(" ".join((name,) + artifact_digests(text, directory)))
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_table()
