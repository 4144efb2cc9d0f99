"""Scenario file parsing, validation diagnostics, and derived helpers."""

from __future__ import annotations

import time

import pytest

from c2sim import scenario
from c2sim.cli import main
from c2sim.scenario import (
    Scenario,
    ScenarioError,
    default_scenario,
    default_scenario_text,
    load_scenario,
    parse_scenario,
)


def _diags(text: str) -> list[str]:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    return err.value.diagnostics


MINIMAL = """\
[scenario]
seed = 7
mode = manual_baseline

[topology]
subnets = alpha
required_intel = share:prize
intel =
    share prize @ alpha/host-0

[agents]
count = 1
"""


def test_default_scenario_parses():
    sc = default_scenario()
    assert sc.seed == 42
    assert sc.mode == "autonomous_swarm"
    assert sc.horizon_ms == 604_800_000
    assert sc.topology.subnets == ("user_zone", "dmz", "server_zone")
    assert sc.topology.required_keys == ("share:name=crown-jewels",)
    assert [a.entity for a in sc.agents] == ["implant-1", "implant-2", "implant-3"]
    assert sc.agents[2].capabilities == frozenset({"dmz"})
    assert sc.beacon.interval_ms == 60_000
    assert parse_scenario(default_scenario_text()) == sc


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.horizon_ms == 604_800_000
    assert sc.topology.hosts_per_subnet == 4
    # no capabilities block: everyone defaults to the first subnet
    assert sc.agents[0].capabilities == frozenset({"alpha"})
    assert sc.timing.heartbeat_min_window_ms == 3_600_000
    assert sc.channels.streaming is False
    assert sc.n_users == 0
    assert str(sc.timing.task_duration) == "lognormal(10.9, 0.35)"


def test_recon_yield_lists_hosts_and_placed_items():
    sc = default_scenario()
    found = sc.topology.recon_yield("dmz")
    hosts = [name for kind, name in found if kind == "host"]
    assert hosts == [f"dmz/host-{i}" for i in range(4)]
    assert ("credential", "cred-server") in found
    assert all(kind != "share" for kind, _ in found)


def test_topology_lookups_are_the_scans_in_file_order():
    text = default_scenario_text().replace(
        "    share crown-jewels @ server_zone/host-2\n",
        "    share crown-jewels @ server_zone/host-2\n"
        "    credential cred-user @ dmz/host-1\n"
        "    share notes @ user_zone/host-0\n").replace(
        "    cred-server: user_zone -> server_zone\n",
        "    cred-server: user_zone -> server_zone\n"
        "    cred-user: dmz -> user_zone\n"
        "    cred-server: dmz -> server_zone\n")
    topology = parse_scenario(text).topology
    intel, edges = topology.intel, topology.pivot_edges
    assert len(intel) == 4 and len(edges) == 3
    for subnet in topology.subnets:
        assert topology.intel_by_subnet.get(subnet, []) == [
            i for i in intel if i.subnet == subnet]
        for host in topology.hosts(subnet):
            assert topology.intel_by_host.get(host, []) == [
                i for i in intel if i.host == host]
    assert topology.pivot_edges_by_key == {
        e.credential_key: [k for k, f in enumerate(edges)
                           if f.credential_key == e.credential_key]
        for e in edges}


def test_unknown_section_rejected():
    diags = _diags(MINIMAL + "\n[surprise]\nx = 1\n")
    assert any("[surprise]" in d and "unknown section" in d for d in diags)


def test_unknown_key_rejected_with_line():
    text = MINIMAL.replace("count = 1", "count = 1\nflavour = mint")
    diags = _diags(text)
    assert len(diags) == 1
    assert "[agents] flavour" in diags[0]
    assert "unknown key" in diags[0]
    expected_line = text.splitlines().index("flavour = mint") + 1
    assert f"(line {expected_line})" in diags[0]


def test_diagnostics_cost_follows_the_file():
    # a scan of the text for each diagnostic would make this quadratic
    keys = "".join(f"k{i} = 1\n" for i in range(4000))
    text = MINIMAL + keys
    start = time.perf_counter()
    diags = _diags(text)
    assert time.perf_counter() - start < 1.0
    assert diags[-1] == "[agents] k3999: unknown key (line 4012)"
    assert len(diags) == 4000


def _chain(n: int, skip: int | None = None) -> str:
    """n subnets in a pivot chain, its edges listed last to first (edge skip
    left out), the prize at its end, and n agents with one capability line
    each, all in the first subnet."""
    intel = "".join(f"    credential c{i} @ s{i}/host-0\n" for i in range(n - 1))
    edges = "".join(f"    c{i}: s{i} -> s{i + 1}\n"
                    for i in reversed(range(n - 1)) if i != skip)
    caps = "".join(f"    implant-{i}: s0\n" for i in range(1, n + 1))
    return ("[scenario]\nseed = 1\nmode = manual_baseline\n"
            "horizon_ms = 3600000\n\n[topology]\nsubnets = "
            + ", ".join(f"s{i}" for i in range(n))
            + "\nhosts_per_subnet = 1\nrequired_intel = share:prize\n"
            f"intel =\n{intel}    share prize @ s{n - 1}/host-0\n"
            f"pivot_edges =\n{edges}\n[agents]\ncount = {n}\n"
            f"capabilities =\n{caps}")


def test_topology_validation_cost_follows_the_file():
    # a scan of the subnets or of the edges for each line or chain link
    # would make this quadratic
    text = _chain(10_000)
    start = time.perf_counter()
    sc = parse_scenario(text)
    assert time.perf_counter() - start < 2.0
    assert len(sc.topology.pivot_edges) == 9_999
    assert _diags(_chain(10_000, skip=5_000)) == [
        "[topology] required_intel: 'share:name=prize' sits in 's9999', "
        "which no agent can reach (line 9)"]


def test_missing_required_sections():
    diags = _diags("[scenario]\nseed = 1\nmode = manual_baseline\n")
    assert any("[topology]" in d and "missing" in d for d in diags)
    assert any("[agents]" in d and "missing" in d for d in diags)


def test_missing_seed_and_mode():
    text = MINIMAL.replace("seed = 7\n", "").replace(
        "mode = manual_baseline\n", "")
    diags = _diags(text)
    assert any("seed is required" in d for d in diags)
    assert any("mode" in d and "must be one of" in d for d in diags)


def test_bad_mode_names_alternatives():
    diags = _diags(MINIMAL.replace("manual_baseline", "yolo"))
    assert any("autonomous_swarm" in d and "'yolo'" in d for d in diags)


def test_bad_integers_and_ranges():
    diags = _diags(MINIMAL + "\n[scenario2]\n" if False else
                   MINIMAL.replace("seed = 7", "seed = seven"))
    assert any("[scenario] seed" in d and "'seven'" in d for d in diags)
    diags = _diags(MINIMAL + "\n[beacon]\njitter_fraction = 1.0\n")
    assert any("jitter_fraction" in d and "< 1.0" in d for d in diags)
    diags = _diags(MINIMAL + "\n[beacon]\ninterval_ms = 0\n")
    assert any("interval_ms" in d and ">= 1" in d for d in diags)


def test_malformed_intel_lines():
    base = MINIMAL.replace("share prize @ alpha/host-0",
                           "share prize @ alpha/host-0\n    blob")
    assert any("intel" in d and "'blob'" in d for d in _diags(base))

    bad_subnet = MINIMAL.replace("@ alpha/host-0", "@ beta/host-0")
    assert any("unknown subnet 'beta'" in d for d in _diags(bad_subnet))

    bad_host = MINIMAL.replace("@ alpha/host-0", "@ alpha/host-9")
    assert any("unknown host 'host-9'" in d for d in _diags(bad_host))

    dup = MINIMAL.replace(
        "share prize @ alpha/host-0",
        "share prize @ alpha/host-0\n    share prize @ alpha/host-1")
    assert any("duplicate item share prize" in d for d in _diags(dup))

    host_kind = MINIMAL.replace("share prize @", "host prize @")
    assert any("kind must be" in d for d in _diags(host_kind))


def test_pivot_edge_validation():
    text = MINIMAL + "\n"
    with_edge = text.replace(
        "[agents]",
        "pivot_edges =\n    missing-cred: alpha -> alpha\n\n[agents]")
    assert any("not a declared credential" in d for d in _diags(with_edge))

    two_subnets = MINIMAL.replace("subnets = alpha", "subnets = alpha, beta")
    bad = two_subnets.replace(
        "[agents]",
        "pivot_edges =\n    prize: alpha -> gamma\n\n[agents]")
    # "prize" is a share, not a credential, so that error fires first
    assert any("not a declared credential" in d for d in _diags(bad))


def test_required_intel_validation():
    missing = MINIMAL.replace("required_intel = share:prize",
                              "required_intel = share:nothere")
    assert any("'share:nothere' is not a declared item" in d
               for d in _diags(missing))

    empty = MINIMAL.replace("required_intel = share:prize\n",
                            "required_intel =\n")
    assert any("at least one item is required" in d for d in _diags(empty))

    no_colon = MINIMAL.replace("required_intel = share:prize",
                               "required_intel = prize")
    assert any("expected '<kind>:<name>'" in d for d in _diags(no_colon))


def test_required_host_item():
    text = MINIMAL.replace("required_intel = share:prize",
                           "required_intel = host:alpha/host-2")
    sc = parse_scenario(text)
    assert sc.topology.required_keys == ("host:name=alpha/host-2",)
    bad = MINIMAL.replace("required_intel = share:prize",
                          "required_intel = host:alpha/host-99")
    assert any("unknown host" in d for d in _diags(bad))
    # a subnet name may hold "/": its hosts sit in it, not in its prefix
    slash = (MINIMAL.replace("subnets = alpha", "subnets = alpha, alpha/b")
             .replace("share:prize", "host:alpha/b/host-1")
             + "capabilities =\n    implant-1: alpha/b\n")
    sc = parse_scenario(slash)
    assert sc.topology.required_keys == ("host:name=alpha/b/host-1",)


def test_capability_validation():
    text = MINIMAL + "capabilities =\n    implant-5: alpha\n"
    assert any("implant-5" in d for d in _diags(text))
    text = MINIMAL + "capabilities =\n    implant-1: omega\n"
    assert any("unknown subnet(s) ['omega']" in d for d in _diags(text))


def test_diagnostics_accumulate():
    text = (MINIMAL.replace("seed = 7", "seed = x")
            .replace("manual_baseline", "nope")
            .replace("count = 1", "count = 0"))
    diags = _diags(text)
    assert len(diags) == 3
    # a bad value elsewhere must not stop the reachability check
    text = (MINIMAL.replace("subnets = alpha", "subnets = alpha, vault")
            .replace("@ alpha/host-0", "@ vault/host-0")
            + "\n[timing]\ntask_duration = triangle(1, 2)\n")
    diags = _diags(text)
    assert len(diags) == 2
    assert "[timing] task_duration" in diags[0]
    assert "no agent can reach" in diags[1] and "'vault'" in diags[1]


def test_unreachable_required_intel():
    text = MINIMAL.replace("subnets = alpha", "subnets = alpha, vault")
    text = text.replace("@ alpha/host-0", "@ vault/host-0")
    diags = _diags(text)
    assert any("no agent can reach" in d and "'vault'" in d for d in diags)


def test_reachable_through_pivot_chain():
    text = """\
[scenario]
seed = 1
mode = autonomous_swarm

[topology]
subnets = a, b, c
intel =
    credential key-b @ a/host-0
    credential key-c @ b/host-0
    share deep @ c/host-0
pivot_edges =
    key-b: a -> b
    key-c: b -> c
required_intel = share:deep

[agents]
count = 1
capabilities =
    implant-1: a
"""
    sc = parse_scenario(text)
    assert sc.topology.required_keys == ("share:name=deep",)
    # break the chain: the second credential now sits in the locked zone
    broken = text.replace("credential key-c @ b/host-0",
                          "credential key-c @ c/host-0")
    assert any("no agent can reach" in d for d in _diags(broken))


def test_replace_helpers():
    sc = default_scenario()
    assert sc.with_seed(99).seed == 99
    assert sc.with_mode("manual_baseline").mode == "manual_baseline"
    assert sc.with_beacon_interval(5000).beacon.interval_ms == 5000
    assert sc.with_beacon_interval(5000).beacon.jitter_fraction == 0.1
    with pytest.raises(ValueError):
        sc.with_mode("other")
    # originals untouched
    assert sc.seed == 42 and sc.beacon.interval_ms == 60_000


def test_with_beacon_interval_keeps_the_poll_bound():
    # 3 agents over 604,800,000 ms: 3 x (604800000 // 454 + 1) = 3,996,477
    # polls, and 3 x (604800000 // 453 + 1) = 4,005,300; neither is run
    sc = default_scenario()
    assert sc.with_beacon_interval(454).beacon.interval_ms == 454
    with pytest.raises(ScenarioError) as err:
        sc.with_beacon_interval(453)
    assert err.value.diagnostics == [
        "[beacon] interval_ms: count x (horizon_ms // interval_ms + 1) = "
        f"3 x 1335100, more than {scenario.MAX_EVENTS} polls"]


def test_heartbeat_window_ordering():
    text = MINIMAL + "\n[timing]\nheartbeat_min_window_ms = 50\nheartbeat_max_window_ms = 10\n"
    assert any("exceeds max window" in d for d in _diags(text))


def test_bad_dist_reports_section_and_key():
    text = MINIMAL + "\n[timing]\ntask_duration = triangle(1, 2)\n"
    diags = _diags(text)
    assert any("[timing] task_duration" in d for d in diags)


@pytest.mark.parametrize("section,key,value", [
    ("beacon", "jitter_fraction", "nan"),
    ("channels", "chaff_per_hour", "inf"),
    ("background", "off_hours_fraction", "NaN"),
    ("background", "off_hours_fraction", "often"),
])
def test_float_keys_need_a_finite_number(section, key, value):
    diags = _diags(MINIMAL + f"\n[{section}]\n{key} = {value}\n")
    assert diags == [f"[{section}] {key}: expected a finite number, "
                     f"got {value!r} (line 15)"]


def test_workday_hours_validated():
    text = MINIMAL + "\n[background]\nworkday_start_hour = 18\nworkday_end_hour = 9\n"
    assert any("must precede end hour" in d for d in _diags(text))


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "exercise.ini"
    p.write_text(default_scenario_text(), encoding="utf-8")
    sc = load_scenario(p)
    assert isinstance(sc, Scenario)
    assert sc == default_scenario()


def test_channels_and_background_overrides():
    text = MINIMAL + """
[channels]
streaming = true
chaff_per_hour = 12.5

[background]
n_users = 6
off_hours_fraction = 0.25
"""
    sc = parse_scenario(text)
    assert sc.channels.streaming is True
    assert sc.channels.chaff_per_hour == 12.5
    assert sc.n_users == 6
    assert sc.background.off_hours_fraction == 0.25


def test_unparseable_file():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[scenario\nseed = 1\n")
    assert "unparseable" in err.value.diagnostics[0]


def _sub(old: str, new: str) -> str:
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


def _add(section: str) -> str:
    return MINIMAL + "\n" + section


_TWO_SUBNETS = _sub("subnets = alpha", "subnets = alpha, beta")

# One text for every place the parser reports a problem, and for each
# message and bound form of its value reader (integer, finite number, true or
# false, distribution; >=, <= and jitter_fraction's <). The expected lists are
# exact: text, order and line numbers.
_PINNED_DIAGNOSTICS = [
    pytest.param(
        "[scenario\nseed = 1\n",
        ['unparseable scenario file: File contains no section headers.\n'
         "file: '<string>', line: 1\n"
         "'[scenario\\n'"],
        id='unparseable'),
    pytest.param(
        _add("[surprise]\nx = 1\n"),
        ['[surprise]: unknown section (line 14)'],
        id='unknown-section'),
    pytest.param(
        _sub("count = 1", "count = 1\nflavour = mint"),
        ['[agents] flavour: unknown key (line 13)'],
        id='unknown-key'),
    pytest.param(
        _sub("count = 1", "count = 1\nFlavour = mint"),
        ['[agents] flavour: unknown key (line 13)'],
        id='unknown-key-upper-case'),
    pytest.param(
        _add("[beacon]\nperiod = 5\n[extra]\n").replace(
            "seed = 7", "seed = 7\nsalt = 1"),
        ['[scenario] salt: unknown key (line 3)',
         '[beacon] period: unknown key (line 16)',
         '[extra]: unknown section (line 17)'],
        id='unknown-keys-and-section'),
    pytest.param(
        "[scenario]\nseed = 1\nmode = manual_baseline\n",
        ['[topology]: required section is missing',
         '[agents]: required section is missing'],
        id='missing-sections'),
    pytest.param(
        _sub("seed = 7\n", ""),
        ['[scenario]: seed is required (line 1)'],
        id='missing-seed'),
    pytest.param(
        _sub("manual_baseline", "yolo"),
        ['[scenario] mode: must be one of autonomous_swarm, '
         "manual_baseline, got 'yolo' (line 3)"],
        id='bad-mode'),
    pytest.param(
        _sub("mode = manual_baseline\n", ""),
        ['[scenario] mode: must be one of autonomous_swarm, '
         "manual_baseline, got ''"],
        id='missing-mode'),
    pytest.param(
        _sub("subnets = alpha", "subnets = ,"),
        ['[topology] subnets: at least one subnet is required (line 6)',
         "[topology] intel: unknown subnet 'alpha' in 'share prize @ "
         "alpha/host-0' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='no-subnets'),
    pytest.param(
        _sub("subnets = alpha", "subnets = alpha, alpha"),
        ['[topology] subnets: subnet names must be unique (line 6)'],
        id='duplicate-subnets'),
    pytest.param(
        _sub("alpha/host-0", "alpha/host-0\n    blob"),
        ["[topology] intel: expected '<kind> <name> @ <subnet>/<host>', "
         "got 'blob' (line 8)"],
        id='intel-format'),
    pytest.param(
        _sub("share prize @", "host prize @"),
        ['[topology] intel: kind must be '
         "port/service/credential/share/misc, got 'host' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='intel-kind'),
    pytest.param(
        _sub("share prize @", "secret prize @"),
        ['[topology] intel: kind must be '
         "port/service/credential/share/misc, got 'secret' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='intel-kind-unknown'),
    pytest.param(
        _sub("@ alpha/host-0", "@ beta/host-0"),
        ["[topology] intel: unknown subnet 'beta' in 'share prize @ "
         "beta/host-0' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='intel-subnet'),
    pytest.param(
        _sub("@ alpha/host-0", "@ alpha/host-9"),
        ["[topology] intel: unknown host 'host-9' in 'share prize @ "
         "alpha/host-9' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='intel-host'),
    pytest.param(
        _sub("@ alpha/host-0", "@ alpha/node-0"),
        ["[topology] intel: unknown host 'node-0' in 'share prize @ "
         "alpha/node-0' (line 8)",
         "[topology] required_intel: 'share:prize' is not a declared item "
         '(line 7)'],
        id='intel-host-name'),
    pytest.param(
        _sub("alpha/host-0",
                             "alpha/host-0\n    share prize @ alpha/host-1"),
        ['[topology] intel: duplicate item share prize (line 8)'],
        id='intel-duplicate'),
    pytest.param(
        _sub("[agents]", "pivot_edges =\n    nonsense\n\n[agents]"),
        ["[topology] pivot_edges: expected '<credential>: <from> -> <to>', "
         "got 'nonsense' (line 11)"],
        id='pivot-format'),
    pytest.param(
        _sub("[agents]",
             "pivot_edges =\n    gone: alpha -> alpha\n\n[agents]"),
        ["[topology] pivot_edges: 'gone' is not a declared credential "
         '(line 11)'],
        id='pivot-credential'),
    pytest.param(
        _TWO_SUBNETS.replace(
        "alpha/host-0",
        "alpha/host-0\n    credential key @ alpha/host-1\n"
        "pivot_edges =\n    key: alpha -> gamma"),
        ["[topology] pivot_edges: unknown subnet in 'key: alpha -> gamma' "
         '(line 11)'],
        id='pivot-subnet'),
    pytest.param(
        _sub("required_intel = share:prize", "required_intel ="),
        ['[topology] required_intel: at least one item is required (line '
         '7)'],
        id='required-empty'),
    pytest.param(
        _sub("required_intel = share:prize\n", ""),
        ['[topology] required_intel: at least one item is required'],
        id='required-missing'),
    pytest.param(
        _sub("share:prize", "prize"),
        ["[topology] required_intel: expected '<kind>:<name>', got 'prize' "
         '(line 7)'],
        id='required-format'),
    pytest.param(
        _sub("share:prize", "host:alpha/host-99"),
        ["[topology] required_intel: unknown host 'alpha/host-99' (line 7)"],
        id='required-host'),
    pytest.param(
        _sub("share:prize", "host:beta/host-0"),
        ["[topology] required_intel: unknown host 'beta/host-0' (line 7)"],
        id='required-host-other-subnet'),
    pytest.param(
        _sub("share:prize", "share:prize, share:nothere"),
        ["[topology] required_intel: 'share:nothere' is not a declared "
         'item (line 7)'],
        id='required-item'),
    pytest.param(
        _sub("count = 1\n", ""),
        ['[agents]: count is required (line 11)'],
        id='missing-count'),
    pytest.param(
        _sub("count = 1", "count = 1\ncapabilities =\n    nonsense"),
        ["[agents] capabilities: expected '<implant>: <subnet, ...>', got "
         "'nonsense' (line 13)"],
        id='capabilities-format'),
    pytest.param(
        MINIMAL + "capabilities =\n    implant-5: alpha\n",
        ["[agents] capabilities: 'implant-5' is not implant-1..implant-1 "
         '(line 13)'],
        id='capabilities-implant'),
    pytest.param(
        MINIMAL + "capabilities =\n    implant-1: omega, zeta\n",
        ["[agents] capabilities: unknown subnet(s) ['omega', 'zeta'] for "
         'implant-1 (line 13)'],
        id='capabilities-subnet'),
    pytest.param(
        _add("[timing]\nheartbeat_min_window_ms = 50\n"
                             "heartbeat_max_window_ms = 10\n"),
        ['[timing] heartbeat_min_window_ms: min window 50 exceeds max '
         'window 10 (line 15)'],
        id='heartbeat-order'),
    pytest.param(
        _add("[channels]\nchaff_per_hour = 1e-302\n"),
        ['[channels] chaff_per_hour: too low a rate for a finite gap '
         'between queries: exponential needs finite parameters, got (inf,) '
         '(line 15)'],
        id='chaff-gap'),
    pytest.param(
        _add("[background]\nworkday_start_hour = 18\n"
                           "workday_end_hour = 9\n"),
        ['[background] workday_start_hour: start hour 18 must precede end '
         'hour 9 (line 15)'],
        id='workday-order'),
    pytest.param(
        _add("[background]\nworkday_start_hour = 9\n"
                           "workday_end_hour = 9\n"),
        ['[background] workday_start_hour: start hour 9 must precede end '
         'hour 9 (line 15)'],
        id='workday-equal'),
    # a refused value is not compared in an ordering check
    pytest.param(
        _add("[timing]\nheartbeat_min_window_ms = 0\n"
             "heartbeat_max_window_ms = 10\n"),
        ['[timing] heartbeat_min_window_ms: must be >= 1, got 0 (line 15)'],
        id='heartbeat-order-after-refused-min'),
    pytest.param(
        _add("[background]\nworkday_start_hour = 30\n"
             "workday_end_hour = 5\n"),
        ['[background] workday_start_hour: must be <= 23, got 30 (line 15)'],
        id='workday-order-after-refused-start'),
    pytest.param(
        _TWO_SUBNETS.replace("@ alpha/host-0", "@ beta/host-0"),
        ["[topology] required_intel: 'share:name=prize' sits in 'beta', "
         'which no agent can reach (line 7)'],
        id='unreachable'),
    pytest.param(
        _TWO_SUBNETS.replace(
        "share prize @ alpha/host-0",
        "credential key @ beta/host-0\n    share prize @ beta/host-1\n"
        "pivot_edges =\n    key: alpha -> beta"),
        ["[topology] required_intel: 'share:name=prize' sits in 'beta', "
         'which no agent can reach (line 7)'],
        id='unreachable-pivot'),
    pytest.param(
        _sub("subnets = alpha", "subnets = alpha, alpha/b").replace(
            "share:prize", "host:alpha/b/host-1"),
        ["[topology] required_intel: 'host:name=alpha/b/host-1' sits in "
         "'alpha/b', which no agent can reach (line 7)"],
        id='unreachable-slash-subnet-beside-its-prefix'),
    pytest.param(
        _sub("subnets = alpha", "subnets = alpha, beta/b").replace(
            "share:prize", "host:beta/b/host-0"),
        ["[topology] required_intel: 'host:name=beta/b/host-0' sits in "
         "'beta/b', which no agent can reach (line 7)"],
        id='unreachable-host-of-slash-subnet'),
    pytest.param(
        _sub("seed = 7", "seed = seven"),
        ["[scenario] seed: expected an integer, got 'seven' (line 2)"],
        id='int-text'),
    pytest.param(
        _add("[beacon]\ninterval_ms = 1.5\n"),
        ["[beacon] interval_ms: expected an integer, got '1.5' (line 15)"],
        id='int-float-text'),
    pytest.param(
        _sub("count = 1", "count = 0"),
        ['[agents] count: must be >= 1, got 0 (line 12)'],
        id='int-min-count'),
    pytest.param(
        _add("[beacon]\ninterval_ms = 0\n"),
        ['[beacon] interval_ms: must be >= 1, got 0 (line 15)'],
        id='int-min-interval'),
    pytest.param(
        _sub("mode = manual_baseline",
                             "mode = manual_baseline\nhorizon_ms = -5"),
        ['[scenario] horizon_ms: must be >= 1, got -5 (line 4)'],
        id='int-min-horizon'),
    pytest.param(
        _sub("subnets = alpha",
                           "subnets = alpha\nhosts_per_subnet = 0"),
        ['[topology] hosts_per_subnet: must be >= 1, got 0 (line 7)'],
        id='int-min-hosts'),
    pytest.param(
        _add("[background]\nn_users = -1\n"),
        ['[background] n_users: must be >= 0, got -1 (line 15)'],
        id='int-min-users'),
    pytest.param(
        _add("[timing]\nheartbeat_min_window_ms = 0\n"
                               "heartbeat_max_window_ms = x\n"),
        ['[timing] heartbeat_min_window_ms: must be >= 1, got 0 (line 15)',
         "[timing] heartbeat_max_window_ms: expected an integer, got 'x' "
         '(line 16)'],
        id='int-min-heartbeat'),
    pytest.param(
        _add("[background]\nworkday_start_hour = -1\n"),
        ['[background] workday_start_hour: must be >= 0, got -1 (line 15)'],
        id='int-start-hour-bounds'),
    pytest.param(
        _add("[background]\nworkday_start_hour = 24\n"),
        ['[background] workday_start_hour: must be <= 23, got 24 (line 15)'],
        id='int-start-hour-max'),
    pytest.param(
        _add("[background]\nworkday_end_hour = 0\n"),
        ['[background] workday_end_hour: must be >= 1, got 0 (line 15)'],
        id='int-end-hour-bounds'),
    pytest.param(
        _add("[background]\nworkday_end_hour = 25\n"),
        ['[background] workday_end_hour: must be <= 24, got 25 (line 15)'],
        id='int-end-hour-max'),
    pytest.param(
        _add("[beacon]\njitter_fraction = nan\n"),
        ["[beacon] jitter_fraction: expected a finite number, got 'nan' "
         '(line 15)'],
        id='float-nan'),
    pytest.param(
        _add("[channels]\nchaff_per_hour = -inf\n"),
        ["[channels] chaff_per_hour: expected a finite number, got '-inf' "
         '(line 15)'],
        id='float-inf'),
    pytest.param(
        _add("[background]\noff_hours_fraction = often\n"),
        ['[background] off_hours_fraction: expected a finite number, got '
         "'often' (line 15)"],
        id='float-text'),
    pytest.param(
        _add("[beacon]\njitter_fraction = -0.1\n"),
        ['[beacon] jitter_fraction: must be >= 0.0, got -0.1 (line 15)'],
        id='float-lo-jitter'),
    pytest.param(
        _add("[channels]\nchaff_per_hour = -1\n"),
        ['[channels] chaff_per_hour: must be >= 0.0, got -1.0 (line 15)'],
        id='float-lo-chaff'),
    pytest.param(
        _add("[background]\noff_hours_fraction = -0.5\n"),
        ['[background] off_hours_fraction: must be >= 0.0, got -0.5 (line '
         '15)'],
        id='float-lo-off-hours'),
    pytest.param(
        _add("[beacon]\njitter_fraction = 1.0\n"),
        ['[beacon] jitter_fraction: must be < 1.0, got 1.0 (line 15)'],
        id='float-hi-open'),
    pytest.param(
        _add("[beacon]\njitter_fraction = 2\n"),
        ['[beacon] jitter_fraction: must be < 1.0, got 2.0 (line 15)'],
        id='float-hi-open-above'),
    pytest.param(
        _add("[background]\noff_hours_fraction = 1.5\n"),
        ['[background] off_hours_fraction: must be <= 1.0, got 1.5 (line '
         '15)'],
        id='float-hi-closed'),
    pytest.param(
        _add("[channels]\nstreaming = maybe\n"),
        ["[channels] streaming: expected true or false, got 'maybe' (line "
         '15)'],
        id='bool'),
    pytest.param(
        _add("[timing]\ntask_duration = triangle(1, 2)\n"),
        ["[timing] task_duration: unknown distribution 'triangle' (line "
         '15)'],
        id='dist-name'),
    pytest.param(
        _add("[timing]\ntask_duration = choice(1, 2)\n"),
        ["[timing] task_duration: unknown distribution 'choice' (line 15)"],
        id='dist-choice'),
    pytest.param(
        _add("[channels]\nburst_size = nope\n"),
        ["[channels] burst_size: unparseable distribution 'nope' (line 15)"],
        id='dist-text'),
    pytest.param(
        _add("[beacon]\nrequest_size = uniform(2, 1)\n"),
        ['[beacon] request_size: uniform needs (a, b) with a <= b, got '
         '(2.0, 1.0) (line 15)'],
        id='dist-params'),
    pytest.param(
        _add("[background]\nflow_gap = exponential(1, x)\n"),
        ["[background] flow_gap: bad numeric parameter in 'exponential(1, "
         "x)' (line 15)"],
        id='dist-number'),
    pytest.param(
        _add("[timing]\nmanual_think_time = lognormal(1e308, 5)\n"),
        ["[timing] manual_think_time: lognormal's largest draw, exp(mu + "
         'sigma sqrt(106 ln 2)), is not finite for (1e+308, 5.0) (line 15)'],
        id='dist-draw'),
    pytest.param(
        _add("[beacon]\nrequest_size = nope\n\n"
                                   "[channels]\nrequest_size = nope\n"
                                   "duration = nope\n"),
        ["[beacon] request_size: unparseable distribution 'nope' (line 15)",
         "[channels] request_size: unparseable distribution 'nope' (line "
         '18)',
         "[channels] duration: unparseable distribution 'nope' (line 19)"],
        id='same-key-two-sections'),
    pytest.param(
        _sub("count = 1", "Count = 0"),
        ['[agents] count: must be >= 1, got 0 (line 12)'],
        id='upper-case-key'),
    pytest.param(
        _sub("count = 1", "count=0"),
        ['[agents] count: must be >= 1, got 0 (line 12)'],
        id='key-spacing'),
    pytest.param(
        _add("[timing]\ntask_duration = triangle(1, 2)\n"
             "heartbeat_min_window_ms = 9\nheartbeat_max_window_ms = 8\n\n"
             "[beacon]\ninterval_ms = 0\njitter_fraction = 1\n"
             "duration = uniform(1)\n\n"
             "[channels]\nstreaming = perhaps\nchaff_per_hour = nan\n\n"
             "[background]\nn_users = two\nworkday_start_hour = 30\n"
             "workday_end_hour = 3\noff_hours_fraction = 2\n")
        .replace("seed = 7", "seed = x").replace("manual_baseline", "nope")
        .replace("subnets = alpha", "subnets = alpha, vault")
        .replace("@ alpha/host-0", "@ vault/host-0\n    blob")
        .replace("count = 1",
                 "count = 2\ncapabilities =\n    implant-3: alpha"),
        ["[scenario] seed: expected an integer, got 'x' (line 2)",
         '[scenario] mode: must be one of autonomous_swarm, '
         "manual_baseline, got 'nope' (line 3)",
         "[topology] intel: expected '<kind> <name> @ <subnet>/<host>', "
         "got 'blob' (line 8)",
         "[agents] capabilities: 'implant-3' is not implant-1..implant-2 "
         '(line 14)',
         "[timing] task_duration: unknown distribution 'triangle' (line "
         '18)',
         '[timing] heartbeat_min_window_ms: min window 9 exceeds max '
         'window 8 (line 19)',
         '[beacon] interval_ms: must be >= 1, got 0 (line 23)',
         '[beacon] jitter_fraction: must be < 1.0, got 1.0 (line 24)',
         '[beacon] duration: uniform needs (a, b) with a <= b, got (1.0,) '
         '(line 25)',
         "[channels] streaming: expected true or false, got 'perhaps' "
         '(line 28)',
         "[channels] chaff_per_hour: expected a finite number, got 'nan' "
         '(line 29)',
         '[background] workday_start_hour: must be <= 23, got 30 (line 33)',
         '[background] off_hours_fraction: must be <= 1.0, got 2.0 (line '
         '35)',
         "[background] n_users: expected an integer, got 'two' (line 32)",
         "[topology] required_intel: 'share:name=prize' sits in 'vault', "
         'which no agent can reach (line 7)'],
        id='accumulate'),
]


@pytest.mark.parametrize("text,expected", _PINNED_DIAGNOSTICS)
def test_every_diagnostic_is_pinned(text, expected):
    assert _diags(text) == expected


# Only at bound + 1: a value far past either bound is what made the parser
# build names until memory ran out.
@pytest.mark.parametrize("bound,old,new,expected", [
    pytest.param(
        "MAX_AGENTS", "count = 1", "count = {over}",
        "[agents] count: must be <= {bound}, got {over} (line 12)",
        id="agents"),
    pytest.param(
        "MAX_HOSTS", "subnets = alpha",
        "subnets = alpha\nhosts_per_subnet = {over}",
        "[topology] hosts_per_subnet: subnets x hosts_per_subnet = "
        "1 x {over}, more than {bound} hosts (line 7)",
        id="hosts"),
])
def test_scenario_size_is_bounded_before_names_are_built(bound, old, new,
                                                          expected, tmp_path,
                                                          capsys):
    bound = getattr(scenario, bound)
    text = _sub(old, new.format(over=bound + 1))
    expected = expected.format(bound=bound, over=bound + 1)
    _assert_refused(text, expected, tmp_path, capsys)


def _assert_refused(text: str, expected: str, tmp_path, capsys) -> None:
    assert _diags(text) == [expected]
    p = tmp_path / "big.ini"
    p.write_text(text, encoding="utf-8")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == expected + "\n"


def _with_horizon(horizon_ms: int) -> str:
    return _sub("mode = manual_baseline",
                f"mode = manual_baseline\nhorizon_ms = {horizon_ms}")


# Validated only, at the bound and at bound + 1: a run of any would write
# millions of polls, decoy queries, benign flows or reasoning flows. Each
# text asks for n events.
@pytest.mark.parametrize("text,expected", [
    pytest.param(
        lambda n: _with_horizon(n - 1) + "\n[beacon]\ninterval_ms = 1\n",
        "[beacon] interval_ms: count x (horizon_ms // interval_ms + 1) = "
        "1 x {over}, more than {bound} polls (line 16)",
        id="polls"),
    pytest.param(
        lambda n: _with_horizon(3_600_000)
        + f"\n[channels]\nchaff_per_hour = {n}\n",
        "[channels] chaff_per_hour: count x chaff_per_hour x horizon_ms / "
        "3600000 = 1 x {over}.0 x 3600000 / 3600000, more than {bound} "
        "decoy queries (line 16)",
        id="decoys"),
    pytest.param(
        lambda n: _with_horizon(86_400_000)
        + f"\n[background]\nn_users = {n}\n"
        "sessions_per_day = uniform(0, 0)\n"
        "flows_per_session = uniform(1, 1)\n",
        "[background] n_users: n_users x days x sessions_per_day x "
        "flows_per_session = {over} x 1 x 1 x 1, more than {bound} benign "
        "flows (line 16)",
        id="benign"),
    pytest.param(
        lambda n: _add(f"[timing]\nplanner_turns = uniform({n}, {n})\n\n"
                       "[channels]\ncontext_growth = uniform(0, 0)\n"),
        "[timing] planner_turns: (subnets + pivot_edges) x planner_turns = "
        "(1 + 0) x {over}, more than {bound} reasoning flows (line 15)",
        id="turns"),
    pytest.param(
        lambda n: _add("[timing]\ntask_duration = uniform(1e15, 1e15)\n\n"
                       f"[channels]\nstreaming = true\n"
                       f"burst_count = uniform({n}, {n})\n"
                       "burst_interval = uniform(1, 1)\n"),
        "[channels] burst_count: (subnets + pivot_edges) x burst_count = "
        "(1 + 0) x {over}, more than {bound} reasoning flows (line 19)",
        id="bursts"),
])
def test_events_a_scenario_asks_for_are_bounded(text, expected, tmp_path,
                                                capsys):
    bound = scenario.MAX_EVENTS
    assert parse_scenario(text(bound))
    _assert_refused(text(bound + 1),
                    expected.format(bound=bound, over=bound + 1),
                    tmp_path, capsys)


# Sizes and durations as large as a trace holds, then past it: a trace's
# integers are below 2^63, the detector's int64
@pytest.mark.parametrize("fits,over,expected", [
    pytest.param(
        _add("[beacon]\nrequest_size = uniform(1, 9223372036854774784)\n"),
        _add("[beacon]\nrequest_size = uniform(1, 9223372036854775808)\n"),
        "[beacon] request_size: largest draw 9.223372036854776e+18 rounds "
        "to 2^63 or more, past the int64 cells of a trace (line 15)",
        id="uniform-size"),
    pytest.param(
        _add("[background]\nduration = exponential(2.5e17)\n"),
        _add("[background]\nduration = exponential(2.6e17)\n"),
        "[background] duration: largest draw 9.551568148116046e+18 rounds "
        "to 2^63 or more, past the int64 cells of a trace (line 15)",
        id="exponential-duration"),
    pytest.param(
        _add("[timing]\nplanner_turns = uniform(10, 10)\n\n[channels]\n"
             "request_size = uniform(1, 1)\n"
             "context_growth = uniform(1e18, 1e18)\n"),
        _add("[timing]\nplanner_turns = uniform(11, 11)\n\n[channels]\n"
             "request_size = uniform(1, 1)\n"
             "context_growth = uniform(1e18, 1e18)\n"),
        "[channels] request_size: largest draw 1.0 + (planner_turns 11.0 - 1) "
        "x context_growth 1e+18 rounds to 2^63 or more, past the int64 cells "
        "of a trace (line 18)",
        id="grown-request"),
    # a flow that starts at the horizon ends at most 5000000 ms later; two
    # polls, 2^62 ms apart
    pytest.param(
        _with_horizon(2**63 - 1 - 5_000_000)
        + "\n[beacon]\ninterval_ms = 4611686018427387904\n"
        "duration = uniform(40, 5000000)\n",
        _with_horizon(2**63 - 5_000_000)
        + "\n[beacon]\ninterval_ms = 4611686018427387904\n"
        "duration = uniform(40, 5000000)\n",
        "[scenario] horizon_ms: 9223372036849775808 + largest duration draw "
        "5000000 is 2^63 or more, past the int64 cells of a trace (line 4)",
        id="horizon-plus-duration"),
])
def test_trace_integers_are_bounded(fits, over, expected, tmp_path, capsys):
    assert parse_scenario(fits)
    _assert_refused(over, expected, tmp_path, capsys)
