"""Scenario file parsing, validation diagnostics, and derived helpers."""

from __future__ import annotations

import pytest

from c2sim.scenario import (
    Scenario,
    ScenarioError,
    default_scenario,
    default_scenario_text,
    load_scenario,
    parse_scenario,
    validate_text,
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
    assert validate_text(default_scenario_text()) == []


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.horizon_ms == 604_800_000
    assert sc.topology.hosts_per_subnet == 4
    # no capabilities block: everyone defaults to the first subnet
    assert sc.agents[0].capabilities == frozenset({"alpha"})
    assert sc.timing.heartbeat.min_window_ms == 3_600_000
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


def test_placement_subnet():
    sc = default_scenario()
    topo = sc.topology
    assert topo.placement_subnet("share:name=crown-jewels") == "server_zone"
    assert topo.placement_subnet("host:name=dmz/host-3") == "dmz"
    assert topo.placement_subnet("service:name=nope") is None


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
