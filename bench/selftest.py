"""Fast self-test of the benchmark on tiny inputs (a few seconds).

    python3 bench/selftest.py

Runs every workload shape at tiny size, untraced and traced, and checks that
every end-to-end and per-layer metric in BENCHMARK.json is emitted with its
unit and a valid name, that no output check fails, that artifacts repeat
byte for byte for the same seed, traced or not, and that the tracer wrapped
the functions that other modules import by name. Exits 1 on the first set of
problems.
"""

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# functions that c2sim.orchestrate or c2sim.cli import by name
IMPORTED_BY_NAME = ("c2sim.traffic.merge_traces", "c2sim.traffic.write_trace",
                    "c2sim.traffic.read_trace", "c2sim.detect.evaluate",
                    "c2sim.orchestrate.run_scenario")


def check_line(line: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0:
        problems.append(f"{where}: correct={line['correct']} "
                        f"failed={line['failed']}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{where}: attempted={line['attempted']}")
    emitted = line["metrics"]
    if set(emitted) != {m["name"] for m in declared}:
        problems.append(f"{where}: emitted {sorted(emitted)}")
    for m in declared:
        got = emitted.get(m["name"])
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append(f"{where}: bad name or unit {m}")
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']}")
        value = got["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {m['name']} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, tiny in workloads.TINY.items():
        digests = []
        for trace in (False, True, False):
            result = run.run(tiny, seed=7, seconds=0.0, trace=trace,
                             table="tiny", setup_reps=1)
            kind = "per_layer" if trace else "end_to_end"
            where = f"{name} trace={int(trace)}"
            problems += check_line(result["line"], spec[kind], where)
            if trace:
                for fn in IMPORTED_BY_NAME:
                    if result["bindings"].get(fn, 0) < 2:
                        problems.append(f"{where}: {fn} wrapped only in "
                                        f"{result['bindings'].get(fn)} module")
            digests.append([op["digests"] for op in result["ops"]])
        if any(d != digests[0] for d in digests) or not digests[0][0]:
            problems.append(f"{name}: artifact digests differ between runs "
                            "(untraced, traced, untraced)")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
