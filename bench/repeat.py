"""Repeat the benchmark over seeds, report spreads, and compare two sets.

    python3 bench/repeat.py run --seeds 1-10 --trace 0 --out bench/out/a.json
    python3 bench/repeat.py run --workloads manual_sweep --seeds 3 --trace 1 \\
        --out bench/out/t.json
    python3 bench/repeat.py compare bench/out/a.json bench/out/b.json

`run` executes bench/run.py once per (workload, seed), one process at a time,
for BENCHMARK.json's run_seconds, and prints, per metric, the median of the
runs and the spread: the distance between the first and third quartile as a
share of the median. A spread above the metric's bound in BENCHMARK.json is
marked. `compare` reports, per workload and metric, how far the second set's
median moved from the first's and marks a move worse than the bound. It
checks that the artifact digests of runs with the same (workload, seed)
agree exactly, traced or not, and so do the count metrics of two traced
runs. Comparing an untraced set with a traced one also prints the tracing
overhead: per workload and verb, the traced run's median verb time over the
untraced run's for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes")
VERBS = ("simulate_s", "replay_s", "detect_s")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_specs() -> dict:
    spec = _spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def cmd_run(args) -> int:
    spec = _spec()
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS}
    runs = []
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    for workload in names:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads((HERE / "out" / "results" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json"
                                 ).read_text())
            ops = [{"digests": op["digests"], "samples": op["samples"],
                    "counts": {k: v for k, v in op.get("layers", {}).items()
                               if k in counts}} for op in result["ops"]]
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "line": line, "ops": ops})
            print(f"{workload} seed={seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", flush=True)
    Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    report(runs)
    return 0


def _by_metric(runs: list[dict]) -> dict:
    table: dict = {}
    for r in runs:
        for name, m in r["line"]["metrics"].items():
            table.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return table


def report(runs: list[dict]) -> None:
    specs = _metric_specs()
    for workload, metrics in _by_metric(runs).items():
        n = sum(r["workload"] == workload for r in runs)
        print(f"\n{workload} ({n} runs)")
        for name, values in metrics.items():
            med, spread = _spread(values)
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = ("  ok" if spread < bound / 3 else
                        "  within bound" if spread <= bound else "  OVER BOUND")
            unit = specs.get(name, {}).get("unit", "")
            print(f"  {name:28s} median {med:.6g} {unit:6s} spread {spread:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")


def cmd_compare(args) -> int:
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    specs = _metric_specs()
    ok = True
    ma, mb = _by_metric(a), _by_metric(b)
    for workload in sorted(set(ma) & set(mb)):
        shared = [name for name in ma[workload] if name in mb[workload]]
        if shared:
            print(f"\n{workload}")
        for name in shared:
            med_a = statistics.median(ma[workload][name])
            med_b = statistics.median(mb[workload][name])
            spec = specs.get(name, {})
            worse = ((med_b - med_a) / med_a if spec.get("better") == "lower"
                     else (med_a - med_b) / med_a) if med_a else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
            print(f"  {name:28s} {med_a:.6g} -> {med_b:.6g}  "
                  f"worse by {worse:+.4f}  {verdict}")
    index = {(r["workload"], r["seed"]): r for r in a}
    same = differ = 0
    for r in b:
        other = index.get((r["workload"], r["seed"]))
        if other is None:
            continue
        # runs of one seed time the same operations in the same order; a
        # slower run may stop earlier, so compare the operations both ran
        for i, (x, y) in enumerate(zip(other["ops"], r["ops"])):
            for what in ("digests", "counts"):
                if what == "counts" and not (x["counts"] and y["counts"]):
                    continue  # an untraced run has no counts
                if x[what] == y[what]:
                    same += 1
                else:
                    differ += 1
                    print(f"  {r['workload']} seed={r['seed']} operation {i}: "
                          f"{what} differ")
    print(f"\nexact agreement on counts and digests: {same} equal, "
          f"{differ} differ")
    traces = {r["trace"] for r in a} | {r["trace"] for r in b}
    if traces == {0, 1}:
        overhead(a + b)
    return 0 if ok and not differ else 1


def overhead(runs: list[dict]) -> None:
    """Per workload and verb: over the seeds run both ways, the range and
    median of traced median verb time / untraced median verb time."""
    medians: dict = {}
    for r in runs:
        for verb in VERBS:
            xs = [op["samples"][verb] for op in r["ops"]]
            medians[r["workload"], r["seed"], r["trace"], verb] = (
                statistics.median(xs))
    print("\ntracing overhead (traced / untraced median verb time, "
          "same workload and seed)")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted({r["seed"] for r in runs if r["workload"] == workload})
        for verb in VERBS:
            pairs = [(medians.get((workload, s, 1, verb)),
                      medians.get((workload, s, 0, verb))) for s in seeds]
            ratios = [t / u for t, u in pairs if t and u]
            if ratios:
                print(f"  {workload:14s} {verb:11s} median "
                      f"{statistics.median(ratios):.3f}  range "
                      f"{min(ratios):.3f}-{max(ratios):.3f}  "
                      f"({len(ratios)} seeds)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=None,
                   help="comma-separated (default: every workload)")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
