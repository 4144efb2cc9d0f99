"""c2sim benchmark: the simulate, replay and detect operations on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed operation takes its own seed, derived from --seed, and runs what a
user runs: `c2sim simulate` for every mode of the workload (through
`c2sim.cli.main`), `Hub.recover` on each journal that simulate wrote, and
`c2sim detect` on each trace (or on the operation's corpus). Operations
repeat until --seconds have passed. Every output is checked; a verb that
exits non-zero or fails a check counts as failed.

With --trace 0 the last line reports the end-to-end metrics, with --trace 1
the per-layer metrics from spans around c2sim's public functions. Results
with the environment record, per-operation samples and artifact digests are
written to bench/out/results/, spans to bench/out/spans/; `repeat.py compare`
checks a traced set's digests against an untraced set's and reports the
tracing overhead. See bench/NOTES.md.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
TAIL_PCT = 90
ARTIFACTS = ("trace.csv", "journal.ndjson", "metrics.json")
REPORTS = ("report.ndjson", "roc.csv")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

EXACT = {name for name, unit in PER_LAYER_UNITS.items()
         if unit in ("count", "bytes")} | {"hub.fetch_hit_ratio",
                                           "detect.bins_per_event"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


# -- environment ----------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "c2sim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- one operation ----------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_verb(kind: str, argv: list[str], tracer) -> dict:
    from c2sim import cli
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"verb.{kind}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            with span:
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            rc = exc.code
        seconds = time.perf_counter() - t0
        cpu = time.thread_time() - c0
    return {"kind": kind, "rc": rc, "seconds": seconds, "cpu_seconds": cpu,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_replay(journal: Path, tracer) -> dict:
    from c2sim.hub import Hub
    span = tracer.span("verb.replay") if tracer else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        with span:
            result = Hub.recover(journal.read_bytes())
        error = None
    except Exception as exc:  # a failed replay is counted, not fatal
        result, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    cpu = time.thread_time() - c0
    return {"kind": "replay", "seconds": seconds, "cpu_seconds": cpu,
            "result": result, "error": error, "journal": journal}


def run_operation(spec, inputs: Path, run_seed: int, index: int,
                  op_dir: Path, tracer=None) -> list[dict]:
    """Run every verb of one operation; returns the verb records."""
    seed = workloads.op_seed(run_seed, index)
    verbs = []
    for mode in spec.scenarios:
        sim_dir = op_dir / mode / "sim"
        v = _run_verb("simulate", [
            "simulate", "--scenario", str(workloads.scenario_path(inputs, mode)),
            "--out", str(sim_dir), "--seed", str(seed)], tracer)
        verbs.append({**v, "mode": mode, "out": sim_dir})
        verbs.append({**_run_replay(sim_dir / "journal.ndjson", tracer),
                      "mode": mode})
        if spec.corpus is None:
            det_dir = op_dir / mode / "detect"
            v = _run_verb("detect", [
                "detect", str(sim_dir / "trace.csv"), "--out", str(det_dir)],
                tracer)
            verbs.append({**v, "mode": mode, "out": det_dir,
                          "trace": sim_dir / "trace.csv"})
    if spec.corpus is not None:
        corpus = workloads.corpus_path(inputs, index)
        det_dir = op_dir / "corpus" / "detect"
        v = _run_verb("detect", ["detect", str(corpus), "--out", str(det_dir)],
                      tracer)
        verbs.append({**v, "mode": "corpus", "out": det_dir, "trace": corpus})
    return verbs


# -- output checks ------------------------------------------------------------------


def _check_manifest(directory: Path, names) -> list[str]:
    manifest = json.loads((directory / "manifest.json").read_text())
    listed = {o["name"]: o for o in manifest["outputs"]}
    problems = []
    for name in names:
        entry = listed.get(name)
        path = directory / name
        if (entry is None or entry["sha256"] != _sha256(path)
                or entry["bytes"] != path.stat().st_size):
            problems.append(f"manifest digest mismatch for {name}")
    return problems


def _check_simulate(v: dict, facts: dict) -> list[str]:
    from c2sim.traffic import read_trace
    if v["rc"] != 0:
        return [f"simulate exited {v['rc']}: {v['stderr'].strip()}"]
    out = v["out"]
    problems = []
    metrics = json.loads((out / "metrics.json").read_text())
    if metrics.get("objective_met") is not True:
        problems.append("objective not met")
    problems += _check_manifest(out, ARTIFACTS)
    m = re.search(r"(\d+) flows -> ", v["stdout"])
    flows = read_trace(out / "trace.csv")
    if m is None or len(flows) != int(m.group(1)):
        problems.append(f"read_trace gave {len(flows)} rows, simulate "
                        f"reported {m.group(1) if m else 'none'}")
    journal = out / "journal.ndjson"
    facts.update(
        channels={(f.src, f.dst) for f in flows},
        journal_records=journal.read_bytes().count(b"\n"),
        journal_bytes=journal.stat().st_size,
        flows=len(flows),
        trace_bytes=(out / "trace.csv").stat().st_size)
    v["digests"] = {name: _sha256(out / name) for name in ARTIFACTS}
    return problems


def _check_replay(v: dict, facts: dict) -> list[str]:
    result = v.pop("result")
    if result is None:
        return [f"replay raised {v['error']}"]
    v["records"] = result.records_applied
    if result.truncated or result.records_applied != facts.get("journal_records"):
        return [f"replay applied {result.records_applied} of "
                f"{facts.get('journal_records')} records, "
                f"truncated={result.truncated}"]
    return []


def _check_detect(v: dict, channels: set) -> list[str]:
    if v["rc"] != 0:
        return [f"detect exited {v['rc']}: {v['stderr'].strip()}"]
    out = v["out"]
    problems = _check_manifest(out, REPORTS)
    records = [json.loads(line) for line in
               (out / "report.ndjson").read_text().splitlines()]
    keyed = [(r["src"], r["dst"]) for r in records if r["type"] == "channel"]
    if len(keyed) != len(channels) or set(keyed) != channels:
        problems.append(f"report has {len(keyed)} channel records for "
                        f"{len(channels)} trace channels")
    if records[-1]["type"] != "summary" or sum(
            r["type"] == "summary" for r in records) != 1:
        problems.append("report lacks exactly one trailing summary")
    summary = records[-1]
    v["auc"] = summary.get("auc")
    if v["auc"] is not None:
        # no row at FPR <= 5% means the top score is a negative: TPR 0 there
        v["tpr_at_5fpr"] = max((row["tpr"] for row in summary["sweep"]
                                if row["fpr"] <= 0.05), default=0.0)
    v["channels"] = summary.get("channels")
    v["scored"] = summary.get("channels", 0) - summary.get("insufficient", 0)
    v["digests"] = {name: _sha256(out / name) for name in REPORTS}
    return problems


def check_operation(verbs: list[dict]) -> None:
    """Annotate each verb with its failures, digests and counts."""
    from c2sim.traffic import read_trace
    facts_by_mode: dict[str, dict] = {}
    for v in verbs:
        facts = facts_by_mode.setdefault(v["mode"], {})
        try:
            if v["kind"] == "simulate":
                v["failures"] = _check_simulate(v, facts)
                v["facts"] = {k: x for k, x in facts.items() if k != "channels"}
            elif v["kind"] == "replay":
                v["failures"] = _check_replay(v, facts)
            else:
                channels = facts.get("channels")
                if channels is None:  # a corpus: read it for the channel set
                    channels = {(f.src, f.dst) for f in read_trace(v["trace"])}
                v["failures"] = _check_detect(v, channels)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            v["failures"] = [f"output check raised {exc!r}"]
        v.pop("stdout", None)
        v.pop("stderr", None)


def _digests(verbs: list[dict]) -> dict:
    return {f"{v['mode']}/{v['kind']}/{name}": d for v in verbs
            for name, d in v.get("digests", {}).items()}


# -- metrics ------------------------------------------------------------------------


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _tail(xs: list[float]) -> float:
    """The TAIL_PCT percentile by linear interpolation over the samples."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PCT - 1]


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def op_samples(verbs: list[dict]) -> dict:
    """One operation's samples: the mean over its verbs of each kind."""
    by = {k: [v for v in verbs if v["kind"] == k]
          for k in ("simulate", "replay", "detect")}
    return {
        "simulate_s": _mean([v["seconds"] for v in by["simulate"]]),
        "replay_s": _mean([v["seconds"] for v in by["replay"]]),
        "detect_s": _mean([v["seconds"] for v in by["detect"]]),
        "detect_auc": _mean([v["auc"] for v in by["detect"]
                             if v.get("auc") is not None]),
        "detect_tpr_at_5fpr": _mean([v["tpr_at_5fpr"] for v in by["detect"]
                                     if v.get("tpr_at_5fpr") is not None]),
    }


def end_to_end(ops: list[dict], setup: list[float]) -> dict:
    metrics = {"setup_s": statistics.median(setup)}
    for name in ("simulate_s", "detect_s", "replay_s"):
        xs = [op["samples"][name] for op in ops]
        metrics[name] = statistics.median(xs)
        metrics[f"{name}.tail"] = _tail(xs)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for name in ("detect_auc", "detect_tpr_at_5fpr"):
        value = _median([op["samples"][name] for op in ops])
        if value is not None:
            metrics[name] = value
    return metrics


def layer_values(summary: dict, counts, verbs: list[dict]) -> dict:
    """Per-layer values of one traced operation, each per verb of the kind
    whose wall time it sits in (a simulate, a replay or a detect)."""
    from tracing import layer
    n_sim = sum(v["kind"] == "simulate" for v in verbs)
    n_rep = sum(v["kind"] == "replay" for v in verbs)
    n_det = sum(v["kind"] == "detect" for v in verbs)
    total = summary["total"]
    sim_self = summary["self"].get("verb.simulate", {})
    det_self = summary["self"].get("verb.detect", {})
    facts = [v["facts"] for v in verbs if "facts" in v]
    dets = [v for v in verbs if v["kind"] == "detect"]

    def per_sim(span):
        return total.get(span, 0.0) / n_sim

    def per_det(span):
        return total.get(span, 0.0) / n_det

    def fact(key):
        return sum(f[key] for f in facts) / n_sim

    def layer_self(selves, name):
        return sum(s for k, s in selves.items() if layer(k) == name)

    calls = counts["hub.get_tasks_calls"]
    roots = summary["roots"]
    cli_roots = [r for r in roots if r[0] in ("verb.simulate", "verb.detect")]
    return {
        "hub.get_tasks_s": per_sim("hub.get_tasks"),
        "hub.get_tasks_calls": calls / n_sim,
        "hub.tasks_scanned": counts["hub.tasks_scanned"] / n_sim,
        "hub.fetch_hit_ratio": (counts["hub.fetch_hits"] / calls
                                if calls else None),
        "hub.write_s": per_sim("hub.write"),
        "hub.journal_records": fact("journal_records"),
        "hub.journal_bytes": fact("journal_bytes"),
        "hub.recover_s": total.get("hub.recover", 0.0) / n_rep,
        "hub.recover_records": counts["hub.recover_records"] / n_rep,
        "hub.self_s": layer_self(sim_self, "hub") / n_sim,
        "engine.events_scheduled": counts["engine.events_scheduled"] / n_sim,
        "engine.dispatch_self_s": sim_self.get("engine.run_until", 0.0) / n_sim,
        "orchestrate.run_s": per_sim("orchestrate.run"),
        "orchestrate.trace_s": per_sim("orchestrate.trace"),
        "orchestrate.self_s": layer_self(sim_self, "orchestrate") / n_sim,
        "traffic.synth_s": per_sim("traffic.synth"),
        "traffic.merge_s": per_sim("traffic.merge"),
        "traffic.flows": fact("flows"),
        "traffic.write_s": per_sim("traffic.write"),
        "traffic.trace_bytes": fact("trace_bytes"),
        "traffic.read_s": det_self.get("traffic.read", 0.0) / n_det,
        "traffic.self_s": layer_self(sim_self, "traffic") / n_sim,
        "detect.acf_s": per_det("detect.acf"),
        "detect.periodogram_s": per_det("detect.periodogram"),
        "detect.bins": counts["detect.bins"] / n_det,
        "detect.events": counts["detect.events"] / n_det,
        "detect.bins_per_event": (counts["detect.bins"] / counts["detect.events"]
                                  if counts["detect.events"] else None),
        "detect.group_s": per_det("detect.group"),
        "detect.interval_s": per_det("detect.interval"),
        "detect.evaluate_self_s": det_self.get("detect.evaluate", 0.0) / n_det,
        "detect.report_write_s": per_det("detect.report_write"),
        "detect.channels": sum(v.get("channels") or 0 for v in dets) / n_det,
        "detect.scored_channels": sum(v.get("scored") or 0 for v in dets) / n_det,
        "detect.self_s": layer_self(det_self, "detect") / n_det,
        "scenario.parse_s": per_sim("scenario.load"),
        "cli.self_s": sum(r[2] for r in cli_roots) / len(cli_roots),
        "span.coverage": (sum(r[1] - r[2] for r in roots)
                          / sum(r[1] for r in roots)),
    }


def traced_operation(spec, inputs: Path, seed: int, index: int,
                     op_dir: Path, tracer) -> dict:
    """Run one operation with the tracer installed; returns its verbs and
    per-layer values."""
    from tracing import summarize
    tracer.op = index
    tracer.install()
    try:
        verbs = run_operation(spec, inputs, seed, index, op_dir, tracer)
    finally:
        tracer.uninstall()
    check_operation(verbs)
    summary = summarize(tracer.spans, index)
    return {"verbs": verbs,
            "layers": layer_values(summary, tracer.counts[index], verbs),
            "self_by_verb": summary["self"]}


# -- a run ----------------------------------------------------------------------------


def _setup(table: str, spec, seed: int, inputs: Path, reps: int) -> list[float]:
    """Time `reps` fresh-interpreter set-ups, one after another."""
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), table, spec.name,
           str(seed), str(inputs)]
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def run(spec, seed: int, seconds: float, trace: bool, table: str = "full",
        setup_reps: int = SETUP_REPS) -> dict:
    tag = f"{spec.name}-seed{seed}-trace{int(trace)}"
    if table != "full":
        tag = f"{table}-{tag}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    setup = _setup(table, spec, seed, inputs, setup_reps)

    from tracing import Tracer
    tracer = Tracer() if trace else None
    ops: list[dict] = []
    t_first = time.perf_counter()
    deadline = t_first + seconds
    index = 0
    limit = workloads.CORPORA if spec.corpus is not None else None
    while ((index == 0 or time.perf_counter() < deadline)
           and (limit is None or index < limit)):
        op_dir = work / f"op{index}"
        gc.collect()
        if trace:
            op = traced_operation(spec, inputs, seed, index, op_dir, tracer)
        else:
            op = {"verbs": run_operation(spec, inputs, seed, index, op_dir)}
            check_operation(op["verbs"])
        op["index"] = index
        op["seed"] = workloads.op_seed(seed, index)
        op["samples"] = op_samples(op["verbs"])
        op["digests"] = _digests(op["verbs"])
        ops.append(op)
        shutil.rmtree(op_dir, ignore_errors=True)
        index += 1
    measured = time.perf_counter() - t_first

    all_verbs = [v for op in ops for v in op["verbs"]]
    failed = sum(bool(v["failures"]) for v in all_verbs)
    if trace:
        # Counts, and ratios of counts, come from the first operation, so
        # they repeat exactly for a seed however many operations fit.
        metrics = {name: (ops[0]["layers"][name] if name in EXACT else
                          _median([op["layers"][name] for op in ops]))
                   for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(ops, setup)
        units = END_TO_END_UNITS
    metrics = {k: v for k, v in metrics.items() if v is not None}
    missing = sorted(set(units) - set(metrics))
    line = {
        "correct": failed == 0 and not missing,
        "attempted": len(all_verbs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    for op in ops:
        for v in op["verbs"]:
            for key in ("out", "trace", "journal"):
                if key in v:
                    v[key] = str(Path(v[key]).relative_to(ROOT))
    result = {
        "workload": spec.name, "table": table, "seed": seed,
        "seconds": seconds, "trace": int(trace), "measured_s": measured,
        "setup_samples_s": setup,
        "tail_percentile": TAIL_PCT, "operations": len(ops),
        "missing_metrics": missing,
        "threads": _threads(),
        "environment": environment(),
        "line": line, "ops": ops,
    }
    if trace:
        result["bindings"] = tracer.bindings
    shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        with gzip.open(OUT / "spans" / f"{tag}.jsonl.gz", "wt",
                       compresslevel=1) as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    return result


def _print_summary(result: dict) -> None:
    env = result["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, threads {result['threads']}, "
          f"thread env {env['thread_env']}, commit {env['commit']}, "
          f"source {env['source_sha256'][:12]}")
    samples = ("" if result["trace"] else
               f", tails are p{result['tail_percentile']} of "
               f"{result['operations']} samples")
    print(f"{result['workload']} seed={result['seed']} "
          f"trace={result['trace']}: {result['operations']} operations in "
          f"{result['measured_s']:.1f} s{samples}, "
          f"failed_ops={result['line']['failed']}/{result['line']['attempted']}")
    for name, m in result["line"]["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in result["missing_metrics"]:
        print(f"  {name}: not measured on this workload")
    failures = [f for op in result["ops"] for v in op["verbs"]
                for f in v["failures"]]
    for f in failures[:10]:
        print(f"  check failed: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "c2sim" / "cli.py").is_file():
        print(f"error: c2sim sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    _print_summary(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
