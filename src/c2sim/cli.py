"""Command-line interface.

Four verbs: validate a scenario file, simulate one engagement into labeled
artifacts, score a trace for beacon-like channels, and compare orchestration
modes across seeds. Every run that writes artifacts also writes a manifest
(inputs, seed, output digests, wall-clock bounds) as its final act, so a
partial output directory is recognizable by its missing manifest.

Exit codes: 0 success, 1 for problems in the inputs (bad scenario, malformed
trace, outputs already present), 2 for unexpected failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .detect import (
    DetectorConfig,
    evaluate,
    write_report,
    write_roc_csv,
)
from .orchestrate import compare, run_scenario
from .scenario import MODE_MANUAL, MODE_SWARM, ScenarioError, load_scenario
from .traffic import read_trace, write_trace


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _existing_outputs(paths: list[Path], force: bool) -> list[Path]:
    """The paths that exist; raises FileExistsError for any unless force."""
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"output already exists: {existing[0]} (use --force to overwrite)")
    return existing


def _claim_outputs(paths: list[Path], force: bool) -> None:
    for p in _existing_outputs(paths, force):
        p.unlink()


def _write_manifest(path: Path, command: str, inputs: dict, seed: int | None,
                    outputs: list[Path], started: str) -> None:
    manifest = {
        "tool": "c2sim",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [{"name": p.name, "bytes": p.stat().st_size,
                     "sha256": _sha256(p)} for p in outputs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_input(path: Path) -> dict:
    return {"scenario": {"path": str(path), "sha256": _sha256(path)}}


def cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: OK")
    return 0


def cmd_simulate(args) -> int:
    started = _utc_now()
    scenario_path = Path(args.scenario)
    sc = load_scenario(scenario_path)
    if args.seed is not None:
        sc = sc.with_seed(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace.{args.format}"
    journal_path = out / "journal.ndjson"
    metrics_path = out / "metrics.json"
    manifest_path = out / "manifest.json"
    _claim_outputs([trace_path, journal_path, metrics_path, manifest_path],
                   args.force)
    # the journal is closed also when the run raises part way
    with open(journal_path, "a", encoding="utf-8") as journal:
        run = run_scenario(sc, journal=journal)
    write_trace(trace_path, run.trace, fmt=args.format)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(run.metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(manifest_path, "simulate", _scenario_input(scenario_path),
                    sc.seed, [trace_path, journal_path, metrics_path], started)
    m = run.metrics
    status = (f"objective met at {m.time_to_objective_ms} ms"
              if m.objective_met else "objective not met within horizon")
    print(f"{sc.mode} seed={sc.seed}: {status}; "
          f"{m.tasks_completed}/{m.tasks_issued} tasks, "
          f"{m.intel_items} intel items, {len(run.trace)} flows -> {out}")
    return 0


def cmd_detect(args) -> int:
    started = _utc_now()
    trace_path = Path(args.trace)
    out = Path(args.out)
    report_path = out / "report.ndjson"
    roc_path = out / "roc.csv"
    manifest_path = out / "manifest.json"
    outputs = [report_path, roc_path, manifest_path]
    # refuse before the read; --force removes the old outputs only after
    # it, so a trace inside --out is read before it can be deleted
    _existing_outputs(outputs, args.force)
    table = read_trace(trace_path)
    config = (DetectorConfig(threshold=args.threshold)
              if args.threshold is not None else DetectorConfig())
    report = evaluate(table, config)
    out.mkdir(parents=True, exist_ok=True)
    _claim_outputs(outputs, args.force)
    write_report(report, report_path)
    write_roc_csv(report, roc_path)
    _write_manifest(manifest_path, "detect",
                    {"trace": {"path": str(trace_path),
                               "sha256": _sha256(trace_path)}},
                    None, [report_path, roc_path], started)
    auc = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(f"channels={len(report.channels)} insufficient={report.insufficient} "
          f"flagged={report.tp + report.fp} auc={auc} "
          f"threshold={report.threshold}")
    if report.degenerate:
        print(f"note: {report.degenerate}")
    return 0


def cmd_compare(args) -> int:
    started = _utc_now()
    scenario_path = Path(args.scenario)
    sc = load_scenario(scenario_path)
    result = compare(sc, n_seeds=args.seeds)
    if result.summary["speedup"] is None:
        raise ValueError(
            f"no seed met the objective in both {MODE_SWARM} and "
            f"{MODE_MANUAL} within horizon_ms={sc.horizon_ms}; "
            f"nothing to compare (raise horizon_ms)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "comparison.csv"
    manifest_path = out / "manifest.json"
    _claim_outputs([table_path, manifest_path], args.force)
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, list(result.summary), lineterminator="\n")
        w.writeheader()
        w.writerows(result.rows + [result.summary])
    _write_manifest(manifest_path, "compare", _scenario_input(scenario_path),
                    sc.seed, [table_path], started)
    s = result.summary
    print(f"{args.seeds} seeds: median time {s['time_swarm_ms']} ms "
          f"({MODE_SWARM}) vs {s['time_manual_ms']} ms ({MODE_MANUAL}), "
          f"median speedup {s['speedup']:.2f}x -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2sim",
        description="Deterministic C2 traffic simulator and beacon detector.")
    parser.add_argument("--version", action="version",
                        version=f"c2sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario", help="path to a scenario .ini file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run one engagement, write artifacts")
    p.add_argument("--scenario", required=True, help="scenario .ini file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="trace file format (default csv)")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="score a trace for beacon-like channels")
    p.add_argument("trace", help="trace file written by simulate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=float, default=None,
                   help="flagging threshold (default from detector config)")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("compare",
                       help="autonomous swarm vs manual baseline over seeds")
    p.add_argument("--scenario", required=True, help="scenario .ini file")
    p.add_argument("--seeds", type=int, required=True,
                   help="number of consecutive seeds to run")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # a malformed input, or a path that is missing or of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
