"""Span tracing of c2sim from outside the program.

`install` wraps c2sim's public functions at every module attribute that binds
them: `c2sim.orchestrate` and `c2sim.cli` import `traffic`, `detect` and
`orchestrate` functions by name, so patching only the defining module would
miss those calls. Methods are wrapped on their class. Spans (name, start,
end, parent, operation id) and counters stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> public functions it covers, by defining module
FUNCTIONS = {
    "c2sim.scenario": {"load_scenario": "scenario.load"},
    "c2sim.orchestrate": {"run_scenario": "orchestrate.run"},
    "c2sim.traffic": {
        "beacon_ticks": "traffic.synth",
        "flows_at_ticks": "traffic.synth",
        "synth_beacon_trace": "traffic.synth",
        "synth_event_flows": "traffic.synth",
        "synth_reasoning_nonstreaming": "traffic.synth",
        "synth_reasoning_streaming": "traffic.synth",
        "synth_chaff": "traffic.synth",
        "synth_background": "traffic.synth",
        "merge_traces": "traffic.merge",
        "write_trace": "traffic.write",
        "read_trace": "traffic.read",
    },
    "c2sim.detect": {
        "evaluate": "detect.evaluate",
        "group_channels": "detect.group",
        "acf_period": "detect.acf",
        "periodogram_strength": "detect.periodogram",
        "interval_regularity": "detect.interval",
        "size_uniformity": "detect.interval",
        "write_report": "detect.report_write",
        "write_roc_csv": "detect.report_write",
    },
}


def _observe_get_tasks(counts, args, kwargs, result):
    counts["hub.get_tasks_calls"] += 1
    counts["hub.tasks_scanned"] += len(args[0].tasks)
    counts["hub.fetch_hits"] += bool(result)


def _observe_periodogram(counts, args, kwargs, result):
    arrivals = args[0].arrivals
    bin_ms = args[1] if len(args) > 1 else kwargs["bin_ms"]
    if len(arrivals) >= 2:  # periodogram_strength bins every such channel
        counts["detect.bins"] += (arrivals[-1] - arrivals[0]) // bin_ms + 1
        counts["detect.events"] += len(arrivals)


def _observe_recover(counts, args, kwargs, result):
    counts["hub.recover_records"] += result.records_applied


def _methods():
    """(class, attribute, span name or None for count-only, observer)."""
    from c2sim.engine import Simulator
    from c2sim.hub import Hub
    from c2sim.orchestrate import _ManualRun, _SwarmRun
    return [
        (Hub, "get_tasks", "hub.get_tasks", _observe_get_tasks),
        (Hub, "register_agent", "hub.write", None),
        (Hub, "issue_task", "hub.write", None),
        (Hub, "submit_intelligence", "hub.write", None),
        (Hub, "close_task", "hub.write", None),
        (Hub, "recover", "hub.recover", _observe_recover),
        (Simulator, "run_until", "engine.run_until", None),
        (Simulator, "schedule", None, None),
        # The trace synthesis and merge that _finish runs; private, but it is
        # the only boundary between the event loop and trace building.
        (_SwarmRun, "_trace", "orchestrate.trace", None),
        (_ManualRun, "_trace", "orchestrate.trace", None),
    ]


_OBSERVERS = {"detect.periodogram": _observe_periodogram}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self.counts: dict = defaultdict(Counter)   # op -> counter
        self.op = -1
        self.bindings: dict[str, int] = {}  # function -> attributes patched
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if observe is not None:
                observe(tracer.counts[tracer.op], args, kwargs, result)
            return result
        return traced

    def _count(self, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[tracer.op]["engine.events_scheduled"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI verb."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def install(self) -> None:
        importlib.import_module("c2sim.cli")  # imports every c2sim module
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "c2sim" or n.startswith("c2sim."))]
        for mod_name, functions in FUNCTIONS.items():
            home = sys.modules[mod_name]
            for attr, span_name in functions.items():
                original = getattr(home, attr)
                wrapper = self._wrap(span_name, original,
                                     _OBSERVERS.get(span_name))
                found = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
                            found += 1
                self.bindings[f"{mod_name}.{attr}"] = found
        for cls, attr, span_name, observe in _methods():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(span_name, raw.__func__, observe))
            elif span_name is None:
                patched = self._count(raw)
            else:
                patched = self._wrap(span_name, raw, observe)
            setattr(cls, attr, patched)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, op: int) -> dict:
    """Per-op totals: inclusive and self seconds by span name, per root.

    Returns {"roots": [(name, duration, self)], "total": {name: s},
    "self": {root_name: {name: s}}}. A span nested directly in a span of the
    same name (a synth function calling another) is not counted twice in
    "total".
    """
    idx = [i for i, s in enumerate(spans) if s is not None and s[4] == op]
    child = defaultdict(float)
    for i in idx:
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child[parent] += end - start
    root_of: dict[int, int] = {}
    total = defaultdict(float)
    self_by_root: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    roots = []
    for i in idx:
        name, start, end, parent, _ = spans[i]
        dur = end - start
        root_of[i] = i if parent < 0 else root_of.get(parent, parent)
        root_name = spans[root_of[i]][0]
        if parent < 0:
            roots.append((name, dur, dur - child[i]))
        if parent < 0 or spans[parent][0] != name:
            total[name] += dur
        self_by_root[root_name][name] += dur - child[i]
    return {"roots": roots, "total": dict(total),
            "self": {k: dict(v) for k, v in self_by_root.items()}}
