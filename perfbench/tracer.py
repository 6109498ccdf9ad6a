"""Out-of-program tracing: spans around the public calls of each layer.

The traced run patches public methods of the program from here — no
file of the program changes — so every call records a span (name,
start, end, parent span, attributes).  Spans stay in memory; self time is a
span's duration minus the part its child spans cover.  Untraced runs
install nothing, so the difference between a traced and an untraced run
is the tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional

#: Span fields, in the order they are stored.
FIELDS = ("id", "parent", "name", "t0", "t1", "attrs")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        #: Scratch arenas seen behind traced sorts, by id (weak: a
        #: dropped sorter's arena must not be kept alive by the trace).
        self.arenas: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             after: Optional[Callable] = None):
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name,
                time.perf_counter(), 0.0, {}]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if after is not None:
            after(span[5], args, result)
        return result

    def reset(self) -> None:
        with self._lock:
            self.spans = []

    # -- patching ----------------------------------------------------------
    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, _own_attr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class or module) with a spanning wrapper.

        ``after(attrs, args, result)`` may add attributes to the span.
        """
        original = _own_attr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after)

        self.replace(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------
    def self_seconds(self, spans: Optional[List[list]] = None) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        source = self.spans if spans is None else spans
        child_time: Dict[int, float] = {}
        for span in source:
            if span[1]:
                child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
        return {s[0]: (s[4] - s[3]) - child_time.get(s[0], 0.0) for s in source}

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [dict(zip(FIELDS, s)) for s in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(rows, handle)
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> List[list]:
        with open(path) as handle:
            return [[row[f] for f in FIELDS] for row in json.load(handle)]


def _own_attr(owner, attr: str):
    """The attribute as defined on ``owner`` itself (not inherited)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def has_ancestor(span: list, name: str, index: Dict[int, list]) -> bool:
    """Whether a span named ``name`` encloses ``span`` (``index``: id -> span)."""
    parent = index.get(span[1])
    while parent is not None:
        if parent[2] == name:
            return True
        parent = index.get(parent[1])
    return False


def durations_ms(spans: List[list]) -> List[float]:
    return [(s[4] - s[3]) * 1e3 for s in spans]


def install_layer_spans(tracer: Tracer) -> None:
    """Span every public layer call the per-layer table needs."""
    import repro.planner.calibrate as calibrate_mod
    import repro.planner.planner as planner_mod
    from repro.core.array_sort import GpuArraySort
    from repro.fleet.fleet import SortFleet
    from repro.outofcore.capacity import CapacitySorter
    from repro.outofcore.spill import BatchFile, SpillStore
    from repro.parallel.executors import ProcessPoolEngine, ThreadPoolEngine
    from repro.service.service import SortService

    def after_sort(attrs, args, result):
        attrs["engine_s"] = float(sum(result.phase_seconds.values()))
        plan = getattr(result, "execution_plan", None)
        if plan is not None:
            attrs["engine"] = plan.engine
            attrs["source"] = plan.source
        arena = getattr(args[0], "workspace", None)
        if arena is not None:
            attrs["arena"] = id(arena)
            tracer.arenas[id(arena)] = arena

    def after_plan(attrs, args, plan):
        attrs["engine"] = plan.engine
        attrs["source"] = plan.source

    tracer.wrap(GpuArraySort, "sort", "core.sort", after_sort)
    tracer.wrap(planner_mod.ExecutionPlanner, "plan", "planner.plan", after_plan)
    tracer.wrap(planner_mod.ExecutionPlanner, "observe", "planner.observe")
    tracer.wrap(planner_mod.ExecutionPlanner, "save", "planner.save")
    tracer.wrap(planner_mod, "load_or_calibrate", "planner.calibrate")
    tracer.wrap(calibrate_mod, "load_or_calibrate", "planner.calibrate")
    tracer.wrap(ThreadPoolEngine, "sort_batch", "parallel.sort_batch")
    tracer.wrap(ProcessPoolEngine, "sort_batch", "parallel.sort_batch")
    tracer.wrap(SortService, "submit", "service.submit")
    tracer.wrap(SortFleet, "submit", "fleet.submit")
    tracer.wrap(CapacitySorter, "run", "outofcore.run")
    tracer.wrap(BatchFile, "read_into", "outofcore.read")
    tracer.wrap(SpillStore, "commit_chunk", "outofcore.commit")
    tracer.wrap(SpillStore, "save_checkpoint", "outofcore.checkpoint")
    tracer.wrap(os, "fsync", "os.fsync")
