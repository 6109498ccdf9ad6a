"""Per-layer metrics every workload derives alike.

The full per-layer table is ``per_layer`` in ``BENCHMARK.json``.  A
traced run reports every name; a layer the workload never reaches
reports 0 (it did no work).  Which end-to-end metric each one should
move, and on which workload, is in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .common import median, percentile
from .tracer import Tracer, durations_ms

ENGINES = ("radix", "serial", "thread", "process")


def in_window(spans: Iterable[list], window: Tuple[float, float]) -> List[list]:
    lo, hi = window
    return [s for s in spans if lo <= s[3] <= hi]


def named(spans: Iterable[list], name: str) -> List[list]:
    return [s for s in spans if s[2] == name]


def arena_allocations(tracer: Tracer) -> Dict[int, int]:
    """Allocation counters of every arena seen so far (a snapshot)."""
    return {key: arena.stats.allocations for key, arena in tracer.arenas.items()}


def core_and_planner(
    tracer: Tracer,
    spans: List[list],
    window: Tuple[float, float],
    arenas_before: Dict[int, int],
    arenas_live: bool = True,
) -> Dict[str, float]:
    """``core.*``, ``planner.*`` and ``parallel.*`` from one span list.

    ``window`` bounds the measured phase; exploration and calibration
    are counted over the whole list, because they belong to set-up.
    """
    timed = in_window(spans, window)
    before = [s for s in spans if s[3] < window[0]]
    children: Dict[int, float] = {}
    for span in spans:
        if span[1] and span[2].startswith("planner."):
            children[span[1]] = children.get(span[1], 0.0) + span[4] - span[3]

    sorts = named(timed, "core.sort")
    wall = sum(s[4] - s[3] for s in sorts)
    engine = sum(s[5].get("engine_s", 0.0) for s in sorts)
    planner_inside = sum(children.get(s[0], 0.0) for s in sorts)
    out: Dict[str, float] = {
        "core.sort_ms_p50": median(durations_ms(sorts)) if sorts else 0.0,
        "core.engine_ms_p50": (
            median([s[5].get("engine_s", 0.0) * 1e3 for s in sorts]) if sorts else 0.0
        ),
        "core.unattributed_frac": (
            (wall - engine - planner_inside) / wall if wall > 0 else 0.0
        ),
    }
    if arenas_live:
        out["core.arena_allocations"] = float(sum(
            arena.stats.allocations - arenas_before.get(key, 0)
            for key, arena in tracer.arenas.items()
        ))
        out["core.arena_bytes_held"] = float(sum(
            arena.stats.bytes_held for arena in tracer.arenas.values()
        ))

    explore = [s for s in named(spans, "core.sort")
               if s[5].get("source") in ("model", "explore")]
    out["planner.calibrate_s"] = sum(
        s[4] - s[3] for s in named(before, "planner.calibrate")
    )
    out["planner.explore_sorts"] = float(len(explore))
    out["planner.explore_s"] = sum(s[4] - s[3] for s in explore)
    plans = named(timed, "planner.plan")
    observes = named(timed, "planner.observe")
    saves = named(timed, "planner.save")
    out["planner.plan_us_p50"] = median(durations_ms(plans)) * 1e3 if plans else 0.0
    out["planner.observe_us_p50"] = (
        median(durations_ms(observes)) * 1e3 if observes else 0.0
    )
    out["planner.saves"] = float(len(saves))
    out["planner.save_ms_p50"] = median(durations_ms(saves)) if saves else 0.0
    chosen = [s[5].get("engine") for s in sorts if s[5].get("engine")]
    for name in ENGINES:
        out[f"planner.engine_share.{name}"] = (
            chosen.count(name) / len(chosen) if chosen else 0.0
        )
    shards = named(timed, "parallel.sort_batch")
    out["parallel.calls"] = float(len(shards))
    out["parallel.busy_ms"] = sum(durations_ms(shards))
    return out


def p99_or_zero(values: List[float]) -> float:
    return percentile(values, 99.0) if values else 0.0


def complete(metrics: Dict[str, float], names: Iterable[str]) -> Dict[str, float]:
    """Every per-layer name, in table order; unreached layers read 0."""
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in names}
