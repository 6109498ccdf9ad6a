"""Adaptive execution planner: pick an engine per batch shape.

``BENCH_hotpath.json`` killed the one-size-fits-all dispatch: the
sharded executor lost to serial at ``ref-f32-mid`` (0.90×) while winning
at other cells.  Following Dehne & Zaboli's approach of choosing
sampling/partition parameters per input shape, the planner chooses the
*engine* per batch shape:

1.  **Model seed** — a calibrated host cost model
    (:mod:`repro.planner.model`) prices each candidate (serial-fused,
    flat-radix, and radix sharded across threads — see
    :data:`~repro.planner.model.ENGINE_NAMES`) for the batch's
    ``(N, n, dtype)``.  Every candidate runs in-process and sorts the
    batch in the caller's memory, as GPU-ArraySort sorts in place.
    The sharded candidate is offered only for radix-supported dtypes and
    only above the fan-out guard.
2.  **Guarded exploration** — candidates are tried once each, cheapest
    predicted first, skipping any predicted worse than
    ``explore_factor``× the best (no point timing a plan the model says
    is hopeless).  Exploration is what makes the planner robust to
    effects no core-count model predicts — NUMA placement, SMT siblings,
    cache-partition interference.
3.  **Online refinement** — every sorted batch reports its wall time
    back via :meth:`ExecutionPlanner.observe`; an EMA per (shape-class,
    engine) then drives an argmin dispatch, so the planner converges on
    the measured winner within a few batches of each shape and tracks
    slow drift afterwards.

Shape classes quantize ``log2`` of both dimensions, so a streaming
workload with jittering batch sizes still shares one learned entry.
Learned timings persist in the same JSON cache as the calibration
(:mod:`repro.planner.calibrate`), making the second process start
already warm.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig
from ..statan import runtime as _sanitizer
from ..core.radix import supports_dtype as _radix_supports_dtype
from ..parallel.plan import DEFAULT_MIN_ROWS_PER_WORKER, plan_shards
from .calibrate import calibrate_host, load_or_calibrate, save_profile
from .model import DEFAULT_PROFILE, HostProfile, predict_ms

__all__ = [
    "ExecutionPlan",
    "ExecutionPlanner",
    "StaticPlanner",
    "resolve_planner",
    "get_default_planner",
    "set_default_planner",
]

#: plan() sources, in the order a fresh shape progresses through them.
PLAN_SOURCES = ("static", "model", "explore", "observed")


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """One dispatch decision: how to sort the next batch."""

    #: One of :data:`~repro.planner.model.ENGINE_NAMES`: ``"serial"``
    #: (fused vectorized path), ``"radix"`` (flat non-comparison row
    #: sort, no bucket metadata), or ``"thread"`` (that radix row sort
    #: on row shards across a thread pool).
    engine: str
    #: Worker count for the sharded engines (1 for serial).
    workers: int = 1
    #: Fuse phases 2+3 (always the fast choice; kept explicit so an
    #: unfused plan remains expressible for ablations).
    fused: bool = True
    #: Cost-model estimate for this engine on this shape, milliseconds.
    predicted_ms: float = 0.0
    #: Why this plan was chosen — one of :data:`PLAN_SOURCES`.
    source: str = "model"
    #: Shape-class key the decision was filed under.
    shape_key: str = ""
    #: Fan-out guard forwarded to the executors' shard planning.
    min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER


def shape_class_key(num_rows: int, row_len: int, dtype) -> str:
    """Quantized shape-class key: dtype + rounded log2 of each dimension."""
    dtype = np.dtype(dtype)
    big_n = round(math.log2(max(1, num_rows)))
    small_n = round(math.log2(max(1, row_len)))
    return f"{dtype.str}|N{big_n}|n{small_n}"


@_sanitizer.sanitize_guarded
class _PlannerBase:
    """Engine-instance caching + decision counting shared by all planners."""

    def __init__(self) -> None:
        self._engines: Dict[tuple, object] = {}
        self._lock = _sanitizer.make_lock("_PlannerBase._lock")
        #: shape key -> engine -> times plan() chose it.  The service's
        #: metrics surface exports this, so live traffic shows *which*
        #: engine each shape class actually dispatches to.
        self._plan_counts: Dict[str, Dict[str, int]] = {}  # guarded-by: _lock

    def _record_plan(self, shape_key: str, engine: str) -> None:
        with self._lock:
            slot = self._plan_counts.setdefault(shape_key, {})
            slot[engine] = slot.get(engine, 0) + 1

    def plan_counts(self) -> Dict[str, Dict[str, int]]:
        """Engine-selection counts per shape class (a copy)."""
        with self._lock:
            return {key: dict(slot) for key, slot in self._plan_counts.items()}

    def executor_for(self, plan: ExecutionPlan):
        """The (cached) executor instance realizing ``plan``.

        ``None`` for serial and radix plans — both run inside the
        caller (serial keeps full phase-1 diagnostics; radix is the
        sorter's own flat row-sort path).  A thread plan gets a
        :class:`~repro.parallel.executors.ThreadPoolEngine` whose shards
        run the radix row sort (sharded radix, not the fused pipeline
        ``parallel="thread"`` shards).  Thread engines are constructed
        once per (workers, fan-out guard) and reused, so the planner
        adds no per-batch object churn.
        """
        if plan.engine in ("serial", "radix"):
            return None
        key = (plan.workers, plan.min_rows_per_worker)
        engine = self._engines.get(key)
        if engine is None:
            from ..parallel.executors import ThreadPoolEngine, radix_rows_inplace

            engine = ThreadPoolEngine(
                workers=plan.workers,
                min_rows_per_worker=plan.min_rows_per_worker,
                row_sort=radix_rows_inplace,
            )
            self._engines[key] = engine
        return engine

    def observe(self, plan: ExecutionPlan, elapsed_ms: float) -> None:
        """Feed back a measured batch time (no-op unless adaptive)."""

    def save(self) -> bool:
        """Persist learned state (no-op unless adaptive)."""
        return False


class ExecutionPlanner(_PlannerBase):
    """Cost-model seeded, observation-refined engine chooser.

    Parameters
    ----------
    profile:
        A :class:`HostProfile` to use directly.  ``None`` (default)
        defers to the JSON cache: load if valid for this host, else run
        the one-time micro-calibration and persist it.
    cache_path:
        Override the cache file (default honors ``$REPRO_PLANNER_CACHE``
        then ``~/.cache/repro/planner.json``).  Pass ``cache_path=None``
        explicitly to disable persistence entirely.
    explore_factor:
        A candidate is only explored while its model prediction is
        within this factor of the cheapest candidate's.
    ema_alpha:
        Weight of the newest observation in the per-(shape, engine) EMA.
    """

    _UNSET = object()

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        *,
        cache_path=_UNSET,
        explore_factor: float = 8.0,
        ema_alpha: float = 0.3,
        min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER,
        autosave_every: int = 32,
    ) -> None:
        super().__init__()
        if explore_factor < 1.0:
            raise ValueError(f"explore_factor must be >= 1.0, got {explore_factor}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.explore_factor = float(explore_factor)
        self.ema_alpha = float(ema_alpha)
        self.min_rows_per_worker = int(min_rows_per_worker)
        self.autosave_every = int(autosave_every)
        self._cache_path: Optional[Path]
        if cache_path is self._UNSET:
            self._cache_path = None  # resolved lazily via default_cache_path
            self._persist = True
        else:
            self._cache_path = Path(cache_path) if cache_path is not None else None
            self._persist = cache_path is not None
        self._profile = profile
        #: shape key -> engine -> {"ema_ms": float, "count": int}
        self._observations: Dict[str, Dict[str, Dict[str, float]]] = {}
        self._unsaved = 0

    # -- profile lifecycle -------------------------------------------------
    @property
    def profile(self) -> HostProfile:
        """The host profile, calibrating (and caching) on first access."""
        if self._profile is None:
            if self._persist:
                self._profile, persisted = load_or_calibrate(self._cache_path)
                self._merge_observations(persisted)
            else:
                self._profile = calibrate_host()
        return self._profile

    def _merge_observations(self, persisted: Dict[str, object]) -> None:
        for key, engines in persisted.items():
            if not isinstance(engines, dict):
                continue
            slot = self._observations.setdefault(str(key), {})
            for engine, entry in engines.items():
                if (
                    engine not in slot
                    and isinstance(entry, dict)
                    and isinstance(entry.get("ema_ms"), (int, float))
                ):
                    slot[str(engine)] = {
                        "ema_ms": float(entry["ema_ms"]),
                        "count": int(entry.get("count", 1)),
                    }

    # -- planning ----------------------------------------------------------
    def _candidates(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        config: SortConfig,
        key: str,
    ) -> list:
        profile = self.profile
        plans = [
            ExecutionPlan(
                engine="serial",
                workers=1,
                predicted_ms=predict_ms(
                    profile, "serial", num_rows, row_len, dtype, config=config
                ),
                shape_key=key,
                min_rows_per_worker=self.min_rows_per_worker,
            )
        ]
        if not _radix_supports_dtype(dtype):
            return plans
        plans.append(
            ExecutionPlan(
                engine="radix",
                workers=1,
                predicted_ms=predict_ms(
                    profile, "radix", num_rows, row_len, dtype, config=config
                ),
                shape_key=key,
                min_rows_per_worker=self.min_rows_per_worker,
            )
        )
        # Sharded radix: same row sort, so same dtype support; offered
        # only when the fan-out guard yields more than one shard.
        workers = max(2, profile.cpu_count)
        shards = len(
            plan_shards(
                num_rows, workers, min_rows_per_worker=self.min_rows_per_worker
            )
        )
        if shards > 1:
            plans.append(
                ExecutionPlan(
                    engine="thread",
                    workers=workers,
                    predicted_ms=predict_ms(
                        profile,
                        "thread",
                        num_rows,
                        row_len,
                        dtype,
                        workers=workers,
                        shards=shards,
                        config=config,
                    ),
                    shape_key=key,
                    min_rows_per_worker=self.min_rows_per_worker,
                )
            )
        return plans

    def plan(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        *,
        config: SortConfig = DEFAULT_CONFIG,
    ) -> ExecutionPlan:
        """Choose the engine for one ``(num_rows, row_len, dtype)`` batch."""
        key = shape_class_key(num_rows, row_len, dtype)
        candidates = self._candidates(num_rows, row_len, dtype, config, key)
        chosen = self._choose(key, candidates)
        self._record_plan(key, chosen.engine)
        return chosen

    def _choose(self, key: str, candidates: list) -> ExecutionPlan:
        if len(candidates) == 1:
            return candidates[0]
        observed = self._observations.get(key, {})
        best_predicted = min(c.predicted_ms for c in candidates)
        cutoff = self.explore_factor * max(best_predicted, 1e-9)
        unexplored = [
            c
            for c in candidates
            if c.engine not in observed and c.predicted_ms <= cutoff
        ]
        if unexplored:
            choice = min(unexplored, key=lambda c: c.predicted_ms)
            source = "explore" if observed else "model"
            return dataclasses.replace(choice, source=source)
        choice = min(
            candidates,
            key=lambda c: observed.get(c.engine, {}).get("ema_ms", c.predicted_ms),
        )
        return dataclasses.replace(choice, source="observed")

    def observe(self, plan: ExecutionPlan, elapsed_ms: float) -> None:
        """Fold one measured batch wall time into the per-shape EMA."""
        if not plan.shape_key or elapsed_ms < 0:
            return
        slot = self._observations.setdefault(plan.shape_key, {})
        entry = slot.get(plan.engine)
        if entry is None:
            slot[plan.engine] = {"ema_ms": float(elapsed_ms), "count": 1}
        else:
            entry["ema_ms"] += self.ema_alpha * (elapsed_ms - entry["ema_ms"])
            entry["count"] += 1
        self._unsaved += 1
        if self._persist and self._unsaved >= self.autosave_every:
            self.save()

    def observations(self, shape_key: Optional[str] = None):
        """Learned timings (a copy), for diagnostics and the benchmark."""
        import copy

        if shape_key is not None:
            return copy.deepcopy(self._observations.get(shape_key, {}))
        return copy.deepcopy(self._observations)

    def save(self) -> bool:
        """Persist profile + observations to the JSON cache (best effort)."""
        if not self._persist:
            return False
        ok = save_profile(self.profile, self._observations, self._cache_path)
        if ok:
            self._unsaved = 0
        return ok


class StaticPlanner(_PlannerBase):
    """Planner that always returns the same engine — the escape hatch.

    Realizes ``GpuArraySort(planner="fused")`` (always the serial fused
    path), ``planner="sharded"`` (always the thread engine: the radix
    row sort on row shards, so radix-supported dtypes only; its shard
    planning still collapses to one shard below the fan-out threshold),
    and ``planner="radix"`` (always the flat non-comparison row sort).
    ``parallel="thread"`` — not a planner — is the way to shard the
    fused pipeline.
    ``MODES`` covers every engine in
    :data:`~repro.planner.model.ENGINE_NAMES` plus the historical
    aliases, and the error message is derived from it — adding an
    engine updates both automatically.
    """

    MODES = {
        "serial": "serial",
        "fused": "serial",
        "thread": "thread",
        "sharded": "thread",
        "radix": "radix",
    }

    def __init__(
        self,
        mode: str,
        *,
        workers: Optional[int] = None,
        min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER,
    ) -> None:
        super().__init__()
        try:
            self.engine = self.MODES[mode.lower()]
        except (KeyError, AttributeError):
            raise ValueError(
                f"unknown static planner mode {mode!r}; choose from "
                f"{sorted(set(self.MODES))}"
            ) from None
        self.mode = mode
        if workers is None:
            workers = (
                1
                if self.engine in ("serial", "radix")
                else max(2, DEFAULT_PROFILE.cpu_count)
            )
        self.workers = int(workers)
        self.min_rows_per_worker = int(min_rows_per_worker)

    def plan(
        self,
        num_rows: int,
        row_len: int,
        dtype,
        *,
        config: SortConfig = DEFAULT_CONFIG,
    ) -> ExecutionPlan:
        key = shape_class_key(num_rows, row_len, dtype)
        self._record_plan(key, self.engine)
        return ExecutionPlan(
            engine=self.engine,
            workers=self.workers,
            source="static",
            shape_key=key,
            min_rows_per_worker=self.min_rows_per_worker,
        )


_default_planner: Optional[ExecutionPlanner] = None


def get_default_planner() -> ExecutionPlanner:
    """The process-wide adaptive planner behind ``planner="auto"``.

    Shared so every sorter in the process pools its observations and the
    calibration runs at most once.
    """
    global _default_planner
    if _default_planner is None:
        _default_planner = ExecutionPlanner()
    return _default_planner


def set_default_planner(planner: Optional[ExecutionPlanner]) -> None:
    """Replace (or with ``None`` reset) the process-wide planner."""
    global _default_planner
    _default_planner = planner


def resolve_planner(spec, *, workers: Optional[int] = None):
    """Turn a ``planner=`` spec into a planner instance (or ``None``).

    ``None`` means no planner (legacy dispatch); ``"auto"`` the shared
    adaptive planner; any :attr:`StaticPlanner.MODES` name (``"fused"``/
    ``"serial"``/``"sharded"``/``"thread"``/``"radix"``)
    a :class:`StaticPlanner`; an object with a ``plan`` method passes
    through.
    """
    if spec is None:
        return None
    if hasattr(spec, "plan") and hasattr(spec, "executor_for"):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        if key in ("none",):
            return None
        if key == "auto":
            return get_default_planner()
        if key in StaticPlanner.MODES:
            return StaticPlanner(key, workers=workers)
        raise ValueError(
            f"unknown planner {spec!r}; choose from "
            f"['auto'] + {sorted(set(StaticPlanner.MODES))} or pass a planner instance"
        )
    raise TypeError(
        "planner must be None, a mode name, or a planner instance; "
        f"got {type(spec).__name__}"
    )
