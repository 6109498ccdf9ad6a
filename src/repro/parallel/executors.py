"""Sharded executors: run a per-shard row sort on row shards in parallel.

Three engines share one contract — ``sort_batch(work, config)`` sorts the
``(N, n)`` matrix **in place** and returns a
:class:`~repro.core.array_sort.SortResult`.  What each shard runs is the
engine's ``row_sort`` callable:

* :func:`sort_rows_inplace` (the default) — the full vectorized
  pipeline; the result's ``buckets`` carry the reassembled per-row
  ``sizes``/``offsets``.  This is what ``parallel="thread"`` /
  ``"process"`` run.
* :func:`radix_rows_inplace` — the flat radix row sort
  (:func:`repro.core.radix.radix_sort_rows`); no bucket metadata, so
  the result has ``buckets=None``.  This is the adaptive planner's
  ``"thread"`` engine: sharded radix.

The executors:

* :class:`SerialEngine` — the identity executor: one shard, current
  process.  Exists so the sharded code path itself is exercised serially
  and so callers can treat "no parallelism" uniformly.
* :class:`ThreadPoolEngine` — ``concurrent.futures`` threads over
  disjoint row *views* of the caller's array.  Zero copies anywhere; the
  big NumPy kernels (``ndarray.sort``, ``argsort``, ``lexsort``) release
  the GIL, so shards genuinely overlap on multicore hosts.
* :class:`ProcessPoolEngine` — worker processes attached to one
  ``multiprocessing.shared_memory`` block.  The batch is staged into the
  segment once, every worker sorts its row range in place inside the
  shared buffer (zero-copy shard views on both sides), and the parent
  copies the result back after **all** shards succeed.  Any worker
  failure — a crashed process, a pool that cannot spawn, a pickling
  error — falls back to sorting the caller's untouched array serially,
  so the engine degrades instead of corrupting (the shared staging
  buffer is discarded wholesale on fallback).

Because both row sorts are per-row (see :mod:`repro.parallel.plan`),
all three engines produce byte-identical batches and identical metadata
for any worker count — pinned by ``tests/test_parallel_executors.py``.

Shard results are reassembled in shard order; per-shard phase-1
diagnostics (``samples_sorted``) are not retained, so a parallel
:class:`SortResult` has ``splitters=None``.  The thread pool lives only
for the duration of one ``sort_batch`` call: no pool thread outlives a
sort, so a process may fork safely between sorts.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.array_sort import SortResult
from ..core.bucketing import BucketResult, bucketize
from ..core.config import SortConfig
from ..core.insertion import sort_buckets
from ..core.splitters import select_splitters
from .plan import (
    DEFAULT_MIN_ROWS_PER_SHARD,
    DEFAULT_MIN_ROWS_PER_WORKER,
    ShardPlan,
    plan_shards,
)

__all__ = [
    "SerialEngine",
    "ThreadPoolEngine",
    "ProcessPoolEngine",
    "attach_shm_view",
    "radix_rows_inplace",
    "resolve_executor",
    "sort_rows_inplace",
]

#: Per-shard unit of work: sorts the rows of a view in place and returns
#: the shard's ``(sizes, offsets)`` bucket metadata, or ``None`` when the
#: row sort forms no buckets.  Must be a module-level function for the
#: process pool (picklable by reference).
RowSort = Callable[[np.ndarray, SortConfig], Optional[Tuple[np.ndarray, np.ndarray]]]


def attach_shm_view(
    shm_name: str,
    shape: Tuple[int, ...],
    dtype_str: str,
    offset: int = 0,
):
    """Attach a shared-memory segment and view it as an ndarray.

    Returns ``(shm, view)``; the caller owns ``shm.close()`` (and must
    keep ``shm`` alive for as long as the view is used — the view
    borrows the segment's buffer).  This is the one cross-process
    handoff primitive shared by the process-pool shard workers and the
    fleet's worker processes: name + shape + dtype + byte offset fully
    describe a zero-copy window into another process's slab.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    view = np.ndarray(
        shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=int(offset)
    )
    return shm, view


def default_workers() -> int:
    """Worker count when the caller does not choose: the machine's cores."""
    return max(1, os.cpu_count() or 1)


def sort_rows_inplace(
    view: np.ndarray, config: SortConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the full vectorized pipeline on ``view`` rows, in place.

    The executors' default :data:`RowSort`.  Honors
    ``config.fuse_phases``.  Returns the shard's ``(sizes, offsets)``.
    """
    spl = select_splitters(view, config)
    if config.fuse_phases:
        from ..core.fused import fused_bucket_sort

        res = fused_bucket_sort(view, spl.splitters, spl.num_buckets)
    else:
        res = bucketize(view, spl.splitters, config, out=view)
        sort_buckets(view, res.offsets)
    return res.sizes, res.offsets


def radix_rows_inplace(view: np.ndarray, config: SortConfig) -> None:
    """Sort ``view`` rows in place with the flat radix row sort.

    The :data:`RowSort` of the planner's ``"thread"`` engine.  NaN goes
    last in every row (the radix key mapping), whatever
    ``config.nan_policy`` says: the sorter boundary enforces ``"raise"``.
    Forms no buckets, so returns ``None``.
    """
    from ..core.radix import radix_sort_rows  # local: keeps import cheap

    radix_sort_rows(view, nan_policy="sort_to_end")


def _sort_shard_shm(
    shm_name: str,
    shape: Tuple[int, int],
    dtype_str: str,
    start: int,
    stop: int,
    config: SortConfig,
    row_sort: RowSort,
):
    """Process-pool worker: attach the staging block, sort rows [start, stop).

    The shard is a zero-copy view into the engine's shared staging
    buffer; only the small ``sizes``/``offsets`` metadata rides back
    through the result pickle.
    """
    shm, buf = attach_shm_view(shm_name, shape, dtype_str)
    try:
        return row_sort(buf[start:stop], config)
    finally:
        shm.close()


def _assemble(
    work: np.ndarray,
    pieces: list,
    elapsed: float,
    *,
    engine_name: str,
    shards: int,
    workers: int,
    fell_back: bool = False,
) -> SortResult:
    """Reassembly of per-shard metadata (in shard order) into one SortResult."""
    buckets = None
    if pieces[0] is not None:
        buckets = BucketResult(
            bucketed=work,
            sizes=np.vstack([p[0] for p in pieces]),
            offsets=np.vstack([p[1] for p in pieces]),
        )
    result = SortResult(
        batch=work,
        buckets=buckets,
        phase_seconds={"parallel_sort": elapsed},
    )
    # Execution provenance for observability/tests (not part of the
    # dataclass contract; attribute access degrades gracefully).
    result.parallel_info = {
        "engine": engine_name,
        "shards": shards,
        "workers": workers,
        "fell_back_to_serial": fell_back,
    }
    return result


class _ShardedEngineBase:
    """Shared planning/accounting for the executors."""

    name = "base"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        min_rows_per_shard: int = DEFAULT_MIN_ROWS_PER_SHARD,
        min_rows_per_worker: int = DEFAULT_MIN_ROWS_PER_WORKER,
        row_sort: RowSort = sort_rows_inplace,
    ) -> None:
        self.workers = int(workers) if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.min_rows_per_shard = int(min_rows_per_shard)
        #: Fan-out guard: batches below this many rows per worker run as a
        #: single shard (see :data:`repro.parallel.plan.DEFAULT_MIN_ROWS_PER_WORKER`).
        self.min_rows_per_worker = int(min_rows_per_worker)
        #: What every shard runs (see :data:`RowSort`).
        self.row_sort = row_sort
        #: Times this engine degraded to the serial path (crash fallback).
        self.fallbacks = 0

    def plan(self, num_rows: int) -> ShardPlan:
        """The deterministic shard decomposition this engine would use."""
        return plan_shards(
            num_rows,
            self.workers,
            min_rows_per_shard=self.min_rows_per_shard,
            min_rows_per_worker=self.min_rows_per_worker,
        )

    def _sort_serial(self, work: np.ndarray, config: SortConfig, t0: float,
                     *, fell_back: bool = False) -> SortResult:
        return _assemble(
            work, [self.row_sort(work, config)], time.perf_counter() - t0,
            engine_name=self.name, shards=1, workers=1, fell_back=fell_back,
        )

    def sort_batch(self, work: np.ndarray, config: SortConfig) -> SortResult:
        raise NotImplementedError


class SerialEngine(_ShardedEngineBase):
    """One shard, current process — the sharded path without concurrency."""

    name = "serial"

    def sort_batch(self, work: np.ndarray, config: SortConfig) -> SortResult:
        """Sort ``work`` in place through the shard machinery, serially."""
        return self._sort_serial(work, config, time.perf_counter())


class ThreadPoolEngine(_ShardedEngineBase):
    """Threaded shards over zero-copy row views of the caller's array.

    NumPy's sorting kernels drop the GIL, so disjoint row views sort
    concurrently with no staging copies at all.  ``parallel="thread"``
    runs the fused pipeline per shard; the adaptive planner's
    ``"thread"`` engine is this class with
    ``row_sort=radix_rows_inplace`` (sharded radix).  The pool is built
    and joined inside each ``sort_batch`` call.
    """

    name = "thread"

    def sort_batch(self, work: np.ndarray, config: SortConfig) -> SortResult:
        """Sort ``work`` in place with up to ``workers`` threads."""
        t0 = time.perf_counter()
        plan = self.plan(work.shape[0])
        if len(plan) <= 1:
            return self._sort_serial(work, config, t0)
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=len(plan)
        ) as pool:
            futures = [
                pool.submit(self.row_sort, work[shard.start:shard.stop], config)
                for shard in plan
            ]
            pieces = [future.result() for future in futures]
        return _assemble(
            work, pieces, time.perf_counter() - t0,
            engine_name=self.name, shards=len(plan), workers=self.workers,
        )


class ProcessPoolEngine(_ShardedEngineBase):
    """Worker processes sorting shards of one shared-memory staging block.

    Zero-copy on the worker side (each attaches a row-range view of the
    shared segment); one staging copy in, one copy back in the parent.
    If anything in the pool fails — a worker killed mid-shard, a spawn
    failure, an unpicklable config — the shared buffer is discarded and
    the caller's untouched array is sorted serially instead: crashes
    degrade throughput, never correctness.

    Selected only explicitly (``parallel="process"`` or an instance);
    the adaptive planner chooses among in-process engines.
    """

    name = "process"

    def sort_batch(self, work: np.ndarray, config: SortConfig) -> SortResult:
        """Sort ``work`` in place via shared-memory worker shards."""
        t0 = time.perf_counter()
        plan = self.plan(work.shape[0])
        if len(plan) <= 1:
            return self._sort_serial(work, config, t0)
        try:
            return self._sort_shared(work, config, plan, t0)
        except Exception:
            # Worker crash / pool breakage / shm failure: the staging
            # buffer may be partially sorted, but `work` has not been
            # touched — redo the whole batch serially.
            self.fallbacks += 1
            return self._sort_serial(work, config, t0, fell_back=True)

    def _sort_shared(
        self,
        work: np.ndarray,
        config: SortConfig,
        plan: ShardPlan,
        t0: float,
    ) -> SortResult:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=int(work.nbytes))
        try:
            staged = np.ndarray(work.shape, dtype=work.dtype, buffer=shm.buf)
            staged[:] = work
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, len(plan))
            ) as pool:
                futures = [
                    pool.submit(
                        _sort_shard_shm,
                        shm.name,
                        work.shape,
                        work.dtype.str,
                        shard.start,
                        shard.stop,
                        config,
                        self.row_sort,
                    )
                    for shard in plan
                ]
                pieces = [future.result() for future in futures]
            # All shards verified done: commit the sorted staging buffer.
            work[:] = staged
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
        return _assemble(
            work, pieces, time.perf_counter() - t0,
            engine_name=self.name, shards=len(plan), workers=self.workers,
        )


_ENGINES = {
    "serial": SerialEngine,
    "thread": ThreadPoolEngine,
    "threads": ThreadPoolEngine,
    "process": ProcessPoolEngine,
    "processes": ProcessPoolEngine,
}


def resolve_executor(parallel, *, workers: Optional[int] = None):
    """Turn a ``parallel=`` spec into an executor instance.

    Accepts an executor instance (anything with ``sort_batch``), one of
    the names ``"serial"``/``"thread"``/``"process"`` (plural aliases
    allowed), or ``None`` (returns ``None`` — the caller's plain serial
    path, preserving full phase-1 diagnostics).
    """
    if parallel is None:
        return None
    if hasattr(parallel, "sort_batch"):
        return parallel
    if isinstance(parallel, str):
        key = parallel.lower()
        if key in ("none",):
            return None
        if key in _ENGINES:
            return _ENGINES[key](workers=workers)
        raise ValueError(
            f"unknown parallel mode {parallel!r}; choose from "
            f"{sorted(set(_ENGINES))} or pass an executor instance"
        )
    raise TypeError(
        "parallel must be None, a mode name, or an executor instance; "
        f"got {type(parallel).__name__}"
    )
