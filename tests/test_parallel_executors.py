"""Unit tests for repro.parallel (shard planner + sharded executors)."""

import numpy as np
import pytest

from repro.core import GpuArraySort
from repro.parallel import (
    ProcessPoolEngine,
    SerialEngine,
    Shard,
    ShardPlan,
    ThreadPoolEngine,
    plan_shards,
    resolve_executor,
)
from repro.parallel import executors as executors_mod
from repro.parallel.plan import (
    DEFAULT_MIN_ROWS_PER_SHARD,
    DEFAULT_MIN_ROWS_PER_WORKER,
)


class TestShardPlan:
    def test_covers_every_row_exactly_once(self):
        for num_rows in (1, 7, 64, 100, 1000):
            for workers in (1, 2, 3, 8):
                plan = plan_shards(
                    num_rows, workers,
                    min_rows_per_shard=1, min_rows_per_worker=1,
                )
                spans = [(s.start, s.stop) for s in plan]
                assert spans[0][0] == 0
                assert spans[-1][1] == num_rows
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start  # contiguous, no gaps/overlap

    def test_remainder_goes_to_leading_shards(self):
        plan = plan_shards(10, 3, min_rows_per_shard=1, min_rows_per_worker=1)
        assert [(s.start, s.stop) for s in plan] == [(0, 4), (4, 7), (7, 10)]

    def test_min_rows_per_shard_caps_shard_count(self):
        # 100 rows at >= 64/shard: only one shard no matter the workers.
        plan = plan_shards(100, 8, min_rows_per_shard=64,
                           min_rows_per_worker=1)
        assert len(plan) == 1
        plan = plan_shards(128, 8, min_rows_per_shard=64,
                           min_rows_per_worker=1)
        assert len(plan) == 2

    def test_default_floor_matches_constant(self):
        plan = plan_shards(DEFAULT_MIN_ROWS_PER_SHARD * 2, 16,
                           min_rows_per_worker=1)
        assert plan.num_rows == DEFAULT_MIN_ROWS_PER_SHARD * 2
        assert len(plan) == 2

    def test_default_fanout_guard(self):
        # Below the per-worker floor the plan degenerates to one shard, so
        # small batches (where sharding measured slower than serial) never
        # pay thread/process dispatch.
        assert len(plan_shards(DEFAULT_MIN_ROWS_PER_WORKER, 8)) == 1
        assert len(plan_shards(DEFAULT_MIN_ROWS_PER_WORKER * 2, 8)) == 2
        assert len(plan_shards(5000, 8)) == 1  # the 0.90x regression shape

    def test_zero_rows_yields_empty_plan(self):
        plan = plan_shards(0, 4)
        assert plan.num_rows == 0 and len(plan) == 0
        assert list(plan) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(10, 2, min_rows_per_shard=0)
        with pytest.raises(ValueError):
            plan_shards(10, 2, min_rows_per_worker=0)
        with pytest.raises(ValueError):
            Shard(index=0, start=5, stop=4)

    def test_plan_is_iterable_and_sized(self):
        plan = plan_shards(20, 2, min_rows_per_shard=1, min_rows_per_worker=1)
        assert isinstance(plan, ShardPlan)
        assert len(list(plan)) == len(plan) == 2


class TestResolveExecutor:
    def test_none_passthrough(self):
        assert resolve_executor(None) is None
        assert resolve_executor("none") is None

    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("serial", SerialEngine),
            ("thread", ThreadPoolEngine),
            ("threads", ThreadPoolEngine),
            ("process", ProcessPoolEngine),
            ("processes", ProcessPoolEngine),
        ],
    )
    def test_names(self, spec, cls):
        engine = resolve_executor(spec, workers=3)
        assert isinstance(engine, cls)
        assert engine.workers == 3

    def test_instance_passthrough(self):
        engine = ThreadPoolEngine(workers=2)
        assert resolve_executor(engine) is engine

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_executor("cluster")
        with pytest.raises(TypeError):
            resolve_executor(42)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPoolEngine(workers=0)


class TestEngines:
    def _batch(self, rng, num_arrays=150, array_size=120):
        return rng.uniform(0, 1e4, (num_arrays, array_size)).astype(np.float32)

    def test_serial_engine_matches_plain_sorter(self, rng):
        batch = self._batch(rng)
        plain = GpuArraySort().sort(batch)
        engine_result = GpuArraySort(parallel="serial").sort(batch)
        assert engine_result.batch.tobytes() == plain.batch.tobytes()
        assert np.array_equal(
            engine_result.buckets.offsets, plain.buckets.offsets
        )
        assert engine_result.parallel_info["engine"] == "serial"

    def test_thread_engine_sharded_info(self, rng):
        batch = self._batch(rng)
        engine = ThreadPoolEngine(workers=3, min_rows_per_shard=16,
                                  min_rows_per_worker=1)
        result = GpuArraySort(parallel=engine).sort(batch)
        assert result.parallel_info["engine"] == "thread"
        assert result.parallel_info["shards"] == 3
        assert not result.parallel_info["fell_back_to_serial"]
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
        # parallel="thread" shards the fused pipeline: metadata per row.
        assert result.buckets.offsets.shape[0] == batch.shape[0]

    def test_process_engine_round_trip(self, rng):
        batch = self._batch(rng)
        engine = ProcessPoolEngine(workers=2, min_rows_per_shard=16,
                                   min_rows_per_worker=1)
        result = GpuArraySort(parallel=engine).sort(batch)
        assert np.array_equal(result.batch, np.sort(batch, axis=1))
        assert result.parallel_info["engine"] == "process"
        assert engine.fallbacks == 0

    def test_small_batch_degenerates_to_serial_shard(self, rng):
        batch = self._batch(rng, num_arrays=10)
        engine = ThreadPoolEngine(workers=4)  # default 64-row floor
        result = GpuArraySort(parallel=engine).sort(batch)
        assert result.parallel_info["shards"] == 1
        assert np.array_equal(result.batch, np.sort(batch, axis=1))

    def test_parallel_requires_vectorized_engine(self):
        with pytest.raises(ValueError):
            GpuArraySort(engine="sim", parallel="thread")

    def test_parallel_result_has_no_splitters(self, rng):
        batch = self._batch(rng)
        result = GpuArraySort(parallel="serial").sort(batch)
        assert result.splitters is None


class TestProcessCrashFallback:
    def test_worker_crash_falls_back_to_serial(self, rng, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(executors_mod, "_sort_shard_shm", boom)
        batch = rng.uniform(0, 100, (120, 60)).astype(np.float64)
        expected = np.sort(batch, axis=1)
        engine = ProcessPoolEngine(workers=2, min_rows_per_shard=16,
                                   min_rows_per_worker=1)
        result = GpuArraySort(parallel=engine).sort(batch)
        assert np.array_equal(result.batch, expected)
        assert engine.fallbacks == 1
        assert result.parallel_info["fell_back_to_serial"] is True
        assert result.parallel_info["shards"] == 1

    def test_fallback_result_still_equivalent_to_serial(self, rng, monkeypatch):
        monkeypatch.setattr(
            executors_mod, "_sort_shard_shm",
            lambda *a, **k: (_ for _ in ()).throw(OSError("shm gone")),
        )
        batch = rng.uniform(0, 100, (120, 60)).astype(np.float32)
        serial = GpuArraySort().sort(batch.copy())
        engine = ProcessPoolEngine(workers=2, min_rows_per_shard=16,
                                   min_rows_per_worker=1)
        fallen = GpuArraySort(parallel=engine).sort(batch)
        assert fallen.batch.tobytes() == serial.batch.tobytes()
        assert np.array_equal(fallen.buckets.offsets, serial.buckets.offsets)


class TestIntegrationSurfaces:
    def test_streaming_sorter_accepts_parallel(self, rng):
        from repro.core import StreamingSorter

        sorter = StreamingSorter(
            array_size=64, batch_arrays=100, parallel="thread", workers=2,
            dtype=np.float32,
        )
        slab = rng.uniform(0, 100, (250, 64)).astype(np.float32)
        sorter.push_slab(slab)
        sorter.flush()
        assert sorter.stats.arrays_out == 250
        merged = np.vstack(sorter.results)
        assert np.all(np.diff(merged, axis=1) >= 0)

    def test_resilient_sorter_accepts_parallel(self, rng):
        from repro.resilience import ResilientSorter

        sorter = ResilientSorter(parallel="thread", workers=2)
        batch = rng.uniform(0, 100, (130, 50)).astype(np.float32)
        result = sorter.sort(batch)
        assert np.array_equal(result.batch, np.sort(batch, axis=1))

    def test_gpu_array_sort_workers_kwarg(self, rng):
        batch = rng.uniform(0, 100, (130, 50)).astype(np.float32)
        result = GpuArraySort(parallel="thread", workers=2).sort(batch)
        assert np.array_equal(result.batch, np.sort(batch, axis=1))


class TestAttachShmView:
    def test_views_segment_at_offset(self):
        from multiprocessing import shared_memory

        from repro.parallel import attach_shm_view

        owner = shared_memory.SharedMemory(create=True, size=64)
        try:
            base = np.ndarray((16,), dtype=np.float32, buffer=owner.buf)
            base[:] = np.arange(16, dtype=np.float32)
            # Attach the back half (offset 8 floats = 32 bytes).
            shm, view = attach_shm_view(owner.name, (8,), "<f4", 32)
            try:
                assert np.array_equal(view, np.arange(8, 16, dtype=np.float32))
                view[0] = -1.0  # shared storage: writes flow back
                assert base[8] == -1.0
            finally:
                del view  # the view borrows shm.buf; drop it before close
                shm.close()
        finally:
            del base
            owner.close()
            owner.unlink()
