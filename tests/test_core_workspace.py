"""Unit tests for repro.core.workspace (ScratchArena)."""

import numpy as np
import pytest

from repro.core import GpuArraySort, StreamingSorter
from repro.core.workspace import ScratchArena


class TestScratchArena:
    def test_same_key_reuses_storage(self):
        arena = ScratchArena()
        a = arena.get("buf", (8, 16), np.float32)
        b = arena.get("buf", (8, 16), np.float32)
        assert a.base is b.base
        assert arena.stats.allocations == 1
        assert arena.stats.hits == 1

    def test_smaller_request_reuses_storage(self):
        arena = ScratchArena()
        big = arena.get("buf", (100,), np.float64)
        small = arena.get("buf", (10, 5), np.float64)
        assert small.base is big.base

    def test_growth_is_geometric(self):
        arena = ScratchArena(growth=2.0)
        arena.get("buf", (100,), np.int32)
        grown = arena.get("buf", (101,), np.int32)
        assert arena.stats.grows == 1
        # Capacity at least doubled, so the next doubling-ish request hits.
        assert grown.base.size >= 200
        arena.get("buf", (200,), np.int32)
        assert arena.stats.grows == 1

    def test_dtypes_never_alias(self):
        arena = ScratchArena()
        f32 = arena.get("buf", (64,), np.float32)
        i64 = arena.get("buf", (64,), np.int64)
        f64 = arena.get("buf", (64,), np.float64)
        assert f32.base is not i64.base
        assert i64.base is not f64.base
        # Writing through one view must not disturb the others.
        f32[:] = 1.5
        i64[:] = 7
        f64[:] = -2.25
        assert np.all(f32 == np.float32(1.5))
        assert np.all(i64 == 7)
        assert np.all(f64 == -2.25)

    def test_tags_never_alias(self):
        arena = ScratchArena()
        a = arena.get("a", (32,), np.float32)
        b = arena.get("b", (32,), np.float32)
        assert a.base is not b.base

    def test_views_are_c_contiguous_and_shaped(self):
        arena = ScratchArena()
        v = arena.get("buf", (3, 4, 5), np.float32)
        assert v.shape == (3, 4, 5)
        assert v.flags.c_contiguous

    def test_close_releases_and_blocks_reuse(self):
        arena = ScratchArena()
        arena.get("buf", (8,), np.float32)
        arena.close()
        assert arena.closed
        assert arena.stats.bytes_held == 0
        with pytest.raises(RuntimeError):
            arena.get("buf", (8,), np.float32)
        arena.close()  # idempotent

    def test_context_manager(self):
        with ScratchArena() as arena:
            arena.get("buf", (8,), np.float32)
        assert arena.closed

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            ScratchArena(growth=0.5)

    def test_multithreaded_acquire_keeps_bookkeeping_consistent(self):
        """Regression for the service era: concurrent ``get`` calls with
        interleaved growth must neither corrupt the pool bookkeeping nor
        cross wires between tags.

        Each thread owns its tag (the documented single-owner storage
        contract), so it can also verify its writes round-trip while the
        other threads force allocations and grows on the shared lock.
        """
        import threading

        arena = ScratchArena()
        workers = 8
        iterations = 120
        errors = []
        barrier = threading.Barrier(workers)

        def hammer(worker_id):
            rng = np.random.default_rng(worker_id)
            tag = f"t{worker_id}"
            barrier.wait()
            try:
                for i in range(iterations):
                    size = int(rng.integers(1, 400)) + i  # forces grows
                    view = arena.get(tag, (size,), np.float64)
                    view[:] = worker_id
                    assert np.all(view == worker_id)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((worker_id, exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        # Bookkeeping must balance exactly: held bytes == live pools.
        assert arena.stats.bytes_held == sum(
            pool.nbytes for pool in arena._pools.values()
        )
        assert len(arena._pools) == workers
        assert (
            arena.stats.hits + arena.stats.allocations
            == workers * iterations
        )

    def test_concurrent_get_and_close_never_corrupts(self):
        """A close racing in-flight gets must leave the arena cleanly
        closed: every get either succeeds or raises the closed error."""
        import threading

        arena = ScratchArena()
        outcomes = []
        lock = threading.Lock()
        warmed = threading.Event()
        closed_done = threading.Event()

        def getter(worker_id):
            for i in range(200):
                if i == 50 and worker_id == 0:
                    warmed.set()
                try:
                    arena.get(f"g{worker_id}", (64 + i,), np.float32)
                    result = "ok"
                except RuntimeError:
                    result = "closed"
                with lock:
                    outcomes.append(result)
            if worker_id == 0:
                # After close has provably happened, a get must raise.
                assert closed_done.wait(30)
                with pytest.raises(RuntimeError):
                    arena.get("g0", (8,), np.float32)

        def closer():
            assert warmed.wait(30)  # close lands mid-hammer, not before
            arena.close()
            closed_done.set()

        threads = [threading.Thread(target=getter, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=closer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert arena.closed
        assert arena.stats.bytes_held == 0
        assert set(outcomes) <= {"ok", "closed"}
        assert "ok" in outcomes  # gets before the close succeeded


class TestSorterArenaReuse:
    """Satellite: steady-state sorts reuse the arena, zero new allocations."""

    def test_repeated_sorts_reuse_the_work_buffer(self, rng):
        sorter = GpuArraySort(workspace=True)
        batch = rng.uniform(0, 1e6, (200, 300)).astype(np.float32)
        first = sorter.sort(batch)
        base = first.batch.base
        assert base is not None  # arena-backed view, not a fresh array
        allocs = sorter.workspace.stats.allocations
        for _ in range(3):
            result = sorter.sort(batch)
            assert result.batch.base is base
            assert result.scratch is True
        assert sorter.workspace.stats.allocations == allocs  # zero new

    def test_arena_sort_matches_plain_sort_bytes(self, rng):
        batch = rng.uniform(0, 1e6, (500, 400)).astype(np.float32)
        plain = GpuArraySort().sort(batch)
        pooled = GpuArraySort(workspace=True).sort(batch)
        assert pooled.batch.tobytes() == plain.batch.tobytes()
        assert np.array_equal(pooled.buckets.offsets, plain.buckets.offsets)
        assert np.array_equal(pooled.buckets.sizes, plain.buckets.sizes)

    def test_dtype_switch_on_one_sorter_never_aliases(self, rng):
        sorter = GpuArraySort(workspace=True)
        f32 = rng.uniform(0, 100, (50, 64)).astype(np.float32)
        i64 = rng.integers(0, 1000, (50, 64)).astype(np.int64)
        r_f32 = sorter.sort(f32)
        r_i64 = sorter.sort(i64)
        assert r_f32.batch.base is not r_i64.batch.base
        # The f32 result's storage was not clobbered by the i64 sort.
        assert np.array_equal(r_f32.batch, np.sort(f32, axis=1))
        assert np.array_equal(r_i64.batch, np.sort(i64, axis=1))


class TestStreamingArenaReuse:
    """Satellite: StreamingSorter emissions ride the same arena buffers."""

    def _slab(self, rng, rows, cols=64):
        return rng.uniform(0, 1e4, (rows, cols)).astype(np.float32)

    def test_on_batch_views_share_storage_across_emissions(self, rng):
        bases = []
        sorter = StreamingSorter(
            array_size=64, batch_arrays=50, workspace=True,
            dtype=np.float32, on_batch=lambda out: bases.append(out.base),
        )
        sorter.push_slab(self._slab(rng, 150))
        sorter.flush()
        assert len(bases) == 3
        assert bases[0] is not None
        assert all(b is bases[0] for b in bases)  # one buffer, reused

    def test_results_list_is_copied_out_of_the_arena(self, rng):
        sorter = StreamingSorter(
            array_size=64, batch_arrays=50, workspace=True, dtype=np.float32,
        )
        slab = self._slab(rng, 150)
        sorter.push_slab(slab)
        sorter.flush()
        assert len(sorter.results) == 3
        # Retained results must not alias the (reused) arena storage:
        # each snapshot still equals its own batch's sorted rows.
        expected = np.sort(slab, axis=1)
        merged = np.vstack(sorter.results)
        assert np.array_equal(merged, expected)
        first, second = sorter.results[0], sorter.results[1]
        assert first.base is not second.base or first.base is None

    def test_arena_survives_checkpoint_restore(self, rng):
        sorter = StreamingSorter(
            array_size=64, batch_arrays=50, workspace=True, dtype=np.float32,
        )
        sorter.push_slab(self._slab(rng, 70))  # one emission + 20 staged
        cp = sorter.checkpoint()
        arena = sorter._sorter.workspace
        allocs_before = arena.stats.allocations

        sorter.push_slab(self._slab(rng, 30))  # second emission
        sorter.restore(cp)  # roll back to 20 staged
        tail = self._slab(rng, 30)
        sorter.push_slab(tail)  # refill to 50: third emission
        sorter.flush()

        assert sorter._sorter.workspace is arena
        assert not arena.closed
        # Post-warmup emissions allocated nothing new.
        assert arena.stats.allocations == allocs_before
        # Re-emitted batch id follows the at-least-once contract.
        assert sorter.emitted_batch_ids[0] == 0
        merged = np.vstack(sorter.results)
        assert np.all(np.diff(merged, axis=1) >= 0)
