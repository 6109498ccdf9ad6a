"""Row-sort plans: the planner's ``radix`` and ``thread`` (sharded radix) engines.

Pins the contracts those plans must keep now that the sorter no longer
probes the whole batch for NaN before running them:

* under ``nan_policy="raise"`` a NaN batch is rejected with the same
  message and row count as the probing path, and the caller's array is
  never touched (``inplace=False`` checks after sorting a scratch copy;
  ``inplace=True`` still probes first);
* under ``"sort_to_end"`` the output is byte-identical to ``np.sort``,
  reversed for ``descending=True``;
* the sharded engine is byte-identical to ``np.sort`` for every
  supported dtype and shard count;
* no pool thread outlives a sort (fleets fork after warming a planner).
"""

import threading

import numpy as np
import pytest

from repro.core import GpuArraySort, SortConfig
from repro.parallel import ThreadPoolEngine
from repro.planner import ExecutionPlanner, HostProfile, StaticPlanner

STUB = HostProfile(cpu_count=2, calibrated=True)
ROWS, COLS = 200, 48  # 200 rows: up to 3 shards at the 64-row shard floor
NAN_ROWS = (3, 17, 150, 199)

SUPPORTED_DTYPES = [
    np.bool_,
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
]


def _planners():
    """The three planners whose plans include a row-sort engine."""
    return {
        "radix": StaticPlanner("radix"),
        "thread": StaticPlanner("thread", workers=2, min_rows_per_worker=1),
        # min_rows_per_worker=1 puts the thread candidate in reach of a
        # 200-row batch; a free pool makes it the model's first pick, so
        # repeated sorts explore thread, then radix, then serial.
        "auto": ExecutionPlanner(
            HostProfile(cpu_count=2, thread_pool_us=0.0, thread_task_us=0.0,
                        calibrated=True),
            cache_path=None, min_rows_per_worker=1, explore_factor=1e6,
        ),
    }


def _engines_used(sorter):
    return {e for counts in sorter.planner.plan_counts().values() for e in counts}


PLANNER_NAMES = sorted(_planners())
#: Sorts per planner: enough for the adaptive one to explore all three
#: candidates and then dispatch on what it observed.
SORTS = 4


def _nan_batch(dtype=np.float32, seed=7):
    rng = np.random.default_rng(seed)
    batch = rng.choice(
        np.array([-0.0, 0.0, 1.5, -2.5, np.inf, -np.inf], dtype=dtype),
        (ROWS, COLS),
    )
    batch[:, 5] = rng.uniform(-1e3, 1e3, ROWS).astype(dtype)
    for i, row in enumerate(NAN_ROWS):
        batch[row, (7 * i) % COLS] = np.nan
    return batch


class TestRaisePolicy:
    @pytest.mark.parametrize("inplace", [False, True])
    @pytest.mark.parametrize("name", PLANNER_NAMES)
    def test_rejects_with_row_count_and_leaves_input_untouched(
        self, name, inplace
    ):
        sorter = GpuArraySort(planner=_planners()[name])
        batch = _nan_batch()
        before = batch.tobytes()
        for _ in range(SORTS):
            with pytest.raises(ValueError) as exc:
                sorter.sort(batch, inplace=inplace)
            assert str(exc.value).startswith(
                f"{len(NAN_ROWS)} of {ROWS} rows contain NaN"
            )
            assert "sort_to_end" in str(exc.value)
            assert batch.tobytes() == before
        if name == "auto" and not inplace:
            assert _engines_used(sorter) == {"serial", "radix", "thread"}

    @pytest.mark.parametrize("name", PLANNER_NAMES)
    def test_nan_free_batches_still_sort(self, name):
        sorter = GpuArraySort(planner=_planners()[name])
        batch = np.nan_to_num(_nan_batch(), nan=3.0)
        for _ in range(SORTS):
            out = sorter.sort(batch).batch
            assert out.tobytes() == np.sort(batch, axis=1).tobytes()
        if name == "auto":
            assert _engines_used(sorter) == {"serial", "radix", "thread"}


class TestSortToEnd:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("name", PLANNER_NAMES)
    def test_byte_identical_to_numpy(self, name, dtype, descending):
        sorter = GpuArraySort(
            SortConfig(nan_policy="sort_to_end"), planner=_planners()[name]
        )
        batch = _nan_batch(dtype)
        expected = np.sort(batch, axis=1)
        if descending:
            expected = expected[:, ::-1]
        for _ in range(SORTS):
            out = sorter.sort(batch, descending=descending).batch
            assert out.tobytes() == expected.tobytes()
        if name == "auto":
            assert _engines_used(sorter) == {"serial", "radix", "thread"}


class TestShardedRadix:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("dtype", SUPPORTED_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_byte_identical_to_numpy(self, dtype, shards):
        rng = np.random.default_rng(shards)
        dtype = np.dtype(dtype)
        if dtype.kind == "f":
            batch = _nan_batch(dtype, seed=shards)
        elif dtype.kind == "b":
            batch = rng.integers(0, 2, (ROWS, COLS)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            batch = rng.integers(info.min, info.max, (ROWS, COLS),
                                 dtype=dtype, endpoint=True)
        planner = StaticPlanner("thread", workers=shards, min_rows_per_worker=1)
        result = GpuArraySort(
            SortConfig(nan_policy="sort_to_end"), planner=planner
        ).sort(batch)
        assert result.batch.tobytes() == np.sort(batch, axis=1).tobytes()
        assert result.parallel_info["engine"] == "thread"
        assert result.parallel_info["shards"] == shards
        assert result.buckets is None


class TestThreadHygiene:
    def test_no_pool_thread_outlives_a_sort(self, rng):
        batch = rng.uniform(0, 1e4, (ROWS, COLS)).astype(np.float32)
        sorter = GpuArraySort(
            planner=StaticPlanner("thread", workers=3, min_rows_per_worker=1)
        )
        before = threading.active_count()
        result = sorter.sort(batch)
        assert result.parallel_info["shards"] == 3
        assert threading.active_count() == before

    def test_sort_batch_is_defined_on_the_thread_engine_itself(self):
        # Tracers wrap ThreadPoolEngine.__dict__["sort_batch"]; an
        # inherited method would escape them.
        assert "sort_batch" in ThreadPoolEngine.__dict__
