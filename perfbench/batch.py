"""``batch``: offline batches through ``GpuArraySort(planner="auto").sort``.

One cycle sorts four batches in a fixed order:

* ``A`` 120 000 x 1000 f32 uniform — the paper's Fig. 4 shape grown to
  480 MB, several times the last-level cache;
* ``B`` 5 000 x 4000 f32 uniform — the paper's largest row length;
* ``C`` 10 000 x 1000 f64 uniform;
* ``D`` 20 000 x 1000 i32 with 16 distinct values — the duplicate-heavy
  rows on which sample-sort splitter buckets lose balance.

The facade, planner, radix and parallel layers do all the work here;
service, fleet and out-of-core do none.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from .common import (
    diff_counts, median, plan_engines, reset_planner, warm_until_observed, windowed,
)
from .layers import arena_allocations, core_and_planner
from .tracer import Tracer
from .workload import Workload

#: (label, rows, row length, dtype, distinct values or 0 for uniform).
SHAPES: Tuple[Tuple[str, int, int, str, int], ...] = (
    ("A", 120_000, 1000, "float32", 0),
    ("B", 5_000, 4000, "float32", 0),
    ("C", 10_000, 1000, "float64", 0),
    ("D", 20_000, 1000, "int32", 16),
)
#: Divisor of every row count for the self-test scale.
TINY_DIVISOR = 100
#: Cycles per latency window: a run holds only a dozen or so cycles,
#: too few for a p99 with ten samples beyond it, so latencies are taken
#: per window of cycles and the median window is reported.
WINDOW_CYCLES = 4


class BatchWorkload(Workload):
    name = "batch"

    def generate(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.batches: List[Tuple[str, np.ndarray]] = []
        for label, rows, row_len, dtype, distinct in SHAPES:
            if self.ctx.tiny:
                rows //= TINY_DIVISOR
            if distinct:
                data = rng.integers(0, distinct, size=(rows, row_len), dtype=dtype)
            else:
                data = rng.random((rows, row_len), dtype=dtype)
            self.batches.append((label, data))
            self.input_bytes[label] = int(data.nbytes)
        self.sorter = None

    def teardown(self) -> None:
        if self.sorter is not None and self.sorter.workspace is not None:
            self.sorter.workspace.close()
        self.sorter = None

    def _sort(self, data: np.ndarray, label: str) -> float:
        """Seconds one timed sort of ``data`` took (checked afterwards)."""
        t0 = time.perf_counter()
        result = self.sorter.sort(data)
        elapsed = time.perf_counter() - t0
        # Arena-backed result: valid until the next sort, so check now.
        self.ctx.oracle.check_source(result.batch, data, label)
        return elapsed

    def setup(self) -> float:
        from repro import GpuArraySort

        self.teardown()
        reset_planner(self.ctx.workdir)
        spent = 0.0
        t0 = time.perf_counter()
        self.sorter = GpuArraySort(planner="auto")
        self.sorter.planner.profile  # calibrate against the empty cache
        spent += time.perf_counter() - t0
        for label, data in self.batches:
            spent += warm_until_observed(self.sorter, data, self.ctx.oracle, f"warm-up {label}")
        return spent

    def measure(self) -> Dict[str, float]:
        planner = self.sorter.planner
        counts_before = planner.plan_counts()
        tracer = self.ctx.tracer
        arenas_before = arena_allocations(tracer) if tracer else {}
        large: List[float] = []
        small: List[float] = []
        cycle_rates: List[float] = []
        cycle_ops: List[float] = []
        start = time.perf_counter()
        while True:
            busy = 0.0
            elements = 0
            for label, data in self.batches:
                elapsed = self._sort(data, label)
                busy += elapsed
                elements += data.size
                (large if label == "A" else small).append(elapsed * 1e3)
            cycle_rates.append(elements / busy)
            cycle_ops.append(len(self.batches) / busy)
            if time.perf_counter() - start >= self.ctx.seconds and len(cycle_rates) >= 2:
                break
        self.window = (start, time.perf_counter())
        self.arenas_before = arenas_before
        self.engines = plan_engines(diff_counts(planner.plan_counts(), counts_before))
        self.samples = {"latency": len(large), "low.latency": len(small),
                        "cycles": len(cycle_rates)}
        p50, p99 = windowed(large, WINDOW_CYCLES)
        low_p50, low_p99 = windowed(small, WINDOW_CYCLES * (len(self.batches) - 1))
        return {
            "elements_per_s": median(cycle_rates),
            "latency_ms_p50": p50,
            "latency_ms_p99": p99,
            "low.latency_ms_p50": low_p50,
            "low.latency_ms_p99": low_p99,
            "max_rate_rps": median(cycle_ops),
        }

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return core_and_planner(tracer, tracer.spans, self.window, self.arenas_before)
