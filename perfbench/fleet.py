"""``fleet``: ``SortFleet(workers=nproc, planner="auto", linger_ms=0.5)``.

One generator thread drives it closed-loop, keeping 2 x workers requests
outstanding (then, for the light-load figures, one).  Requests are 64
or 256 rows x 1000 f32, an exact half/half mix in seeded order.  The run
is compute-bound and saturating, so it measures shared-memory staging,
routing and worker IPC, with the service layer inside each worker
handling large requests instead of ``serve``'s small ones.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import Dict, List

import numpy as np

from .common import (
    diff_counts, median, peak_rss_mb, plan_engines, proc_hwm_mb, reset_planner,
    warm_until_observed, windowed,
)
from .layers import core_and_planner, named
from .tracer import Tracer
from .workload import Workload

WORKERS = os.cpu_count() or 1
ROWS = (64, 256)
ROW_LEN = 1000
VARIANTS = 16
LINGER_MS = 0.5
#: Share of the measured seconds at 2 x workers in flight; the rest runs
#: with one request in flight (the light-load figures).
MAIN_SHARE = 0.6
#: Worker batch sizes (log2 rows) the pre-fork warm-up explores: one to
#: four requests of 64..256 rows per batch.
WARM_LOG2_ROWS = range(6, 11)
WARM_REQUESTS_PER_WORKER = 4
#: Sampling period of the router's outstanding rows (traced runs only).
SAMPLE_PERIOD_S = 0.05
TIMEOUT_S = 60.0


def size_mean_p50(loop: Dict) -> float:
    """Mean over request sizes of each size's windowed p50.

    The mix is half 64-row and half 256-row requests, so the pooled
    median falls in the gap between the two sizes' latencies and jumps
    with the last few requests of either; each size's own median does
    not.
    """
    return float(np.mean([windowed(lat)[0] for lat in loop["by_rows"].values()]))


class FleetWorkload(Workload):
    name = "fleet"
    setup_reps = 7

    def generate(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.pool = {rows: [rng.random((rows, ROW_LEN), dtype=np.float32)
                            for _ in range(VARIANTS)] for rows in ROWS}
        self.refs = {rows: [np.sort(a, axis=1) for a in arrays]
                     for rows, arrays in self.pool.items()}
        order = np.repeat(np.arange(len(ROWS)), 2048)
        rng.shuffle(order)
        self.order = [(ROWS[k], int(v)) for k, v in
                      zip(order, rng.integers(0, VARIANTS, size=order.size))]
        self.cursor = 0
        self.input_bytes["request_pool"] = int(sum(
            a.nbytes for arrays in self.pool.values() for a in arrays))
        self.warm_rng_seed = int(rng.integers(1 << 31))
        self.fleet = None

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.close(drain=True, timeout=TIMEOUT_S)
        self.fleet = None

    def _next_request(self):
        rows, variant = self.order[self.cursor % len(self.order)]
        self.cursor += 1
        return rows, variant

    def _trace_workers(self) -> None:
        """Fork workers whose spans are dumped to a file when they stop."""
        import repro.fleet.fleet as fleet_mod

        tracer = self.ctx.tracer
        directory = self.ctx.workdir.fresh("worker-spans")
        directory.mkdir()
        original = fleet_mod.worker_main

        def traced_worker_main(worker_id, *args):
            tracer.reset()
            try:
                original(worker_id, *args)
            finally:
                tracer.dump(str(directory / f"worker-{worker_id}.json"))

        tracer.replace(fleet_mod, "worker_main", traced_worker_main)
        self.span_dir = directory

    def setup(self) -> float:
        from repro import GpuArraySort, SortFleet

        self.teardown()
        reset_planner(self.ctx.workdir)
        rng = np.random.default_rng(self.warm_rng_seed)
        spent = 0.0
        t0 = time.perf_counter()
        # Warm the process-wide planner before the fork: every worker
        # inherits its calibration and the end of its exploration.
        sorter = GpuArraySort(planner="auto")
        sorter.planner.profile
        spent += time.perf_counter() - t0
        for log2_rows in WARM_LOG2_ROWS:
            data = rng.random((1 << log2_rows, ROW_LEN), dtype=np.float32)
            spent += warm_until_observed(sorter, data, self.ctx.oracle, "warm-up sort")
        sorter.workspace.close()
        if self.ctx.tracer is not None:
            self._trace_workers()
        t0 = time.perf_counter()
        self.fleet = SortFleet(workers=WORKERS, planner="auto", linger_ms=LINGER_MS)
        spent += time.perf_counter() - t0
        warm = self._closed_loop(2 * WORKERS, None, WARM_REQUESTS_PER_WORKER * WORKERS)
        return spent + warm["elapsed"]

    def _closed_loop(self, in_flight: int, seconds, max_requests=None) -> Dict:
        """Keep ``in_flight`` requests outstanding until ``seconds`` pass
        (or ``max_requests`` were sent); check each result as it lands,
        after its replacement is already submitted."""
        fleet = self.fleet
        oracle = self.ctx.oracle
        pending: Dict[concurrent.futures.Future, tuple] = {}
        latencies: List[float] = []
        by_rows: Dict[int, List[float]] = {rows: [] for rows in ROWS}
        samples: List[float] = []
        elements = sent = 0
        sample_next = 0.0
        tracing = self.ctx.tracer is not None

        def stamp(future) -> None:
            # Kept on the future itself: a side table would keep every
            # result alive.
            future.done_at = time.perf_counter()

        def submit() -> None:
            nonlocal sent
            rows, variant = self._next_request()
            t0 = time.perf_counter()
            try:
                future = fleet.submit(self.pool[rows][variant])
            except Exception as exc:  # rejected: counts as failed
                oracle.note_failure(f"fleet request {sent}", repr(exc))
                return
            sent += 1
            future.add_done_callback(stamp)
            pending[future] = (t0, rows, variant)

        start = time.perf_counter()
        last_done = start

        def more() -> bool:
            if max_requests is not None:
                return sent < max_requests
            return time.perf_counter() - start < seconds

        for _ in range(in_flight):
            submit()
        while pending:
            finished, _ = concurrent.futures.wait(
                pending, timeout=TIMEOUT_S,
                return_when=concurrent.futures.FIRST_COMPLETED)
            if not finished:
                for future in pending:
                    oracle.note_failure("fleet request", "not completed")
                break
            replaced = []
            for future in finished:
                replaced.append((future, pending.pop(future)))
                if more():
                    submit()
            for future, (t0, rows, variant) in replaced:
                exc = future.exception()
                if exc is not None:
                    oracle.note_failure("fleet request", repr(exc))
                    continue
                finished_at = getattr(future, "done_at", time.perf_counter())
                last_done = max(last_done, finished_at)
                if oracle.check_ref(future.result(), self.refs[rows][variant],
                                    f"fleet request {rows}x{ROW_LEN}"):
                    latencies.append((finished_at - t0) * 1e3)
                    by_rows[rows].append((finished_at - t0) * 1e3)
                    elements += rows * ROW_LEN
            if tracing and time.perf_counter() >= sample_next:
                sample_next = time.perf_counter() + SAMPLE_PERIOD_S
                workers = fleet.stats().workers.values()
                samples.append(float(np.mean([w.outstanding_rows for w in workers])))
        return {"latencies": latencies, "by_rows": by_rows, "elements": elements,
                "elapsed": last_done - start, "window": (start, last_done),
                "outstanding": samples}

    def measure(self) -> Dict[str, float]:
        fleet = self.fleet
        before = fleet.stats()
        main = self._closed_loop(2 * WORKERS, MAIN_SHARE * self.ctx.seconds)
        middle = fleet.stats()
        low = self._closed_loop(1, (1.0 - MAIN_SHARE) * self.ctx.seconds)
        self.window = (main["window"][0], low["window"][1])
        self.main, self.before, self.middle = main, before, middle
        self.engines = plan_engines(diff_counts(
            fleet.stats().frontend.planner_engine_counts,
            before.frontend.planner_engine_counts))
        self.rss_mb = peak_rss_mb() + sum(
            proc_hwm_mb(w.pid) for w in middle.workers.values() if w.pid)
        self.samples = {"latency": len(main["latencies"]),
                        "low.latency": len(low["latencies"]), "workers": WORKERS}
        completed = len(main["latencies"])
        _, p99 = windowed(main["latencies"])
        _, low_p99 = windowed(low["latencies"])
        return {
            "elements_per_s": main["elements"] / main["elapsed"],
            "latency_ms_p50": size_mean_p50(main),
            "latency_ms_p99": p99,
            "low.latency_ms_p50": size_mean_p50(low),
            "low.latency_ms_p99": low_p99,
            "max_rate_rps": completed / main["elapsed"],
        }

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        # Workers write their spans when they stop.
        self.teardown()
        spans = list(tracer.spans)
        for index, path in enumerate(sorted(self.span_dir.glob("worker-*.json"))):
            offset = (index + 1) * 10 ** 9
            for span in Tracer.load(str(path)):
                span[0] += offset
                span[1] = span[1] + offset if span[1] else 0
                spans.append(span)
        self.trace_spans = spans
        out = core_and_planner(tracer, spans, self.window, {}, arenas_live=False)
        submits = [s for s in named(spans, "service.submit")
                   if self.window[0] <= s[3] <= self.window[1]]
        out["service.submit_us_p50"] = (
            median([(s[4] - s[3]) * 1e6 for s in submits]) if submits else 0.0)
        fleet_submits = [s for s in named(tracer.spans, "fleet.submit")
                         if self.main["window"][0] <= s[3] <= self.main["window"][1]]
        out["fleet.submit_us_p50"] = (
            median([(s[4] - s[3]) * 1e6 for s in fleet_submits]) if fleet_submits else 0.0)

        before, after = self.before, self.middle
        done = [after.workers[k].completed - before.workers[k].completed
                for k in after.workers]
        out["fleet.worker_imbalance"] = (
            max(done) / float(np.mean(done)) - 1.0 if sum(done) else 0.0)

        def worker_sum(stats, key: str) -> int:
            return sum(int(w.service.get(key, 0)) for w in stats.workers.values())

        batches = worker_sum(after, "batches") - worker_sum(before, "batches")
        rows = worker_sum(after, "batched_rows") - worker_sum(before, "batched_rows")
        completed = worker_sum(after, "completed") - worker_sum(before, "completed")
        out["fleet.rows_per_batch_mean"] = rows / batches if batches else 0.0
        out["service.batches"] = float(batches)
        out["service.rows_per_batch_mean"] = rows / batches if batches else 0.0
        out["service.requests_per_batch_mean"] = completed / batches if batches else 0.0
        for key in ("rejected", "shed", "deadline_missed"):
            out[f"service.{key}"] = float(worker_sum(after, key) - worker_sum(before, key))
        outstanding = self.main["outstanding"]
        out["fleet.outstanding_mean"] = float(np.mean(outstanding)) if outstanding else 0.0
        out["fleet.redispatched"] = float(after.redispatched - before.redispatched)
        out["fleet.rejected"] = float(after.frontend.rejected - before.frontend.rejected)
        return out
