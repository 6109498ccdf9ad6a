"""``serve``: an in-process ``SortService`` driven open-loop.

One generator thread submits on a fixed schedule, stepping the rate
through 250, 1000, 2000 and 4000 requests/s.  Each request is 1/2/4/16
rows (weights 0.5/0.25/0.15/0.1) of n in {256, 1024} f32; the mix is
exact per step and only its order depends on the seed.  Latency runs
from each request's due time to its future's completion, stamped by a
done-callback, so a stalled generator charges its wait to every request
behind it.  Batches are tens of rows: admission, queueing, linger,
dispatch and demux dominate and the engine barely shows.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Tuple

import numpy as np

from .common import (
    diff_counts, median, percentile, plan_engines, reset_planner,
    warm_until_observed, windowed,
)
from .layers import arena_allocations, core_and_planner, p99_or_zero
from .tracer import Tracer
from .workload import Workload

RATES = (250, 1000, 2000, 4000)
#: Share of the measured seconds spent at each rate.  The low and main
#: rates get the most: their latencies are reported (the main step's
#: p99 over as many windows as possible), while the other two steps
#: only decide ``max_rate_rps``.
STEP_SHARES = (0.3, 0.08, 0.54, 0.08)
MAIN_RATE = 2000
LOW_RATE = 250
ROW_MIX = ((1, 0.5), (2, 0.25), (4, 0.15), (16, 0.1))
ROW_LENS = (256, 1024)
#: Distinct arrays generated per (rows, n) class; requests reuse them.
VARIANTS = 16
LINGER_MS = 0.5
#: The latency limit a step must meet (p99, milliseconds).
LIMIT_MS = 20.0
#: A step also fails when the generator's mean lateness exceeds this
#: many inter-arrival gaps: it fell behind, so the offered load was
#: lower than stated.
LATE_GAPS = 4.0
DRAIN_TIMEOUT_S = 60.0
#: Batch sizes (log2 rows) the warm-up explores, per row length.
WARM_LOG2_ROWS = range(0, 10)
#: Idle time between steps, so one step's tail never overlaps the next.
STEP_GAP_S = 0.05


class _TimedBackend:
    """Delegating backend: stamps each batch's sort around the default
    ``GpuArraySort`` (traced runs only)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.batches: List[Tuple[float, float, int]] = []

    @property
    def planner(self):
        return self.inner.planner

    @property
    def workspace(self):
        return self.inner.workspace

    def sort(self, batch):
        t0 = time.perf_counter()
        result = self.inner.sort(batch)
        self.batches.append((t0, time.perf_counter(), int(batch.shape[0])))
        return result


def _exact_mix(rng, count: int, weights) -> np.ndarray:
    """``count`` class indices in exact proportion to ``weights``, shuffled."""
    raw = np.asarray(weights, dtype=np.float64) * count
    sizes = np.floor(raw).astype(int)
    for index in np.argsort(sizes - raw)[: count - sizes.sum()]:
        sizes[index] += 1
    mix = np.repeat(np.arange(len(weights)), sizes)
    rng.shuffle(mix)
    return mix


class ServeWorkload(Workload):
    name = "serve"
    setup_reps = 7

    def generate(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.pool: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self.refs: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for rows, _ in ROW_MIX:
            for row_len in ROW_LENS:
                arrays = [rng.random((rows, row_len), dtype=np.float32)
                          for _ in range(VARIANTS)]
                self.pool[rows, row_len] = arrays
                self.refs[rows, row_len] = [np.sort(a, axis=1) for a in arrays]
        self.steps: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        for rate, share in zip(RATES, STEP_SHARES):
            count = max(20, int(rate * share * self.ctx.seconds))
            rows = _exact_mix(rng, count, [w for _, w in ROW_MIX])
            lens = _exact_mix(rng, count, [0.5, 0.5])
            variants = rng.integers(0, VARIANTS, size=count)
            plan = [(ROW_MIX[r][0], ROW_LENS[n], int(v))
                    for r, n, v in zip(rows, lens, variants)]
            self.steps.append((rate, plan))
        self.input_bytes["request_pool"] = int(sum(
            a.nbytes for arrays in self.pool.values() for a in arrays))
        self.input_bytes["offered"] = int(sum(
            rows * row_len * 4 for _, plan in self.steps for rows, row_len, _ in plan))
        self.warm_rng_seed = int(rng.integers(1 << 31))
        self.service = None

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close(drain=True, timeout=30)
            workspace = getattr(self.service.sorter, "workspace", None)
            if workspace is not None:
                workspace.close()
        self.service = None

    def setup(self) -> float:
        from repro import GpuArraySort, SortService

        self.teardown()
        reset_planner(self.ctx.workdir)
        rng = np.random.default_rng(self.warm_rng_seed)
        spent = 0.0
        t0 = time.perf_counter()
        backend = None
        if self.ctx.tracer is not None:
            backend = _TimedBackend(GpuArraySort(planner="auto", workspace=True))
        self.service = SortService(planner="auto", linger_ms=LINGER_MS, backend=backend)
        sorter = self.service.sorter
        sorter.planner.profile  # calibrate against the empty cache
        spent += time.perf_counter() - t0
        # End the planner's exploration for every batch shape class the
        # service can form here, straight through its (idle) backend.
        for row_len in ROW_LENS:
            for log2_rows in WARM_LOG2_ROWS:
                data = rng.random((1 << log2_rows, row_len), dtype=np.float32)
                spent += warm_until_observed(sorter, data, self.ctx.oracle, "warm-up sort")
        # One request per class through the service itself: the batcher
        # thread and the copy-out path run once before timing.
        for (rows, row_len), arrays in self.pool.items():
            t0 = time.perf_counter()
            got = self.service.submit(arrays[0]).result(timeout=30)
            spent += time.perf_counter() - t0
            self.ctx.oracle.check_ref(got, self.refs[rows, row_len][0], "warm-up request")
        return spent

    # -- measured phase ----------------------------------------------------
    def _run_step(self, rate: int, plan) -> Dict[str, object]:
        service = self.service
        backend = service.sorter if isinstance(service.sorter, _TimedBackend) else None
        count = len(plan)
        done = np.full(count, np.nan)
        batch_of = np.full(count, -1, dtype=np.int64)
        late = np.zeros(count)
        # Outcomes are taken in the done-callback, so no future outlives
        # its completion: holding thousands of them would make the
        # collector's full passes, and so the latency tail, the
        # benchmark's own.
        outcomes: List[object] = [None] * count
        submitted = np.zeros(count, dtype=bool)

        def stamp(index: int, future) -> None:
            exc = future.exception()
            outcomes[index] = future.result() if exc is None else exc
            if backend is not None:
                batch_of[index] = len(backend.batches) - 1
            done[index] = time.perf_counter()

        gap = 1.0 / rate
        first = time.perf_counter() + 0.002
        due = first + np.arange(count) * gap
        for index, (rows, row_len, variant) in enumerate(plan):
            now = time.perf_counter()
            if due[index] > now:
                time.sleep(due[index] - now)
                now = time.perf_counter()
            late[index] = now - due[index]
            try:
                future = service.submit(self.pool[rows, row_len][variant])
            except Exception as exc:  # rejected: counts as failed, not timed
                outcomes[index] = exc
                continue
            submitted[index] = True
            future.add_done_callback(functools.partial(stamp, index))
        give_up = time.perf_counter() + DRAIN_TIMEOUT_S
        while np.isnan(done[submitted]).any() and time.perf_counter() < give_up:
            time.sleep(0.001)

        latencies = np.full(count, np.nan)
        elements = 0
        for index, outcome in enumerate(outcomes):
            rows, row_len, variant = plan[index]
            label = f"{rate} rps request {index}"
            if not isinstance(outcome, np.ndarray):
                why = "not completed" if outcome is None else repr(outcome)
                self.ctx.oracle.note_failure(label, why)
                continue
            if self.ctx.oracle.check_ref(outcome, self.refs[rows, row_len][variant], label):
                latencies[index] = (done[index] - due[index]) * 1e3
                elements += rows * row_len
        ok = latencies[~np.isnan(latencies)]
        finished = done[~np.isnan(done)]
        span = (finished.max() - due[0]) if finished.size else float("nan")
        backlog = int(count - np.sum(finished <= due[-1]))
        p50, p99 = windowed(latencies)
        late_ms = late * 1e3
        passed = (
            ok.size == count
            and percentile(ok, 99.0) <= LIMIT_MS
            and backlog <= max(1, rate * LIMIT_MS / 1e3)
            and float(late_ms.mean()) <= LATE_GAPS * gap * 1e3
        )
        step = {
            "rate": rate, "requests": count, "failed": count - int(ok.size),
            "p50_ms": p50, "p99_ms": p99, "step_p99_ms": percentile(ok, 99.0),
            "late_mean_ms": float(late_ms.mean()), "late_max_ms": float(late_ms.max()),
            "backlog_at_end": backlog, "passed": bool(passed),
            "achieved_rps": ok.size / span, "elements_per_s": elements / span,
            "late_ms": late_ms,
        }
        if backend is not None:
            step["due"], step["done"], step["batch_of"] = due, done, batch_of
        return step

    def measure(self) -> Dict[str, float]:
        service = self.service
        planner = service.sorter.planner
        counts_before = planner.plan_counts()
        tracer = self.ctx.tracer
        self.arenas_before = arena_allocations(tracer) if tracer else {}
        self.stats_before = service.stats()
        start = time.perf_counter()
        self.step_results = []
        for rate, plan in self.steps:
            self.step_results.append(self._run_step(rate, plan))
            time.sleep(STEP_GAP_S)
        self.window = (start, time.perf_counter())
        self.stats_after = service.stats()
        self.engines = plan_engines(diff_counts(planner.plan_counts(), counts_before))
        by_rate = {s["rate"]: s for s in self.step_results}
        main, low = by_rate[MAIN_RATE], by_rate[LOW_RATE]
        passing = [s for s in self.step_results if s["passed"]]
        best = max(passing, key=lambda s: s["rate"]) if passing else None
        self.samples = {
            f"{s['rate']}rps": {k: (round(v, 4) if isinstance(v, float) else v)
                                for k, v in s.items()
                                if k in ("requests", "failed", "p50_ms", "p99_ms",
                                         "step_p99_ms", "late_mean_ms", "late_max_ms",
                                         "backlog_at_end", "passed")}
            for s in self.step_results}
        return {
            "elements_per_s": main["elements_per_s"],
            "latency_ms_p50": main["p50_ms"],
            "latency_ms_p99": main["p99_ms"],
            "low.latency_ms_p50": low["p50_ms"],
            "low.latency_ms_p99": low["p99_ms"],
            "max_rate_rps": best["achieved_rps"] if best else 0.0,
        }

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = core_and_planner(tracer, tracer.spans, self.window, self.arenas_before)
        submits = [s for s in tracer.spans if s[2] == "service.submit"
                   and self.window[0] <= s[3] <= self.window[1]]
        out["service.submit_us_p50"] = (
            median([(s[4] - s[3]) * 1e6 for s in submits]) if submits else 0.0)
        backend: _TimedBackend = self.service.sorter
        waits, delivers = [], []
        for step in self.step_results:
            for due, done, batch in zip(step["due"], step["done"], step["batch_of"]):
                if batch < 0 or np.isnan(done):
                    continue
                start, end, _ = backend.batches[batch]
                waits.append((start - due) * 1e3)
                delivers.append((done - end) * 1e3)
        timed_batches = [b for b in backend.batches
                         if self.window[0] <= b[0] <= self.window[1]]
        before, after = self.stats_before, self.stats_after
        batches = after.batches - before.batches
        completed = after.completed - before.completed
        out.update({
            "service.wait_ms_p50": median(waits) if waits else 0.0,
            "service.wait_ms_p99": p99_or_zero(waits),
            "service.dispatch_ms_p50": (
                median([(e - s) * 1e3 for s, e, _ in timed_batches])
                if timed_batches else 0.0),
            "service.deliver_ms_p50": median(delivers) if delivers else 0.0,
            "service.batches": float(batches),
            "service.rows_per_batch_mean": (
                (after.batched_rows - before.batched_rows) / batches if batches else 0.0),
            "service.requests_per_batch_mean": completed / batches if batches else 0.0,
            "service.rejected": float(after.rejected - before.rejected),
            "service.shed": float(after.shed - before.shed),
            "service.deadline_missed": float(after.deadline_missed - before.deadline_missed),
        })
        late = np.concatenate([s["late_ms"] for s in self.step_results])
        out["gen.late_ms_p99"] = percentile(late, 99.0)
        out["gen.late_ms_max"] = float(late.max())
        return out
