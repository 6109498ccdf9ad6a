"""``spill``: ``CapacitySorter("32M").run`` from a file into a spill directory.

The input is a ``BatchFile`` of 40 000 x 1000 f64 (320 MB, ten times the
budget, about 51 chunks).  Each job sorts it into a fresh spill
directory and then reads the sorted result back with
``iter_chunks(verify=True)``.  Crash-safe writes (fsync, CRC, manifest,
checkpoint) dominate, and the readback adds reads beside the writes;
``batch`` and ``serve`` never reach this layer.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List

import numpy as np

from .common import (
    diff_counts, median, plan_engines, proc_wchar, reset_planner,
    warm_until_observed, windowed,
)
from .layers import arena_allocations, core_and_planner, in_window, named
from .tracer import Tracer, has_ancestor
from .workload import Workload

ROWS = 40_000
ROW_LEN = 1000
DTYPE = np.float64
BUDGET = "32M"
TINY_ROWS = 400
TINY_BUDGET = "1M"
BLOCK_ROWS = 4096


class SpillWorkload(Workload):
    name = "spill"
    setup_reps = 7

    def generate(self) -> None:
        from repro.outofcore import write_batch_file

        self.rows = TINY_ROWS if self.ctx.tiny else ROWS
        self.budget = TINY_BUDGET if self.ctx.tiny else BUDGET
        seed = self.ctx.seed

        def block(index: int, start: int, count: int) -> np.ndarray:
            return np.random.default_rng([seed, index]).random((count, ROW_LEN))

        path = self.ctx.workdir.fresh("input").with_suffix(".bin")
        self.source = write_batch_file(path, block, rows=self.rows, row_len=ROW_LEN,
                                       dtype=DTYPE, block_rows=BLOCK_ROWS)
        self.input_bytes["batch_file"] = int(self.source.nbytes)
        self.capacity = None

    def setup(self) -> float:
        from repro import GpuArraySort
        from repro.outofcore import CapacitySorter

        reset_planner(self.ctx.workdir)
        spent = 0.0
        t0 = time.perf_counter()
        self.capacity = CapacitySorter(self.budget)
        plan = self.capacity.plan(self.rows, ROW_LEN, DTYPE)
        sorter = GpuArraySort(planner="auto")
        sorter.planner.profile  # calibrate against the empty cache
        spent += time.perf_counter() - t0
        # The chunk shapes the run will send: full chunks and the tail.
        tail = self.rows - (plan.num_chunks - 1) * plan.chunk_rows
        for rows in sorted({plan.chunk_rows, tail}):
            data = self._input_rows(0, rows)
            spent += warm_until_observed(sorter, data, self.ctx.oracle, "warm-up sort")
        sorter.workspace.close()
        self.chunk_rows = plan.chunk_rows
        return spent

    def _input_rows(self, start: int, count: int) -> np.ndarray:
        """Input rows read by the benchmark itself, not the program."""
        offset = start * ROW_LEN * np.dtype(DTYPE).itemsize
        data = np.fromfile(self.source.path, dtype=DTYPE, count=count * ROW_LEN,
                           offset=offset)
        return data.reshape(count, ROW_LEN)

    def _job(self, index: int) -> Dict[str, object]:
        oracle = self.ctx.oracle
        spill_dir = self.ctx.workdir.fresh("spill")
        commits: List[float] = []
        self.capacity.progress = lambda info: commits.append(time.perf_counter())
        wchar = proc_wchar()
        t0 = time.perf_counter()
        result = self.capacity.run(self.source, spill_dir=spill_dir)
        t1 = time.perf_counter()
        written = proc_wchar() - wchar
        intervals = np.diff([t0] + commits) * 1e3

        reads: List[float] = []
        buffer = np.empty((self.chunk_rows, ROW_LEN), dtype=DTYPE)
        chunks = result.store.iter_chunks(verify=True)
        covered = 0
        while True:
            r0 = time.perf_counter()
            try:
                start, chunk = next(chunks)
            except StopIteration:
                break
            count = chunk.shape[0]
            buffer[:count] = chunk
            reads.append((time.perf_counter() - r0) * 1e3)
            del chunk
            if start != covered:
                oracle.note_failure(f"job {index}", f"chunk at row {start}, expected {covered}")
            oracle.check_source(buffer[:count], self._input_rows(start, count),
                                f"job {index} rows {start}..{start + count}")
            covered = start + count
        if covered != self.rows:
            oracle.note_failure(f"job {index}", f"{covered} of {self.rows} rows read back")
        shutil.rmtree(spill_dir, ignore_errors=True)
        return {"wall": t1 - t0, "window": (t0, t1), "intervals": intervals,
                "reads": reads, "chunks": result.stats.chunks_committed,
                "written": written}

    def measure(self) -> Dict[str, float]:
        from repro.planner import get_default_planner

        planner = get_default_planner()
        counts_before = planner.plan_counts()
        tracer = self.ctx.tracer
        self.arenas_before = arena_allocations(tracer) if tracer else {}
        self.jobs: List[Dict[str, object]] = []
        start = time.perf_counter()
        while True:
            self.jobs.append(self._job(len(self.jobs)))
            if time.perf_counter() - start >= self.ctx.seconds and len(self.jobs) >= 2:
                break
        self.window = (start, time.perf_counter())
        self.engines = plan_engines(diff_counts(planner.plan_counts(), counts_before))
        elements = self.rows * ROW_LEN
        intervals = np.concatenate([j["intervals"] for j in self.jobs])
        reads = np.concatenate([j["reads"] for j in self.jobs])
        self.samples = {"jobs": len(self.jobs), "latency": int(intervals.size),
                        "low.latency": int(reads.size)}
        # One latency window per job: a job's ~51 chunks are too few for
        # a p99 with ten samples beyond it, so report the median job.
        per_job = len(self.jobs[0]["intervals"])
        p50, p99 = windowed(intervals, per_job)
        low_p50, low_p99 = windowed(reads, per_job)
        return {
            "elements_per_s": median([elements / j["wall"] for j in self.jobs]),
            "latency_ms_p50": p50,
            "latency_ms_p99": p99,
            "low.latency_ms_p50": low_p50,
            "low.latency_ms_p99": low_p99,
            "max_rate_rps": median([j["chunks"] / j["wall"] for j in self.jobs]),
        }

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        spans = tracer.spans
        out = core_and_planner(tracer, spans, self.window, self.arenas_before)
        timed = in_window(spans, self.window)
        index = {s[0]: s for s in spans}
        jobs = len(self.jobs)

        def per_job_ms(name: str) -> float:
            picked = [s for s in named(timed, name)
                      if has_ancestor(s, "outofcore.run", index)]
            return sum(s[4] - s[3] for s in picked) * 1e3 / jobs

        # The planner's autosave also fsyncs, from inside a chunk's sort.
        fsyncs = [s for s in named(timed, "os.fsync")
                  if has_ancestor(s, "outofcore.run", index)
                  and not has_ancestor(s, "planner.save", index)]
        runs = named(timed, "outofcore.run")
        run_ms = sum(s[4] - s[3] for s in runs) * 1e3 / jobs
        parts = {key: per_job_ms(f"outofcore.{key}") for key in ("read", "commit", "checkpoint")}
        sort_ms = per_job_ms("core.sort")
        readback = [sum(j["reads"]) for j in self.jobs]
        out.update({
            "outofcore.chunks": float(median([j["chunks"] for j in self.jobs])),
            "outofcore.read_ms": parts["read"],
            "outofcore.sort_ms": sort_ms,
            "outofcore.commit_ms": parts["commit"],
            "outofcore.checkpoint_ms": parts["checkpoint"],
            "outofcore.fsyncs": len(fsyncs) / jobs,
            "outofcore.fsync_ms": sum(s[4] - s[3] for s in fsyncs) * 1e3 / jobs,
            "outofcore.write_amp": float(np.mean(
                [j["written"] / self.source.nbytes for j in self.jobs])),
            "outofcore.readback_ms": median(readback),
            "outofcore.read_elements_per_s": self.rows * ROW_LEN / (median(readback) / 1e3),
            "outofcore.unattributed_frac": (
                (run_ms - sort_ms - sum(parts.values())) / run_ms if run_ms else 0.0),
        })
        return out
