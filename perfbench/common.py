"""Shared pieces of the benchmark: oracle, statistics, host facts, scratch.

Everything here is benchmark-side code.  The program under test is only
ever reached through its public entry points (``repro.core``,
``repro.service``, ``repro.fleet``, ``repro.outofcore``,
``repro.planner``).
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Rows per oracle block: small enough that the reference sort of one
#: block stays far below the inputs' own footprint.
ORACLE_BLOCK_ROWS = 4096


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); ``nan`` when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Samples per latency window: a window's p99 has ten samples beyond it.
WINDOW_SAMPLES = 1000


def windowed(latencies, window: int = WINDOW_SAMPLES) -> Tuple[float, float]:
    """Median over consecutive windows of each window's p50 and p99.

    A stall then moves the one window it falls in, not the whole run's
    tail.  ``nan`` entries (failed operations, counted as failures
    elsewhere) are left out.  Fewer samples than two windows make one.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    p50s, p99s = [], []
    for chunk in np.array_split(latencies, max(1, latencies.size // window)):
        chunk = chunk[~np.isnan(chunk)]
        if chunk.size:
            p50s.append(percentile(chunk, 50.0))
            p99s.append(percentile(chunk, 99.0))
    return median(p50s), median(p99s)


class Oracle:
    """Byte-identical check of every result against ``np.sort``.

    This is the ``check_sorted`` pattern hardened to exact bytes: the
    expected rows are ``np.sort(source, axis=1)`` and the comparison is
    over the raw bytes, so ``-0.0`` vs ``+0.0``, NaN payloads and dtype
    changes all count as wrong.  Checks always run outside the timed
    regions.  Large sources are re-sorted block by block on a small
    thread pool (``np.sort`` releases the GIL) so no full-size reference
    copy is ever held.
    """

    def __init__(self, threads: int = 2) -> None:
        self.checked = 0
        self.mismatches = 0
        self.first_error: Optional[str] = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="perfbench-oracle"
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def _fail(self, label: str, why: str) -> bool:
        self.mismatches += 1
        if self.first_error is None:
            self.first_error = f"{label}: {why}"
        return False

    @staticmethod
    def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
        if got.dtype != want.dtype or got.shape != want.shape:
            return False
        a = np.ascontiguousarray(got).reshape(-1).view(np.uint8)
        b = np.ascontiguousarray(want).reshape(-1).view(np.uint8)
        return bool(np.array_equal(a, b))

    def check_ref(self, got, want: np.ndarray, label: str) -> bool:
        """Compare ``got`` with a precomputed ``np.sort`` reference."""
        self.checked += 1
        got = np.asarray(got)
        if got.dtype != want.dtype or got.shape != want.shape:
            return self._fail(
                label, f"got {got.shape} {got.dtype}, want {want.shape} {want.dtype}"
            )
        if not self._same_bytes(got, want):
            return self._fail(label, "bytes differ from np.sort")
        return True

    def check_source(self, got, source: np.ndarray, label: str) -> bool:
        """Compare ``got`` with ``np.sort(source, axis=1)``, blockwise."""
        self.checked += 1
        got = np.asarray(got)
        if got.dtype != source.dtype or got.shape != source.shape:
            return self._fail(
                label,
                f"got {got.shape} {got.dtype}, want {source.shape} {source.dtype}",
            )

        def block(start: int) -> bool:
            stop = min(start + ORACLE_BLOCK_ROWS, source.shape[0])
            want = np.sort(source[start:stop], axis=1)
            return self._same_bytes(got[start:stop], want)

        starts = range(0, source.shape[0], ORACLE_BLOCK_ROWS)
        if not all(self._pool.map(block, starts)):
            return self._fail(label, "bytes differ from np.sort")
        return True

    def note_failure(self, label: str, why: str) -> None:
        """Count an operation that produced no result at all."""
        self.checked += 1
        self._fail(label, why)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """``VmHWM`` of another live process, MiB (0.0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_wchar() -> int:
    """Bytes this process has passed to write syscalls (``/proc/self/io``)."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _llc_bytes() -> int:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best_level, best_size = 0, 0
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level >= best_level:
            best_level, best_size = level, size
    return best_size


def _ram_bytes() -> int:
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def host_facts() -> Dict[str, object]:
    """The host facts every run records next to its numbers."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "ram_bytes": _ram_bytes(),
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


class WorkDir:
    """A private scratch directory inside the checkout, removed on close.

    Holds the run's planner cache (``$REPRO_PLANNER_CACHE`` points here,
    so no run inherits another's observations or reads ``~/.cache``),
    spill directories and input files.
    """

    def __init__(self) -> None:
        parent = ROOT / ".perfbench"
        parent.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
        self._count = 0

    def fresh(self, stem: str) -> Path:
        """A new, not yet existing path under the work directory."""
        self._count += 1
        return self.path / f"{stem}-{self._count}"

    def fresh_planner_cache(self) -> Path:
        """Point ``$REPRO_PLANNER_CACHE`` at a new, empty cache file."""
        path = self.fresh("planner").with_suffix(".json")
        os.environ["REPRO_PLANNER_CACHE"] = str(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


#: Sorts allowed per shape before a warm-up stops waiting for the
#: planner to leave exploration (it tries at most four engines).
MAX_WARMUP_SORTS = 8


def warm_until_observed(sorter, data: np.ndarray, oracle: Oracle, label: str) -> float:
    """Sort ``data`` until the planner's plan for its shape class comes
    from observation, not exploration; return the seconds spent sorting
    (the oracle checks in between are not counted)."""
    spent = 0.0
    for _ in range(MAX_WARMUP_SORTS):
        t0 = time.perf_counter()
        result = sorter.sort(data)
        spent += time.perf_counter() - t0
        oracle.check_source(result.batch, data, label)
        if result.execution_plan.source == "observed":
            break
    return spent


def reset_planner(workdir: WorkDir) -> None:
    """Start from an empty planner cache and no process-wide planner."""
    from repro.planner import set_default_planner

    workdir.fresh_planner_cache()
    set_default_planner(None)


def plan_engines(counts: Dict[str, Dict[str, int]]) -> Dict[str, str]:
    """Most-chosen engine per shape class from ``plan_counts()`` output."""
    return {
        key: max(engines, key=engines.get)
        for key, engines in sorted(counts.items())
        if engines
    }


def diff_counts(
    after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """``after - before`` for nested plan-count dicts (zeros dropped)."""
    out: Dict[str, Dict[str, int]] = {}
    for key, engines in after.items():
        prior = before.get(key, {})
        for engine, count in engines.items():
            delta = count - prior.get(engine, 0)
            if delta:
                out.setdefault(key, {})[engine] = delta
    return out


#: ``prctl`` option that makes orphaned descendants re-parent to us.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process it starts.

    A grandchild whose parent exits (a worker's pool process, say) then
    becomes our child instead of init's, so :func:`stop_children` finds
    and waits for it.  Best effort: a no-op where ``prctl`` is missing.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def _child_pids() -> set:
    pids = set()
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except (OSError, ValueError):
            pass
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def _wait_or_kill(pids, grace_s: float) -> None:
    """Wait up to ``grace_s`` for ``pids`` to end, then TERM, then KILL."""
    pending = set(pids)
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in pending:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + grace_s
        while pending:
            pending = {pid for pid in pending if not _reaped(pid)}
            if not pending or time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        if not pending:
            return
    for pid in pending:  # after SIGKILL: block until it is gone
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Called after the workload's teardown.  Whatever is still running (a
    worker that did not exit, an adopted orphan) is given ``grace_s`` and
    then terminated.  Last goes multiprocessing's resource tracker, which
    the program's shared-memory use starts and which would otherwise
    outlive the run for as long as it takes to notice the run ended:
    closing its pipe makes it exit, and it is waited for here.
    """
    tracker_pid = None
    tracker = None
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        tracker_pid = tracker._pid
    except (ImportError, AttributeError):
        pass
    for _ in range(3):  # reaping one may orphan (and so adopt) another
        others = _child_pids() - {tracker_pid}
        if not others:
            break
        _wait_or_kill(others, grace_s)
    if tracker is not None and tracker_pid is not None:
        with tracker._lock:
            if tracker._fd is not None:
                os.close(tracker._fd)
                tracker._fd = None
            tracker._pid = None
        _wait_or_kill([tracker_pid], grace_s)
