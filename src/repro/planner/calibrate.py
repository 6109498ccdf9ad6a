"""One-time host micro-calibration backing the execution planner.

ISSUE 3's planner is "seeded by a one-time micro-calibration whose
results persist to a JSON cache (``~/.cache/repro/planner.json``,
overridable)".  This module owns that lifecycle:

* :func:`calibrate_host` — a ~quarter-second micro-benchmark measuring
  the scalars of :class:`~repro.planner.model.HostProfile` (in-place
  sort throughput, memcpy bandwidth, gather cost, thread pool/task
  overhead, 2-way thread efficiency).  Process spawn cost is *not*
  measured — forking a pool just to time it would cost more than every
  planning decision it informs — so the conservative default stands
  until online observation corrects it.
* :func:`load_profile` / :func:`save_profile` — JSON cache round-trip
  with a host fingerprint guard, so a cache copied between machines (or
  surviving a core-count change inside a container) is discarded rather
  than trusted.
* :func:`load_or_calibrate` — the planner's entry point: cache hit if
  fingerprints match, else calibrate and persist best-effort.

The cache path resolves as ``$REPRO_PLANNER_CACHE`` ->
``~/.cache/repro/planner.json``; the file also stores the planner's
observed per-shape timings (see ``ExecutionPlanner.save``), which is why
its schema is versioned independently of the bench schema.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .model import ENGINE_NAMES, HostProfile

__all__ = [
    "CACHE_ENV",
    "CACHE_SCHEMA",
    "default_cache_path",
    "host_fingerprint",
    "calibrate_host",
    "load_profile",
    "save_profile",
    "load_or_calibrate",
]

#: Environment variable overriding the cache file location.
CACHE_ENV = "REPRO_PLANNER_CACHE"
#: Schema tag written into the cache file.  v2: the host fingerprint
#: gained the engine set, so a v1 cache (calibrated before the radix
#: engine existed, hence without ``radix_pass_ns``) reads as a miss and
#: is recalibrated instead of silently reused.  v3: the ``thread`` engine
#: became sharded radix; a v2 cache's ``thread`` EMAs timed the slower
#: sharded fused pipeline and would keep the new engine from ever being
#: explored, so they read as a miss too.
CACHE_SCHEMA = "repro-planner-cache/v3"


def default_cache_path() -> Path:
    """``$REPRO_PLANNER_CACHE`` if set, else ``~/.cache/repro/planner.json``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "planner.json"


def host_fingerprint() -> str:
    """Stable identifier for "same host, same toolchain" cache validity.

    Includes the planner's engine set: a profile calibrated when the
    planner knew fewer engines is missing cost terms for the new ones,
    so an engine-set change must invalidate the cache exactly like a
    core-count change would.
    """
    return "|".join(
        [
            platform.machine(),
            platform.system(),
            f"cpus={os.cpu_count() or 1}",
            f"numpy={np.__version__}",
            f"engines={','.join(ENGINE_NAMES)}",
        ]
    )


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_host(*, rows: int = 256, row_len: int = 1024) -> HostProfile:
    """Measure this host's :class:`HostProfile` (~0.2-0.3 s).

    Sizes are chosen so each probe runs in single-digit milliseconds but
    exceeds L2, which is what the planner's batches look like.
    """
    rng = np.random.default_rng(0xC0FFEE)
    base = rng.random((rows, row_len), dtype=np.float32)
    work = np.empty_like(base)
    n_elems = rows * row_len
    log_n = max(1.0, np.log2(row_len))

    # In-place row sort: ns per element*log2(n).
    def probe_sort() -> None:
        work[:] = base
        work.sort(axis=1)

    # Subtract the copy so the sort term is isolated below.
    copy_s = _best_of(lambda: np.copyto(work, base))
    sort_s = max(1e-9, _best_of(probe_sort) - copy_s)
    sort_ns = sort_s * 1e9 / (n_elems * log_n)
    copy_ns_per_byte = copy_s * 1e9 / base.nbytes

    # Fancy-index gather, the shape phase 1 and metadata recovery use.
    cols = np.arange(0, row_len, 8)
    gather_out = np.empty((rows, cols.size), dtype=np.float32)
    gather_s = _best_of(lambda: np.take(base, cols, axis=1, out=gather_out))
    gather_ns = gather_s * 1e9 / (rows * cols.size)

    # Thread pool construction + per-task dispatch overhead.
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        pool_up = time.perf_counter() - t0
        t0 = time.perf_counter()
        list(pool.map(lambda _: None, range(32)))
        task_s = (time.perf_counter() - t0) / 32

        # 2-way thread efficiency on the actual workload shape.
        half = rows // 2

        def shard(lo_hi: Tuple[int, int]) -> None:
            lo, hi = lo_hi
            work[lo:hi].sort(axis=1)

        def probe_threads() -> None:
            work[:] = base
            list(pool.map(shard, [(0, half), (half, rows)]))

        threaded_s = max(1e-9, _best_of(probe_threads) - copy_s)
    efficiency = min(1.0, max(0.1, sort_s / (2.0 * threaded_s)))

    # One interpreted LSD digit-pass round on a small key batch: prices
    # the radix engine's non-comparison strategy honestly (it is slow on
    # a NumPy host — that is the point of measuring rather than hoping).
    from ..core.radix import radix_sort_rows  # local: avoids import cycle

    radix_rows, radix_len = 64, 512
    radix_work = rng.integers(
        0, 2**32, (radix_rows, radix_len), dtype=np.uint32
    )
    radix_buf = np.empty_like(radix_work)
    radix_passes = 4  # uint32 keys, byte digits

    def probe_radix() -> None:
        np.copyto(radix_buf, radix_work)
        radix_sort_rows(radix_buf, strategy="lsd", digit_bits=8)

    radix_copy_s = _best_of(lambda: np.copyto(radix_buf, radix_work))
    radix_s = max(1e-9, _best_of(probe_radix) - radix_copy_s)
    radix_pass_ns = radix_s * 1e9 / (radix_rows * radix_len * radix_passes)

    return HostProfile(
        cpu_count=max(1, os.cpu_count() or 1),
        sort_ns=float(sort_ns),
        copy_ns_per_byte=float(copy_ns_per_byte),
        gather_ns=float(gather_ns),
        thread_efficiency=float(efficiency),
        thread_task_us=float(task_s * 1e6),
        thread_pool_us=float(pool_up * 1e6),
        radix_pass_ns=float(radix_pass_ns),
        calibrated=True,
    )


def load_profile(
    path: Optional[Path] = None,
) -> Tuple[Optional[HostProfile], Dict[str, object]]:
    """``(profile, observations)`` from the cache, or ``(None, {})``.

    Rejects unreadable files, wrong schemas, and fingerprint mismatches
    — every rejection means "recalibrate", never an exception.
    """
    path = path or default_cache_path()
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None, {}
    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
        return None, {}
    if data.get("fingerprint") != host_fingerprint():
        return None, {}
    profile_data = data.get("profile")
    if not isinstance(profile_data, dict):
        return None, {}
    try:
        profile = HostProfile.from_dict(profile_data)
    except TypeError:
        return None, {}
    observations = data.get("observations")
    if not isinstance(observations, dict):
        observations = {}
    return profile, observations


def save_profile(
    profile: HostProfile,
    observations: Optional[Dict[str, object]] = None,
    path: Optional[Path] = None,
) -> bool:
    """Best-effort atomic write of the cache; returns success.

    Concurrency contract: the payload is staged in a per-call unique
    temp file *in the target directory* (``tempfile.mkstemp``, so
    racing threads never share a staging path — a per-PID name is not
    enough once the sort service's worker threads autosave) and
    published with ``os.replace``.  Any number of processes or threads
    racing can only ever leave one writer's complete file — never an
    interleaving.  Readers either see a whole valid cache or, per
    :func:`load_profile`, treat anything else as a cache miss.

    A read-only cache dir (CI sandboxes) silently disables persistence —
    the planner still works, it just recalibrates next process.
    """
    path = Path(path or default_cache_path())
    payload = {
        "schema": CACHE_SCHEMA,
        "fingerprint": host_fingerprint(),
        "profile": profile.as_dict(),
        "observations": observations or {},
    }
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".tmp", dir=path.parent
        )
        tmp = Path(tmp_name)
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
            handle.flush()
            # fsync before the rename: otherwise the rename can become
            # durable before the data and a crash leaves an empty cache
            # that fingerprints as valid JSON truncation, not a miss.
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return True
    except OSError:
        # Don't leave a stale temp file behind a failed publish.
        if tmp is not None:
            try:
                tmp.unlink()
            except OSError:
                pass
        return False


def load_or_calibrate(
    path: Optional[Path] = None,
) -> Tuple[HostProfile, Dict[str, object]]:
    """Cached profile when valid for this host, else calibrate and persist."""
    profile, observations = load_profile(path)
    if profile is not None and profile.calibrated:
        return profile, observations
    profile = calibrate_host()
    save_profile(profile, observations, path)
    return profile, observations
