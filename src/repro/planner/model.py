"""Host cost model: predicted milliseconds per candidate execution plan.

The paper's cost analysis (Section 6) prices the three phases in device
cycles; this module is the host-side analogue the adaptive planner uses
to *rank* candidate engines before it has seen a shape run.  The model
is deliberately coarse — a handful of calibrated scalars
(:class:`HostProfile`), each measured once per host by
:mod:`repro.planner.calibrate` — because it only needs to get the
*ordering* roughly right: the planner's online refinement
(:meth:`~repro.planner.planner.ExecutionPlanner.observe`) replaces model
predictions with measured wall times after the first few batches of a
shape, exactly like Dehne & Zaboli's deterministic sample sort re-tunes
its sampling parameters per input shape.

Terms priced per candidate:

* ``serial``  — work copy + phase 1 (sample gather/sort/pick) + fused
  in-place row sort + metadata recovery (batched binary search);
* ``radix``   — work copy + flat row sort with *no* phase-1 or metadata
  terms (the non-comparison engine, :mod:`repro.core.radix`), priced as
  the cheaper of the compiled in-place sort (``N·n·log n`` comparisons)
  and the LSD digit passes (``passes × N·n`` linear traffic — the
  paper's STA-style radix cost).  On a NumPy host the compiled sort
  wins; a device backend would flip the min;
* ``thread``  — sharded radix: the ``radix`` term divided by the
  measured effective parallelism, plus pool construction and per-shard
  dispatch.  (``parallel="thread"``, which shards the fused pipeline,
  is not a planner engine and is not priced here.)

The engine list is :data:`ENGINE_NAMES` — every branch and error
message derives from it, so adding an engine cannot leave a stale
hardcoded trio behind.  All constants are in nanoseconds (or
microseconds/milliseconds where named) so the defaults read naturally
against real hardware.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Dict

import numpy as np

from ..core.config import DEFAULT_CONFIG, SortConfig

__all__ = ["HostProfile", "DEFAULT_PROFILE", "predict_ms", "ENGINE_NAMES"]

#: Engines the planner may choose between.  All run in the caller's
#: process and sort the batch in its own memory; ``thread`` is the
#: ``radix`` row sort run on row shards across a thread pool.
ENGINE_NAMES = ("serial", "thread", "radix")


@dataclasses.dataclass(frozen=True)
class HostProfile:
    """Calibrated per-host constants consumed by :func:`predict_ms`.

    The defaults are conservative laptop-class numbers used when
    calibration has not run (``calibrated=False``); they keep the
    ordering sane (serial preferred until parallelism plausibly pays)
    without any disk or measurement dependency.
    """

    #: Logical cores visible to the process.
    cpu_count: int = 1
    #: ns per element·log2(n): in-place introsort of float32 rows.
    sort_ns: float = 4.0
    #: ns per byte: large contiguous memcpy.
    copy_ns_per_byte: float = 0.12
    #: ns per element: fancy-index gather (``np.take``-shaped traffic).
    gather_ns: float = 2.0
    #: Measured speedup of a 2-thread row sort over serial, divided by 2
    #: (1.0 = perfect scaling; ~0.5 on a single hardware core).
    thread_efficiency: float = 0.75
    #: µs per submitted shard task (future + queue + wakeup).
    thread_task_us: float = 60.0
    #: µs to construct/tear down one ThreadPoolExecutor.
    thread_pool_us: float = 250.0
    #: ns per element per digit pass: one interpreted LSD radix pass
    #: (histogram + scan + stable scatter).  Deliberately large by
    #: default — on a NumPy host each pass materializes several
    #: full-batch temporaries, so the radix engine's direct (compiled
    #: row sort) term wins the min in :func:`predict_ms`.
    radix_pass_ns: float = 60.0
    #: True when these numbers came from a real micro-calibration.
    calibrated: bool = False

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HostProfile":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


DEFAULT_PROFILE = HostProfile(cpu_count=max(1, os.cpu_count() or 1))


def _dtype_scale(dtype: np.dtype) -> float:
    """Sort-cost multiplier vs the calibrated float32 baseline.

    Comparison cost is roughly flat across the numeric dtypes; memory
    traffic scales with item size, so wider elements pay a sublinear
    premium.
    """
    return max(1.0, np.dtype(dtype).itemsize / 4.0) ** 0.5


def _serial_ms(
    profile: HostProfile,
    num_rows: int,
    row_len: int,
    dtype: np.dtype,
    config: SortConfig,
) -> float:
    """Model of the fused serial pipeline over ``num_rows`` rows."""
    n = max(1, row_len)
    s = config.sample_size(n)
    q = config.num_splitters(n)
    scale = _dtype_scale(dtype)
    itemsize = np.dtype(dtype).itemsize

    copy_ns = num_rows * n * itemsize * profile.copy_ns_per_byte
    # Phase 1: strided gather + in-place sample sort + splitter pick.
    phase1_ns = num_rows * (
        s * profile.gather_ns
        + s * max(1.0, math.log2(max(2, s))) * profile.sort_ns * scale
        + q * profile.gather_ns
    )
    # Fused phases 2+3: one in-place row sort.
    sort_ns = num_rows * n * max(1.0, math.log2(max(2, n))) * profile.sort_ns * scale
    # Metadata recovery: ceil(log2 n) rounds of gather+compare on (N, q).
    meta_ns = num_rows * q * max(1.0, math.log2(max(2, n))) * profile.gather_ns
    return (copy_ns + phase1_ns + sort_ns + meta_ns) / 1e6


def _radix_ms(
    profile: HostProfile,
    num_rows: int,
    row_len: int,
    dtype: np.dtype,
) -> float:
    """Model of the flat radix engine: copy + row sort, no phase terms.

    The sort term is the min of the two strategies
    :func:`repro.core.radix.radix_sort_rows` can run: the compiled
    in-place comparison sort (``N·n·log n``) and the LSD digit passes
    (``passes × N·n`` linear traffic, one pass per ``digit_bits`` of
    key width) — whichever this host's calibrated constants say is
    cheaper.
    """
    n = max(1, row_len)
    itemsize = np.dtype(dtype).itemsize
    copy_ns = num_rows * n * itemsize * profile.copy_ns_per_byte
    direct_ns = (
        num_rows * n * max(1.0, math.log2(max(2, n)))
        * profile.sort_ns * _dtype_scale(dtype)
    )
    passes = max(1, itemsize)  # byte digits: itemsize passes
    lsd_ns = passes * num_rows * n * profile.radix_pass_ns
    return (copy_ns + min(direct_ns, lsd_ns)) / 1e6


def predict_ms(
    profile: HostProfile,
    engine: str,
    num_rows: int,
    row_len: int,
    dtype,
    *,
    workers: int = 1,
    shards: int = 1,
    config: SortConfig = DEFAULT_CONFIG,
) -> float:
    """Predicted wall milliseconds of one engine on an ``(N, n)`` batch."""
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")
    dtype = np.dtype(dtype)
    if num_rows <= 0:
        return 0.0
    if engine == "serial":
        return _serial_ms(profile, num_rows, row_len, dtype, config)
    radix = _radix_ms(profile, num_rows, row_len, dtype)
    if engine == "radix":
        return radix
    pool_ms = profile.thread_pool_us / 1e3
    if shards <= 1 or workers <= 1:
        return radix + pool_ms

    concurrency = min(workers, shards, max(1, profile.cpu_count))
    speedup = max(1.0, concurrency * profile.thread_efficiency)
    return radix / speedup + pool_ms + shards * profile.thread_task_us / 1e3
