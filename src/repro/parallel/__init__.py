"""``repro.parallel`` — multicore sharded execution for the vectorized engine.

The paper scales GPU-ArraySort across thousands of CUDA cores by giving
every array its own block; this subsystem applies the same decomposition
to host cores: the ``(N, n)`` batch is split into row shards
(:mod:`~repro.parallel.plan`), each shard runs the complete three-phase
pipeline independently, and the results are reassembled in order
(:mod:`~repro.parallel.executors`).  Because every phase is per-row, the
output is byte-identical for any worker count.  The adaptive planner's
``"thread"`` engine uses the same executor with the radix row sort
(:func:`~repro.parallel.executors.radix_rows_inplace`) per shard.

Entry points:

* ``GpuArraySort(engine="vectorized", parallel="thread"|"process", workers=k)``
  — the usual way in;
* :func:`~repro.parallel.executors.resolve_executor` — the spec-to-engine
  mapping behind that keyword;
* :class:`~repro.parallel.executors.ThreadPoolEngine` /
  :class:`~repro.parallel.executors.ProcessPoolEngine` /
  :class:`~repro.parallel.executors.SerialEngine` — direct construction
  for custom worker counts and shard floors.
"""

from .executors import (
    ProcessPoolEngine,
    SerialEngine,
    ThreadPoolEngine,
    attach_shm_view,
    radix_rows_inplace,
    resolve_executor,
    sort_rows_inplace,
)
from .plan import Shard, ShardPlan, plan_shards

__all__ = [
    "ProcessPoolEngine",
    "SerialEngine",
    "Shard",
    "ShardPlan",
    "ThreadPoolEngine",
    "attach_shm_view",
    "plan_shards",
    "radix_rows_inplace",
    "resolve_executor",
    "sort_rows_inplace",
]
