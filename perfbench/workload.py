"""What every workload provides, and the context it runs in."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from .common import Oracle, WorkDir
from .tracer import Tracer


@dataclasses.dataclass
class Context:
    seed: int
    #: Wall seconds the measured phase lasts (oracle checks included,
    #: timed regions excluded from them).
    seconds: float
    #: ``"full"`` for the documented sizes, ``"tiny"`` for the self-test.
    scale: str
    oracle: Oracle
    workdir: WorkDir
    tracer: Optional[Tracer] = None

    @property
    def tiny(self) -> bool:
        return self.scale == "tiny"


class Workload:
    """One set of inputs driven through one public entry point.

    The harness calls ``generate`` once (untimed), then ``setup`` one or
    more times (each timed; the last one stays live), then ``measure``
    once, then ``teardown``.
    """

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: Inputs handed to the program, bytes per input group.
        self.input_bytes: Dict[str, int] = {}
        #: Engine chosen per planner shape class during ``measure``.
        self.engines: Dict[str, str] = {}
        #: ``(start, end)`` of the measured phase, ``perf_counter`` seconds.
        self.window = (0.0, 0.0)
        #: Spans behind ``layer_metrics`` when not just the tracer's own
        #: (fleet workers' spans come from their dump files).
        self.trace_spans = None

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Build the system under test from scratch; return its set-up
        seconds (oracle checks of warm-up results excluded)."""
        raise NotImplementedError

    def measure(self) -> Dict[str, float]:
        """Run the measured phase; return the end-to-end metrics other
        than ``setup_s`` and ``peak_rss_mb``."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        from .common import peak_rss_mb

        return peak_rss_mb()

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics of the traced measured phase."""
        return {}

    def teardown(self) -> None:
        """Release what the last ``setup`` built (idempotent)."""
