"""Repository benchmark: ``batch``, ``serve``, ``fleet`` and ``spill``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` runs set-up several times (reporting the median) and then
the measured phase, and prints every end-to-end metric.  ``--trace 1``
runs the workload untraced once and then again with spans around every
public layer call, and prints every per-layer metric, including the
tracing overhead (traced minus untraced).  Every result of every
operation is checked byte for byte against ``np.sort``; the last line of
standard output is one JSON object, and the exit code is 1 when any
result was wrong.  ``--self-test`` feeds each workload one corrupted
result and checks that the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Figures every workload measures and prints but that ``BENCHMARK.json``
#: does not gate (see ``perfbench/METRICS.md`` for why).
PRINTED_ONLY = {
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "low.latency_ms_p99": "ms",
    "max_rate_rps": "req/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("batch", "serve", "fleet", "spill"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that one corrupted result fails each workload")
    # Self-test seams: shrunken inputs, and one flipped output byte per
    # process, so the oracle's failure path can be exercised quickly.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-corruption", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_program():
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing"
        )
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro  # noqa: F401  (fails loudly, before any output)


def _install_corruption() -> None:
    """Flip one byte of the first sort result in every process."""
    import numpy as np
    from repro.core.array_sort import GpuArraySort

    original = GpuArraySort.sort
    done = {"pid": None}

    def corrupting_sort(self, batch, **kwargs):
        result = original(self, batch, **kwargs)
        if done["pid"] != os.getpid():
            done["pid"] = os.getpid()
            flat = np.asarray(result.batch).reshape(-1).view(np.uint8)
            flat[flat.size // 2] ^= 0x01
        return result

    GpuArraySort.sort = corrupting_sort


def _metric_table(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _workload_class(name: str):
    from perfbench.batch import BatchWorkload
    from perfbench.fleet import FleetWorkload
    from perfbench.serve import ServeWorkload
    from perfbench.spill import SpillWorkload

    return {"batch": BatchWorkload, "serve": ServeWorkload,
            "fleet": FleetWorkload, "spill": SpillWorkload}[name]


def _self_time_lines(tracer, workload) -> list:
    """Calls, total and self milliseconds per span name, measured phase."""
    spans = workload.trace_spans if workload.trace_spans is not None else tracer.spans
    lo, hi = workload.window
    own = tracer.self_seconds(spans)
    table: dict = {}
    for span in spans:
        if lo <= span[3] <= hi:
            row = table.setdefault(span[2], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (span[4] - span[3]) * 1e3
            row[2] += own[span[0]] * 1e3
    return [f"# span {name}: calls={calls} total_ms={total:.3f} self_ms={self_ms:.3f}"
            for name, (calls, total, self_ms) in sorted(table.items())]


def _emit(report: dict, human: list) -> None:
    for line in human:
        print(line)
    sys.stdout.flush()
    print(json.dumps(report, sort_keys=False))
    sys.stdout.flush()


def run(args) -> int:
    from perfbench.common import Oracle, WorkDir, host_facts, median
    from perfbench.layers import complete
    from perfbench.tracer import Tracer, install_layer_spans
    from perfbench.workload import Context

    if args.inject_corruption:
        _install_corruption()
    oracle = Oracle()
    workdir = WorkDir()
    tracer = None
    workload = None
    ctx = Context(seed=args.seed, seconds=args.seconds, scale=args.scale,
                  oracle=oracle, workdir=workdir)
    human = []
    extra = []
    end_to_end = _metric_table("end_to_end")
    per_layer = _metric_table("per_layer")
    try:
        workload = _workload_class(args.workload)(ctx)
        workload.generate()
        if args.trace == 0:
            setups = [workload.setup() for _ in range(workload.setup_reps)]
            metrics = workload.measure()
            metrics["setup_s"] = median(setups)
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            workload.teardown()
            values = {name: metrics[name] for name in end_to_end}
            units = end_to_end
            notes = {"setup_s": f"median of {workload.setup_reps}"}
            extra = [f"{name} = {metrics[name]:.6g} {unit}  (printed, not gated)"
                     for name, unit in PRINTED_ONLY.items()]
        else:
            workload.setup()
            untraced = workload.measure()
            workload.teardown()
            tracer = Tracer()
            install_layer_spans(tracer)
            ctx.tracer = tracer
            workload.setup()
            traced = workload.measure()
            layer = workload.layer_metrics(tracer)
            workload.teardown()
            human.extend(_self_time_lines(tracer, workload))
            layer["trace.overhead_frac"] = (
                1.0 - traced["elements_per_s"] / untraced["elements_per_s"]
            )
            layer["trace.overhead_latency_ms_p50"] = (
                traced["latency_ms_p50"] - untraced["latency_ms_p50"]
            )
            values = complete(layer, per_layer)
            units = per_layer
            notes = {}
            for name in traced:
                human.append(
                    f"# untraced {name} = {untraced[name]:.6g}  traced = {traced[name]:.6g}"
                )
    finally:
        if tracer is not None:
            tracer.unpatch()
        if workload is not None:
            workload.teardown()
        oracle.close()
        workdir.close()

    for name, value in values.items():
        if not math.isfinite(value):
            # No samples behind a figure means the run did not do its work.
            oracle.note_failure(name, f"not measured ({value})")
            values[name] = 0.0
    env = dict(host_facts())
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, scale=args.scale,
               input_bytes=workload.input_bytes, planner_engines=workload.engines,
               samples=getattr(workload, "samples", {}))
    human.insert(0, "# env " + json.dumps(env, sort_keys=True))
    attempted = max(1, oracle.checked)
    failed = oracle.mismatches
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        human.append(f"{name} = {value:.6g} {units[name]}{note}")
    human.extend(extra)
    human.append(f"error_rate = {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} operations failed or wrong)")
    if oracle.first_error:
        human.append(f"# first wrong result: {oracle.first_error}")
    report = {
        "correct": oracle.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    _emit(report, human)
    return 0 if oracle.ok else 1


def self_test() -> int:
    """Each workload must pass clean and fail with one corrupted result."""
    problems = []
    for name in ("batch", "serve", "fleet", "spill"):
        for corrupt in (False, True):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", "7", "--seconds", "0.5",
                   "--trace", "0", "--scale", "tiny"]
            if corrupt:
                cmd.append("--inject-corruption")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                report = json.loads(lines[-1])
            except (IndexError, ValueError):
                report = {}
            want_ok = not corrupt
            passed = (
                (proc.returncode == 0) == want_ok
                and report.get("correct") is want_ok
                and (report.get("failed", 0) == 0) == want_ok
            )
            label = f"{name} {'corrupted' if corrupt else 'clean'}"
            print(f"self-test {label}: {'ok' if passed else 'FAILED'} "
                  f"(exit {proc.returncode}, failed={report.get('failed')})")
            if not passed:
                problems.append(label)
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.common import adopt_orphans, stop_children

    # Every process the run starts, helpers and orphans included, is
    # stopped and waited for before the benchmark exits, on every path.
    adopt_orphans()
    try:
        return self_test() if args.self_test else run(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
