"""Worker-side execution of a :class:`~repro.exec.taskspec.TaskSpec`.

:func:`execute_task` is the pure function every sweep is built from: it
reconstructs the application, runs the described network to quiescence
and reduces the outcome to a pickleable
:class:`~repro.exec.results.TaskResult`.  It runs identically inline
(serial fallback) and inside a pool worker — parallel sweeps are
byte-identical to serial ones because this is the only execution path.

The experiment runner and the run validator load with this module, so
a forked pool worker inherits them from its parent instead of importing
them on its first task.

A spec normally carries its solved sizing.  One handed over unsized is
solved here, through the process-global ``size_duplicated_network``
memo, before the run.
"""

from __future__ import annotations

import os
import platform
import time
from typing import List, Sequence, Tuple

from repro.exec.results import (
    MonitorRecord,
    TaskResult,
    hash_values,
    snapshot_for_result,
)
from repro.exec.taskspec import (
    KIND_REFERENCE,
    DistanceMonitorSpec,
    TaskSpec,
    build_app,
)
from repro.experiments.runner import run_duplicated, run_reference
from repro.experiments.validation import validate_run
from repro.kpn.errors import SimulationError

#: Name under which the declarative baseline monitor registers itself
#: (matches the Table 3 harness).
MONITOR_NAME = "distance-monitor"


def execute_task(spec: TaskSpec) -> TaskResult:
    """Execute one task spec and return its serialisable result."""
    start = time.perf_counter()
    app = build_app(spec)
    sizing = spec.sizing if spec.sizing is not None else app.sizing()
    try:
        if spec.kind == KIND_REFERENCE:
            result = _execute_reference(spec, app, sizing)
        else:
            result = _execute_duplicated(spec, app, sizing)
    except SimulationError as error:
        result = TaskResult(
            kind=spec.kind,
            ok=False,
            error=f"{type(error).__name__}: {error}",
        )
    result.wall_time_s = time.perf_counter() - start
    result.worker = {"pid": os.getpid(), "host": platform.node()}
    result.metrics = snapshot_for_result(result)
    return result


def run_chunk(
    indexed_specs: Sequence[Tuple[int, TaskSpec]]
) -> List[Tuple[int, TaskResult]]:
    """Execute a chunk of ``(index, spec)`` pairs (pool entry point)."""
    return [(index, execute_task(spec)) for index, spec in indexed_specs]


def _execute_reference(spec, app, sizing) -> TaskResult:
    run = run_reference(
        app,
        spec.tokens,
        spec.seed,
        sizing=sizing,
        variant=spec.variant,
    )
    return TaskResult(
        kind=spec.kind,
        value_hashes=hash_values(run.values),
        values=list(run.values) if spec.keep_values else None,
        times=list(run.times),
        inter_arrival=list(run.inter_arrival),
        stalls=run.stalls,
        max_fills=dict(run.max_fills),
        events=run.events,
    )


def _execute_duplicated(spec, app, sizing) -> TaskResult:
    monitor_factory = None
    if spec.monitor is not None:
        monitor_factory = _monitor_factory(app, spec.monitor)
    run = run_duplicated(
        app,
        spec.tokens,
        spec.seed,
        fault=spec.fault,
        sizing=sizing,
        record_events=spec.record_events,
        verify_duplicates=spec.verify_duplicates,
        strict_single_fault=spec.strict_single_fault,
        selector_stall_detection=spec.selector_stall_detection,
        monitor_factory=monitor_factory,
        recovery=spec.recovery,
    )
    result = TaskResult(
        kind=spec.kind,
        value_hashes=hash_values(run.values),
        values=list(run.values) if spec.keep_values else None,
        times=list(run.times),
        inter_arrival=list(run.inter_arrival),
        stalls=run.stalls,
        max_fills=dict(run.max_fills),
        events=run.events,
        detections=list(run.detections),
        selector_drops=list(run.selector_drops),
        overhead_replicator=run.overhead_replicator,
        overhead_selector=run.overhead_selector,
    )
    if run.injector is not None:
        result.injected_at = run.injector.injected_at
        result.latency_selector = run.detection_latency("selector")
        result.latency_replicator = run.detection_latency("replicator")
    result.recovery = run.recovery
    if spec.monitor is not None:
        monitor = run.network.network.process(MONITOR_NAME)
        result.monitor_detections = [
            MonitorRecord(time=d.time, stream=d.stream, reason=d.reason)
            for d in monitor.detections
        ]
    if spec.validate:
        recorder = run.network.network.recorder
        result.validation = validate_run(
            app,
            recorder,
            sizing,
            detections=run.detections,
            fault_free=spec.fault is None,
        )
    return result


def _monitor_factory(app, monitor: DistanceMonitorSpec):
    """Rebuild the Table 3 distance-function monitor declaratively."""
    from repro.baselines.distance import (
        DistanceFunctionMonitor,
        l_repetitive_bounds,
    )

    bounds = [
        l_repetitive_bounds(
            model, margin=monitor.margin_factor * model.period
        )
        for model in app.replica_input_models
    ]

    def factory(duplicated, recorder):
        return [
            DistanceFunctionMonitor(
                MONITOR_NAME,
                poll_interval=monitor.poll_interval,
                stop_time=monitor.stop_time,
                streams=[
                    recorder.channel("replicator.R1"),
                    recorder.channel("replicator.R2"),
                ],
                bounds=bounds,
                event_kind=monitor.event_kind,
            )
        ]

    return factory
