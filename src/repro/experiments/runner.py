"""Single-run experiment primitives.

All experiments are built from three runs:

* :func:`run_reference` — the un-replicated network of Figure 1 (top);
* :func:`run_duplicated` — the duplicated network, optionally with a
  fault injected and/or baseline monitors attached.

Finite-run hygiene: the consumer is given exactly ``tokens + priming``
reads so the pipeline drains completely — otherwise end-of-run
back-pressure would look like a timing fault (a real system runs forever;
a finite experiment must end in quiescence, not congestion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.apps.base import StreamingApplication
from repro.core.detection import FaultReport
from repro.core.duplicate import (
    DuplicatedNetwork,
    build_duplicated,
    build_reference,
)
from repro.core.overhead import (
    OverheadModel,
    OverheadReport,
    replicator_overhead,
    selector_overhead,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec
from repro.kpn.simulator import RunStats
from repro.kpn.trace import TraceRecorder
from repro.rtc.sizing import SizingResult

#: Safety cap on simulator events per run (well above any legitimate run).
MAX_EVENTS_PER_TOKEN = 400


@dataclass
class ReferenceRun:
    """Outcome of one reference-network run."""

    values: List[Any]
    times: List[float]
    inter_arrival: List[float]
    stalls: int
    max_fills: dict
    events: int


@dataclass
class DuplicatedRun:
    """Outcome of one duplicated-network run."""

    values: List[Any]
    times: List[float]
    inter_arrival: List[float]
    stalls: int
    max_fills: dict
    events: int
    detections: List[FaultReport]
    injector: Optional[FaultInjector]
    selector_drops: List[int]
    overhead_replicator: OverheadReport
    overhead_selector: OverheadReport
    network: DuplicatedNetwork = field(repr=False, default=None)
    #: Engine-level summary of the run (event count, wall time,
    #: events/sec) — the in-band throughput signal the CLI surfaces.
    stats: Optional[RunStats] = None
    #: The telemetry bundle passed in via ``obs=`` (``None`` when the run
    #: was not observed) — registry + timeline, consumed by
    #: :mod:`repro.obs.report` and :mod:`repro.obs.chrometrace`.
    obs: Optional[Any] = field(repr=False, default=None)
    #: Closed-loop recovery summary (``RecoveryManager.as_dict()``) when
    #: the run armed a countermeasure; ``None`` otherwise.
    recovery: Optional[dict] = None

    def detection_latency(self, site: Optional[str] = None
                          ) -> Optional[float]:
        """Injection-to-detection latency (ms) at an optional site."""
        if self.injector is None:
            return None
        return self.injector.detection_latency(self.network, site=site)


def fault_time_for(app: StreamingApplication, warmup_tokens: int,
                   phase: float = 0.25) -> float:
    """The injection instant: ``phase`` of a period past the warmup-th
    producer release (the paper injects "after 18,000 frames")."""
    period = app.producer_model.period
    return warmup_tokens * period + phase * period


def run_reference(
    app: StreamingApplication,
    tokens: int,
    seed: int,
    sizing: Optional[SizingResult] = None,
    variant: int = 0,
) -> ReferenceRun:
    """Build and run the reference network to quiescence."""
    sizing = sizing or app.sizing()
    blueprint = app.blueprint(
        tokens, tokens + sizing.selector_priming, seed=seed
    )
    reference = build_reference(
        blueprint,
        input_capacity=sizing.replicator_capacities[variant],
        output_capacity=sizing.selector_fifo_size,
        variant=variant,
        initial_fill=sizing.selector_priming,
    )
    _sim, stats = reference.network.run(
        max_events=tokens * MAX_EVENTS_PER_TOKEN
    )
    consumer = reference.consumer
    return ReferenceRun(
        values=[t.value for t in consumer.tokens],
        times=list(consumer.arrival_times),
        inter_arrival=consumer.inter_arrival_times(),
        stalls=consumer.stalls,
        max_fills=reference.network.max_fills(),
        events=stats.events,
    )


def run_duplicated(
    app: StreamingApplication,
    tokens: int,
    seed: int,
    fault: Optional[FaultSpec] = None,
    sizing: Optional[SizingResult] = None,
    record_events: bool = False,
    verify_duplicates: bool = False,
    monitor_factory=None,
    strict_single_fault: bool = True,
    selector_stall_detection: bool = True,
    obs=None,
    recovery=None,
) -> DuplicatedRun:
    """Build and run the duplicated network to quiescence.

    ``monitor_factory(dup, recorder) -> [Process]`` lets baselines attach
    polling monitors that observe channel traces (requires
    ``record_events=True``).  ``obs`` (a
    :class:`~repro.obs.timeline.Observability`) threads the metrics
    registry through engine and channels, watches the detection log, and
    captures the process timeline for trace export.  ``recovery`` (a
    :class:`~repro.recovery.RecoverySpec`) arms the closed-loop
    countermeasure manager on the detection log — the tolerance half of
    the paper's lifecycle.
    """
    sizing = sizing or app.sizing()
    blueprint = app.blueprint(
        tokens, tokens + sizing.selector_priming, seed=seed
    )
    recorder = TraceRecorder(record_events=record_events)
    metrics = obs.registry if obs is not None else None
    duplicated = build_duplicated(
        blueprint,
        sizing,
        verify_duplicates=verify_duplicates,
        strict_single_fault=strict_single_fault,
        recorder=recorder,
        selector_stall_detection=selector_stall_detection,
        metrics=metrics,
    )
    if monitor_factory is not None:
        for monitor in monitor_factory(duplicated, recorder):
            duplicated.network.add_process(monitor)
    timeline = obs.timeline if obs is not None else None
    if timeline is not None:
        timeline.watch(duplicated.detection_log)
    sim = duplicated.network.instantiate()
    if timeline is not None:
        sim.set_transition_hook(timeline.transition)
    manager = None
    if recovery is not None:
        from repro.recovery import RecoveryManager

        manager = RecoveryManager(recovery, blueprint, duplicated)
        manager.attach(sim)
    injector = None
    if fault is not None:
        injector = FaultInjector(fault, timeline=timeline)
        injector.arm(sim, duplicated, recovery=manager)
    stats = sim.run(max_events=tokens * MAX_EVENTS_PER_TOKEN)

    model = OverheadModel()
    consumer = duplicated.consumer
    tokens_through = duplicated.replicator.writes or 1
    overhead_r = replicator_overhead(
        model,
        duplicated.replicator_ops,
        sizing.replicator_capacities,
        app.token_bytes_in,
        tokens_through,
        app.app_code_bytes,
        app.period_ms,
    )
    overhead_s = selector_overhead(
        model,
        duplicated.selector_ops,
        sizing.selector_capacities,
        app.token_bytes_out,
        max(consumer.count, 1),
        app.app_code_bytes,
        app.period_ms,
    )
    return DuplicatedRun(
        values=[t.value for t in consumer.tokens],
        times=list(consumer.arrival_times),
        inter_arrival=consumer.inter_arrival_times(),
        stalls=consumer.stalls,
        max_fills=duplicated.network.max_fills(),
        events=stats.events,
        detections=list(duplicated.detection_log),
        injector=injector,
        selector_drops=list(duplicated.selector.drops),
        overhead_replicator=overhead_r,
        overhead_selector=overhead_s,
        network=duplicated,
        stats=stats,
        obs=obs,
        recovery=manager.as_dict() if manager is not None else None,
    )
