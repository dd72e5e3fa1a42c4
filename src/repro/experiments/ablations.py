"""Ablation studies for the design choices DESIGN.md calls out.

* :func:`threshold_sweep` (A1) — detection latency and false-positive
  count as the selector divergence threshold ``D`` moves below / above
  the Eq. 5 value.  Shows Eq. 5 is tight: smaller D detects faster but
  false-positives; larger D only adds latency.
* :func:`polling_interval_sweep` (A2) — the distance-function baseline's
  latency as a function of its polling period (the paper's Section 4.3
  discussion: finer polling costs overhead, coarser adds latency).
* :func:`capacity_margin_sweep` (A3) — fault-free false positives when
  the replicator capacities are scaled below the Eq. 3 values, and the
  latency cost of over-provisioning above them.

All three sweeps execute through :mod:`repro.exec`: every point's runs
become :class:`~repro.exec.TaskSpec` values (the overridden
``SizingResult`` rides inside the spec and participates in its digest),
one flat sweep on the caller's :class:`~repro.exec.SweepExecutor`
executes them — serial and uncached when none is given — and
aggregation walks the deterministic, index-ordered results.
Deliberately under-sized configurations abort their simulation; those
runs come back with ``ok=False`` and count as false positives (both
replicas implicated) exactly as the in-process version counted an
aborting run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.stats import summarize
from repro.apps.base import StreamingApplication
from repro.exec import DistanceMonitorSpec, SweepExecutor, TaskSpec
from repro.experiments.runner import fault_time_for
from repro.faults.models import FAIL_STOP, FaultSpec


@dataclass
class SweepPoint:
    """One point of an ablation sweep."""

    parameter: float
    mean_latency_ms: Optional[float]
    false_positives: int
    detected_runs: int
    runs: int


def _with_selector_threshold(sizing, threshold: int):
    return dataclasses.replace(sizing, selector_threshold=threshold)


def _with_replicator_capacities(sizing, capacities):
    return dataclasses.replace(
        sizing, replicator_capacities=tuple(capacities)
    )


def threshold_sweep(
    app: StreamingApplication,
    thresholds: Sequence[int],
    runs: int = 5,
    warmup_tokens: int = 80,
    post_tokens: int = 30,
    base_seed: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> List[SweepPoint]:
    """A1: sweep the selector divergence threshold ``D``."""
    base_sizing = app.sizing()
    tokens = warmup_tokens + post_tokens
    specs: List[TaskSpec] = []
    faults: List[FaultSpec] = []
    for threshold in thresholds:
        sizing = _with_selector_threshold(base_sizing, threshold)
        for r in range(runs):
            seed = base_seed + r
            # Fault-free run: count false positives at this threshold.
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, sizing=sizing,
                    strict_single_fault=False,
                )
            )
            fault = FaultSpec(
                replica=r % 2,
                time=fault_time_for(app, warmup_tokens, phase=0.3),
                kind=FAIL_STOP,
            )
            faults.append(fault)
            # D parameterises the divergence mechanism specifically; the
            # redundant stall mechanism (which fires first for these
            # configurations, making total detection latency flat in D)
            # is disabled so the sweep isolates the quantity under study.
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, fault=fault, sizing=sizing,
                    strict_single_fault=False,
                    selector_stall_detection=False,
                )
            )
    results = (executor or SweepExecutor()).run(specs)

    points: List[SweepPoint] = []
    at = 0
    for index, threshold in enumerate(thresholds):
        latencies: List[float] = []
        false_positives = 0
        detected = 0
        for r in range(runs):
            clean, faulted = results[at], results[at + 1]
            at += 2
            if clean.ok:
                false_positives += sum(
                    1 for d in clean.detections if d.site == "selector"
                )
            else:
                # The under-sized run aborted its simulation outright:
                # both replicas were implicated before the deadlock.
                false_positives += 2
            if not faulted.ok:
                raise RuntimeError(
                    f"{app.name}: threshold sweep faulted run failed: "
                    f"{faulted.error}"
                )
            fault = faults[index * runs + r]
            latency = faulted.mechanism_latency(fault.replica, "divergence")
            if latency is not None:
                detected += 1
                latencies.append(latency)
        points.append(
            SweepPoint(
                parameter=float(threshold),
                mean_latency_ms=(
                    summarize(latencies).mean if latencies else None
                ),
                false_positives=false_positives,
                detected_runs=detected,
                runs=runs,
            )
        )
    return points


def polling_interval_sweep(
    app: StreamingApplication,
    intervals: Sequence[float],
    runs: int = 5,
    warmup_tokens: int = 80,
    post_tokens: int = 30,
    base_seed: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> List[SweepPoint]:
    """A2: sweep the distance-function baseline's polling period."""
    app = app.minimized()
    sizing = app.sizing()
    tokens = warmup_tokens + post_tokens
    stop_time = (tokens + 20) * app.producer_model.period
    specs: List[TaskSpec] = []
    faults: List[FaultSpec] = []
    for interval in intervals:
        for r in range(runs):
            seed = base_seed + r
            fault = FaultSpec(
                replica=r % 2,
                time=fault_time_for(app, warmup_tokens, phase=0.3),
                kind=FAIL_STOP,
            )
            faults.append(fault)
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, fault=fault, sizing=sizing,
                    monitor=DistanceMonitorSpec(
                        poll_interval=interval, stop_time=stop_time
                    ),
                )
            )
    results = (executor or SweepExecutor()).run(specs)

    points: List[SweepPoint] = []
    at = 0
    for interval in intervals:
        latencies: List[float] = []
        detected = 0
        for r in range(runs):
            run = results[at]
            fault = faults[at]
            at += 1
            if not run.ok:
                raise RuntimeError(
                    f"{app.name}: polling sweep run failed: {run.error}"
                )
            detection = run.first_monitor_detection(stream=fault.replica)
            if detection is not None and run.injected_at is not None:
                detected += 1
                latencies.append(detection.time - run.injected_at)
        points.append(
            SweepPoint(
                parameter=float(interval),
                mean_latency_ms=(
                    summarize(latencies).mean if latencies else None
                ),
                false_positives=0,
                detected_runs=detected,
                runs=runs,
            )
        )
    return points


def capacity_margin_sweep(
    app: StreamingApplication,
    scale_factors: Sequence[float],
    runs: int = 5,
    warmup_tokens: int = 80,
    post_tokens: int = 30,
    base_seed: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> List[SweepPoint]:
    """A3: scale the replicator capacities around the Eq. 3 values."""
    base_sizing = app.sizing()
    tokens = warmup_tokens + post_tokens
    specs: List[TaskSpec] = []
    for factor in scale_factors:
        capacities = tuple(
            max(1, round(c * factor))
            for c in base_sizing.replicator_capacities
        )
        sizing = _with_replicator_capacities(base_sizing, capacities)
        for r in range(runs):
            seed = base_seed + r
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, sizing=sizing,
                    strict_single_fault=False,
                )
            )
            fault = FaultSpec(
                replica=r % 2,
                time=fault_time_for(app, warmup_tokens, phase=0.3),
                kind=FAIL_STOP,
            )
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, fault=fault, sizing=sizing,
                    strict_single_fault=False,
                )
            )
    results = (executor or SweepExecutor()).run(specs)

    points: List[SweepPoint] = []
    at = 0
    for factor in scale_factors:
        latencies: List[float] = []
        false_positives = 0
        detected = 0
        for r in range(runs):
            clean, faulted = results[at], results[at + 1]
            at += 2
            if clean.ok:
                false_positives += sum(
                    1 for d in clean.detections if d.site == "replicator"
                )
            else:
                false_positives += 2
            if not faulted.ok:
                # Deliberately under-provisioned faulted runs may abort;
                # they simply contribute no latency sample (as before).
                continue
            latency = faulted.detection_latency("replicator")
            if latency is not None:
                detected += 1
                latencies.append(latency)
        points.append(
            SweepPoint(
                parameter=float(factor),
                mean_latency_ms=(
                    summarize(latencies).mean if latencies else None
                ),
                false_positives=false_positives,
                detected_runs=detected,
                runs=runs,
            )
        )
    return points
