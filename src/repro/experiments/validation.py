"""Runtime conformance validation: do the declared models hold?

The entire Section 3.4 analysis is only as good as the interface models
it starts from.  This module checks a *recorded run* against the
declared models and the computed sizing:

* :func:`check_curve_conformance` — Eq. 2 verified empirically: every
  sliding-window count of the observed event trace must lie within the
  declared ``[alpha_u, alpha_l]`` envelope;
* :func:`validate_run` — a full audit of a duplicated-network run:
  producer/replica conformance at the replicator, replica conformance at
  the selector, observed fills against the theoretical capacities, and
  fault-free detection cleanliness.

A failed validation means the models (or the application) are wrong —
the situation in which the paper's no-false-positive guarantee is void.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.kpn.trace import TraceRecorder
from repro.kpn.tracefile import channel_timestamps
from repro.rtc.calibration import sliding_window_counts
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult


@dataclass(frozen=True)
class ConformanceViolation:
    """One sliding-window violation of a declared envelope."""

    stream: str
    window: float
    observed: int
    bound: float
    side: str  # "upper" | "lower"

    def __str__(self) -> str:
        relation = ">" if self.side == "upper" else "<"
        return (
            f"{self.stream}: {self.observed} events in a {self.window:g} ms "
            f"window {relation} declared {self.side} bound {self.bound:g}"
        )


def check_curve_conformance(
    timestamps: Sequence[float],
    model: PJD,
    stream: str = "stream",
    window_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.5, 7.0, 15.0),
) -> List[ConformanceViolation]:
    """Check an observed trace against a PJD model's curve pair (Eq. 2).

    The *lower*-curve check is skipped for traces shorter than the
    largest window (a finite trace's emptiness near its edges is not
    evidence of under-delivery).
    """
    violations: List[ConformanceViolation] = []
    if len(timestamps) < 2:
        return violations
    upper, lower = model.curves()
    span = max(timestamps) - min(timestamps)
    for factor in window_factors:
        window = model.period * factor
        if window <= 0:
            continue
        max_count, min_count = sliding_window_counts(timestamps, window)
        bound_u = upper(window)
        if max_count > bound_u:
            violations.append(
                ConformanceViolation(stream, window, max_count, bound_u,
                                     "upper")
            )
        if window < span / 2:
            bound_l = lower(window)
            if min_count < bound_l:
                violations.append(
                    ConformanceViolation(stream, window, min_count,
                                         bound_l, "lower")
                )
    return violations


@dataclass
class ValidationReport:
    """Outcome of a full run audit."""

    conformance_violations: List[ConformanceViolation] = field(
        default_factory=list
    )
    capacity_violations: List[str] = field(default_factory=list)
    unexpected_detections: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.conformance_violations
            or self.capacity_violations
            or self.unexpected_detections
        )

    def describe(self) -> str:
        if self.ok:
            return "validation passed: models, fills and detections all consistent"
        lines = ["validation FAILED:"]
        lines.extend(f"  [model] {v}" for v in self.conformance_violations)
        lines.extend(f"  [capacity] {v}" for v in self.capacity_violations)
        lines.extend(f"  [detection] {v}"
                     for v in self.unexpected_detections)
        return "\n".join(lines)


def validate_run(
    app,
    recorder: TraceRecorder,
    sizing: SizingResult,
    detections: Sequence = (),
    fault_free: bool = True,
) -> ValidationReport:
    """Audit a recorded duplicated-network run against its design data.

    ``recorder`` must have been created with ``record_events=True``.
    """
    report = ValidationReport()

    # 1. Producer conformance at the replicator (both queues see the
    #    producer's stream).
    if "replicator.R1" in recorder:
        producer_times = channel_timestamps(recorder["replicator.R1"],
                                            "write")
        report.conformance_violations.extend(
            check_curve_conformance(producer_times, app.producer_model,
                                    "producer@replicator")
        )

    # 2. Replica output conformance at the selector (writes + drops are
    #    each replica's production events).
    if "selector.S" in recorder:
        trace = recorder["selector.S"]
        for k, model in enumerate(app.replica_output_models):
            times = sorted(
                channel_timestamps(trace, "write", interface=k)
                + channel_timestamps(trace, "drop", interface=k)
            )
            report.conformance_violations.extend(
                check_curve_conformance(times, model,
                                        f"replica{k + 1}@selector")
            )

    # 3. Fills against theoretical capacities.
    fills = recorder.max_fills()
    limits = {
        "replicator.R1": sizing.replicator_capacities[0],
        "replicator.R2": sizing.replicator_capacities[1],
        "selector.S": sizing.selector_fifo_size,
    }
    for name, limit in limits.items():
        observed = fills.get(name, 0)
        if observed > limit:
            report.capacity_violations.append(
                f"{name}: observed fill {observed} > theoretical {limit}"
            )

    # 4. Detection cleanliness.
    if fault_free:
        report.unexpected_detections.extend(
            str(d) for d in detections
        )
    return report


def validation_sweep(
    apps: Optional[Sequence] = None,
    runs: int = 5,
    tokens: int = 150,
    base_seed: int = 1,
    executor=None,
) -> List[Tuple[str, int, ValidationReport]]:
    """Audit fault-free runs of every application across ``runs`` seeds.

    Each run executes on ``executor`` (``None``: a serial, uncached
    :class:`~repro.exec.SweepExecutor`) with ``validate=True``, so the
    audit itself happens worker-side (the recorded trace never crosses
    the process boundary — only the resulting :class:`ValidationReport`
    does).  Returns ``(app_name, seed, report)`` triples in
    deterministic app-major order.
    """
    from repro.apps import ALL_APPLICATIONS
    from repro.apps.base import AppScale
    from repro.exec import SweepExecutor, TaskSpec

    if apps is None:
        apps = [cls(AppScale()) for cls in ALL_APPLICATIONS]
    specs = []
    labels: List[Tuple[str, int]] = []
    for app in apps:
        sizing = app.sizing()
        for r in range(runs):
            seed = base_seed + r
            labels.append((app.name, seed))
            specs.append(
                TaskSpec.duplicated(
                    app, tokens, seed, sizing=sizing, validate=True
                )
            )
    results = (executor or SweepExecutor()).run(specs)
    audited: List[Tuple[str, int, ValidationReport]] = []
    for (name, seed), outcome in zip(labels, results):
        if not outcome.ok:
            raise RuntimeError(
                f"{name}: validation run (seed {seed}) failed: "
                f"{outcome.error}"
            )
        audited.append((name, seed, outcome.validation))
    return audited
