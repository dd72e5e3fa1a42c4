"""Serialisable run results for the sweep executor.

A worker cannot ship a :class:`~repro.experiments.runner.DuplicatedRun`
back to the parent — it holds the whole live network (processes,
channels, hooks).  :class:`TaskResult` is the flat, pickleable reduction
that every experiment aggregation actually consumes: consumer timings,
fill maxima, detection records, per-site detection latencies, baseline
monitor detections and overhead reports.

Consumer payloads are carried as per-token **content hashes**
(:func:`hash_values`): Theorem 2 equivalence checks only ever compare
token sequences for equality, and hashing keeps multi-megabyte video
frames out of the IPC stream and the on-disk cache.  ``keep_values=True``
on the spec additionally ships the raw payloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.detection import FaultReport


@dataclass(frozen=True)
class MonitorRecord:
    """Flat copy of a baseline :class:`MonitorDetection`."""

    time: float
    stream: int
    reason: str


@dataclass
class TaskResult:
    """Everything one executed :class:`TaskSpec` produced.

    ``ok`` is False when the run raised a
    :class:`~repro.kpn.errors.SimulationError` (a deterministic outcome
    for deliberately under-sized ablation configurations); ``error``
    then carries ``"ExceptionType: message"`` and the data fields are
    empty.  Any other exception propagates and fails the sweep.
    """

    kind: str
    ok: bool = True
    error: Optional[str] = None
    value_hashes: List[str] = field(default_factory=list)
    values: Optional[List[Any]] = None
    times: List[float] = field(default_factory=list)
    inter_arrival: List[float] = field(default_factory=list)
    stalls: int = 0
    max_fills: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    detections: List[FaultReport] = field(default_factory=list)
    injected_at: Optional[float] = None
    latency_selector: Optional[float] = None
    latency_replicator: Optional[float] = None
    selector_drops: List[int] = field(default_factory=list)
    overhead_replicator: Optional[Any] = None
    overhead_selector: Optional[Any] = None
    monitor_detections: List[MonitorRecord] = field(default_factory=list)
    #: The worker-side :class:`~repro.experiments.validation.
    #: ValidationReport` when the spec asked for one.
    validation: Optional[Any] = None
    #: Worker wall-clock for the run (set by the executor path; cache
    #: hits report the original execution's time).
    wall_time_s: float = 0.0
    #: :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of this run
    #: (counters, gauge stats, latency sketches) — the mergeable summary
    #: streamed into the run ledger and folded parent-side into
    #: fleet-wide aggregates, so raw series never cross the pool
    #: boundary.
    metrics: Optional[Dict[str, Any]] = None
    #: Fingerprint of the process that executed the run (``pid`` /
    #: ``host``); cache hits report the original executor.
    worker: Optional[Dict[str, Any]] = None
    #: Closed-loop recovery summary (``RecoveryManager.as_dict()``) when
    #: the spec armed a countermeasure manager; ``None`` otherwise.
    recovery: Optional[Dict[str, Any]] = None

    @property
    def token_count(self) -> int:
        """Number of tokens the consumer received."""
        return len(self.value_hashes)

    def detection_latency(self, site: Optional[str] = None
                          ) -> Optional[float]:
        """Injection-to-detection latency at an optional site (ms)."""
        if site == "selector":
            return self.latency_selector
        if site == "replicator":
            return self.latency_replicator
        if self.injected_at is None:
            return None
        for record in self.detections:
            if record.time >= self.injected_at:
                return record.time - self.injected_at
        return None

    def mechanism_latency(self, replica: int, mechanism: str
                          ) -> Optional[float]:
        """Post-injection latency of one detection mechanism at one
        replica, or ``None`` (mirrors the ablation harness filter)."""
        if self.injected_at is None:
            return None
        for record in self.detections:
            if record.mechanism != mechanism:
                continue
            if record.replica != replica:
                continue
            if record.time < self.injected_at:
                continue
            return record.time - self.injected_at
        return None

    def first_monitor_detection(self, stream: Optional[int] = None
                                ) -> Optional[MonitorRecord]:
        """First baseline-monitor detection, optionally per stream."""
        for record in self.monitor_detections:
            if stream is None or record.stream == stream:
                return record
        return None


def snapshot_for_result(result: TaskResult) -> Dict[str, Any]:
    """The metrics snapshot of one task result.

    Built *after* the run finished (it reads the reduced result only),
    so streaming can never perturb execution.  The snapshot carries:

    * counters — events, tokens, stalls, detection report counts, the
      Eq. 3/5 **false-positive count** (reports with no preceding
      injection);
    * the ``detect.latency_ms`` **sketch** (first post-injection
      detection latency — the Eqs. 6–8 headline metric) plus the
      ``task.wall_ms`` sketch;
    * per-task throughput gauges, from which per-worker events/sec is
      derived ledger-side.
    """
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()

    def count(name: str, amount: int = 1) -> None:
        metrics.counter(name).inc(amount)

    def observe(name: str, value: float) -> None:
        metrics.histogram(name).observe(value)

    count("tasks.total")
    count("tasks.ok" if result.ok else "tasks.error")
    if result.wall_time_s:
        observe("task.wall_ms", result.wall_time_s * 1e3)
    if not result.ok:
        return metrics.snapshot()
    count("sim.events", result.events)
    count("consumer.tokens", result.token_count)
    count("consumer.stalls", result.stalls)
    count("detect.reports", len(result.detections))
    false_positives = sum(
        1 for record in result.detections
        if result.injected_at is None or record.time < result.injected_at
    )
    count("detect.false_positives", false_positives)
    latency = result.detection_latency()
    if latency is not None:
        observe("detect.latency_ms", latency)
    for site in ("selector", "replicator"):
        site_latency = result.detection_latency(site)
        if site_latency is not None:
            observe(f"detect.latency_ms.{site}", site_latency)
    if result.wall_time_s:
        metrics.gauge("task.events_per_sec").set(
            result.events / result.wall_time_s
        )
    if result.recovery:
        attempts = result.recovery.get("attempts", [])
        count("recovery.attempts", len(attempts))
        count("recovery.completed", int(result.recovery.get("completed", 0)))
        for attempt in attempts:
            completed_at = attempt.get("completed_at")
            detected_at = attempt.get("detected_at")
            if completed_at is not None and detected_at is not None:
                observe("recovery.mttr_ms", completed_at - detected_at)
    return metrics.snapshot()


def hash_values(values: Sequence[Any]) -> List[str]:
    """Per-token content hashes of a consumer payload sequence.

    Equal hashes mean equal payloads under the same recursive equality
    :func:`~repro.core.equivalence.output_values_equal` uses (arrays by
    dtype/shape/bytes, sequences element-wise, scalars by repr), so
    prefix comparisons over hash lists decide Theorem 2 equivalence.
    """
    return [_hash_one(value) for value in values]


def _hash_one(value: Any) -> str:
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def _feed(digest, value: Any) -> None:
    if isinstance(value, np.ndarray):
        digest.update(b"nd:")
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(f"seq:{len(value)}:".encode())
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (bytes, bytearray)):
        digest.update(b"bytes:")
        digest.update(bytes(value))
    else:
        digest.update(b"repr:")
        digest.update(repr(value).encode())
