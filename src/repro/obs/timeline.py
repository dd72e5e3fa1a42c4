"""Run timeline: process lifecycle spans, fault markers, detection latency.

The :class:`RunTimeline` is the event-shaped half of the telemetry layer
(the :mod:`~repro.obs.metrics` registry is the aggregate half).  It
collects three streams from one simulation run:

* **process transitions** — the engine reports every lifecycle edge
  (start, compute delay, blocked-on-read/write, resume, done, killed)
  through :meth:`Simulator.set_transition_hook`; the Perfetto exporter
  turns these into execution spans and blocked intervals;
* **fault markers** — the injector reports the injection instant, the
  :class:`~repro.core.detection.DetectionLog` reports every detection;
* **detection latency** — each (injection, first matching detection) pair
  feeds the ``detect.latency_ms`` histogram, the quantity Eq. 8 bounds.

An :class:`Observability` object bundles a registry with a timeline and is
what run harnesses pass around (``run_duplicated(..., obs=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.core.detection import FaultReport
from repro.obs.metrics import MetricsRegistry

#: Transition kinds emitted by the engine hook (see Simulator._advance).
TRANSITION_KINDS = (
    "start",      # first advancement of a registered process
    "compute",    # a Delay began; detail = duration (ms)
    "block_read",   # parked / waiting on a read; detail = channel name
    "block_write",  # parked on a write; detail = channel name
    "resume",     # a blocked operation completed
    "done",       # the process generator finished
    "killed",     # fault injection terminated the process
)


class Transition(NamedTuple):
    """One process lifecycle edge at a virtual instant."""

    time: float
    process: str
    kind: str
    detail: Any = None


@dataclass(frozen=True)
class InjectionMark:
    """One armed fault firing."""

    time: float
    replica: int
    kind: str
    processes: Tuple[str, ...] = ()


class RunTimeline:
    """Ordered record of everything observable about one run.

    The timeline is passive: recording never mutates engine or channel
    state, so enabling it cannot perturb the event order (golden-trace
    byte-identity is asserted by the integration tests).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Lifecycle edges, recorded as plain tuples and turned into
        #: :class:`Transition` records when :attr:`transitions` is read.
        self._edges: List[tuple] = []
        self._typed = 0
        self.injections: List[InjectionMark] = []
        self.detections: List[FaultReport] = []
        self._latency_hist = self.registry.histogram("detect.latency_ms")
        self._report_count = self.registry.counter("detect.reports")

    # -- engine hook --------------------------------------------------------

    def transition(
        self, time: float, process: str, kind: str, detail: Any = None
    ) -> None:
        """Record one lifecycle edge (the simulator's transition hook)."""
        self._edges.append((time, process, kind, detail))

    @property
    def transitions(self) -> List[Transition]:
        """Every lifecycle edge so far, in recording order."""
        edges = self._edges
        if self._typed < len(edges):
            edges[self._typed:] = map(Transition._make, edges[self._typed:])
            self._typed = len(edges)
        return edges

    # -- fault markers ------------------------------------------------------

    def mark_injection(
        self,
        time: float,
        replica: int,
        kind: str,
        processes: Tuple[str, ...] = (),
    ) -> None:
        """Record a fault firing (called by the injector)."""
        self.injections.append(InjectionMark(time, replica, kind, processes))

    def on_report(self, report: FaultReport) -> None:
        """DetectionLog observer: record and account one detection."""
        self.detections.append(report)
        self._report_count.inc()
        injected = self.injection_for(report.replica, before=report.time)
        if injected is not None:
            self._latency_hist.observe(report.time - injected.time)

    def watch(self, detection_log) -> None:
        """Subscribe to a :class:`~repro.core.detection.DetectionLog`."""
        detection_log.subscribe(self.on_report)

    # -- queries ------------------------------------------------------------

    def injection_for(
        self, replica: int, before: Optional[float] = None
    ) -> Optional[InjectionMark]:
        """The earliest injection into ``replica`` (optionally ``<= t``)."""
        for mark in self.injections:
            if mark.replica != replica:
                continue
            if before is not None and mark.time > before:
                continue
            return mark
        return None

    def detection_latency(
        self, site: Optional[str] = None
    ) -> Optional[float]:
        """Injection-to-first-detection latency (ms), optionally per site.

        Pre-injection reports (false positives of a deliberately
        under-sized configuration) are excluded, mirroring
        :meth:`FaultInjector.detection_latency`.
        """
        for report in self.detections:
            if site is not None and report.site != site:
                continue
            injected = self.injection_for(report.replica, before=report.time)
            if injected is None:
                continue
            return report.time - injected.time
        return None

    def process_names(self) -> List[str]:
        """Every process that appears in the transition stream."""
        seen = dict.fromkeys(t.process for t in self.transitions)
        return list(seen)

    def __repr__(self) -> str:
        return (
            f"RunTimeline({len(self.transitions)} transitions, "
            f"{len(self.injections)} injections, "
            f"{len(self.detections)} detections)"
        )


@dataclass
class Observability:
    """One run's telemetry bundle: aggregate metrics plus the timeline.

    Pass an instance to ``run_duplicated(..., obs=...)`` (or wire the
    pieces manually: registry into the network/channels, the timeline's
    hooks into the simulator, detection log and injector).
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    timeline: RunTimeline = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.timeline is None:
            self.timeline = RunTimeline(self.registry)
