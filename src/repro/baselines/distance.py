"""Distance-function arrival-pattern monitoring (the paper's Table 3
baseline, after Neukirchner et al., "Monitoring arbitrary activation
patterns in real-time systems", RTSS 2012).

A general *distance function* bounds the admissible time distance between
an event and its ``k``-th successor for every ``k``; an *l-repetitive*
approximation stores only the first ``l`` distances and extrapolates —
trading monitoring precision for memory, exactly the approximation the
paper's related-work section discusses (over-approximation can cause
false positives/negatives).

For a PJD stream the exact bounds are::

    d_min(k) = max(k * period - jitter, k * min_distance)
    d_max(k) = k * period + jitter

The monitor, as modified by the paper for the fail-silent fault model,
polls every ``poll_interval`` and flags a stream faulty when the time
since its most recent event exceeds ``d_max(1)`` (the next event is
overdue) — detecting stopped or slowed replicas.  The symmetric over-rate
check (more events in a window than ``d_min`` admits) is implemented too,
for completeness and for the ablation studies.

The monitor is a simulated process that wakes up every ``poll_interval``
ms (this is the runtime-timer dependency the paper's approach
eliminates) and inspects the event history of the streams it watches — a
:class:`~repro.kpn.trace.ChannelTrace` recorded by the channel under
observation.  Because the simulator is single-threaded, a poll at
virtual time ``t`` sees exactly the events with timestamps ``<= t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.kpn.operations import Delay
from repro.kpn.process import Process
from repro.kpn.trace import ChannelTrace
from repro.rtc.pjd import PJD


@dataclass(frozen=True)
class MonitorDetection:
    """One baseline detection event."""

    time: float
    stream: int
    reason: str


@dataclass(frozen=True)
class DistanceBounds:
    """l-repetitive distance bounds for one stream."""

    d_min: tuple
    d_max: tuple

    @property
    def l(self) -> int:
        return len(self.d_min)


def l_repetitive_bounds(model: PJD, l: int = 1, margin: float = 1e-6
                        ) -> DistanceBounds:
    """Exact l-repetitive distance bounds of a PJD stream.

    ``margin`` widens the bounds infinitesimally so floating-point event
    times on the boundary never false-positive.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    d_min: List[float] = []
    d_max: List[float] = []
    for k in range(1, l + 1):
        low = max(k * model.period - model.jitter, k * model.min_distance)
        d_min.append(max(low - margin, 0.0))
        d_max.append(k * model.period + model.jitter + margin)
    return DistanceBounds(tuple(d_min), tuple(d_max))


class DistanceFunctionMonitor(Process):
    """Polling distance-function monitor over one or more streams.

    Polls every ``poll_interval`` until ``stop_time``; once a stream is
    flagged it is neither checked nor flagged again.

    Parameters
    ----------
    name:
        Process name.
    poll_interval, stop_time:
        Polling period and the virtual time after which polling stops.
        The paper's comparison polls every 1 ms.
    streams, event_kind:
        The traces to watch and the event kind that counts as an
        arrival; the paper observes the replica streams at the
        replicator (their ``read`` events) and selector (``write``).
    bounds:
        One :class:`DistanceBounds` per stream.
    check_overrate:
        Also flag streams that are *too fast* (violate ``d_min``) —
        disabled in the paper's fail-silent comparison.
    """

    def __init__(
        self,
        name: str,
        poll_interval: float,
        stop_time: float,
        streams: Sequence[ChannelTrace],
        bounds: Sequence[DistanceBounds],
        event_kind: str = "write",
        check_overrate: bool = False,
    ) -> None:
        super().__init__(name)
        if poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        self.poll_interval = poll_interval
        self.stop_time = stop_time
        self.streams = list(streams)
        self.event_kind = event_kind
        if len(bounds) != len(self.streams):
            raise ValueError("need one DistanceBounds per stream")
        self.bounds = list(bounds)
        self.check_overrate = check_overrate
        self.detections: List[MonitorDetection] = []
        self._flagged = [False] * len(self.streams)
        self.polls = 0

    def first_detection(self, stream: Optional[int] = None
                        ) -> Optional[MonitorDetection]:
        """Earliest detection (optionally for one stream)."""
        for detection in self.detections:
            if stream is None or detection.stream == stream:
                return detection
        return None

    def behavior(self):
        while self.now < self.stop_time:
            yield Delay(self.poll_interval)
            self.polls += 1
            now = self.now
            for index, bound in enumerate(self.bounds):
                if self._flagged[index]:
                    continue
                reason = self._violation(index, bound, now)
                if reason is not None:
                    self._flagged[index] = True
                    self.detections.append(
                        MonitorDetection(time=now, stream=index,
                                         reason=reason))

    def _violation(self, index: int, bound: DistanceBounds, now: float
                   ) -> Optional[str]:
        """Why stream ``index`` violates its bounds at ``now``, or
        ``None``."""
        last = self.last_event_time(index)
        if last is None:
            # Not armed yet: the monitor starts judging a stream at its
            # first event (standard practice — a startup gap is not a
            # fault).
            return None
        if now - last > bound.d_max[0]:
            return f"gap {now - last:.3f} > d_max(1)={bound.d_max[0]:.3f}"
        if self.check_overrate:
            times = self.recent_event_times(index, bound.l + 1)
            for k in range(1, len(times)):
                gap = times[-1] - times[-1 - k]
                if gap < bound.d_min[k - 1]:
                    return (f"distance({k}) {gap:.3f} < d_min({k})="
                            f"{bound.d_min[k - 1]:.3f}")
        return None

    def last_event_time(self, stream: int) -> Optional[float]:
        """Timestamp of the stream's most recent observed event."""
        events = self.streams[stream].events
        for event in reversed(events):
            if event.kind == self.event_kind:
                return event.time
        return None

    def recent_event_times(self, stream: int, count: int) -> List[float]:
        """The last ``count`` observed timestamps (oldest first)."""
        times = [
            e.time
            for e in self.streams[stream].events
            if e.kind == self.event_kind
        ]
        return times[-count:]
