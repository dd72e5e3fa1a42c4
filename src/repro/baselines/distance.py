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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baselines.monitor import MonitorDetection, PollingMonitor
from repro.kpn.trace import ChannelTrace
from repro.rtc.pjd import PJD


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


class DistanceFunctionMonitor(PollingMonitor):
    """Polling distance-function monitor over one or more streams.

    Parameters
    ----------
    name, poll_interval, stop_time, streams, event_kind:
        See :class:`~repro.baselines.monitor.PollingMonitor`.  The paper's
        comparison polls every 1 ms and observes the replica streams at
        the replicator (their ``read`` events) and selector (``write``).
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
        super().__init__(name, poll_interval, stop_time, streams, event_kind)
        if len(bounds) != len(self.streams):
            raise ValueError("need one DistanceBounds per stream")
        self.bounds = list(bounds)
        self.check_overrate = check_overrate

    def check(self, now: float) -> List[MonitorDetection]:
        detections: List[MonitorDetection] = []
        for index, bound in enumerate(self.bounds):
            last = self.last_event_time(index)
            if last is None:
                # Not armed yet: the monitor starts judging a stream at its
                # first event (standard practice — a startup gap is not a
                # fault).
                continue
            if now - last > bound.d_max[0]:
                detections.append(
                    MonitorDetection(
                        time=now,
                        stream=index,
                        reason=(
                            f"gap {now - last:.3f} > d_max(1)="
                            f"{bound.d_max[0]:.3f}"
                        ),
                    )
                )
                continue
            if self.check_overrate:
                detections.extend(self._overrate(index, bound, now))
        return detections

    def _overrate(self, index: int, bound: DistanceBounds, now: float
                  ) -> List[MonitorDetection]:
        times = self.recent_event_times(index, bound.l + 1)
        detections: List[MonitorDetection] = []
        for k in range(1, len(times)):
            gap = times[-1] - times[-1 - k]
            if gap < bound.d_min[k - 1]:
                detections.append(
                    MonitorDetection(
                        time=now,
                        stream=index,
                        reason=(
                            f"distance({k}) {gap:.3f} < d_min({k})="
                            f"{bound.d_min[k - 1]:.3f}"
                        ),
                    )
                )
                break
        return detections
