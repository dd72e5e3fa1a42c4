"""Instrumentation: token event logs and the fill high-water mark.

Two consumers of this data exist in the library:

* calibration (Eq. 2) needs the raw timestamps at which tokens crossed an
  interface (:func:`repro.kpn.tracefile.channel_timestamps` filters them
  out of a trace for :func:`repro.rtc.calibration.fit_pjd`);
* the Table 2 rows "Max. Observed Fill" need the running maximum occupancy
  of every FIFO.

The channels own their occupancy: a trace holds only what a channel
forgets, the event log and the high-water mark ``max_fill``.  The channel
raises ``max_fill`` from its own queue length on every enqueue (and from
its priming tokens at construction), so a queue flushed by a recovery
countermeasure is measured as it really is.  Recording the event log is
optional (``record_events=False`` keeps only the fill maximum) so
paper-scale runs stay light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(slots=True)
class EventRecord:
    """One channel event: a write (production) or read (consumption)."""

    time: float
    kind: str  # "write" | "read" | "drop"
    seqno: int
    interface: int = 0


class ChannelTrace:
    """The event log and fill high-water mark of one channel queue.

    ``max_fill`` is the largest occupancy the owning channel's queue ever
    reached — the quantity Table 2 compares against the theoretical
    capacity.  When ``record_events`` is set, the channel also appends one
    :class:`EventRecord` per committed write, read and drop, for curve
    calibration.

    Slotted: the channels touch it on every committed write.
    """

    __slots__ = ("name", "record_events", "max_fill", "events")

    def __init__(self, name: str, record_events: bool = False) -> None:
        self.name = name
        self.record_events = record_events
        self.max_fill = 0
        self.events: List[EventRecord] = []


class TraceRecorder:
    """Registry of all channel traces in one simulation run."""

    def __init__(self, record_events: bool = False) -> None:
        self.record_events = record_events
        self._traces: Dict[str, ChannelTrace] = {}

    def channel(self, name: str) -> ChannelTrace:
        """Get (or create) the trace for a channel name."""
        if name not in self._traces:
            self._traces[name] = ChannelTrace(name, self.record_events)
        return self._traces[name]

    def max_fills(self) -> Dict[str, int]:
        """Mapping channel name -> max observed fill."""
        return {name: t.max_fill for name, t in self._traces.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __getitem__(self, name: str) -> ChannelTrace:
        return self._traces[name]

    def names(self) -> List[str]:
        return sorted(self._traces)
