"""The replicator channel (Section 3.1, rules R1-R3; detection: Section 3.3).

One writing interface (the producer ``P``), two reading interfaces (the
replicas ``R_1`` and ``R_2``).  Internally two FIFO queues of capacities
``|R_1|`` and ``|R_2|``:

1. each queue has ``fill_k`` / ``space_k`` variables, initially
   ``fill_k = 0``, ``space_k = |R_k|``;
2. each reading interface destructively and blockingly reads its own queue;
3. a write enqueues the token into *both* queues if
   ``min(space_1, space_2) > 0``, else it blocks.

Fault detection (Section 3.3) replaces the blocking in rule 3: the queues
were sized by Eq. 3 so that a healthy replica never lets its queue fill up;
finding ``space_k == 0`` at a write instant therefore *is* the detection of
a timing fault in replica ``k`` (``fault_k := TRUE``), after which the
replicator stops inserting tokens into that queue — this is what prevents
the deadlock of the motivational example (Section 1.1): the producer can
no longer block on the faulty side, so the healthy replica keeps running.

A second, "analogous" mechanism (the paper's threshold computation for the
replicator channel) monitors the divergence of the replicas' *consumption*
counts: if ``reads_i - reads_j > D`` then replica ``j`` is consuming too
slowly and is flagged faulty.  Pass ``divergence_threshold=None`` to
disable it and reproduce the occupancy-only variant.

No wall-clock or virtual-time values are read by any detection rule —
detection is purely counter-based, the paper's "no runtime time-keeping".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_OVERFLOW,
    DetectionLog,
)
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.seriesrows import FOLD_SIZE
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


class ReplicatorChannel:
    """A replicator channel with autonomous timing-fault detection.

    Parameters
    ----------
    name:
        Channel name.
    capacities:
        ``(|R_1|, |R_2|)`` from Eq. 3.
    divergence_threshold:
        Optional integer ``D`` for consumption-divergence detection
        (Eq. 5 computed on the replica input curves); ``None`` disables.
    transfer_latency:
        Optional ``f(token) -> ms`` communication latency (SCC model).
    traces:
        Optional pair of :class:`ChannelTrace` (one per queue).
    detection_log:
        Shared :class:`DetectionLog`; a fresh one is created if omitted.
    strict_single_fault:
        When True (default), flagging *both* replicas faulty raises
        :class:`SimulationError` — the paper's fault model admits at most
        one permanent timing fault.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        enabled, every committed operation samples the live ``space_k``
        levels (``chan.<name>.space_k``) and the consumption divergence
        ``|reads_1 - reads_2|`` (``chan.<name>.divergence``) — the
        quantity the Eq. 5 threshold ``D`` bounds at this channel.

    The channel counts its own cost for the runtime overhead of Table 2:
    ``ops`` primitive counter updates over ``op_calls`` operations (1 per
    read poll, 3 per write poll).
    """

    def __init__(
        self,
        name: str,
        capacities: Tuple[int, int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        traces: Optional[Tuple[ChannelTrace, ChannelTrace]] = None,
        detection_log: Optional[DetectionLog] = None,
        strict_single_fault: bool = True,
        metrics=None,
    ) -> None:
        if len(capacities) != 2:
            raise ValueError("replicator needs exactly two queue capacities")
        if any(c < 1 for c in capacities):
            raise ValueError("queue capacities must be >= 1")
        if divergence_threshold is not None and divergence_threshold < 1:
            raise ValueError("divergence threshold must be >= 1")
        self.name = name
        self.capacities = tuple(capacities)
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.traces = traces
        # Note: `or` would misfire here — an empty DetectionLog is falsy.
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.strict_single_fault = strict_single_fault
        self.ops = 0
        self.op_calls = 0
        #: One row ``time, space_1, space_2, divergence`` per committed
        #: operation, or ``None`` without an enabled registry.
        self._rows = (
            metrics.series_rows(f"chan.{name}.space_1",
                                f"chan.{name}.space_2",
                                f"chan.{name}.divergence")
            if metrics is not None and metrics.enabled else None
        )
        self._queues: Tuple[Deque, Deque] = (deque(), deque())
        self.fault = [False, False]
        #: ``fault[0] or fault[1]``, kept in step by every flag change.
        self._faulted = False
        self.reads = [0, 0]
        self.writes = 0
        #: Interface under post-countermeasure catch-up (see
        #: :meth:`reprime`); consumption-divergence detection is muted
        #: until the healthy replica's read counter catches back up.
        self._recovering: Optional[int] = None
        self._sim = None
        self._parked_readers: Tuple[Deque, Deque] = (deque(), deque())
        self._parked_writers: Deque = deque()

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach the simulator used to wake parked processes."""
        self._sim = sim

    @property
    def writer(self) -> WriteEndpoint:
        """The producer-facing write endpoint."""
        return WriteEndpoint(self, 0)

    def reader(self, replica: int) -> ReadEndpoint:
        """The read endpoint of replica ``replica`` (0 or 1)."""
        if replica not in (0, 1):
            raise ValueError("replica index must be 0 or 1")
        return ReadEndpoint(self, replica)

    # -- state --------------------------------------------------------------

    def fill(self, replica: int) -> int:
        """``fill_k`` — tokens currently queued for replica ``replica``."""
        return len(self._queues[replica])

    def space(self, replica: int) -> int:
        """``space_k`` — free capacity of queue ``replica``."""
        return self.capacities[replica] - len(self._queues[replica])

    @property
    def any_fault(self) -> bool:
        """True once any replica has been flagged."""
        return self._faulted

    # -- detection helpers ------------------------------------------------

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self._faulted = True
        self.log.record(now, "replicator", replica, mechanism, detail)
        if self.strict_single_fault and all(self.fault):
            raise SimulationError(
                f"{self.name}: both replicas flagged faulty — single-fault "
                "assumption violated (or FIFO capacities under-sized)"
            )
        # The faulty queue will never be written again; a parked reader on
        # it would wait forever, which models the faulty replica stalling.

    def quarantine(self, replica: int) -> None:
        """Mark a replica faulty without recording a detection.

        Used by the multi-port fault coordinator when *another* channel
        of the same replica detected the fault: the replica is condemned
        as a whole (Section 2's fault model is per replica, not per
        channel), so this channel stops serving it too.
        """
        if not self.fault[replica]:
            self.fault[replica] = True
            self._faulted = True

    # -- recovery -----------------------------------------------------------

    def reprime(self, replica: int) -> int:
        """Re-prime interface ``replica`` for a respawned generation.

        The stale queue is flushed (its tokens were meant for the dead
        generation), the read counter fast-forwards to the producer's
        write counter — the respawned replica starts exactly at the live
        input frontier — and the fault flag clears so rule R3 enqueues
        into this queue again.  The consumption-divergence check is
        muted until the *healthy* replica's read counter has caught back
        up to the recovered one's (the fast-forward put the recovered
        counter ahead by the healthy backlog; that offset is transient
        bookkeeping, not divergence).  Occupancy-based detection stays
        armed throughout — a failed respawn fills the queue and is
        re-detected.  Returns the number of flushed tokens.
        """
        if replica not in (0, 1):
            raise ValueError("replica index must be 0 or 1")
        flushed = len(self._queues[replica])
        self._queues[replica].clear()
        self.reads[replica] = self.writes
        self.fault[replica] = False
        self._faulted = self.fault[1 - replica]
        self._recovering = replica
        return flushed

    def _check_divergence(self, now: float) -> None:
        # Called once |reads_1 - reads_2| > D, with no replica flagged
        # and no recovery catching up.
        gap = self.reads[0] - self.reads[1]
        if gap > self.threshold:
            self._flag(
                1,
                MECHANISM_DIVERGENCE,
                now,
                f"reads={self.reads[0]}/{self.reads[1]} D={self.threshold}",
            )
        elif -gap > self.threshold:
            self._flag(
                0,
                MECHANISM_DIVERGENCE,
                now,
                f"reads={self.reads[0]}/{self.reads[1]} D={self.threshold}",
            )

    # -- channel protocol (engine-facing) -----------------------------------

    def poll_read(self, index: int, now: float):
        if index not in (0, 1):
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 1  # fill/space update of one queue
        self.op_calls += 1
        queue = self._queues[index]
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        reads = self.reads
        reads[index] += 1
        if self._recovering is not None:
            recovering = self._recovering
            if reads[1 - recovering] >= reads[recovering]:
                self._recovering = None
        traces = self.traces
        if traces is not None:
            # Inlined ChannelTrace.on_read (as in Fifo); the method still
            # records events and raises on an undeclared read.
            trace = traces[index]
            if trace.record_events or trace.fill <= 0:
                trace.on_read(now, token[1], index)
            else:
                trace.fill -= 1
                trace.reads += 1
        divergence = abs(reads[0] - reads[1])
        rows = self._rows
        if rows is not None:
            queues = self._queues
            capacities = self.capacities
            rows.extend((now, capacities[0] - len(queues[0]),
                         capacities[1] - len(queues[1]), divergence))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        threshold = self.threshold
        if (threshold is not None and divergence > threshold
                and not self._faulted and self._recovering is None):
            self._check_divergence(now)
        if self._parked_writers:
            self._wake(self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 3  # two space checks + enqueue bookkeeping
        self.op_calls += 1
        queue_1, queue_2 = self._queues
        capacity_1, capacity_2 = self.capacities
        fault = self.fault
        # Occupancy-based detection (Section 3.3): a full healthy queue at a
        # write instant (space_k == 0) means that replica stopped (or
        # slowed) consuming.
        if not fault[0] and len(queue_1) == capacity_1:
            self._flag(0, MECHANISM_OVERFLOW, now,
                       f"space_1=0 at write of seq {token.seqno}")
        if not fault[1] and len(queue_2) == capacity_2:
            self._flag(1, MECHANISM_OVERFLOW, now,
                       f"space_2=0 at write of seq {token.seqno}")
        write_1 = not fault[0]
        write_2 = not fault[1]
        if not (write_1 or write_2):
            # Only reachable with strict_single_fault=False.
            return ("full", None)
        delay = self._latency(token) if self._latency is not None else 0.0
        entry = (now + delay, token)
        traces = self.traces
        if write_1:
            queue_1.append(entry)
            if traces is not None:
                # Inlined ChannelTrace.on_write (see poll_read).
                trace = traces[0]
                if trace.record_events:
                    trace.on_write(now, token[1], 0)
                else:
                    fill = trace.fill + 1
                    trace.fill = fill
                    trace.writes += 1
                    if fill > trace.max_fill:
                        trace.max_fill = fill
        if write_2:
            queue_2.append(entry)
            if traces is not None:
                trace = traces[1]
                if trace.record_events:
                    trace.on_write(now, token[1], 1)
                else:
                    fill = trace.fill + 1
                    trace.fill = fill
                    trace.writes += 1
                    if fill > trace.max_fill:
                        trace.max_fill = fill
        self.writes += 1
        rows = self._rows
        if rows is not None:
            reads = self.reads
            rows.extend((now, capacity_1 - len(queue_1),
                         capacity_2 - len(queue_2), abs(reads[0] - reads[1])))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        parked_1, parked_2 = self._parked_readers
        if write_1 and parked_1:
            self._wake(parked_1)
        if write_2 and parked_2:
            self._wake(parked_2)
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers[index].append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    # -- internals ------------------------------------------------------------

    def _wake(self, parked: Deque) -> None:
        # FIFO wake order (see Fifo._wake): deterministic retry sequence.
        sim = self._sim
        while parked:
            handle = parked.popleft()
            handle.is_parked = False
            if sim is not None:
                sim.retry(handle)

    def __repr__(self) -> str:
        return (
            f"ReplicatorChannel({self.name}, fills="
            f"{self.fill(0)}/{self.fill(1)}, fault={self.fault})"
        )
