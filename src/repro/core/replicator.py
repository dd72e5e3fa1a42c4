"""The replicator channel (Section 3.1, rules R1-R3; detection: Section 3.3).

One writing interface (the producer ``P``), ``n >= 2`` reading interfaces
(the replicas ``R_1 .. R_n``; the paper presents ``n = 2``).  Internally
one FIFO queue of capacity ``|R_k|`` per replica:

1. each queue has ``fill_k`` / ``space_k`` variables, initially
   ``fill_k = 0``, ``space_k = |R_k|``;
2. each reading interface destructively and blockingly reads its own queue;
3. a write enqueues the token into *every* queue if
   ``min_k space_k > 0``, else it blocks.

Fault detection (Section 3.3) replaces the blocking in rule 3: the queues
were sized by Eq. 3 so that a healthy replica never lets its queue fill up;
finding ``space_k == 0`` at a write instant therefore *is* the detection of
a timing fault in replica ``k`` (``fault_k := TRUE``), after which the
replicator stops inserting tokens into that queue — this is what prevents
the deadlock of the motivational example (Section 1.1): the producer can
no longer block on the faulty side, so the healthy replicas keep running.

A second, "analogous" mechanism (the paper's threshold computation for the
replicator channel) monitors the divergence of the replicas' *consumption*
counts: a healthy replica whose ``reads_k`` lags the healthy front
``max reads_i`` by more than ``D`` is consuming too slowly and is flagged
faulty (for ``n = 2``: ``reads_i - reads_j > D`` flags ``j``).  Pass
``divergence_threshold=None`` to disable it and reproduce the
occupancy-only variant.

With ``n`` replicas the channel tolerates ``n - 1`` permanent timing
faults ("a more general setup ... can be easily constructed", Section 1).
The queues share one ``(ready, token)`` entry per write, so a token is
stored once however many queues hold it — the storage of the circular
buffer Section 3.1 mentions.

No wall-clock or virtual-time values are read by any detection rule —
detection is purely counter-based, the paper's "no runtime time-keeping".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_OVERFLOW,
    DetectionLog,
)
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint, wake_parked
from repro.kpn.seriesrows import FOLD_SIZE
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace, EventRecord


class ReplicatorChannel:
    """A replicator channel with autonomous timing-fault detection.

    Parameters
    ----------
    name:
        Channel name.
    capacities:
        ``(|R_1|, ..., |R_n|)`` from Eq. 3; ``n = len(capacities) >= 2``.
    divergence_threshold:
        Optional integer ``D`` for consumption-divergence detection
        (Eq. 5 computed on the replica input curves); ``None`` disables.
    transfer_latency:
        Optional ``f(token) -> ms`` communication latency (SCC model).
    traces:
        Optional sequence of ``n`` :class:`ChannelTrace` (one per queue);
        each queue's length raises its trace's ``max_fill``, and the
        queue's writes and reads are logged when the trace records
        events.
    detection_log:
        Shared :class:`DetectionLog`; a fresh one is created if omitted.
    strict_single_fault:
        When True (default), flagging *every* replica faulty raises
        :class:`SimulationError` — the fault model admits at most
        ``n - 1`` permanent timing faults (one for the paper's pair).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        enabled, every committed operation samples the live ``space_k``
        levels (``chan.<name>.space_1 .. space_n``) and the consumption
        divergence ``max reads - min reads`` (``chan.<name>.divergence``)
        — the quantity the Eq. 5 threshold ``D`` bounds at this channel.

    The channel counts its own cost for the runtime overhead of Table 2:
    ``ops`` primitive counter updates over ``op_calls`` operations (1 per
    read poll, ``1 + n`` per write poll).

    The class-level :meth:`poll_read`/:meth:`poll_write` are the paper's
    two-replica bodies, straight-line for the engine's hot path; for
    ``n > 2`` the constructor installs the general bodies
    (:meth:`_poll_read_n`/:meth:`_poll_write_n`), which reduce to the same
    rules at ``n = 2``.
    """

    def __init__(
        self,
        name: str,
        capacities: Sequence[int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        traces: Optional[Sequence[ChannelTrace]] = None,
        detection_log: Optional[DetectionLog] = None,
        strict_single_fault: bool = True,
        metrics=None,
    ) -> None:
        n = len(capacities)
        if n < 2:
            raise ValueError("replicator needs at least two queue capacities")
        if any(c < 1 for c in capacities):
            raise ValueError("queue capacities must be >= 1")
        if divergence_threshold is not None and divergence_threshold < 1:
            raise ValueError("divergence threshold must be >= 1")
        if traces is not None and len(traces) != n:
            raise ValueError("replicator needs one trace per queue")
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
        #: One row ``time, space_1 .. space_n, divergence`` per committed
        #: operation, or ``None`` without an enabled registry.
        self._rows = (
            metrics.series_rows(
                *(f"chan.{name}.space_{k + 1}" for k in range(n)),
                f"chan.{name}.divergence")
            if metrics is not None and metrics.enabled else None
        )
        self._queues: Tuple[Deque, ...] = tuple(deque() for _ in range(n))
        self.fault = [False] * n
        #: ``any(fault)``, kept in step by every flag change.
        self._faulted = False
        self.reads = [0] * n
        self.writes = 0
        #: Interface under post-countermeasure catch-up (see
        #: :meth:`reprime`); consumption-divergence detection is muted
        #: until the healthy replicas' read counters catch back up.
        self._recovering: Optional[int] = None
        self._sim = None
        self._parked_readers: Tuple[Deque, ...] = tuple(
            deque() for _ in range(n))
        self._parked_writers: Deque = deque()
        if n > 2:
            self.poll_read = self._poll_read_n  # type: ignore[method-assign]
            self.poll_write = self._poll_write_n  # type: ignore[method-assign]

    @property
    def n(self) -> int:
        """Number of replicas, ``len(capacities)``."""
        return len(self.capacities)

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach the simulator used to wake parked processes."""
        self._sim = sim

    @property
    def writer(self) -> WriteEndpoint:
        """The producer-facing write endpoint."""
        return WriteEndpoint(self, 0)

    def reader(self, replica: int) -> ReadEndpoint:
        """The read endpoint of replica ``replica`` (``0 .. n-1``)."""
        self._check_replica(replica)
        return ReadEndpoint(self, replica)

    # -- state --------------------------------------------------------------

    def fill(self, replica: int) -> int:
        """``fill_k`` — tokens currently queued for replica ``replica``."""
        return len(self._queues[replica])

    def space(self, replica: int) -> int:
        """``space_k`` — free capacity of queue ``replica``."""
        return self.capacities[replica] - len(self._queues[replica])

    @property
    def stored_entries(self) -> int:
        """Distinct ``(ready, token)`` entries held across the queues —
        the slots a circular buffer with one cursor per replica needs
        (every queue a write reaches shares that write's entry)."""
        return len({id(entry) for queue in self._queues for entry in queue})

    @property
    def any_fault(self) -> bool:
        """True once any replica has been flagged."""
        return self._faulted

    # -- detection helpers ------------------------------------------------

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self._faulted = True
        self.log.record(now, "replicator", replica, mechanism, detail)
        if self.strict_single_fault and all(self.fault):
            raise SimulationError(
                f"{self.name}: all {self.n} replicas flagged faulty — "
                "fault assumption violated (or FIFO capacities under-sized)"
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
        muted until the *healthy* replicas' read counters have caught
        back up to the recovered one's (the fast-forward put the
        recovered counter ahead by the healthy backlog; that offset is
        transient bookkeeping, not divergence).  Occupancy-based
        detection stays armed throughout — a failed respawn fills the
        queue and is re-detected.  The queue is the only record of its
        occupancy, so the flush needs no trace bookkeeping: the trace
        keeps its high-water mark, and later writes measure the emptied
        queue.  Returns the number of flushed tokens.
        """
        self._check_replica(replica)
        flushed = len(self._queues[replica])
        self._queues[replica].clear()
        self.reads[replica] = self.writes
        self.fault[replica] = False
        self._faulted = any(self.fault)
        self._recovering = replica
        return flushed

    def _caught_up(self, recovering: int) -> bool:
        """Whether the healthy replicas (all the others when none is
        healthy) have read as far as the recovering one."""
        reads = self.reads
        others = [k for k in range(self.n) if k != recovering]
        healthy = [k for k in others if not self.fault[k]] or others
        return min(reads[k] for k in healthy) >= reads[recovering]

    def _check_divergence(self, now: float) -> None:
        # Flags every healthy replica lagging the healthy front by more
        # than D; needs two healthy replicas.  The two-replica body calls
        # it once |reads_1 - reads_2| > D with no replica flagged and no
        # recovery catching up.
        reads = self.reads
        healthy = [k for k in range(self.n) if not self.fault[k]]
        if len(healthy) < 2:
            return
        front = max(reads[k] for k in healthy)
        detail = f"reads={'/'.join(map(str, reads))} D={self.threshold}"
        for k in healthy:
            if front - reads[k] > self.threshold:
                self._flag(k, MECHANISM_DIVERGENCE, now, detail)

    def _sample(self, now: float) -> None:
        """Record ``space_1 .. space_n`` and the divergence (inlined in
        the two-replica bodies)."""
        rows = self._rows
        reads = self.reads
        rows.extend((now, *[capacity - len(queue) for capacity, queue
                            in zip(self.capacities, self._queues)],
                     max(reads) - min(reads)))
        if len(rows) >= FOLD_SIZE:
            rows.fold()

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
        if traces is not None and traces[index].record_events:
            traces[index].events.append(
                EventRecord(now, "read", token[1], index))
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
            wake_parked(self._sim, self._parked_writers)
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
                trace = traces[0]
                if len(queue_1) > trace.max_fill:
                    trace.max_fill = len(queue_1)
                if trace.record_events:
                    trace.events.append(EventRecord(now, "write", token[1], 0))
        if write_2:
            queue_2.append(entry)
            if traces is not None:
                trace = traces[1]
                if len(queue_2) > trace.max_fill:
                    trace.max_fill = len(queue_2)
                if trace.record_events:
                    trace.events.append(EventRecord(now, "write", token[1], 1))
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
            wake_parked(self._sim, parked_1)
        if write_2 and parked_2:
            wake_parked(self._sim, parked_2)
        return ("ok", None)

    def _poll_read_n(self, index: int, now: float):
        """:meth:`poll_read` for any ``n`` (installed for ``n > 2``)."""
        if not 0 <= index < self.n:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 1
        self.op_calls += 1
        queue = self._queues[index]
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        self.reads[index] += 1
        if self._recovering is not None and self._caught_up(self._recovering):
            self._recovering = None
        if self.traces is not None and self.traces[index].record_events:
            self.traces[index].events.append(
                EventRecord(now, "read", token[1], index))
        if self._rows is not None:
            self._sample(now)
        if self.threshold is not None and self._recovering is None:
            self._check_divergence(now)
        if self._parked_writers:
            wake_parked(self._sim, self._parked_writers)
        return ("ok", token)

    def _poll_write_n(self, index: int, token: Token, now: float):
        """:meth:`poll_write` for any ``n`` (installed for ``n > 2``)."""
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n  # n space checks + enqueue bookkeeping
        self.op_calls += 1
        queues = self._queues
        fault = self.fault
        for k, queue in enumerate(queues):
            if not fault[k] and len(queue) == self.capacities[k]:
                self._flag(k, MECHANISM_OVERFLOW, now,
                           f"space_{k + 1}=0 at write of seq {token.seqno}")
        targets = [k for k in range(self.n) if not fault[k]]
        if not targets:
            # Only reachable with strict_single_fault=False.
            return ("full", None)
        delay = self._latency(token) if self._latency is not None else 0.0
        entry = (now + delay, token)
        for k in targets:
            queue = queues[k]
            queue.append(entry)
            if self.traces is not None:
                trace = self.traces[k]
                if len(queue) > trace.max_fill:
                    trace.max_fill = len(queue)
                if trace.record_events:
                    trace.events.append(EventRecord(now, "write", token[1], k))
        self.writes += 1
        if self._rows is not None:
            self._sample(now)
        for k in targets:
            if self._parked_readers[k]:
                wake_parked(self._sim, self._parked_readers[k])
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers[index].append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    def __repr__(self) -> str:
        fills = "/".join(str(len(queue)) for queue in self._queues)
        return f"ReplicatorChannel({self.name}, fills={fills}, fault={self.fault})"
