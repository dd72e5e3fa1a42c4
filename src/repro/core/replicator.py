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
        given, every committed operation samples the live ``space_k``
        levels (``chan.<name>.space_1 .. space_n``) and the consumption
        divergence ``max reads - min reads`` (``chan.<name>.divergence``)
        — the quantity the Eq. 5 threshold ``D`` bounds at this channel.

    The channel counts its own cost for the runtime overhead of Table 2:
    ``ops`` primitive counter updates over ``op_calls`` operations (1 per
    read poll, ``1 + n`` per write poll).

    One :meth:`poll_read` and one :meth:`poll_write`, defined on the
    class, serve every ``n``; at ``n = 2`` they are the paper's rules.
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
        #: Number of replicas, ``len(capacities)``.
        self.n = n
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
        #: operation, or ``None`` without a registry.
        self._rows = (
            metrics.series_rows(
                *(f"chan.{name}.space_{k + 1}" for k in range(n)),
                f"chan.{name}.divergence")
            if metrics is not None else None
        )
        self._queues: Tuple[Deque, ...] = tuple(deque() for _ in range(n))
        self.fault = [False] * n
        #: ``fault.count(False)``, kept in step by every flag change.
        self._healthy = n
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
        return self._healthy < self.n

    # -- detection helpers ------------------------------------------------

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self._healthy -= 1
        self.log.record(now, "replicator", replica, mechanism, detail)
        if self.strict_single_fault and not self._healthy:
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
            self._healthy -= 1

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
        self._healthy = self.fault.count(False)
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
        # than D.  poll_read calls it only with two replicas healthy, no
        # recovery catching up, and the spread over all the counters, a
        # bound on every healthy lag, above D.
        reads = self.reads
        healthy = [k for k in range(self.n) if not self.fault[k]]
        front = max(reads[k] for k in healthy)
        detail = f"reads={'/'.join(map(str, reads))} D={self.threshold}"
        for k in healthy:
            if front - reads[k] > self.threshold:
                self._flag(k, MECHANISM_DIVERGENCE, now, detail)

    # -- channel protocol (engine-facing) -----------------------------------
    #
    # One body per operation serves every n.  The loops run over the
    # queues with a hand-kept index and write series rows with append,
    # and the detection checks sit behind necessary conditions: at the
    # paper's n = 2 a `range`, a comprehension or `max`/`min` costs more
    # than the bookkeeping it serves.

    def poll_read(self, index: int, now: float):
        if not 0 <= index < self.n:
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
        if self._recovering is not None and self._caught_up(self._recovering):
            self._recovering = None
        traces = self.traces
        if traces is not None and traces[index].record_events:
            traces[index].events.append(
                EventRecord(now, "read", token[1], index))
        rows = self._rows
        threshold = self.threshold
        if rows is not None or threshold is not None:
            # The consumption spread max reads - min reads, in one pass.
            low = high = reads[0]
            for count in reads:
                if count < low:
                    low = count
                elif count > high:
                    high = count
            spread = high - low
            if rows is not None:
                rows.append(now)
                capacities = self.capacities
                k = 0
                for queue in self._queues:
                    rows.append(capacities[k] - len(queue))
                    k += 1
                rows.append(spread)
                if len(rows) >= FOLD_SIZE:
                    rows.fold()
            # The spread over all counters bounds every healthy lag.
            if (threshold is not None and spread > threshold
                    and self._healthy > 1 and self._recovering is None):
                self._check_divergence(now)
        if self._parked_writers:
            wake_parked(self._sim, self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n  # n space checks + enqueue bookkeeping
        self.op_calls += 1
        fault = self.fault
        capacities = self.capacities
        traces = self.traces
        parked = self._parked_readers
        entry = None
        k = 0
        for queue in self._queues:
            if not fault[k]:
                # Occupancy-based detection (Section 3.3): a full healthy
                # queue at a write instant (space_k == 0) means that
                # replica stopped (or slowed) consuming.
                if len(queue) == capacities[k]:
                    self._flag(
                        k, MECHANISM_OVERFLOW, now,
                        f"space_{k + 1}=0 at write of seq {token.seqno}")
                else:
                    if entry is None:
                        delay = (self._latency(token)
                                 if self._latency is not None else 0.0)
                        entry = (now + delay, token)
                    queue.append(entry)
                    if traces is not None:
                        trace = traces[k]
                        if len(queue) > trace.max_fill:
                            trace.max_fill = len(queue)
                        if trace.record_events:
                            trace.events.append(
                                EventRecord(now, "write", token[1], k))
                    if parked[k]:
                        wake_parked(self._sim, parked[k])
            k += 1
        if entry is None:
            # Every queue is flagged; only reachable with
            # strict_single_fault=False.
            return ("full", None)
        self.writes += 1
        rows = self._rows
        if rows is not None:
            reads = self.reads
            low = high = reads[0]
            for count in reads:
                if count < low:
                    low = count
                elif count > high:
                    high = count
            rows.append(now)
            k = 0
            for queue in self._queues:
                rows.append(capacities[k] - len(queue))
                k += 1
            rows.append(high - low)
            if len(rows) >= FOLD_SIZE:
                rows.fold()
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
