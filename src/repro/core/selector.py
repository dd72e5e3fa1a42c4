"""The selector channel (Section 3.1, rules S1-S3; detection: Section 3.3).

``n >= 2`` writing interfaces (one per replica; the paper presents
``n = 2``), one reading interface (the consumer ``C``).  A *single*
physical FIFO of size ``|S| = max_k |S_k|`` plus one virtual ``space``
counter per interface:

1. ``fill = 0``, ``space_k = |S_k|`` initially;
2. the read interface destructively and blockingly reads the FIFO; a read
   increments *every* space variable and decrements ``fill``;
3. a write on interface ``k`` blocks if ``space_k == 0``; otherwise, if
   ``space_k <= space_i`` for every other interface ``i`` the token is
   enqueued (``fill += 1``) and ``space_k -= 1``; else only
   ``space_k -= 1`` and the token is dropped — it is a late member of an
   n-plicate group whose first member another interface already queued.

Because ``space_k`` is only ever decremented by interface ``k``'s own
writes (and incremented by consumer reads), back-pressure on one replica is
never caused by another — Lemma 1 (isolation), checked by the property
tests.

Fault detection (Section 3.3), both purely counter-based:

* **stall**: after a read, ``space_k > |S_k|`` means the consumer has read
  more tokens than replica ``k`` ever wrote — ``k`` would have stalled the
  consumer and is faulty;
* **divergence**: a healthy interface whose cumulative output lags the
  healthy front by more than ``D`` (from Eq. 5) is faulty — for ``n = 2``
  the paper's ``|space_1 - space_2| > D``, flagging the one with *larger*
  space (fewer writes).

After replica ``k`` is flagged, its writes are accepted and discarded
(never blocking the limping replica) and its counters freeze; the healthy
interfaces continue, down to plain single-queue semantics on the last
survivor.

The optional ``verify_duplicates`` mode additionally checks the paper's
fail-silent assumption at runtime: every late member of a group must
carry the same payload as the first (determinacy, Section 2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_STALL,
    MECHANISM_VALUE,
    DetectionLog,
)
from repro.core.equivalence import payload_equal
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint, wake_parked
from repro.kpn.seriesrows import FOLD_SIZE
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace, EventRecord


class SelectorChannel:
    """A selector channel with autonomous timing-fault detection.

    Parameters
    ----------
    name:
        Channel name.
    capacities:
        ``(|S_1|, ..., |S_n|)`` — per-interface virtual queue bounds;
        ``n = len(capacities) >= 2``.
    divergence_threshold:
        Integer ``D`` from Eq. 5; ``None`` disables divergence detection
        (stall detection remains).
    transfer_latency:
        Optional ``f(token) -> ms`` communication latency for enqueued
        tokens.
    trace:
        Optional :class:`ChannelTrace`; the physical FIFO's length raises
        its ``max_fill``, and when it records events every enqueue, read
        and drop is logged (interface recorded per event so per-replica
        curves can be calibrated).
    detection_log:
        Shared log; fresh one if omitted.
    strict_single_fault:
        Raise once every replica is flagged (default True).
    verify_duplicates:
        Compare the payload of every late member of a group with the
        first member's; a mismatch violates the fail-silent fault model
        and is logged (and raised).
    stall_detection:
        Enable the ``space_k > |S_k|`` mechanism (default).  Ablation
        studies disable it to isolate the divergence mechanism.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        given, every committed operation samples the physical fill
        (``chan.<name>.fill``), the virtual ``space_k`` levels
        (``chan.<name>.space_1 .. space_n``), the live divergence
        ``max writes - min writes`` (``chan.<name>.divergence`` — the
        Eq. 5 quantity) and, when a threshold is configured, the
        remaining headroom ``D - divergence``
        (``chan.<name>.headroom``).

    The channel counts its own cost for the runtime overhead of Table 2:
    ``ops`` primitive counter updates over ``op_calls`` operations
    (``1 + n`` per read or write poll).

    One :meth:`poll_read` and one :meth:`poll_write`, defined on the
    class, serve every ``n``; at ``n = 2`` they are the paper's rules.
    """

    def __init__(
        self,
        name: str,
        capacities: Sequence[int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        trace: Optional[ChannelTrace] = None,
        detection_log: Optional[DetectionLog] = None,
        strict_single_fault: bool = True,
        verify_duplicates: bool = False,
        priming_tokens: Tuple[Token, ...] = (),
        stall_detection: bool = True,
        metrics=None,
    ) -> None:
        n = len(capacities)
        if n < 2:
            raise ValueError("selector needs at least two virtual capacities")
        if any(c < 1 for c in capacities):
            raise ValueError("virtual capacities must be >= 1")
        if divergence_threshold is not None and divergence_threshold < 1:
            raise ValueError("divergence threshold must be >= 1")
        if len(priming_tokens) > min(capacities):
            raise ValueError(
                "priming tokens exceed the smallest virtual capacity"
            )
        self.name = name
        #: Number of replicas, ``len(capacities)``.
        self.n = n
        self.capacities = tuple(capacities)
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.trace = trace
        # Note: `or` would misfire here — an empty DetectionLog is falsy.
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.strict_single_fault = strict_single_fault
        self.verify_duplicates = verify_duplicates
        self.stall_detection = stall_detection
        self.ops = 0
        self.op_calls = 0
        self.fifo_size = max(capacities)
        # Priming tokens (Eq. 4 / the "Initial tokens" row of Table 2)
        # pre-fill the physical FIFO and count against every virtual
        # queue, so all virtual fills start equal and the comparison in
        # rule 3 remains a first-of-group test from the very first token.
        self._queue: Deque[Tuple[float, Token]] = deque(
            (0.0, token) for token in priming_tokens
        )
        self.priming = len(priming_tokens)
        self.space = [capacity - self.priming for capacity in capacities]
        if trace is not None and self.priming > trace.max_fill:
            trace.max_fill = self.priming
        self.fault = [False] * n
        #: ``fault.count(False)``, kept in step by every flag change.
        self._healthy = n
        self.writes = [0] * n
        self.drops = [0] * n
        self.reads = 0
        #: One row ``time, fill, space_1 .. space_n, divergence[,
        #: headroom]`` per committed operation, or ``None`` without a
        #: registry.
        self._rows = None
        if metrics is not None:
            if self.priming:
                metrics.timeseries(f"chan.{name}.fill").append(0.0, self.fill)
            names = ["fill", *(f"space_{k + 1}" for k in range(n)),
                     "divergence"]
            if self.threshold is not None:
                names.append("headroom")
            self._rows = metrics.series_rows(
                *(f"chan.{name}.{series}" for series in names))
        #: ``seqno -> [first member's payload, late members still to
        #: compare]`` for groups queued while every interface was healthy.
        self._pending_values: Dict[int, list] = {}
        #: Interface under post-countermeasure handover (see
        #: :meth:`begin_recovery`); ``_handover`` is the number of solo
        #: writes the healthy interfaces owe before pairing resumes.
        self._recovering: Optional[int] = None
        self._handover = 0
        self._on_recovered: Optional[Callable[[float], None]] = None
        self._sim = None
        self._parked_reader: Deque = deque()
        self._parked_writers: Tuple[Deque, ...] = tuple(
            deque() for _ in range(n))

    @property
    def fill(self) -> int:
        """``fill`` — tokens in the physical FIFO (including in flight)."""
        return len(self._queue)

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach the simulator used to wake parked processes."""
        self._sim = sim

    def writer(self, replica: int) -> WriteEndpoint:
        """The write endpoint of replica ``replica`` (``0 .. n-1``)."""
        self._check_replica(replica)
        return WriteEndpoint(self, replica)

    @property
    def reader(self) -> ReadEndpoint:
        """The consumer-facing read endpoint."""
        return ReadEndpoint(self, 0)

    @property
    def any_fault(self) -> bool:
        """True once any replica has been flagged."""
        return self._healthy < self.n

    # -- detection helpers ------------------------------------------------

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")

    def _sample(self, now: float) -> None:
        """Record fill, spaces, divergence and headroom at a completed
        recovery (inlined in the polls)."""
        rows = self._rows
        writes = self.writes
        gap = max(writes) - min(writes)
        fill = len(self._queue)
        if self.threshold is None:
            rows.extend((now, fill, *self.space, gap))
        else:
            rows.extend((now, fill, *self.space, gap, self.threshold - gap))
        if len(rows) >= FOLD_SIZE:
            rows.fold()

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self._healthy -= 1
        self.log.record(now, "selector", replica, mechanism, detail)
        self._pending_values.clear()
        if self.strict_single_fault and not self._healthy:
            raise SimulationError(
                f"{self.name}: all {self.n} replicas flagged faulty — fault "
                "assumption violated (or capacities/threshold under-sized)"
            )
        # A healthy interface may have been parked behind a space_k == 0
        # that a future read will clear; nothing else to do here.

    def quarantine(self, replica: int) -> None:
        """Mark a replica faulty without recording a detection.

        Multi-port coordination: another channel of the same replica
        detected the fault; this selector stops honouring the interface
        (writes are discarded, counters freeze) and releases any writer
        parked on it so the limping replica can never deadlock.
        """
        if not self.fault[replica]:
            self.fault[replica] = True
            self._healthy -= 1
            self._pending_values.clear()
            wake_parked(self._sim, self._parked_writers[replica])

    def unquarantine(self, replica: int) -> None:
        """Clear a fault flag and nothing else: ``writes`` and ``space``
        of the interface stay stale.  This is the deliberately broken
        countermeasure the post-recovery-equivalence oracle must catch
        (``RecoverySpec(reprime=False)``)."""
        self.fault[replica] = False
        self._healthy = self.fault.count(False)

    # -- recovery -----------------------------------------------------------

    def begin_recovery(
        self,
        replica: int,
        handover: int,
        now: float,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Start the post-countermeasure handover on interface ``replica``.

        ``handover`` is the producer's write count at countermeasure
        time: every token up to it must be delivered by the *healthy*
        interfaces solo — the respawned generation never saw them, and
        the physical FIFO is order-preserving, so the recovered
        interface may not enqueue before the healthy front has caught
        up.  The quarantined interface keeps discarding writes
        meanwhile; each discard extends the obligation by one (that
        token's group member was just thrown away).  The healthy write
        that fulfils the obligation completes recovery: ``writes`` of
        the recovered interface snaps to the healthy front's count,
        ``space`` is re-primed from the channel invariant ``space_k =
        |S_k| - priming - writes_k + reads``, the fault flag clears, and
        normal S1-S3 grouping resumes with the very next token.
        """
        self._check_replica(replica)
        if self._recovering is not None:
            raise SimulationError(
                f"{self.name}: recovery already in progress on interface "
                f"{self._recovering + 1}"
            )
        if handover < 0:
            raise ValueError("handover must be >= 0")
        if not self.fault[replica]:
            self.fault[replica] = True
            self._healthy -= 1
            self._pending_values.clear()
        self._recovering = replica
        self._handover = handover
        self._on_recovered = on_complete
        self._maybe_complete_recovery(now)
        # Never let the respawned writer deadlock behind a stale park
        # (killed handles are ignored by the retry machinery).
        wake_parked(self._sim, self._parked_writers[replica])

    def _maybe_complete_recovery(self, now: float) -> None:
        recovering = self._recovering
        writes = self.writes
        # The healthy front; all the other interfaces when none is healthy.
        others = [k for k in range(self.n) if k != recovering]
        healthy = [k for k in others if not self.fault[k]] or others
        front = max(writes[k] for k in healthy)
        if front < self._handover:
            return
        writes[recovering] = front
        self.space[recovering] = max(
            0,
            self.capacities[recovering] - self.priming
            - writes[recovering] + self.reads,
        )
        self.fault[recovering] = False
        self._healthy = self.fault.count(False)
        self._recovering = None
        self._handover = 0
        if self._rows is not None:
            self._sample(now)
        callback = self._on_recovered
        self._on_recovered = None
        if callback is not None:
            callback(now)

    def _check_divergence(self, now: float) -> None:
        # The quantity Eq. 5 bounds is the difference in the total number
        # of tokens received over two interfaces.  For equal virtual
        # capacities it equals the paper's |space_1 - space_2|; tracking
        # the write counters directly keeps it correct for unequal
        # capacities too (|S_1| != |S_2| would otherwise bias the space
        # difference by the constant |S_1| - |S_2|).  Flags every healthy
        # interface lagging the healthy front by more than D.  The polls
        # call it only with two interfaces healthy and the spread over
        # all the write counters, a bound on every healthy lag, above D.
        writes = self.writes
        healthy = [k for k in range(self.n) if not self.fault[k]]
        front = max(writes[k] for k in healthy)
        detail = f"writes={'/'.join(map(str, writes))} D={self.threshold}"
        for k in healthy:
            if front - writes[k] > self.threshold:
                self._flag(k, MECHANISM_DIVERGENCE, now, detail)

    def _check_stall(self, now: float) -> None:
        for k in range(self.n):
            if not self.fault[k] and self.space[k] > self.capacities[k]:
                self._flag(
                    k,
                    MECHANISM_STALL,
                    now,
                    f"space_{k + 1}={self.space[k]} > |S_{k + 1}|="
                    f"{self.capacities[k]}",
                )

    def _verify_pair(self, seqno: int, late_value: Any, now: float,
                     late_interface: int) -> None:
        pending = self._pending_values.get(seqno)
        if pending is None:
            return
        early_value, remaining = pending
        if remaining == 1:
            del self._pending_values[seqno]
        else:
            pending[1] = remaining - 1
        if not payload_equal(early_value, late_value):
            self.log.record(
                now,
                "selector",
                late_interface,
                MECHANISM_VALUE,
                f"payload mismatch at seq {seqno}",
            )
            raise SimulationError(
                f"{self.name}: duplicate pair {seqno} differs in value — "
                "the network is not fail-silent/determinate"
            )

    # -- channel protocol (engine-facing) -----------------------------------
    #
    # One body per operation serves every n.  The loops run over the
    # interfaces with a hand-kept index and write series rows with
    # append, and the detection checks sit behind necessary conditions:
    # at the paper's n = 2 a `range`, a comprehension or `max`/`min`
    # costs more than the bookkeeping it serves.

    def poll_read(self, index: int, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 1 + self.n  # fill decrement + n space increments
        self.op_calls += 1
        queue = self._queue
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        self.reads += 1
        space = self.space
        capacities = self.capacities
        stalled = False
        k = 0
        for flagged in self.fault:
            if not flagged:
                level = space[k] + 1
                space[k] = level
                if level > capacities[k]:
                    stalled = True
            k += 1
        trace = self.trace
        if trace is not None and trace.record_events:
            trace.events.append(EventRecord(now, "read", token[1], 0))
        rows = self._rows
        threshold = self.threshold
        if rows is not None or threshold is not None:
            # The output spread max writes - min writes, in one pass.
            writes = self.writes
            low = high = writes[0]
            for count in writes:
                if count < low:
                    low = count
                elif count > high:
                    high = count
            spread = high - low
            if rows is not None:
                rows.append(now)
                rows.append(len(queue))
                rows.extend(space)
                rows.append(spread)
                if threshold is not None:
                    rows.append(threshold - spread)
                if len(rows) >= FOLD_SIZE:
                    rows.fold()
        if stalled and self.stall_detection:
            self._check_stall(now)
        # The spread over all counters bounds every healthy lag.
        if (threshold is not None and spread > threshold
                and self._healthy > 1):
            self._check_divergence(now)
        for parked in self._parked_writers:
            if parked:
                wake_parked(self._sim, parked)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if not 0 <= index < self.n:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n  # n space compares + fill update
        self.op_calls += 1
        fault = self.fault
        trace = self.trace
        if fault[index]:
            # Isolation after detection: accept and discard, never block.
            self.drops[index] += 1
            if trace is not None and trace.record_events:
                trace.events.append(EventRecord(now, "drop", token[1], index))
            if self._recovering == index:
                # The respawned generation raced ahead of the healthy
                # backlog; its copy of this token is gone, so the
                # healthy interfaces now owe one more solo delivery.
                self._handover += 1
            return ("ok", None)
        space = self.space
        if space[index] == 0:
            return ("full", None)
        capacities = self.capacities
        # Enqueue iff this interface provides the *first* token of the
        # current group: its virtual fill (|S_k| - space_k) is at least
        # every other healthy interface's, while a late writer's is
        # strictly smaller than the first writer's.  For equal capacities
        # this is exactly the paper's rule "enqueue iff space_k <=
        # space_i"; with unequal capacities the fill comparison removes
        # the constant capacity bias.
        own_fill = capacities[index] - space[index]
        enqueue = True
        k = 0
        for flagged in fault:
            if not flagged and capacities[k] - space[k] > own_fill:
                enqueue = False
                break
            k += 1
        space[index] -= 1
        writes = self.writes
        writes[index] += 1
        queue = self._queue
        if enqueue:
            if len(queue) >= self.fifo_size:
                raise SimulationError(
                    f"{self.name}: physical FIFO overflow (fill={len(queue)},"
                    f" |S|={self.fifo_size}) — sizing violated"
                )
            delay = self._latency(token) if self._latency is not None else 0.0
            queue.append((now + delay, token))
            if trace is not None:
                if len(queue) > trace.max_fill:
                    trace.max_fill = len(queue)
                if trace.record_events:
                    trace.events.append(
                        EventRecord(now, "write", token[1], index))
            if self.verify_duplicates and self._healthy == self.n:
                self._pending_values[token[1]] = [token[0], self.n - 1]
            if self._parked_reader:
                wake_parked(self._sim, self._parked_reader)
        else:
            self.drops[index] += 1
            if trace is not None and trace.record_events:
                trace.events.append(EventRecord(now, "drop", token[1], index))
            if self.verify_duplicates:
                self._verify_pair(token[1], token[0], now, index)
        if self._recovering is not None and index != self._recovering:
            self._maybe_complete_recovery(now)
        rows = self._rows
        threshold = self.threshold
        if rows is not None or threshold is not None:
            # After a completed recovery re-primed the counters.
            low = high = writes[0]
            for count in writes:
                if count < low:
                    low = count
                elif count > high:
                    high = count
            spread = high - low
            if rows is not None:
                rows.append(now)
                rows.append(len(queue))
                rows.extend(space)
                rows.append(spread)
                if threshold is not None:
                    rows.append(threshold - spread)
                if len(rows) >= FOLD_SIZE:
                    rows.fold()
            if (threshold is not None and spread > threshold
                    and self._healthy > 1):
                self._check_divergence(now)
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_reader.append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers[index].append(handle)

    def __repr__(self) -> str:
        return (
            f"SelectorChannel({self.name}, fill={self.fill}, "
            f"space={self.space}, fault={self.fault})"
        )
