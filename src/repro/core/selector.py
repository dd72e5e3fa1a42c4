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
fail-silent assumption at runtime: the second member of each group must
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
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.seriesrows import FOLD_SIZE
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


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
        Optional :class:`ChannelTrace` recording queue events (interface
        recorded per event so per-replica curves can be calibrated).
    detection_log:
        Shared log; fresh one if omitted.
    strict_single_fault:
        Raise once every replica is flagged (default True).
    verify_duplicates:
        Compare the payloads of the first two members of each group; a
        mismatch violates the fail-silent fault model and is logged (and
        raised).
    stall_detection:
        Enable the ``space_k > |S_k|`` mechanism (default).  Ablation
        studies disable it to isolate the divergence mechanism.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        enabled, every committed operation samples the physical fill
        (``chan.<name>.fill``), the virtual ``space_k`` levels
        (``chan.<name>.space_1 .. space_n``), the live divergence
        ``max writes - min writes`` (``chan.<name>.divergence`` — the
        Eq. 5 quantity) and, when a threshold is configured, the
        remaining headroom ``D - divergence``
        (``chan.<name>.headroom``).

    The channel counts its own cost for the runtime overhead of Table 2:
    ``ops`` primitive counter updates over ``op_calls`` operations
    (``1 + n`` per read or write poll).

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
        self.fill = self.priming
        self.space = [capacity - self.priming for capacity in capacities]
        if trace is not None and self.priming:
            trace.preset_fill(self.priming)
        self.fault = [False] * n
        #: ``any(fault)``, kept in step by every flag change.
        self._faulted = False
        self.writes = [0] * n
        self.drops = [0] * n
        self.reads = 0
        #: One row ``time, fill, space_1 .. space_n, divergence[,
        #: headroom]`` per committed operation, or ``None`` without an
        #: enabled registry.
        self._rows = None
        if metrics is not None and metrics.enabled:
            if self.priming:
                metrics.timeseries(f"chan.{name}.fill").append(0.0, self.fill)
            names = ["fill", *(f"space_{k + 1}" for k in range(n)),
                     "divergence"]
            if self.threshold is not None:
                names.append("headroom")
            self._rows = metrics.series_rows(
                *(f"chan.{name}.{series}" for series in names))
        self._pending_values: Dict[int, Any] = {}
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
        return self._faulted

    # -- detection helpers ------------------------------------------------

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")

    def _sample(self, now: float) -> None:
        """Record fill, spaces, divergence and headroom (inlined in the
        two-replica bodies; recovery completion samples through here)."""
        rows = self._rows
        writes = self.writes
        gap = max(writes) - min(writes)
        if self.threshold is None:
            rows.extend((now, self.fill, *self.space, gap))
        else:
            rows.extend((now, self.fill, *self.space, gap,
                         self.threshold - gap))
        if len(rows) >= FOLD_SIZE:
            rows.fold()

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self._faulted = True
        self.log.record(now, "selector", replica, mechanism, detail)
        self._pending_values.clear()
        if self.strict_single_fault and all(self.fault):
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
            self._faulted = True
            self._pending_values.clear()
            self._wake(self._parked_writers[replica])

    def unquarantine(self, replica: int) -> None:
        """Clear a fault flag and nothing else: ``writes`` and ``space``
        of the interface stay stale.  This is the deliberately broken
        countermeasure the post-recovery-equivalence oracle must catch
        (``RecoverySpec(reprime=False)``)."""
        self.fault[replica] = False
        self._faulted = any(self.fault)

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
            self._faulted = True
            self._pending_values.clear()
        self._recovering = replica
        self._handover = handover
        self._on_recovered = on_complete
        self._maybe_complete_recovery(now)
        # Never let the respawned writer deadlock behind a stale park
        # (killed handles are ignored by the retry machinery).
        self._wake(self._parked_writers[replica])

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
        self._faulted = any(self.fault)
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
        # interface lagging the healthy front by more than D; needs two
        # healthy interfaces.  The two-replica bodies call it once the
        # gap exceeds D with no replica flagged.
        writes = self.writes
        healthy = [k for k in range(self.n) if not self.fault[k]]
        if len(healthy) < 2:
            return
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
        early_value = self._pending_values.pop(seqno, None)
        if early_value is None:
            return
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

    def poll_read(self, index: int, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 3  # fill decrement + two space increments
        self.op_calls += 1
        queue = self._queue
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        self.fill -= 1
        self.reads += 1
        fault = self.fault
        space = self.space
        if not fault[0]:
            space[0] += 1
        if not fault[1]:
            space[1] += 1
        trace = self.trace
        if trace is not None:
            # Inlined ChannelTrace.on_read (as in Fifo); the method still
            # records events and raises on an undeclared read.
            if trace.record_events or trace.fill <= 0:
                trace.on_read(now, token[1])
            else:
                trace.fill -= 1
                trace.reads += 1
        writes = self.writes
        gap = abs(writes[0] - writes[1])
        threshold = self.threshold
        rows = self._rows
        if rows is not None:
            # Inlined _sample.
            if threshold is None:
                rows.extend((now, self.fill, space[0], space[1], gap))
            else:
                rows.extend((now, self.fill, space[0], space[1], gap,
                             threshold - gap))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        if self.stall_detection and (
            (not fault[0] and space[0] > self.capacities[0])
            or (not fault[1] and space[1] > self.capacities[1])
        ):
            self._check_stall(now)
        if (threshold is not None and not self._faulted
                and gap > threshold):
            self._check_divergence(now)
        parked_1, parked_2 = self._parked_writers
        if parked_1:
            self._wake(parked_1)
        if parked_2:
            self._wake(parked_2)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index not in (0, 1):
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 3  # space compare + space decrement + fill update
        self.op_calls += 1
        fault = self.fault
        if fault[index]:
            # Isolation after detection: accept and discard, never block.
            self.drops[index] += 1
            trace = self.trace
            if trace is not None:
                # Inlined ChannelTrace.on_drop.
                if trace.record_events:
                    trace.on_drop(now, token[1], index)
                else:
                    trace.drops += 1
            if self._recovering == index:
                # The respawned generation raced ahead of the healthy
                # backlog; its copy of this token is gone, so the
                # healthy interface now owes one more solo delivery.
                self._handover += 1
            return ("ok", None)
        space = self.space
        if space[index] == 0:
            return ("full", None)
        other = 1 - index
        capacities = self.capacities
        # Enqueue iff this interface provides the *first* token of the
        # current duplicate pair.  The first-of-pair writer has a virtual
        # fill (|S_k| - space_k) at least as large as the other interface's;
        # the late writer's is strictly smaller.  For |S_1| == |S_2| this is
        # exactly the paper's rule "enqueue iff space_k <= space_other";
        # with unequal capacities the fill comparison removes the constant
        # capacity bias.
        enqueue = fault[other] or (
            capacities[index] - space[index]
            >= capacities[other] - space[other]
        )
        space[index] -= 1
        writes = self.writes
        writes[index] += 1
        trace = self.trace
        if enqueue:
            if self.fill >= self.fifo_size:
                raise SimulationError(
                    f"{self.name}: physical FIFO overflow (fill={self.fill},"
                    f" |S|={self.fifo_size}) — sizing violated"
                )
            delay = self._latency(token) if self._latency is not None else 0.0
            self._queue.append((now + delay, token))
            self.fill += 1
            if trace is not None:
                # Inlined ChannelTrace.on_write.
                if trace.record_events:
                    trace.on_write(now, token[1], index)
                else:
                    fill = trace.fill + 1
                    trace.fill = fill
                    trace.writes += 1
                    if fill > trace.max_fill:
                        trace.max_fill = fill
            if self.verify_duplicates and not self._faulted:
                self._pending_values[token[1]] = token[0]
            if self._parked_reader:
                self._wake(self._parked_reader)
        else:
            self.drops[index] += 1
            if trace is not None:
                if trace.record_events:
                    trace.on_drop(now, token[1], index)
                else:
                    trace.drops += 1
            if self.verify_duplicates:
                self._verify_pair(token[1], token[0], now, index)
        if self._recovering is not None and index != self._recovering:
            self._maybe_complete_recovery(now)
        gap = abs(writes[0] - writes[1])
        threshold = self.threshold
        rows = self._rows
        if rows is not None:
            # Inlined _sample (after a completed recovery re-primed the
            # counters).
            if threshold is None:
                rows.extend((now, self.fill, space[0], space[1], gap))
            else:
                rows.extend((now, self.fill, space[0], space[1], gap,
                             threshold - gap))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        if (threshold is not None and not self._faulted
                and gap > threshold):
            self._check_divergence(now)
        return ("ok", None)

    def _poll_read_n(self, index: int, now: float):
        """:meth:`poll_read` for any ``n`` (installed for ``n > 2``)."""
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
        self.fill -= 1
        self.reads += 1
        fault = self.fault
        space = self.space
        for k in range(self.n):
            if not fault[k]:
                space[k] += 1
        if self.trace is not None:
            self.trace.on_read(now, token[1])
        if self._rows is not None:
            self._sample(now)
        if self.stall_detection:
            self._check_stall(now)
        if self.threshold is not None:
            self._check_divergence(now)
        for parked in self._parked_writers:
            if parked:
                self._wake(parked)
        return ("ok", token)

    def _poll_write_n(self, index: int, token: Token, now: float):
        """:meth:`poll_write` for any ``n`` (installed for ``n > 2``)."""
        if not 0 <= index < self.n:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n  # n space compares + fill update
        self.op_calls += 1
        fault = self.fault
        trace = self.trace
        if fault[index]:
            # Isolation after detection: accept and discard, never block.
            self.drops[index] += 1
            if trace is not None:
                trace.on_drop(now, token[1], index)
            if self._recovering == index:
                self._handover += 1
            return ("ok", None)
        space = self.space
        if space[index] == 0:
            return ("full", None)
        capacities = self.capacities
        # First of its group: a virtual fill at least that of every other
        # healthy interface (the two-replica rule of poll_write).
        own_fill = capacities[index] - space[index]
        enqueue = all(
            fault[k] or own_fill >= capacities[k] - space[k]
            for k in range(self.n) if k != index
        )
        space[index] -= 1
        self.writes[index] += 1
        if enqueue:
            if self.fill >= self.fifo_size:
                raise SimulationError(
                    f"{self.name}: physical FIFO overflow (fill={self.fill},"
                    f" |S|={self.fifo_size}) — sizing violated"
                )
            delay = self._latency(token) if self._latency is not None else 0.0
            self._queue.append((now + delay, token))
            self.fill += 1
            if trace is not None:
                trace.on_write(now, token[1], index)
            if self.verify_duplicates and not self._faulted:
                self._pending_values[token[1]] = token[0]
            if self._parked_reader:
                self._wake(self._parked_reader)
        else:
            self.drops[index] += 1
            if trace is not None:
                trace.on_drop(now, token[1], index)
            if self.verify_duplicates:
                self._verify_pair(token[1], token[0], now, index)
        if self._recovering is not None and index != self._recovering:
            self._maybe_complete_recovery(now)
        if self._rows is not None:
            self._sample(now)
        if self.threshold is not None:
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
            f"SelectorChannel({self.name}, fill={self.fill}, "
            f"space={self.space}, fault={self.fault})"
        )
