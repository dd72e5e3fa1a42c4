"""Bounded FIFO channels with blocking semantics.

A :class:`Fifo` is the communication primitive of Section 2: finite
capacity, destructive blocking reads, blocking writes, single reader and
single writer.  The multi-interface replicator and selector channels of the
paper live in :mod:`repro.core` and implement the same engine-facing
protocol, so the simulator treats all of them uniformly.

Channel protocol (duck typing, consumed by
:class:`~repro.kpn.simulator.Simulator`):

``poll_read(index, now) -> (status, payload)``
    ``("ok", token)`` — read committed; ``("wait", t)`` — a token is in
    flight and readable at virtual time ``t``; ``("empty", None)`` — park.
``poll_write(index, token, now) -> (status, None)``
    ``("ok", None)`` — write committed; ``("full", None)`` — park.
``park_reader(index, handle)`` / ``park_writer(index, handle)``
    Register a blocked process; the channel wakes it via
    :meth:`Simulator.retry` when its state changes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.kpn.errors import ProtocolError
from repro.kpn.seriesrows import FOLD_SIZE
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace, EventRecord

#: Preallocated poll results for the payload-free statuses — the engine
#: polls on every operation, so even these small tuples are worth sharing.
_EMPTY = ("empty", None)
_FULL = ("full", None)
_OK_WRITE = ("ok", None)


def wake_parked(sim, parked: Deque) -> None:
    """Empty ``parked``, queueing a retry of each process on ``sim``.

    With no simulator bound (``sim is None``) the processes are only
    unparked.

    FIFO wake order: the longest-parked party retries first.  Wake order
    feeds the engine's sequence numbers and thus trace identity, so it
    must not depend on park history (a LIFO pop would reorder when two
    parties share a parked deque).
    """
    while parked:
        handle = parked.popleft()
        handle.is_parked = False
        if sim is not None:
            sim.retry(handle)


class ReadEndpoint:
    """A (channel, reading-interface) pair a process reads from."""

    __slots__ = ("channel", "index")

    def __init__(self, channel, index: int = 0) -> None:
        self.channel = channel
        self.index = index

    def __repr__(self) -> str:
        return f"ReadEndpoint({self.channel.name}[{self.index}])"


class WriteEndpoint:
    """A (channel, writing-interface) pair a process writes to."""

    __slots__ = ("channel", "index")

    def __init__(self, channel, index: int = 0) -> None:
        self.channel = channel
        self.index = index

    def __repr__(self) -> str:
        return f"WriteEndpoint({self.channel.name}[{self.index}])"


class Fifo:
    """A bounded single-reader single-writer FIFO channel.

    Parameters
    ----------
    name:
        Unique channel name (used in traces and error messages).
    capacity:
        Maximum number of tokens queued or in flight (``|F_i|``).
    transfer_latency:
        Optional ``f(token) -> delay_ms`` modelling communication time;
        the SCC layer supplies mesh/MPB latencies here.  A written token
        only becomes readable ``delay`` after the write instant, but it
        occupies FIFO space immediately (back-pressure is conservative).
    trace:
        Optional :class:`~repro.kpn.trace.ChannelTrace`; the channel raises
        its ``max_fill`` from the queue length and, when it records
        events, logs every committed read and write.
    initial_tokens:
        Tokens pre-filling the queue at time zero (the ``F_{C,0}`` /
        ``|S_k|_0`` priming of Eq. 4).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given,
        the channel samples its fill level into the time series
        ``chan.<name>.fill`` on every committed read and write, one
        ``time, fill`` row of a :class:`~repro.kpn.seriesrows.SeriesRows`
        buffer per sample.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        trace: Optional[ChannelTrace] = None,
        initial_tokens: Tuple[Token, ...] = (),
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if len(initial_tokens) > capacity:
            raise ValueError("initial tokens exceed capacity")
        self.name = name
        self.capacity = capacity
        self._latency = transfer_latency
        self.trace = trace
        #: ``(ready, token)`` pairs; ``ready`` is the write instant plus
        #: the transfer latency (the write instant without one).
        self._queue: Deque = deque((0.0, token) for token in initial_tokens)
        if trace is not None and len(self._queue) > trace.max_fill:
            trace.max_fill = len(self._queue)
        #: Fill samples ``time, fill``, or ``None`` without a registry.
        self._rows = (
            metrics.series_rows(f"chan.{name}.fill")
            if metrics is not None else None
        )
        if self._rows is not None and initial_tokens:
            self._rows.extend((0.0, len(self._queue)))
        self._sim = None
        self._parked_readers: Deque = deque()
        self._parked_writers: Deque = deque()

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach the simulator used to wake parked processes."""
        self._sim = sim

    @property
    def reader(self) -> ReadEndpoint:
        """The single read endpoint."""
        return ReadEndpoint(self, 0)

    @property
    def writer(self) -> WriteEndpoint:
        """The single write endpoint."""
        return WriteEndpoint(self, 0)

    # -- state --------------------------------------------------------------

    @property
    def fill(self) -> int:
        """Number of tokens queued (including in flight)."""
        return len(self._queue)

    @property
    def space(self) -> int:
        """Free capacity."""
        return self.capacity - len(self._queue)

    # -- channel protocol -----------------------------------------------------

    def poll_read(self, index: int, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        queue = self._queue
        if not queue:
            return _EMPTY
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        trace = self.trace
        if trace is not None and trace.record_events:
            # Token is a tuple — index 1 is ``seqno``.
            trace.events.append(EventRecord(now, "read", token[1], 0))
        rows = self._rows
        if rows is not None:
            rows.extend((now, len(queue)))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        if self._parked_writers:
            wake_parked(self._sim, self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        queue = self._queue
        if len(queue) >= self.capacity:
            return _FULL
        latency = self._latency
        queue.append(
            (now if latency is None else now + latency(token), token)
        )
        trace = self.trace
        if trace is not None:
            if len(queue) > trace.max_fill:
                trace.max_fill = len(queue)
            if trace.record_events:
                trace.events.append(EventRecord(now, "write", token[1], 0))
        rows = self._rows
        if rows is not None:
            rows.extend((now, len(queue)))
            if len(rows) >= FOLD_SIZE:
                rows.fold()
        if self._parked_readers:
            wake_parked(self._sim, self._parked_readers)
        return _OK_WRITE

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers.append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    def __repr__(self) -> str:
        return f"Fifo({self.name}, fill={self.fill}/{self.capacity})"
