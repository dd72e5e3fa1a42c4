"""The discrete-event engine.

Virtual time is a float (milliseconds by convention throughout the
library).  Events are totally ordered by ``(time, sequence_number)`` so two
runs of the same seeded network produce byte-identical traces — the
determinism policy of DESIGN.md Section 7.

Processes are generators driven by the engine: each yielded
:class:`~repro.kpn.operations.Operation` either completes immediately, is
scheduled for a later virtual instant (``Delay``, transfer latency), or
parks the process on a channel until a counterparty unblocks it.  This
reproduces the blocking FIFO semantics of Section 2 of the paper without
any OS threads, making fault injection (killing a replica at an exact
virtual instant) trivial and exact.

Hot-path design
---------------

The engine avoids per-event closure allocation: every scheduled unit of
work is one of four ``__slots__``-based typed records (:class:`StartEvent`,
:class:`ResumeEvent`, :class:`RetryEvent`, :class:`CallbackEvent`)
dispatched through a small jump table keyed on the record class.

Channel wake-ups take a **direct-handoff fast path**: a counterparty freed
at the *current* virtual instant is queued on a same-time run queue (a
deque) instead of round-tripping through the event heap as a
``schedule(0.0, ...)`` event.  Run-queue entries carry sequence numbers
drawn from the same counter as heap events and the main loop always fires
the globally smallest ``(time, sequence)`` next, so the observable event
order — and therefore every trace — is identical to the heap-only engine.
The queue is bounded by construction: ``wake_scheduled`` admits at most
one pending wake per registered process.

This is the only drive loop: one binary heap, one run queue, one
``_advance``.  DESIGN.md Section 9 records why the alternative engine
configurations were removed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from collections import deque
from enum import Enum
from time import perf_counter
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.operations import Delay, Halt, Operation, Read, Write

_heappush = heapq.heappush


class ProcessState(Enum):
    """Lifecycle states of a process inside the engine."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED_READ = "blocked_read"
    BLOCKED_WRITE = "blocked_write"
    DELAYED = "delayed"
    DONE = "done"
    KILLED = "killed"


class ProcessHandle:
    """Engine-side wrapper around one process's live ``behavior()``
    generator."""

    __slots__ = (
        "name",
        "generator",
        "owner",
        "state",
        "pending_op",
        "wake_scheduled",
        "is_parked",
        "block_start",
        "resume_event",
    )

    def __init__(self, name: str, generator, owner: Any = None) -> None:
        self.name = name
        self.generator = generator
        self.owner = owner
        self.state = ProcessState.READY
        self.pending_op: Optional[Operation] = None
        #: Reusable Delay-completion record.  A process can be inside at
        #: most one ``Delay`` at a time, so one record per handle replaces
        #: one allocation per delay — the most frequent event kind.
        self.resume_event = ResumeEvent(self)
        #: A wake (retry) for this handle is already queued; channels may
        #: wake a party several times in one instant, the engine coalesces.
        self.wake_scheduled = False
        #: The handle sits in some channel's parked deque.  A process
        #: blocks on exactly one operation at a time, so a single flag
        #: replaces the per-channel ``handle in parked`` membership scans.
        self.is_parked = False
        #: Virtual instant the current blocked span began (only maintained
        #: while engine metrics are enabled; feeds ``sim.block_ms``).
        self.block_start = 0.0

    @property
    def alive(self) -> bool:
        return self.state not in (ProcessState.DONE, ProcessState.KILLED)

    @property
    def blocked(self) -> bool:
        return self.state in (
            ProcessState.BLOCKED_READ,
            ProcessState.BLOCKED_WRITE,
        )

    def __repr__(self) -> str:
        return f"ProcessHandle({self.name}, {self.state.value})"


class StartEvent:
    """First advancement of a freshly registered process."""

    __slots__ = ("handle",)

    def __init__(self, handle: ProcessHandle) -> None:
        self.handle = handle


class ResumeEvent:
    """Resume a delayed process (``Delay`` completion)."""

    __slots__ = ("handle",)

    def __init__(self, handle: ProcessHandle) -> None:
        self.handle = handle


class RetryEvent:
    """Re-attempt a blocked operation at a known future instant.

    Used for the channel ``("wait", t)`` status: a token is in flight and
    becomes readable at ``t``.  Same-instant wakes never build this record
    — they ride the direct-handoff run queue instead.
    """

    __slots__ = ("handle", "operation")

    def __init__(self, handle: ProcessHandle, operation: Operation) -> None:
        self.handle = handle
        self.operation = operation


class CallbackEvent:
    """An arbitrary callable — the public ``schedule`` API, fault
    injection hooks, and tests."""

    __slots__ = ("action",)

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action


@dataclass
class RunStats:
    """Summary of one :meth:`Simulator.run` call."""

    events: int = 0
    end_time: float = 0.0
    halted_on_limit: bool = False
    blocked_processes: List[str] = field(default_factory=list)
    #: Wall-clock duration of the run loop (seconds).
    wall_time_s: float = 0.0
    #: Events processed per wall-clock second — the in-band throughput
    #: signal perf PRs are measured against.
    events_per_sec: float = 0.0


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.register(process)           # a repro.kpn.process.Process
        channel.bind(sim)               # channels learn how to wake parties
        stats = sim.run(until=10_000.0)
    """

    def __init__(self, metrics: Any = None) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        #: Direct-handoff run queue: ``(time, sequence, handle)`` wakes at
        #: the current instant, FIFO in sequence order.
        self._runq: Deque[Tuple[float, int, ProcessHandle]] = deque()
        self._sequence = 0
        self._now = 0.0
        self._handles: Dict[str, ProcessHandle] = {}
        self._event_count = 0
        #: Optional telemetry (see :mod:`repro.obs`).  Instruments are
        #: created eagerly here so the hot paths only test ``is not None``
        #: — an absent registry costs one pointer check per sample site
        #: and nothing per event.
        self._metrics = metrics
        if self._metrics is not None:
            self._m_events = self._metrics.counter("sim.events")
            self._m_heap_events = self._metrics.counter("sim.heap_events")
            self._m_runq_wakes = self._metrics.counter("sim.runq_wakes")
            self._m_parks = self._metrics.counter("sim.parks")
            self._m_wakes = self._metrics.counter("sim.wakes_requested")
            self._m_block = self._metrics.histogram("sim.block_ms")
        else:
            self._m_parks = None
            self._m_wakes = None
            self._m_block = None
        #: Optional transition hook ``f(time, process, kind, detail)``
        #: feeding a :class:`repro.obs.timeline.RunTimeline`.
        self._hook: Optional[Callable[[float, str, str, Any], None]] = None
        #: Combined "any per-transition observer active" flag: the hot
        #: paths test this single attribute and only then take the cold
        #: ``_note_*`` calls.
        self._observed = self._m_block is not None

    # -- observability ------------------------------------------------------

    def set_transition_hook(
        self, hook: Optional[Callable[[float, str, str, Any], None]]
    ) -> None:
        """Install (or clear) the process-transition observer.

        ``hook(time, process_name, kind, detail)`` fires on every process
        lifecycle edge: ``start``, ``compute`` (detail = delay ms),
        ``block_read`` / ``block_write`` (detail = channel name),
        ``resume``, ``done`` and ``killed``.  The hook must only record —
        mutating engine state from it is undefined behaviour.
        """
        self._hook = hook
        self._observed = hook is not None or self._m_block is not None

    # -- time and scheduling ----------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (ms)."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of events processed so far."""
        return self._event_count

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at an absolute virtual instant."""
        self._push_event(time, CallbackEvent(action))

    def _push_event(self, time: float, event: Any) -> None:
        """Push a typed event record onto the event heap at ``time``."""
        # The chained comparison also rejects NaN, which would otherwise
        # sort first and set ``now`` to NaN.
        if not self._now - 1e-12 <= time < math.inf:
            raise SimulationError(
                f"cannot schedule at {time}: event times must be finite "
                f"and not before now ({self._now})"
            )
        self._sequence += 1
        _heappush(self._heap, (max(time, self._now), self._sequence, event))

    # -- process management -------------------------------------------------

    def register(self, process: Any) -> ProcessHandle:
        """Register a process (anything with ``name`` and ``behavior()``).

        The process starts at time 0 (or at registration time if the run
        has already started).
        """
        name = process.name
        if name in self._handles:
            raise ProtocolError(f"duplicate process name: {name}")
        handle = ProcessHandle(name, process.behavior(), owner=process)
        self._handles[name] = handle
        if hasattr(process, "attach"):
            process.attach(self, handle)
        self._push_event(self._now, StartEvent(handle))
        return handle

    def register_all(self, processes: Iterable[Any]) -> List[ProcessHandle]:
        """Register a collection of processes."""
        return [self.register(p) for p in processes]

    def handle(self, name: str) -> ProcessHandle:
        """Look up a process handle by name."""
        return self._handles[name]

    def kill(self, name: str) -> None:
        """Mark a process killed (fault injection).

        A killed process never runs again: pending events targeting it are
        dropped at fire time, and parked channel entries ignore it.
        """
        handle = self._handles[name]
        if handle.state is ProcessState.DONE:
            return
        handle.state = ProcessState.KILLED
        if self._hook is not None:
            self._hook(self._now, name, "killed", None)
        try:
            handle.generator.close()
        except (RuntimeError, ValueError):
            # The generator is currently executing — a process killing
            # itself, or a hook firing while the engine is mid-advance.
            # The KILLED state already guarantees it never advances
            # again; the suspended frame is reclaimed by the GC.
            pass

    def blocked_processes(self) -> List[str]:
        """Names of live processes currently parked on a channel."""
        return [h.name for h in self._handles.values() if h.blocked]

    def live_processes(self) -> List[str]:
        """Names of processes that are not done/killed."""
        return [h.name for h in self._handles.values() if h.alive]

    # -- engine loop ---------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> RunStats:
        """Process events until the queues drain, ``until`` is passed, or
        ``max_events`` fire.  Returns a :class:`RunStats` summary.

        Running out of events with parked processes is *quiescence* (the
        normal end of a finite streaming run), not an error; callers that
        consider it a deadlock can inspect ``stats.blocked_processes``.

        ``until`` must be finite and ``max_events`` non-negative;
        ``max_events=0`` fires nothing and reports ``halted_on_limit``.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError(f"until must be finite, got {until}")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        stats = RunStats()
        time_limit = float("inf") if until is None else until
        started = perf_counter()
        if max_events == 0:
            stats.halted_on_limit = True
            events = 0
        else:
            events = self._drive_heap(
                stats, time_limit, -1 if max_events is None else max_events
            )
        stats.events = events
        stats.wall_time_s = perf_counter() - started
        if stats.wall_time_s > 0:
            stats.events_per_sec = stats.events / stats.wall_time_s
        stats.end_time = self._now
        stats.blocked_processes = self.blocked_processes()
        return stats

    def _drive_heap(
        self, stats: RunStats, time_limit: float, event_limit: int
    ) -> int:
        """The run loop: fire events in ``(time, sequence)`` order.

        ``event_limit`` is the ``max_events`` budget, ``-1`` for none.
        """
        heap = self._heap
        runq = self._runq
        jump = _JUMP_TABLE
        pop = heapq.heappop
        advance = self._advance
        reattempt = self._reattempt
        events = 0
        runq_fired = 0
        try:
            while heap or runq:
                # The next event is the globally smallest (time, sequence)
                # of the heap top and the run-queue front.  Run-queue
                # entries are pushed with monotonically increasing sequence
                # numbers at the then-current time, so the front is always
                # the queue minimum.
                if runq:
                    entry = runq[0]
                    if heap:
                        top = heap[0]
                        if top[0] < entry[0] or (
                            top[0] == entry[0] and top[1] < entry[1]
                        ):
                            entry = top
                            from_runq = False
                        else:
                            from_runq = True
                    else:
                        from_runq = True
                else:
                    entry = heap[0]
                    from_runq = False
                time = entry[0]
                if time > time_limit:
                    break
                self._now = time
                events += 1
                if from_runq:
                    # Direct-handoff wake.
                    runq.popleft()
                    runq_fired += 1
                    handle = entry[2]
                    handle.wake_scheduled = False
                    operation = handle.pending_op
                    if operation is not None:
                        reattempt(handle, operation)
                else:
                    pop(heap)
                    event = entry[2]
                    cls = event.__class__
                    if cls is ResumeEvent:
                        # The most frequent record (Delay completions)
                        # fires inline; everything else takes the table.
                        advance(event.handle, None)
                    else:
                        jump[cls](self, event)
                if events == event_limit:
                    stats.halted_on_limit = True
                    break
        finally:
            self._event_count += events
            if self._metrics is not None:
                self._m_events.inc(events)
                self._m_runq_wakes.inc(runq_fired)
                self._m_heap_events.inc(events - runq_fired)
        return events

    def step(self) -> bool:
        """Process a single event; returns False when none are pending.

        A one-event :meth:`run` of the same loop, so the event is counted
        exactly as there, engine metrics included.
        """
        return self._drive_heap(RunStats(), math.inf, 1) == 1

    # -- event firing ---------------------------------------------------------

    def _fire_start(self, event: StartEvent) -> None:
        handle = event.handle
        if handle.state is ProcessState.KILLED:
            return
        if self._hook is not None:
            self._hook(self._now, handle.name, "start", None)
        self._advance(handle, None)

    def _fire_retry(self, event: RetryEvent) -> None:
        self._reattempt(event.handle, event.operation)

    def _fire_callback(self, event: CallbackEvent) -> None:
        event.action()

    def _reattempt(self, handle: ProcessHandle, operation: Operation) -> None:
        """Re-poll a blocked operation; resume the process on success.

        Re-blocking (status still ``empty``/``full``/``wait``) does not
        re-emit a block transition or restart the blocked-span clock: the
        process never unblocked, it was merely re-polled.
        """
        state = handle.state
        if state is _DONE or state is _KILLED:
            return
        cls = operation.__class__
        if cls is Read:
            status, payload = operation.poll(operation.index, self._now)
            if status == "ok":
                if self._observed:
                    self._note_resume(handle)
                self._advance(handle, payload)
            elif status == "wait":
                handle.state = _BLOCKED_READ
                handle.pending_op = operation
                self._push_event(payload, RetryEvent(handle, operation))
            elif status == "empty":
                handle.state = _BLOCKED_READ
                handle.pending_op = operation
                operation.channel.park_reader(operation.index, handle)
            else:  # pragma: no cover - channel contract violation
                raise ProtocolError(f"bad poll_read status {status!r}")
        elif cls is Write:
            status, _ = operation.poll(
                operation.index, operation.token, self._now
            )
            if status == "ok":
                if self._observed:
                    self._note_resume(handle)
                self._advance(handle, None)
            elif status == "full":
                handle.state = _BLOCKED_WRITE
                handle.pending_op = operation
                operation.channel.park_writer(operation.index, handle)
            else:  # pragma: no cover - channel contract violation
                raise ProtocolError(f"bad poll_write status {status!r}")

    def _note_resume(self, handle: ProcessHandle) -> None:
        """Telemetry for a blocked operation completing (cold path)."""
        if self._hook is not None:
            self._hook(self._now, handle.name, "resume", None)
        if self._m_block is not None:
            self._m_block.observe(self._now - handle.block_start)

    def _note_block(
        self, handle: ProcessHandle, kind: str, channel_name: str
    ) -> None:
        """Telemetry for a process entering a blocked state (cold path)."""
        if self._hook is not None:
            self._hook(self._now, handle.name, kind, channel_name)
        if self._m_block is not None:
            handle.block_start = self._now
            self._m_parks.inc()

    # -- process driving ------------------------------------------------------

    def _advance(self, handle: ProcessHandle, value: Any) -> None:
        """Resume the generator with ``value`` and run it until it blocks.

        Consecutive immediately-satisfiable operations (a read with a
        token ready, a write into free space) complete in this tight loop
        rather than through mutual recursion — one Python frame per
        resumption instead of three, the single hottest path in the
        engine.  Operation dispatch is by concrete class (the operation
        types are final), ordered by observed frequency.
        """
        state = handle.state
        if state is _DONE or state is _KILLED:
            return
        generator_send = handle.generator.send
        killed = _KILLED
        observed = self._observed
        now = self._now
        # ``handle.state`` is deliberately *not* set to RUNNING on every
        # loop turn: no observer can see the intermediate state (hooks and
        # stats read it only at block/done edges, which all store an
        # explicit state below), and the per-resumption store is
        # measurable.  The killed check still works — ``kill`` writes
        # KILLED into the handle whether or not the generator is live.
        while True:
            try:
                operation = generator_send(value)
            except StopIteration:
                handle.state = _DONE
                if observed and self._hook is not None:
                    self._hook(now, handle.name, "done", None)
                return
            if handle.state is killed:
                # Killed from inside its own advancement (self-kill
                # hook); drop the yielded operation.
                return
            cls = operation.__class__
            if cls is Read:
                status, payload = operation.poll(operation.index, now)
                if status == "ok":
                    value = payload
                    continue
                handle.state = _BLOCKED_READ
                handle.pending_op = operation
                if observed:
                    self._note_block(
                        handle, "block_read", operation.channel.name
                    )
                if status == "wait":
                    self._push_event(payload, RetryEvent(handle, operation))
                elif status == "empty":
                    operation.channel.park_reader(operation.index, handle)
                else:  # pragma: no cover - channel contract violation
                    raise ProtocolError(f"bad poll_read status {status!r}")
                return
            if cls is Write:
                status, _ = operation.poll(
                    operation.index, operation.token, now
                )
                if status == "ok":
                    value = None
                    continue
                if status == "full":
                    handle.state = _BLOCKED_WRITE
                    handle.pending_op = operation
                    if observed:
                        self._note_block(
                            handle, "block_write", operation.channel.name
                        )
                    operation.channel.park_writer(operation.index, handle)
                else:  # pragma: no cover - channel contract violation
                    raise ProtocolError(f"bad poll_write status {status!r}")
                return
            if cls is Delay:
                # Inlined _push_event: Delay validates a finite duration
                # >= 0 at construction, so the target instant can never
                # precede the current one — no past-scheduling check.
                handle.state = _DELAYED
                handle.pending_op = operation
                if observed and self._hook is not None:
                    self._hook(
                        now, handle.name, "compute", operation.duration
                    )
                self._sequence += 1
                _heappush(
                    self._heap,
                    (
                        now + operation.duration,
                        self._sequence,
                        handle.resume_event,
                    ),
                )
                return
            if cls is Halt:
                handle.state = _DONE
                handle.generator.close()
                if observed and self._hook is not None:
                    self._hook(self._now, handle.name, "done", None)
                return
            raise ProtocolError(
                f"process {handle.name} yielded unknown operation "
                f"{operation!r}"
            )

    def retry(self, handle: ProcessHandle) -> None:
        """Queue a parked process's pending operation for re-attempt *now*.

        Channels call this when their state changes (a read freed space, a
        write added a token).  The wake goes onto the same-time run queue —
        the direct-handoff fast path — so the waker finishes its own event
        first and no heap traffic occurs.  Sequence numbers are drawn from
        the shared counter, keeping the total event order identical to an
        engine that schedules the retry through the heap.
        """
        state = handle.state
        if (
            state is _DONE
            or state is _KILLED
            or handle.wake_scheduled
            or handle.pending_op is None
        ):
            return
        handle.wake_scheduled = True
        if self._m_wakes is not None:
            self._m_wakes.inc()
        sequence = self._sequence + 1
        self._sequence = sequence
        self._runq.append((self._now, sequence, handle))


#: Hot-path aliases for the enum members: module globals resolve faster
#: than the two-step ``ProcessState.X`` attribute chain.
_DONE = ProcessState.DONE
_KILLED = ProcessState.KILLED
_BLOCKED_READ = ProcessState.BLOCKED_READ
_BLOCKED_WRITE = ProcessState.BLOCKED_WRITE
_DELAYED = ProcessState.DELAYED

#: Jump table: event record class -> bound firing method.  Dict dispatch on
#: the concrete class avoids an isinstance ladder in the hot loop.
_JUMP_TABLE = {
    StartEvent: Simulator._fire_start,
    RetryEvent: Simulator._fire_retry,
    CallbackEvent: Simulator._fire_callback,
}

