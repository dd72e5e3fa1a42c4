"""Process base class and the standard process shapes.

All processes are generator-based (see :mod:`repro.kpn.operations`).  The
shapes provided here cover the paper's experimental setup:

* :class:`PeriodicSource` — a producer ``P`` releasing tokens on a PJD
  schedule (Table 1 "Input Encoded Frame Rate" / "Input Data Sample Rate");
* :class:`PeriodicConsumer` — a consumer ``C`` issuing reads on a PJD
  schedule and recording arrival statistics (the "Consumer Token
  Consumption" column and the decoded inter-frame timing block of
  Table 2);
* :class:`FunctionProcess` — a worker that reads one token, computes for a
  (possibly jittered) service time, and writes one transformed token;
* :class:`RecordingSink` — a greedy reader used by equivalence checks.

Application-specific processes (split-stream, merge-frame, motion
estimation, ...) subclass :class:`Process` directly in :mod:`repro.apps`.

The standard shapes all reuse one operation record per kind across
iterations (mutating ``duration`` / ``token`` between yields) instead of
allocating a fresh record per yield — see :mod:`repro.kpn.operations` for
why this is observationally identical.  Tokens are built through
``tuple.__new__`` directly: one source constructs one token per event on
the engine's hottest path, and bypassing even the ``Token.__new__``
keyword machinery is measurable there.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.errors import ProtocolError
from repro.kpn.operations import Delay, Read, Write
from repro.kpn.tokens import Token
from repro.rtc.pjd import PJD

_tuple_new = tuple.__new__


def pjd_schedule(
    model: PJD,
    count: int,
    rng: np.random.Generator,
    start: float = 0.0,
) -> List[float]:
    """Generate ``count`` event instants conforming to a PJD model.

    Event ``i`` is placed at ``start + i * period + phi`` with ``phi``
    uniform in ``[-jitter/2, +jitter/2]``, then pushed right as needed to
    respect the minimum inter-event distance.  The resulting trace
    satisfies the model's arrival-curve pair (verified by property tests).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return []
    half_jitter = model.jitter / 2.0
    period = model.period
    min_distance = model.min_distance
    # Vectorised nominal instants.  ``start + i*period + phi_i`` evaluated
    # elementwise in float64 performs the identical IEEE operation
    # sequence as the historical scalar loop (left-associated add chain),
    # so schedules — and therefore traces — stay bit-exact.  One
    # vectorised ``uniform`` draw is likewise bit-identical to ``count``
    # scalar draws from the same generator state.
    if half_jitter > 0:
        offsets = rng.uniform(-half_jitter, half_jitter, size=count)
        nominals = (start + np.arange(count) * period + offsets).tolist()
    else:
        nominals = (start + np.arange(count) * period).tolist()
    # The min-distance recurrence must stay scalar: rewriting it with
    # accumulated maxima changes float rounding when the constraint
    # binds.  The branch chain replicates ``max(nominal, previous +
    # min_distance, 0.0)`` exactly, including its keep-the-first-argument
    # tie behaviour.
    times: List[float] = []
    append = times.append
    previous = -math.inf
    for nominal in nominals:
        instant = nominal
        floor_value = previous + min_distance
        if floor_value > instant:
            instant = floor_value
        if 0.0 > instant:
            instant = 0.0
        append(instant)
        previous = instant
    return times


#: Memoised PJD schedules.  A schedule is a pure function of
#: ``(period, jitter, min_distance, count, seed, start)`` — sources and
#: consumers draw from a generator seeded fresh inside ``behavior`` and
#: never touch it again — so identical processes across runs (benchmark
#: rounds, sweep points, campaign scenarios re-using an app seed) can
#: share one tuple instead of re-running ``default_rng`` + the scalar
#: min-distance recurrence.  Values are exactly what
#: :func:`pjd_schedule` returns, so cached and uncached runs are
#: byte-identical.
_SCHEDULE_CACHE: "OrderedDict[tuple, Tuple[float, ...]]" = OrderedDict()
_SCHEDULE_CACHE_MAX = 128


def cached_pjd_schedule(
    model: PJD, count: int, seed: int, start: float = 0.0
) -> Tuple[float, ...]:
    """The :func:`pjd_schedule` of a freshly seeded generator, memoised.

    Only valid for the sources/consumers pattern where the RNG is
    created for the schedule and discarded; processes that keep drawing
    afterwards must call :func:`pjd_schedule` directly.
    """
    key = (model.period, model.jitter, model.min_distance,
           count, seed, start)
    cache = _SCHEDULE_CACHE
    times = cache.get(key)
    if times is None:
        rng = np.random.default_rng(seed)
        times = tuple(pjd_schedule(model, count, rng, start))
        if len(cache) >= _SCHEDULE_CACHE_MAX:
            cache.popitem(last=False)
        cache[key] = times
    else:
        cache.move_to_end(key)
    return times


#: Jitter offsets a pacer draws from its generator at once.
JITTER_BLOCK = 256


def jitter_offsets(rng: np.random.Generator,
                   half_jitter: float) -> Iterator[float]:
    """Endless uniform offsets in ``[-half_jitter, +half_jitter]``.

    The offsets are drawn :data:`JITTER_BLOCK` at a time and handed out
    one by one as Python floats.  One vectorised ``uniform(size=n)`` draw
    is bit-identical to ``n`` scalar ``uniform`` draws from the same
    generator state (as :func:`pjd_schedule` relies on), so a pacer that
    owns ``rng`` — seeds it, and never draws from it elsewhere — sees the
    exact sequence of per-token scalar draws, at a fraction of the cost
    of one numpy call per token.  The values drawn past the last token
    are never used, so over-drawing changes nothing.
    """
    while True:
        yield from rng.uniform(-half_jitter, half_jitter,
                               size=JITTER_BLOCK).tolist()


class Process:
    """Base class for all processes.

    Subclasses implement :meth:`behavior` as a generator yielding
    operations.  ``self.now`` is valid once the process is attached to a
    simulator (i.e. inside the behaviour generator).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._sim = None
        self._handle = None
        #: Service-time multiplier; the fault injector raises it above 1.0
        #: to model rate-degradation faults.  Every process that models
        #: computation time must multiply its delays by this.
        self.slowdown = 1.0

    def attach(self, sim, handle) -> None:
        """Called by the simulator upon registration."""
        self._sim = sim
        self._handle = handle

    @property
    def now(self) -> float:
        """Current virtual time (only valid while attached)."""
        if self._sim is None:
            raise ProtocolError(f"{self.name} is not attached to a simulator")
        return self._sim._now

    def behavior(self):
        """The process body (a generator).  Must be overridden."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PeriodicSource(Process):
    """A producer releasing ``count`` tokens on a PJD schedule.

    Parameters
    ----------
    name, timing, count:
        Identity, PJD release model, number of tokens to produce.
    payload:
        ``payload(i) -> (value, size_bytes)`` for token ``i`` (0-based).
        Defaults to the index itself with zero size.
    seed:
        Seed for the jitter RNG (determinism policy).
    start:
        Virtual time of the first nominal release.
    """

    def __init__(
        self,
        name: str,
        timing: PJD,
        count: int,
        payload: Optional[Callable[[int], Tuple[Any, int]]] = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        super().__init__(name)
        self.timing = timing
        self.count = count
        #: ``None`` means the default index payload; the behaviour loop
        #: special-cases it to skip a callable dispatch per token.
        self.payload = payload
        self.seed = seed
        self.start = start
        self.output: Optional[WriteEndpoint] = None
        self.release_times: List[float] = []
        self.commit_times: List[float] = []
        self.blocked_writes = 0

    def behavior(self):
        if self.output is None:
            raise ProtocolError(f"{self.name}: output endpoint not connected")
        schedule = cached_pjd_schedule(self.timing, self.count, self.seed,
                                       self.start)
        # The generator body only runs while attached, so the simulator
        # clock can be read directly; virtual time only changes across a
        # yield, so it is cached in a local between yields.
        sim = self._sim
        name = self.name
        payload = self.payload
        release_append = self.release_times.append
        commit_append = self.commit_times.append
        delay_op = Delay(0.0)
        write_op = Write(self.output, None)
        for i, release in enumerate(schedule):
            now = sim._now
            wait = release - now
            if wait > 0:
                delay_op.duration = wait
                yield delay_op
                now = sim._now
            if payload is not None:
                value, size = payload(i)
            else:
                value = i
                size = 0
            token = _tuple_new(Token, (value, i + 1, now, size, name))
            release_append(now)
            before = now
            write_op.token = token
            yield write_op
            now = sim._now
            commit_append(now)
            if now > before + 1e-12:
                self.blocked_writes += 1


class PeriodicConsumer(Process):
    """A consumer issuing destructive reads on a PJD schedule.

    Records the completion time of every read (``arrival_times``), the
    consumed tokens, and how often / how long it stalled on an empty FIFO —
    the paper requires a correctly sized network to never stall the
    consumer (Section 3.3).

    Every demand instant is offset by :data:`TIE_EPSILON` so that a demand
    coinciding exactly with a producer-side write (possible with zero
    jitter) resolves in the physically meaningful order — data ready
    before it is consumed.  Continuous-time analyses treat such
    simultaneous events as ordered; the discrete event queue needs the
    nudge to agree.
    """

    #: Deterministic offset applied to every demand instant (ms).
    TIE_EPSILON = 1e-6

    def __init__(
        self,
        name: str,
        timing: PJD,
        count: int,
        seed: int = 0,
        start: float = 0.0,
        keep_values: bool = True,
    ) -> None:
        super().__init__(name)
        self.timing = timing
        self.count = count
        self.seed = seed
        self.start = start
        self.keep_values = keep_values
        self.input: Optional[ReadEndpoint] = None
        self.arrival_times: List[float] = []
        self.tokens: List[Token] = []
        self.stalls = 0
        self.total_stall_time = 0.0

    def behavior(self):
        if self.input is None:
            raise ProtocolError(f"{self.name}: input endpoint not connected")
        schedule = cached_pjd_schedule(self.timing, self.count, self.seed,
                                       self.start)
        tie_epsilon = self.TIE_EPSILON
        sim = self._sim
        keep = self.keep_values
        arrival_append = self.arrival_times.append
        token_append = self.tokens.append
        delay_op = Delay(0.0)
        read_op = Read(self.input)
        for demand in schedule:
            wait = demand + tie_epsilon - sim._now
            if wait > 0:
                delay_op.duration = wait
                yield delay_op
            attempt = sim._now
            token = yield read_op
            now = sim._now
            if now > attempt + 1e-12:
                self.stalls += 1
                self.total_stall_time += now - attempt
            arrival_append(now)
            if keep:
                token_append(token)

    def inter_arrival_times(self) -> List[float]:
        """Gaps between consecutive read completions (Table 2's decoded
        inter-frame timing statistics)."""
        times = self.arrival_times
        return [b - a for a, b in zip(times, times[1:])]


class FunctionProcess(Process):
    """Read one token, compute, write one transformed token, repeat.

    ``transform(value) -> value`` maps payloads (or ``transform(value,
    seqno)`` with ``takes_seqno=True``, which lets applications memoise
    deterministic per-token computations); ``service`` is either a constant
    service time in ms or a callable ``service(token, rng) -> ms``
    (jittered computation).  ``out_size`` optionally overrides the output
    token size (e.g. a decoder inflating 10 KB frames to 76.8 KB).
    """

    def __init__(
        self,
        name: str,
        transform: Callable[..., Any],
        service: Any = 0.0,
        seed: int = 0,
        out_size: Optional[Callable[[Any], int]] = None,
        takes_seqno: bool = False,
    ) -> None:
        super().__init__(name)
        self.transform = transform
        self.service = service
        self.seed = seed
        self.out_size = out_size
        self.takes_seqno = takes_seqno
        self.input: Optional[ReadEndpoint] = None
        self.output: Optional[WriteEndpoint] = None
        self.processed = 0

    def _service_time(self, token: Token, rng: np.random.Generator) -> float:
        if callable(self.service):
            base = float(self.service(token, rng))
        else:
            base = float(self.service)
        return base * self.slowdown

    def behavior(self):
        if self.input is None or self.output is None:
            raise ProtocolError(f"{self.name}: endpoints not connected")
        rng = np.random.default_rng(self.seed)
        sim = self._sim
        name = self.name
        transform = self.transform
        takes_seqno = self.takes_seqno
        out_size = self.out_size
        service_time = self._service_time
        delay_op = Delay(0.0)
        read_op = Read(self.input)
        write_op = Write(self.output, None)
        while True:
            token = yield read_op
            duration = service_time(token, rng)
            if duration > 0:
                delay_op.duration = duration
                yield delay_op
            seqno = token[1]
            if takes_seqno:
                value = transform(token[0], seqno)
            else:
                value = transform(token[0])
            size = out_size(value) if out_size is not None else token[3]
            write_op.token = _tuple_new(
                Token, (value, seqno, sim._now, size, name)
            )
            yield write_op
            self.processed += 1


class PacedRelay(Process):
    """Relay tokens while shaping the output to a PJD model.

    Reads a token, optionally transforms it, and releases it no earlier
    than its PJD target instant: token ``j`` is released at
    ``max(nominal_j + phi_j, previous + d, ready)`` where ``nominal_j``
    advances by one period per token and ``phi_j`` is uniform jitter.
    This is how a replica's exit stage (e.g. the MJPEG ``mergeframe``
    process) enforces the interface timing of Table 1, and how design
    diversity between replicas is expressed (different jitter seeds and
    magnitudes).

    Rate-degradation faults stretch the pacing: the nominal increment and
    the minimum distance are multiplied by ``self.slowdown``.  The jitter
    comes from :func:`jitter_offsets` over a generator seeded fresh in
    :meth:`behavior` (a respawned relay restarts the stream).
    """

    def __init__(
        self,
        name: str,
        timing: PJD,
        transform: Optional[Callable[[Any], Any]] = None,
        seed: int = 0,
        start: float = 0.0,
        out_size: Optional[Callable[[Any], int]] = None,
    ) -> None:
        super().__init__(name)
        self.timing = timing
        self.transform = transform
        self.seed = seed
        self.start = start
        self.out_size = out_size
        self.input: Optional[ReadEndpoint] = None
        self.output: Optional[WriteEndpoint] = None
        self.release_times: List[float] = []

    def behavior(self):
        if self.input is None or self.output is None:
            raise ProtocolError(f"{self.name}: endpoints not connected")
        timing = self.timing
        period = timing.period
        min_distance = timing.min_distance
        half_jitter = timing.jitter / 2.0
        next_offset = (
            jitter_offsets(np.random.default_rng(self.seed),
                           half_jitter).__next__
            if half_jitter > 0 else None
        )
        nominal = self.start
        previous = -math.inf
        sim = self._sim
        name = self.name
        transform = self.transform
        out_size = self.out_size
        release_append = self.release_times.append
        delay_op = Delay(0.0)
        read_op = Read(self.input)
        write_op = Write(self.output, None)
        while True:
            token = yield read_op
            slowdown = self.slowdown
            nominal += period * slowdown
            target = nominal
            if next_offset is not None:
                target += next_offset()
            # ``max(target, floor, now)``, keeping the first of equals.
            floor = previous + min_distance * slowdown
            if floor > target:
                target = floor
            now = sim._now
            if now > target:
                target = now
            wait = target - now
            if wait > 0:
                delay_op.duration = wait
                yield delay_op
                now = sim._now
            previous = now
            value = transform(token[0]) if transform is not None else token[0]
            size = out_size(value) if out_size is not None else token[3]
            write_op.token = _tuple_new(
                Token, (value, token[1], now, size, name)
            )
            release_append(now)
            yield write_op


class RecordingSink(Process):
    """Greedily read everything from a channel, recording (time, token).

    Used by the equivalence checker to capture a network's raw output
    sequence ``Q_C`` with its timestamps ``t(Q_C)``.
    """

    def __init__(self, name: str, limit: Optional[int] = None) -> None:
        super().__init__(name)
        self.limit = limit
        self.input: Optional[ReadEndpoint] = None
        self.records: List[Tuple[float, Token]] = []

    def behavior(self):
        if self.input is None:
            raise ProtocolError(f"{self.name}: input endpoint not connected")
        sim = self._sim
        records = self.records
        read_op = Read(self.input)
        while self.limit is None or len(records) < self.limit:
            token = yield read_op
            records.append((sim._now, token))

    def values(self) -> List[Any]:
        """The received payload sequence."""
        return [token.value for _, token in self.records]

    def times(self) -> List[float]:
        """The receive timestamps."""
        return [time for time, _ in self.records]
