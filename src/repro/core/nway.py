"""n-replica generalisation of the replicator and selector channels.

The paper restricts its presentation to two replicas and one tolerated
fault, noting that "a more general setup for tolerating up to n timing
faults can be easily constructed using the principles outlined in this
paper" (Section 1).  This module constructs it:

* :class:`NWayReplicatorChannel` — one writing interface, ``n`` queues;
  a write duplicates the token into every non-faulty queue and blocks
  only if *all* non-faulty queues are full (which, with Eq. 3 sizing,
  means more faults than replicas);
* :class:`NWaySelectorChannel` — ``n`` writing interfaces, one FIFO; the
  *first* token of each n-plicate group is enqueued (virtual-fill
  comparison against the maximum over healthy interfaces — the same rule
  that reduces to the paper's ``space_1 <= space_2`` for ``n = 2``), the
  stragglers dropped;
* :func:`size_nway_network` — Section 3.4 generalised: per-replica
  Eq. 3/Eq. 4 capacities, the Eq. 5 threshold over all ordered replica
  pairs, and the Eq. 7/8 detection bounds where the surviving replica is
  the *slowest* healthy one;
* :func:`build_nway` — assembly of the n-replicated network from the
  same :class:`~repro.core.duplicate.NetworkBlueprint` used for Fig. 1.

With ``n`` replicas the construction tolerates ``n - 1`` permanent
timing faults: every detection isolates one replica, and the channels
keep operating on the survivors down to a single healthy replica.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_OVERFLOW,
    MECHANISM_STALL,
    DetectionLog,
)
from repro.core.duplicate import NetworkBlueprint
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.kpn.tokens import Token
from repro.kpn.trace import TraceRecorder
from repro.rtc.pjd import PJD
from repro.rtc.sizing import (
    detection_latency_bound_fail_stop,
    divergence_threshold,
    fifo_capacity,
    initial_fill,
)


class NWayReplicatorChannel:
    """A replicator with ``n`` reading interfaces (one per replica)."""

    def __init__(
        self,
        name: str,
        capacities: Sequence[int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        detection_log: Optional[DetectionLog] = None,
        traces=None,
    ) -> None:
        if len(capacities) < 2:
            raise ValueError("need at least two replicas")
        if any(c < 1 for c in capacities):
            raise ValueError("queue capacities must be >= 1")
        self.name = name
        self.capacities = tuple(capacities)
        self.n = len(capacities)
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.traces = traces
        self.ops = 0
        self.op_calls = 0
        self._queues = [deque() for _ in range(self.n)]
        self.fault = [False] * self.n
        self.reads = [0] * self.n
        self.writes = 0
        self._sim = None
        self._parked_readers: List[Deque] = [deque() for _ in range(self.n)]
        self._parked_writers: Deque = deque()

    def bind(self, sim) -> None:
        self._sim = sim

    @property
    def writer(self) -> WriteEndpoint:
        return WriteEndpoint(self, 0)

    def reader(self, replica: int) -> ReadEndpoint:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")
        return ReadEndpoint(self, replica)

    def fill(self, replica: int) -> int:
        return len(self._queues[replica])

    def space(self, replica: int) -> int:
        return self.capacities[replica] - len(self._queues[replica])

    @property
    def healthy(self) -> List[int]:
        """Indices of replicas not (yet) flagged."""
        return [k for k in range(self.n) if not self.fault[k]]

    def _flag(self, replica: int, mechanism: str, now: float,
              detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self.log.record(now, "replicator", replica, mechanism, detail)
        if all(self.fault):
            raise SimulationError(
                f"{self.name}: all {self.n} replicas flagged faulty"
            )

    def _check_divergence(self, now: float) -> None:
        if self.threshold is None:
            return
        healthy = self.healthy
        if len(healthy) < 2:
            return
        front = max(self.reads[k] for k in healthy)
        for k in healthy:
            if front - self.reads[k] > self.threshold:
                self._flag(
                    k,
                    MECHANISM_DIVERGENCE,
                    now,
                    f"reads {self.reads[k]} lags front {front} "
                    f"(D={self.threshold})",
                )

    # -- channel protocol -----------------------------------------------------

    def poll_read(self, index: int, now: float):
        queue = self._queues[index]
        self.ops += 1
        self.op_calls += 1
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        self.reads[index] += 1
        if self.traces is not None:
            self.traces[index].on_read(now, token.seqno, index)
        self._check_divergence(now)
        self._wake(self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n
        self.op_calls += 1
        for k in self.healthy:
            if self.space(k) == 0:
                self._flag(
                    k,
                    MECHANISM_OVERFLOW,
                    now,
                    f"space_{k + 1}=0 at write of seq {token.seqno}",
                )
        targets = self.healthy
        delay = self._latency(token) if self._latency is not None else 0.0
        for k in targets:
            self._queues[k].append((now + delay, token))
            if self.traces is not None:
                self.traces[k].on_write(now, token.seqno, k)
        self.writes += 1
        for k in targets:
            self._wake(self._parked_readers[k])
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers[index].append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    def _wake(self, parked: Deque) -> None:
        # FIFO wake order (see Fifo._wake): deterministic retry sequence.
        sim = self._sim
        while parked:
            handle = parked.popleft()
            handle.is_parked = False
            if sim is not None:
                sim.retry(handle)


class NWaySelectorChannel:
    """A selector with ``n`` writing interfaces."""

    def __init__(
        self,
        name: str,
        capacities: Sequence[int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        detection_log: Optional[DetectionLog] = None,
        trace=None,
        priming_tokens: Tuple[Token, ...] = (),
    ) -> None:
        if len(capacities) < 2:
            raise ValueError("need at least two replicas")
        if any(c < 1 for c in capacities):
            raise ValueError("virtual capacities must be >= 1")
        if len(priming_tokens) > min(capacities):
            raise ValueError("priming exceeds the smallest capacity")
        self.name = name
        self.capacities = tuple(capacities)
        self.n = len(capacities)
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.trace = trace
        self.ops = 0
        self.op_calls = 0
        self.fifo_size = max(capacities)
        self._queue = deque((0.0, token) for token in priming_tokens)
        self.priming = len(priming_tokens)
        self.fill = self.priming
        self.space = [c - self.priming for c in capacities]
        self.fault = [False] * self.n
        self.writes = [0] * self.n
        self.drops = [0] * self.n
        self.reads = 0
        self._sim = None
        self._parked_reader: Deque = deque()
        self._parked_writers: List[Deque] = [deque() for _ in range(self.n)]
        if trace is not None and self.priming:
            trace.preset_fill(self.priming)

    def bind(self, sim) -> None:
        self._sim = sim

    def writer(self, replica: int) -> WriteEndpoint:
        if not 0 <= replica < self.n:
            raise ValueError(f"replica index out of range: {replica}")
        return WriteEndpoint(self, replica)

    @property
    def reader(self) -> ReadEndpoint:
        return ReadEndpoint(self, 0)

    @property
    def healthy(self) -> List[int]:
        return [k for k in range(self.n) if not self.fault[k]]

    def virtual_fill(self, replica: int) -> int:
        return self.capacities[replica] - self.space[replica]

    def _flag(self, replica: int, mechanism: str, now: float,
              detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self.log.record(now, "selector", replica, mechanism, detail)
        if all(self.fault):
            raise SimulationError(
                f"{self.name}: all {self.n} replicas flagged faulty"
            )

    def _check_divergence(self, now: float) -> None:
        if self.threshold is None:
            return
        healthy = self.healthy
        if len(healthy) < 2:
            return
        front = max(self.writes[k] for k in healthy)
        for k in healthy:
            if front - self.writes[k] > self.threshold:
                self._flag(
                    k,
                    MECHANISM_DIVERGENCE,
                    now,
                    f"writes {self.writes[k]} lags front {front} "
                    f"(D={self.threshold})",
                )

    def _check_stall(self, now: float) -> None:
        for k in self.healthy:
            if self.space[k] > self.capacities[k]:
                self._flag(
                    k,
                    MECHANISM_STALL,
                    now,
                    f"space_{k + 1}={self.space[k]} > "
                    f"|S_{k + 1}|={self.capacities[k]}",
                )

    # -- channel protocol -----------------------------------------------------

    def poll_read(self, index: int, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 1 + self.n
        self.op_calls += 1
        if not self._queue:
            return ("empty", None)
        ready, token = self._queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        self._queue.popleft()
        self.fill -= 1
        self.reads += 1
        for k in self.healthy:
            self.space[k] += 1
        if self.trace is not None:
            self.trace.on_read(now, token.seqno)
        self._check_stall(now)
        self._check_divergence(now)
        for parked in self._parked_writers:
            self._wake(parked)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if not 0 <= index < self.n:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 1 + self.n
        self.op_calls += 1
        if self.fault[index]:
            self.drops[index] += 1
            if self.trace is not None:
                self.trace.on_drop(now, token.seqno, index)
            return ("ok", None)
        if self.space[index] == 0:
            return ("full", None)
        others = [k for k in self.healthy if k != index]
        own_fill = self.virtual_fill(index)
        front_fill = max(
            (self.virtual_fill(k) for k in others), default=own_fill
        )
        enqueue = own_fill >= front_fill
        self.space[index] -= 1
        self.writes[index] += 1
        if enqueue:
            if self.fill >= self.fifo_size:
                raise SimulationError(
                    f"{self.name}: physical FIFO overflow — sizing violated"
                )
            delay = self._latency(token) if self._latency is not None else 0.0
            self._queue.append((now + delay, token))
            self.fill += 1
            if self.trace is not None:
                self.trace.on_write(now, token.seqno, index)
            self._wake(self._parked_reader)
        else:
            self.drops[index] += 1
            if self.trace is not None:
                self.trace.on_drop(now, token.seqno, index)
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

    def _wake(self, parked: Deque) -> None:
        # FIFO wake order (see Fifo._wake): deterministic retry sequence.
        sim = self._sim
        while parked:
            handle = parked.popleft()
            handle.is_parked = False
            if sim is not None:
                sim.retry(handle)


@dataclass
class NWaySizing:
    """Section 3.4 generalised to ``n`` replicas."""

    replicator_capacities: Tuple[int, ...]
    selector_capacities: Tuple[int, ...]
    selector_initial_fill: Tuple[int, ...]
    selector_threshold: int
    replicator_threshold: int
    selector_detection_bound: float
    replicator_detection_bound: float

    @property
    def n(self) -> int:
        return len(self.replicator_capacities)

    @property
    def selector_priming(self) -> int:
        return max(self.selector_initial_fill)

    @property
    def selector_fifo_size(self) -> int:
        return max(self.selector_capacities)


def size_nway_network(
    producer: PJD,
    replica_inputs: Sequence[PJD],
    replica_outputs: Sequence[PJD],
    consumer: PJD,
    horizon: Optional[float] = None,
) -> NWaySizing:
    """Run the generalised Section 3.4 computation for ``n`` replicas."""
    if len(replica_inputs) != len(replica_outputs):
        raise ValueError("replica input/output model counts differ")
    if len(replica_inputs) < 2:
        raise ValueError("need at least two replicas")
    producer_upper, _ = producer.curves()
    consumer_upper, consumer_lower = consumer.curves()

    replicator_caps = tuple(
        fifo_capacity(producer_upper, model.lower(), horizon)
        for model in replica_inputs
    )
    fills = tuple(
        initial_fill(consumer_upper, model.lower(), horizon)
        for model in replica_outputs
    )
    priming = max(fills)
    selector_caps = tuple(
        priming + fifo_capacity(model.upper(), consumer_lower, horizon)
        for model in replica_outputs
    )
    selector_d = divergence_threshold(
        [m.upper() for m in replica_outputs],
        [m.lower() for m in replica_outputs],
        horizon,
    )
    replicator_d = divergence_threshold(
        [m.upper() for m in replica_inputs],
        [m.lower() for m in replica_inputs],
        horizon,
    )
    selector_bound = detection_latency_bound_fail_stop(
        [m.lower() for m in replica_outputs], selector_d, horizon
    )
    replicator_bound = detection_latency_bound_fail_stop(
        [m.lower() for m in replica_inputs], replicator_d, horizon
    )
    return NWaySizing(
        replicator_capacities=replicator_caps,
        selector_capacities=selector_caps,
        selector_initial_fill=fills,
        selector_threshold=selector_d,
        replicator_threshold=replicator_d,
        selector_detection_bound=selector_bound,
        replicator_detection_bound=replicator_bound,
    )


@dataclass
class NWayNetwork:
    """The assembled n-replicated network."""

    network: Network
    producer: Process
    consumer: Process
    replicator: NWayReplicatorChannel
    selector: NWaySelectorChannel
    replicas: List[List[Process]]
    detection_log: DetectionLog

    def replica_process_names(self, replica: int) -> List[str]:
        return [p.name for p in self.replicas[replica]]

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None):
        sim = self.network.instantiate()
        stats = sim.run(until=until, max_events=max_events)
        return sim, stats


def build_nway(
    blueprint: NetworkBlueprint,
    sizing: NWaySizing,
    recorder: Optional[TraceRecorder] = None,
) -> NWayNetwork:
    """Assemble the n-replicated network from a standard blueprint.

    ``blueprint.make_critical`` is invoked once per replica with variant
    indices ``0 .. n-1`` — applications provide design diversity for as
    many variants as the sizing has replicas.
    """
    recorder = recorder or TraceRecorder()
    net = Network(f"{blueprint.name}-{sizing.n}way", recorder=recorder)
    log = DetectionLog()

    replicator = NWayReplicatorChannel(
        "replicator",
        capacities=sizing.replicator_capacities,
        divergence_threshold=sizing.replicator_threshold,
        transfer_latency=blueprint.transfer_latency,
        detection_log=log,
        traces=[
            recorder.channel(f"replicator.R{k + 1}")
            for k in range(sizing.n)
        ],
    )
    selector = NWaySelectorChannel(
        "selector",
        capacities=sizing.selector_capacities,
        divergence_threshold=sizing.selector_threshold,
        transfer_latency=blueprint.transfer_latency,
        detection_log=log,
        trace=recorder.channel("selector.S"),
        priming_tokens=blueprint.priming_tokens(sizing.selector_priming),
    )
    net.add_channel(replicator)
    net.add_channel(selector)

    producer = blueprint.make_producer(net)
    consumer = blueprint.make_consumer(net)
    producer.output = replicator.writer
    consumer.input = selector.reader

    replicas: List[List[Process]] = []
    for k in range(sizing.n):
        processes = blueprint.make_critical(
            net, f"R{k + 1}", k, replicator.reader(k), selector.writer(k)
        )
        replicas.append(processes)

    return NWayNetwork(
        network=net,
        producer=producer,
        consumer=consumer,
        replicator=replicator,
        selector=selector,
        replicas=replicas,
        detection_log=log,
    )
