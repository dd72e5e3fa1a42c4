"""Constructing reference and duplicated process networks (Figure 1).

An application is described once by a :class:`NetworkBlueprint` — how to
build its producer, its critical subnetwork and its consumer — and this
module assembles either topology from it:

* :func:`build_reference` — ``P -> F_P -> critical -> F_C -> C`` (the
  un-replicated network at the top of Figure 1);
* :func:`build_duplicated` — ``P -> replicator -> {R_1, R_2} -> selector
  -> C`` (the bottom of Figure 1), parameterised by a
  :class:`~repro.rtc.sizing.SizingResult`.

Design diversity between replicas (Section 2: "sufficient design diversity
in order to prevent common-mode faults") is expressed by the ``variant``
index passed to the critical-subnetwork builder: variant 0 and variant 1
may use different internal timing (the paper captures the diversity as
different jitter values, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.detection import DetectionLog
from repro.core.overhead import OpCounter
from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.kpn.channel import Fifo, ReadEndpoint, WriteEndpoint
from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.kpn.tokens import Token
from repro.kpn.trace import TraceRecorder
from repro.rtc.sizing import SizingResult

#: Builder signature for the critical subnetwork: it must add its processes
#: (and any internal channels) to the network, wiring the entry process to
#: read from ``input_ep`` and the exit process to write to ``output_ep``.
CriticalBuilder = Callable[
    [Network, str, int, ReadEndpoint, WriteEndpoint], List[Process]
]


@dataclass
class NetworkBlueprint:
    """One application, buildable as either topology.

    Attributes
    ----------
    name:
        Application name (network names derive from it).
    make_producer:
        ``f(net) -> Process`` adding the producer; its ``output`` endpoint
        is wired by the builders.
    make_critical:
        ``f(net, prefix, variant, input_ep, output_ep) -> [Process]``
        adding one copy of the critical subnetwork.  ``variant`` selects
        the design-diversity variant (0 or 1).
    make_consumer:
        ``f(net) -> Process`` adding the consumer; its ``input`` endpoint
        is wired by the builders.
    transfer_latency:
        Optional ``f(token) -> ms`` applied on the replicator/selector and
        reference FIFOs (the SCC communication model).
    make_priming:
        ``f(i) -> (value, size_bytes)`` producing the payload of the
        ``i``-th priming token (Eq. 4 initial fill).  Defaults to a
        generic marker payload; applications provide blank frames /
        silence samples so consumers can process them uniformly.
    """

    name: str
    make_producer: Callable[[Network], Process]
    make_critical: CriticalBuilder
    make_consumer: Callable[[Network], Process]
    transfer_latency: Optional[Callable[[Token], float]] = None
    make_priming: Optional[Callable[[int], tuple]] = None

    def priming_tokens(self, count: int) -> tuple:
        """Build ``count`` priming tokens (seqnos ``<= 0`` so application
        tokens keep their 1-based numbering)."""
        factory = self.make_priming or (lambda i: (("__priming__", i), 0))
        tokens = []
        for i in range(count):
            value, size = factory(i)
            tokens.append(
                Token(
                    value=value,
                    seqno=i - count + 1,
                    stamp=0.0,
                    size_bytes=size,
                    origin="priming",
                )
            )
        return tuple(tokens)


@dataclass
class ReferenceNetwork:
    """The assembled un-replicated network and its interesting handles."""

    network: Network
    producer: Process
    consumer: Process
    input_fifo: Fifo
    output_fifo: Fifo
    critical_processes: List[Process] = field(default_factory=list)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Run to quiescence; returns ``(simulator, stats)``."""
        return self.network.run(until=until, max_events=max_events)


@dataclass
class DuplicatedNetwork:
    """The assembled duplicated network and its interesting handles."""

    network: Network
    producer: Process
    consumer: Process
    replicator: ReplicatorChannel
    selector: SelectorChannel
    replicas: List[List[Process]]
    detection_log: DetectionLog

    @property
    def replicator_ops(self) -> OpCounter:
        """The replicator's primitive-operation counts (Table 2)."""
        return OpCounter(self.replicator.ops, self.replicator.op_calls)

    @property
    def selector_ops(self) -> OpCounter:
        """The selector's primitive-operation counts (Table 2)."""
        return OpCounter(self.selector.ops, self.selector.op_calls)

    def replica_process_names(self, replica: int) -> List[str]:
        """Names of all processes belonging to replica ``replica``."""
        return [p.name for p in self.replicas[replica]]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Run to quiescence; returns ``(simulator, stats)``."""
        return self.network.run(until=until, max_events=max_events)


def build_reference(
    blueprint: NetworkBlueprint,
    input_capacity: int,
    output_capacity: int,
    variant: int = 0,
    initial_fill: int = 0,
    recorder: Optional[TraceRecorder] = None,
) -> ReferenceNetwork:
    """Assemble the reference network ``P -> F_P -> critical -> F_C -> C``.

    ``input_capacity`` / ``output_capacity`` are ``|F_P|`` / ``|F_C|``
    (Eq. 3); ``initial_fill`` pre-fills ``F_C`` with priming tokens
    (Eq. 4); ``variant`` selects which design variant of the critical
    subnetwork runs (0 matches replica 1 of the duplicated network).
    """
    net = Network(f"{blueprint.name}-reference", recorder=recorder)
    producer = blueprint.make_producer(net)
    consumer = blueprint.make_consumer(net)
    input_fifo = net.add_fifo(
        "F_P", input_capacity, transfer_latency=blueprint.transfer_latency
    )
    output_fifo = net.add_fifo(
        "F_C",
        output_capacity,
        transfer_latency=blueprint.transfer_latency,
        initial_tokens=blueprint.priming_tokens(initial_fill),
    )
    producer.output = input_fifo.writer
    consumer.input = output_fifo.reader
    critical = blueprint.make_critical(
        net, "ref", variant, input_fifo.reader, output_fifo.writer
    )
    return ReferenceNetwork(
        network=net,
        producer=producer,
        consumer=consumer,
        input_fifo=input_fifo,
        output_fifo=output_fifo,
        critical_processes=critical,
    )


def build_duplicated(
    blueprint: NetworkBlueprint,
    sizing: SizingResult,
    verify_duplicates: bool = False,
    strict_single_fault: bool = True,
    recorder: Optional[TraceRecorder] = None,
    selector_stall_detection: bool = True,
    metrics=None,
) -> DuplicatedNetwork:
    """Assemble the duplicated network of Figure 1 (bottom).

    The replicator and selector are parameterised from ``sizing``:
    capacities from Eq. 3/4, divergence thresholds from Eq. 5.
    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) threads
    live telemetry through the engine and all framework channels.
    """
    recorder = recorder or TraceRecorder()
    net = Network(
        f"{blueprint.name}-duplicated", recorder=recorder, metrics=metrics
    )
    log = DetectionLog()

    replicator = ReplicatorChannel(
        "replicator",
        capacities=sizing.replicator_capacities,
        divergence_threshold=sizing.replicator_threshold,
        transfer_latency=blueprint.transfer_latency,
        traces=(
            recorder.channel("replicator.R1"),
            recorder.channel("replicator.R2"),
        ),
        detection_log=log,
        strict_single_fault=strict_single_fault,
        metrics=metrics,
    )
    selector = SelectorChannel(
        "selector",
        capacities=sizing.selector_capacities,
        divergence_threshold=sizing.selector_threshold,
        transfer_latency=blueprint.transfer_latency,
        trace=recorder.channel("selector.S"),
        detection_log=log,
        strict_single_fault=strict_single_fault,
        verify_duplicates=verify_duplicates,
        priming_tokens=blueprint.priming_tokens(sizing.selector_priming),
        stall_detection=selector_stall_detection,
        metrics=metrics,
    )
    net.add_channel(replicator)
    net.add_channel(selector)

    producer = blueprint.make_producer(net)
    consumer = blueprint.make_consumer(net)
    producer.output = replicator.writer
    consumer.input = selector.reader

    replicas: List[List[Process]] = []
    for replica_index in (0, 1):
        processes = blueprint.make_critical(
            net,
            f"R{replica_index + 1}",
            replica_index,
            replicator.reader(replica_index),
            selector.writer(replica_index),
        )
        replicas.append(processes)

    return DuplicatedNetwork(
        network=net,
        producer=producer,
        consumer=consumer,
        replicator=replicator,
        selector=selector,
        replicas=replicas,
        detection_log=log,
    )
