"""Tests for the fail-silent substrate: value faults -> timing faults."""

import numpy as np
import pytest

from repro.core.duplicate import NetworkBlueprint, build_duplicated
from repro.core.failsilent import (
    LockstepProcess,
    ValueFaultInjector,
    _corrupt,
)
from repro.kpn.network import Network
from repro.kpn.process import PeriodicConsumer, PeriodicSource, RecordingSink
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network


class TestCorruption:
    @pytest.mark.parametrize("value", [
        7, 3.5, True, b"hello", b"", (1, 2), np.arange(4),
        np.zeros((2, 2)), "text",
    ])
    def test_corruption_changes_value(self, value):
        corrupted = _corrupt(value)
        if isinstance(value, np.ndarray):
            assert not np.array_equal(corrupted, value)
        else:
            assert corrupted != value


def lockstep_pipeline(inject_at=None, tokens=10, transform=lambda v: v * 2):
    net = Network("lockstep")
    src = net.add_process(PeriodicSource("src", PJD(10.0), tokens, seed=1))
    worker = net.add_process(
        LockstepProcess("worker", transform=transform, service=1.0)
    )
    snk = net.add_process(RecordingSink("snk"))
    a = net.add_fifo("a", 4)
    b = net.add_fifo("b", 4)
    src.output = a.writer
    worker.input = a.reader
    worker.output = b.writer
    snk.input = b.reader
    sim = net.instantiate()
    injector = None
    if inject_at is not None:
        injector = ValueFaultInjector("worker", inject_at)
        injector.arm(sim, net)
    sim.run(max_events=50_000)
    return net, worker, snk, injector


class TestLockstepProcess:
    def test_healthy_lockstep_transparent(self):
        _, worker, snk, _ = lockstep_pipeline()
        assert not worker.silenced
        assert snk.values() == [i * 2 for i in range(10)]

    def test_tuple_payload_holding_array(self):
        # Lane results are compared element-wise, so a tuple holding an
        # array must not hit numpy's ambiguous truth value.
        _, worker, snk, _ = lockstep_pipeline(
            transform=lambda v: (np.array([v, v + 1]), v)
        )
        assert not worker.silenced
        values = snk.values()
        assert [v for _, v in values] == list(range(10))
        assert np.array_equal(values[3][0], [3, 4])

    def test_value_fault_silences_process(self):
        _, worker, snk, injector = lockstep_pipeline(inject_at=35.0)
        assert worker.silenced
        assert worker.silenced_at >= 35.0
        # Nothing corrupt ever left the process: the outputs are a clean
        # prefix of the healthy stream.
        values = snk.values()
        assert values == [i * 2 for i in range(len(values))]
        assert len(values) < 10

    def test_silenced_process_stops_consuming(self):
        net, worker, _, _ = lockstep_pipeline(inject_at=35.0, tokens=12)
        fifo = net.channels["a"]
        # The source keeps writing until the FIFO fills and then blocks —
        # exactly the condition the replicator turns into a detection.
        assert fifo.fill == fifo.capacity

    def test_injector_requires_lockstep(self):
        net = Network("plain")
        src = net.add_process(PeriodicSource("src", PJD(10.0), 1, seed=1))
        snk = net.add_process(RecordingSink("snk"))
        fifo = net.add_fifo("f", 2)
        src.output = fifo.writer
        snk.input = fifo.reader
        sim = net.instantiate()
        injector = ValueFaultInjector("src", 5.0)
        with pytest.raises(TypeError):
            injector.arm(sim, net)


class TestEndToEndValueFault:
    """The full chain the paper's Section 1 describes: a value upset in
    one replica self-silences (fail-silent substrate), the framework sees
    a timing fault, and the consumer sees nothing at all."""

    def _build(self):
        producer = PJD(10.0, 1.0, 10.0)
        replicas = [PJD(10.0, 3.0, 10.0), PJD(10.0, 6.0, 10.0)]
        sizing = size_duplicated_network(producer, replicas, replicas,
                                         producer)
        tokens = 80

        def make_producer(net):
            return net.add_process(
                PeriodicSource("P", producer, tokens,
                               payload=lambda i: (i, 16), seed=3)
            )

        def make_consumer(net):
            return net.add_process(
                PeriodicConsumer("C", producer,
                                 tokens + sizing.selector_priming,
                                 seed=4)
            )

        def make_critical(net, prefix, variant, input_ep, output_ep):
            worker = net.add_process(
                LockstepProcess(f"{prefix}/lockstep",
                                transform=lambda v: v + 1000,
                                service=2.0 + variant)
            )
            worker.input = input_ep
            worker.output = output_ep
            return [worker]

        blueprint = NetworkBlueprint("failsilent", make_producer,
                                     make_critical, make_consumer)
        return build_duplicated(blueprint, sizing), sizing

    def test_value_fault_tolerated_as_timing_fault(self):
        duplicated, sizing = self._build()
        sim = duplicated.network.instantiate()
        injector = ValueFaultInjector("R1/lockstep", 300.0)
        injector.arm(sim, duplicated)
        sim.run(max_events=300_000)

        worker = duplicated.network.process("R1/lockstep")
        assert worker.silenced  # the substrate silenced the upset lane
        report = duplicated.detection_log.first(replica=0)
        assert report is not None  # the framework saw a timing fault
        assert report.time >= 300.0
        assert duplicated.consumer.stalls == 0
        real = [t for t in duplicated.consumer.tokens if t.seqno > 0]
        assert [t.value for t in real] == [i + 1000 for i in range(80)]

    def test_detection_within_bounds(self):
        duplicated, sizing = self._build()
        sim = duplicated.network.instantiate()
        injector = ValueFaultInjector("R2/lockstep", 300.0)
        injector.arm(sim, duplicated)
        sim.run(max_events=300_000)
        report = duplicated.detection_log.first(replica=1,
                                                site="selector")
        assert report is not None
        # The silencing instant is the worker's mismatch; the latency to
        # detection stays within the Eq. 8 bound measured from there.
        worker = duplicated.network.process("R2/lockstep")
        latency = report.time - worker.silenced_at
        assert latency <= sizing.selector_detection_bound
