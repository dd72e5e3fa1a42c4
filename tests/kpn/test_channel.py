"""Tests for the bounded FIFO channel."""

import pytest

from repro.kpn.channel import Fifo
from repro.kpn.errors import ProtocolError
from repro.kpn.operations import Delay, Read, Write
from repro.kpn.process import Process
from repro.kpn.simulator import Simulator
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


def tok(value, seqno=1, size=0):
    return Token(value=value, seqno=seqno, stamp=0.0, size_bytes=size)


class Writer(Process):
    def __init__(self, name, endpoint, tokens, gap=0.0):
        super().__init__(name)
        self.endpoint = endpoint
        self.tokens = tokens
        self.gap = gap
        self.commit_times = []

    def behavior(self):
        for token in self.tokens:
            if self.gap:
                yield Delay(self.gap)
            yield Write(self.endpoint, token)
            self.commit_times.append(self.now)


class Reader(Process):
    def __init__(self, name, endpoint, count, gap=0.0):
        super().__init__(name)
        self.endpoint = endpoint
        self.count = count
        self.gap = gap
        self.received = []

    def behavior(self):
        for _ in range(self.count):
            if self.gap:
                yield Delay(self.gap)
            token = yield Read(self.endpoint)
            self.received.append((self.now, token))


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Fifo("f", 0)

    def test_rejects_excess_initial_tokens(self):
        with pytest.raises(ValueError):
            Fifo("f", 1, initial_tokens=(tok(1), tok(2)))

    def test_initial_tokens_fill(self):
        fifo = Fifo("f", 3, initial_tokens=(tok("a"), tok("b")))
        assert fifo.fill == 2
        assert fifo.space == 1

    def test_bad_interface_indices(self):
        fifo = Fifo("f", 1)
        with pytest.raises(ProtocolError):
            fifo.poll_read(1, 0.0)
        with pytest.raises(ProtocolError):
            fifo.poll_write(1, tok(1), 0.0)


class TestFifoSemantics:
    def test_order_preserved(self):
        sim = Simulator()
        fifo = Fifo("f", 4)
        fifo.bind(sim)
        writer = Writer("w", fifo.writer, [tok(i, i) for i in range(1, 6)])
        reader = Reader("r", fifo.reader, 5)
        sim.register_all([writer, reader])
        sim.run()
        assert [t.value for _, t in reader.received] == [1, 2, 3, 4, 5]

    def test_writer_blocks_on_full(self):
        sim = Simulator()
        fifo = Fifo("f", 1)
        fifo.bind(sim)
        writer = Writer("w", fifo.writer, [tok(i, i) for i in range(3)])
        reader = Reader("r", fifo.reader, 3, gap=10.0)
        sim.register_all([writer, reader])
        sim.run()
        # Writes 2 and 3 must wait for reads at t = 10 and t = 20.
        assert writer.commit_times[0] == 0.0
        assert writer.commit_times[1] >= 10.0
        assert writer.commit_times[2] >= 20.0

    def test_reader_blocks_on_empty(self):
        sim = Simulator()
        fifo = Fifo("f", 4)
        fifo.bind(sim)
        writer = Writer("w", fifo.writer, [tok(1, 1)], gap=7.0)
        reader = Reader("r", fifo.reader, 1)
        sim.register_all([writer, reader])
        sim.run()
        assert reader.received[0][0] == 7.0

    def test_transfer_latency_delays_visibility(self):
        sim = Simulator()
        fifo = Fifo("f", 4, transfer_latency=lambda token: 2.5)
        fifo.bind(sim)
        writer = Writer("w", fifo.writer, [tok(1, 1)])
        reader = Reader("r", fifo.reader, 1)
        sim.register_all([writer, reader])
        sim.run()
        assert reader.received[0][0] == pytest.approx(2.5)

    def test_space_reserved_during_flight(self):
        fifo = Fifo("f", 1, transfer_latency=lambda token: 100.0)
        status, _ = fifo.poll_write(0, tok(1, 1), 0.0)
        assert status == "ok"
        status, _ = fifo.poll_write(0, tok(2, 2), 0.0)
        assert status == "full"

    def test_wait_status_reports_ready_time(self):
        fifo = Fifo("f", 2, transfer_latency=lambda token: 5.0)
        fifo.poll_write(0, tok(1, 1), 0.0)
        status, ready = fifo.poll_read(0, 1.0)
        assert status == "wait"
        assert ready == pytest.approx(5.0)

    def test_trace_records_fill(self):
        trace = ChannelTrace("f")
        fifo = Fifo("f", 4, trace=trace)
        fifo.poll_write(0, tok(1, 1), 0.0)
        fifo.poll_write(0, tok(2, 2), 1.0)
        fifo.poll_read(0, 2.0)
        assert trace.max_fill == 2
        assert fifo.fill == 1
        assert trace.events == []

    def test_untimed_read_at_write_instant(self):
        fifo = Fifo("f", 2)
        assert fifo.poll_read(0, 3.0) == ("empty", None)
        token = tok(1, 1)
        fifo.poll_write(0, token, 3.0)
        assert fifo.poll_read(0, 3.0) == ("ok", token)

    def test_timed_read_before_arrival(self):
        fifo = Fifo("f", 2, transfer_latency=lambda t: 2.0)
        fifo.poll_write(0, tok(1, 1), 3.0)
        assert fifo.poll_read(0, 4.0) == ("wait", pytest.approx(5.0))

    def test_one_poll_body_for_every_configuration(self):
        from repro.obs.metrics import MetricsRegistry

        for fifo in (Fifo("u", 2),
                     Fifo("t", 2, transfer_latency=lambda t: 1.0),
                     Fifo("m", 2, metrics=MetricsRegistry())):
            fifo.bind(Simulator())
            assert "poll_read" not in vars(fifo)
            assert "poll_write" not in vars(fifo)

    def test_repr(self):
        assert "f" in repr(Fifo("f", 2))


class TestWakeOrder:
    """Parked parties must wake in FIFO (longest-parked-first) order.

    Wake order feeds the engine's sequence numbers and therefore trace
    identity: a LIFO pop would reorder retries whenever two parties share
    a parked deque.  Regression test for exactly that.
    """

    def _run_two_writers(self):
        sim = Simulator()
        fifo = Fifo("f", 1)
        fifo.bind(sim)
        # w1 commits token 1 and parks on token 2; w2 then parks on
        # token 3.  Parked order is [w1, w2].
        w1 = Writer("w1", fifo.writer, [tok(1, 1), tok(2, 2)])
        w2 = Writer("w2", fifo.writer, [tok(3, 3)])
        reader = Reader("r", fifo.reader, 3, gap=1.0)
        sim.register(w1)
        sim.register(w2)
        sim.register(reader)
        sim.run()
        return [token.value for _, token in reader.received]

    def test_fifo_wake_order_longest_parked_first(self):
        # Each read frees one slot and wakes both parked writers; the
        # longest-parked (w1) must win the slot.  LIFO waking would
        # deliver [1, 3, 2].
        assert self._run_two_writers() == [1, 2, 3]

    def test_wake_order_is_reproducible(self):
        assert self._run_two_writers() == self._run_two_writers()

    def test_park_is_idempotent(self):
        fifo = Fifo("f", 1)

        class FakeHandle:
            is_parked = False

        handle = FakeHandle()
        fifo.park_writer(0, handle)
        fifo.park_writer(0, handle)  # double park must not duplicate
        assert len(fifo._parked_writers) == 1


class TestFillMetrics:
    """``chan.<name>.fill`` sampling through a row buffer."""

    def test_import_first_in_a_fresh_interpreter(self):
        # The channel module is the engine's leaf: importing it before
        # anything else must not run into the repro.obs/repro.core cycle.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c",
             "import repro.kpn.channel; import repro.kpn.seriesrows"],
            env=env, check=True, capture_output=True,
        )
