"""Tests for channel tracing: the channel owns its occupancy, the trace
keeps the high-water mark and (optionally) the event log."""

from repro.core.selector import SelectorChannel
from repro.kpn.channel import Fifo
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace, EventRecord, TraceRecorder
from repro.kpn.tracefile import channel_timestamps


def tok(seqno):
    return Token(seqno, seqno=seqno)


def traced_fifo(capacity=4, record_events=False, initial=0):
    trace = ChannelTrace("c", record_events=record_events)
    fifo = Fifo("c", capacity, trace=trace,
                initial_tokens=tuple(tok(-i) for i in range(initial)))
    return fifo, trace


class TestChannelTrace:
    def test_fill_tracking(self):
        fifo, trace = traced_fifo()
        fifo.poll_write(0, tok(1), 0.0)
        fifo.poll_write(0, tok(2), 1.0)
        fifo.poll_read(0, 2.0)
        fifo.poll_write(0, tok(3), 3.0)
        assert fifo.fill == 2
        assert trace.max_fill == 2

    def test_preset_fill(self):
        """Priming tokens raise the high-water mark at construction."""
        fifo, trace = traced_fifo(initial=3)
        assert fifo.fill == 3
        assert trace.max_fill == 3

    def test_events_disabled_by_default(self):
        fifo, trace = traced_fifo()
        fifo.poll_write(0, tok(1), 0.0)
        fifo.poll_read(0, 1.0)
        assert trace.events == []
        assert trace.max_fill == 1

    def test_events_recorded_when_enabled(self):
        trace = ChannelTrace("c", record_events=True)
        selector = SelectorChannel("c", (2, 2), trace=trace)
        selector.poll_write(0, tok(1), 0.0)
        selector.poll_read(0, 1.0)
        selector.poll_write(1, tok(1), 2.0)  # late member: dropped
        assert trace.events == [EventRecord(0.0, "write", 1, 0),
                                EventRecord(1.0, "read", 1, 0),
                                EventRecord(2.0, "drop", 1, 1)]

    def test_read_never_drives_fill_negative(self):
        fifo, trace = traced_fifo(record_events=True)
        fifo.poll_write(0, tok(1), 0.0)
        fifo.poll_read(0, 1.0)
        assert fifo.poll_read(0, 2.0) == ("empty", None)
        assert fifo.fill == 0
        assert trace.max_fill == 1
        assert [e.kind for e in trace.events] == ["write", "read"]

    def test_preset_fill_enables_reads(self):
        fifo, trace = traced_fifo(record_events=True, initial=2)
        assert fifo.poll_read(0, 0.0)[0] == "ok"
        assert fifo.poll_read(0, 1.0)[0] == "ok"
        assert fifo.fill == 0
        assert trace.max_fill == 2
        assert [e.seqno for e in trace.events] == [0, -1]

    def test_time_filters(self):
        trace = ChannelTrace("c", record_events=True)
        selector = SelectorChannel("c", (2, 2), trace=trace)
        selector.quarantine(0)
        selector.poll_write(1, tok(1), 1.0)  # enqueued on interface 1
        selector.poll_read(0, 2.0)
        assert channel_timestamps(trace, "write") == [1.0]
        assert channel_timestamps(trace, "write", interface=0) == []
        assert channel_timestamps(trace, "read") == [2.0]


class TestTraceRecorder:
    def test_channel_creation_and_reuse(self):
        recorder = TraceRecorder()
        a = recorder.channel("x")
        b = recorder.channel("x")
        assert a is b
        assert "x" in recorder

    def test_max_fills(self):
        recorder = TraceRecorder()
        fifo = Fifo("a", 2, trace=recorder.channel("a"))
        fifo.poll_write(0, tok(1), 0.0)
        recorder.channel("b")
        assert recorder.max_fills() == {"a": 1, "b": 0}

    def test_record_events_propagates(self):
        recorder = TraceRecorder(record_events=True)
        trace = recorder.channel("x")
        assert trace.record_events
        Fifo("x", 2, trace=trace).poll_write(0, tok(1), 0.0)
        assert len(trace.events) == 1

    def test_names_sorted(self):
        recorder = TraceRecorder()
        recorder.channel("b")
        recorder.channel("a")
        assert recorder.names() == ["a", "b"]

    def test_getitem(self):
        recorder = TraceRecorder()
        trace = recorder.channel("z")
        assert recorder["z"] is trace
