"""Tests for the split/merge process shapes."""

import numpy as np
import pytest

from repro.apps.processes import MergeFrame, SplitStream
from repro.kpn.errors import ProtocolError
from repro.kpn.network import Network
from repro.kpn.process import PeriodicSource, RecordingSink
from repro.rtc.pjd import PJD


def build_split_merge(fanout=3, tokens=6, merge_timing=PJD(10.0)):
    net = Network("t")
    src = net.add_process(
        PeriodicSource(
            "src", PJD(10.0), tokens,
            payload=lambda i: (tuple(f"{i}:{k}" for k in range(fanout)), 0),
            seed=1,
        )
    )
    split = net.add_process(SplitStream("split", fanout, service_ms=0.1))
    merge = net.add_process(
        MergeFrame("merge", fanout, combine=tuple, timing=merge_timing,
                   seed=2)
    )
    snk = net.add_process(RecordingSink("snk"))
    head = net.add_fifo("head", 4)
    tail = net.add_fifo("tail", 4)
    src.output = head.writer
    split.input = head.reader
    merge.output = tail.writer
    snk.input = tail.reader
    for k in range(fanout):
        mid = net.add_fifo(f"mid{k}", 2)
        split.outputs[k] = mid.writer
        merge.inputs[k] = mid.reader
    return net, split, merge, snk


class TestSplitStream:
    def test_parts_routed_by_index(self):
        net, _split, _merge, snk = build_split_merge()
        net.run()
        assert snk.values()[0] == ("0:0", "0:1", "0:2")

    def test_processed_counter(self):
        net, split, _merge, _snk = build_split_merge(tokens=4)
        net.run()
        assert split.processed == 4

    def test_wrong_arity_rejected(self):
        net = Network("t")
        src = net.add_process(
            PeriodicSource("src", PJD(10.0), 1,
                           payload=lambda i: ((1, 2), 0), seed=1)
        )
        split = net.add_process(SplitStream("split", 3))
        head = net.add_fifo("head", 2)
        src.output = head.writer
        split.input = head.reader
        for k in range(3):
            mid = net.add_fifo(f"mid{k}", 2)
            split.outputs[k] = mid.writer
        with pytest.raises(ProtocolError):
            net.run()

    def test_unconnected_rejected(self):
        net = Network("t")
        split = net.add_process(SplitStream("split", 2))
        head = net.add_fifo("head", 2)
        split.input = head.reader
        with pytest.raises(ProtocolError):
            net.run()


class TestSplitStreamZeroCopy:
    def _run(self, payload_bytes, fanout=4, boundaries=None, metrics=None):
        from repro.kpn.process import FunctionProcess

        net = Network("zc", metrics=metrics)
        src = net.add_process(
            PeriodicSource(
                "src", PJD(10.0), 3,
                payload=lambda i: (payload_bytes, len(payload_bytes)),
                seed=1,
            )
        )
        split = net.add_process(
            SplitStream("split", fanout, zero_copy=True,
                        boundaries=boundaries)
        )
        sinks = []
        head = net.add_fifo("head", 4)
        src.output = head.writer
        split.input = head.reader
        for k in range(fanout):
            mid = net.add_fifo(f"mid{k}", 2)
            split.outputs[k] = mid.writer
            sink = net.add_process(RecordingSink(f"snk{k}"))
            sink.input = mid.reader
            sinks.append(sink)
        net.run()
        return split, sinks

    def test_stripes_share_source_storage(self):
        from repro.kpn.tokens import COPY_STATS

        payload = bytes(range(64))
        COPY_STATS.reset()
        split, sinks = self._run(payload, fanout=4)
        assert split.processed == 3
        for k, sink in enumerate(sinks):
            for _, token in sink.records:
                assert type(token.value) is memoryview
                assert token.value.obj is payload  # zero bytes copied
                assert token.value == payload[k * 16:(k + 1) * 16]
                assert token.size_bytes == 16
        # Transport was copy-free: views only, no materialisations.
        assert COPY_STATS.copies == 0
        assert COPY_STATS.views == 3 * 4

    def test_custom_boundaries(self):
        payload = b"aaabbc"
        split, sinks = self._run(
            payload, fanout=3, boundaries=lambda buf: (0, 3, 5, 6)
        )
        stripes = [bytes(sink.records[0][1].value) for sink in sinks]
        assert stripes == [b"aaa", b"bb", b"c"]

    def test_bad_boundary_count_rejected(self):
        with pytest.raises(ProtocolError, match="boundaries"):
            self._run(b"abcdef", fanout=3, boundaries=lambda buf: (0, 6))

    def test_channel_zero_copy_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        self._run(bytes(range(32)), fanout=4, metrics=registry)
        counters = registry.snapshot()["counters"]
        for k in range(4):
            assert counters[f"chan.mid{k}.zero_copy"] == 3
        # The head channel carries the owned source buffer, not a view.
        assert counters["chan.head.zero_copy"] == 0


class TestMergeFrame:
    def test_merge_preserves_sequence(self):
        net, _split, _merge, snk = build_split_merge(tokens=5)
        net.run()
        assert len(snk.records) == 5
        firsts = [v[0] for v in snk.values()]
        assert firsts == [f"{i}:0" for i in range(5)]

    def test_pacing_respected(self):
        net, _split, merge, _snk = build_split_merge(
            tokens=6, merge_timing=PJD(20.0, 0.0, 20.0)
        )
        net.run()
        gaps = [b - a for a, b in
                zip(merge.release_times, merge.release_times[1:])]
        assert all(g >= 20.0 - 1e-9 for g in gaps)

    def test_seqno_mismatch_detected(self):
        net = Network("t")
        merge = net.add_process(
            MergeFrame("merge", 2, combine=tuple, timing=PJD(10.0))
        )
        a = net.add_fifo("a", 2)
        b = net.add_fifo("b", 2)
        out = net.add_fifo("out", 2)
        merge.inputs[0] = a.reader
        merge.inputs[1] = b.reader
        merge.output = out.writer
        from repro.kpn.tokens import Token
        a.poll_write(0, Token(value=1, seqno=1), 0.0)
        b.poll_write(0, Token(value=1, seqno=2), 0.0)
        with pytest.raises(ProtocolError):
            net.run()

    def test_slowdown_stretches_output(self):
        def final_release(slow):
            net, _s, merge, _snk = build_split_merge(
                tokens=4, merge_timing=PJD(10.0, 0.0, 10.0)
            )
            merge.slowdown = slow
            net.run()
            return merge.release_times[-1]

        assert final_release(3.0) > 2 * final_release(1.0)
