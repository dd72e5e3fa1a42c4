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
