"""Tests for the replicator channel (rules R1-R3 and Section 3.3)."""

import pytest

from repro.core.detection import DetectionLog
from repro.core.replicator import ReplicatorChannel
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


def tok(seqno):
    return Token(value=seqno, seqno=seqno, stamp=0.0)


@pytest.fixture
def replicator():
    return ReplicatorChannel("rep", capacities=(2, 3))


class TestConstruction:
    def test_rejects_wrong_capacity_count(self):
        with pytest.raises(ValueError):
            ReplicatorChannel("rep", capacities=(2,))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReplicatorChannel("rep", capacities=(0, 2))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ReplicatorChannel("rep", (2, 2), divergence_threshold=0)

    def test_initial_state(self, replicator):
        assert replicator.fill(0) == 0
        assert replicator.space(0) == 2
        assert replicator.space(1) == 3
        assert replicator.fault == [False, False]

    def test_reader_index_validated(self, replicator):
        with pytest.raises(ValueError):
            replicator.reader(2)


class TestRuleR3Duplication:
    def test_write_duplicates_to_both_queues(self, replicator):
        status, _ = replicator.poll_write(0, tok(1), 0.0)
        assert status == "ok"
        assert replicator.fill(0) == 1
        assert replicator.fill(1) == 1

    def test_same_token_object_both_queues(self, replicator):
        token = tok(1)
        replicator.poll_write(0, token, 0.0)
        _, got0 = replicator.poll_read(0, 0.0)
        _, got1 = replicator.poll_read(1, 0.0)
        assert got0 is token
        assert got1 is token

    def test_same_token_object_not_copied(self):
        replicator = ReplicatorChannel("rep", (2, 2))
        token = tok(1)
        replicator.poll_write(0, token, 0.0)
        assert replicator.stored_entries == 1  # one entry, both queues
        _, got0 = replicator.poll_read(0, 1.0)
        _, got1 = replicator.poll_read(1, 1.0)
        assert got0 is token and got1 is token

    def test_reads_are_independent(self, replicator):
        replicator.poll_write(0, tok(1), 0.0)
        replicator.poll_write(0, tok(2), 1.0)
        status, token = replicator.poll_read(0, 1.0)
        assert status == "ok" and token.seqno == 1
        # Queue 1 still holds both tokens.
        assert replicator.fill(1) == 2

    def test_empty_read(self, replicator):
        status, _ = replicator.poll_read(0, 0.0)
        assert status == "empty"

    def test_bad_interfaces(self, replicator):
        with pytest.raises(ProtocolError):
            replicator.poll_read(2, 0.0)
        with pytest.raises(ProtocolError):
            replicator.poll_write(1, tok(1), 0.0)

    def test_transfer_latency(self):
        rep = ReplicatorChannel("rep", (2, 2),
                                transfer_latency=lambda t: 4.0)
        rep.poll_write(0, tok(1), 0.0)
        status, ready = rep.poll_read(0, 1.0)
        assert status == "wait"
        assert ready == pytest.approx(4.0)


class TestOverflowDetection:
    def test_full_queue_flags_fault(self, replicator):
        replicator.poll_write(0, tok(1), 0.0)
        replicator.poll_write(0, tok(2), 1.0)
        # Queue 0 (capacity 2) is now full; the next write detects a
        # fault in replica 0 and skips its queue.
        status, _ = replicator.poll_write(0, tok(3), 2.0)
        assert status == "ok"
        assert replicator.fault == [True, False]
        assert replicator.fill(0) == 2  # not inserted
        assert replicator.fill(1) == 3

    def test_detection_logged(self, replicator):
        for i in range(3):
            replicator.poll_write(0, tok(i + 1), float(i))
        report = replicator.log.first(site="replicator", replica=0)
        assert report is not None
        assert report.mechanism == "overflow"
        assert report.time == 2.0

    def test_healthy_queue_continues_after_fault(self, replicator):
        for i in range(3):
            replicator.poll_write(0, tok(i + 1), float(i))
        # Replica 1 (queue index 1) keeps receiving.
        status, token = replicator.poll_read(1, 3.0)
        assert status == "ok" and token.seqno == 1

    def test_producer_never_blocks_after_fault(self, replicator):
        # The motivational example: writes continue even when the faulty
        # queue (index 0, capacity 2) stays full forever, as long as the
        # healthy replica keeps draining its own queue.
        for i in range(10):
            status, _ = replicator.poll_write(0, tok(i + 1), float(i))
            assert status == "ok"
            replicator.poll_read(1, float(i) + 0.5)
        assert replicator.fault == [True, False]

    def test_double_fault_raises_when_strict(self, replicator):
        with pytest.raises(SimulationError):
            for i in range(10):
                replicator.poll_write(0, tok(i + 1), float(i))

    def test_double_fault_blocks_when_lenient(self):
        rep = ReplicatorChannel("rep", (1, 1), strict_single_fault=False)
        rep.poll_write(0, tok(1), 0.0)
        rep.poll_write(0, tok(2), 1.0)  # flags both
        status, _ = rep.poll_write(0, tok(3), 2.0)
        assert status == "full"
        assert rep.fault == [True, True]


class TestDivergenceDetection:
    def test_lagging_consumer_flagged(self):
        rep = ReplicatorChannel("rep", (10, 10), divergence_threshold=2)
        for i in range(4):
            rep.poll_write(0, tok(i + 1), float(i))
            rep.poll_read(0, float(i))  # only replica 0 consumes
        # reads gap 4 - 0 > 2: replica 1 flagged.
        assert rep.fault == [False, True]
        report = rep.log.first()
        assert report.mechanism == "divergence"
        assert report.replica == 1

    def test_symmetric_direction(self):
        rep = ReplicatorChannel("rep", (10, 10), divergence_threshold=2)
        for i in range(4):
            rep.poll_write(0, tok(i + 1), float(i))
            rep.poll_read(1, float(i))
        assert rep.fault == [True, False]

    def test_within_threshold_not_flagged(self):
        rep = ReplicatorChannel("rep", (10, 10), divergence_threshold=3)
        for i in range(3):
            rep.poll_write(0, tok(i + 1), float(i))
            rep.poll_read(0, float(i))
        assert rep.fault == [False, False]

    def test_disabled_without_threshold(self):
        rep = ReplicatorChannel("rep", (10, 10), divergence_threshold=None)
        for i in range(9):
            rep.poll_write(0, tok(i + 1), float(i))
            rep.poll_read(0, float(i))
        assert rep.fault == [False, False]


class TestAccounting:
    def test_op_cost_hook(self):
        # 3 primitive updates per write poll, 1 per read poll, counted
        # for blocked polls too.
        rep = ReplicatorChannel("rep", (2, 2))
        rep.poll_write(0, tok(1), 0.0)
        assert (rep.ops, rep.op_calls) == (3, 1)
        rep.poll_read(0, 0.0)
        assert (rep.ops, rep.op_calls) == (4, 2)
        assert rep.poll_read(0, 0.0) == ("empty", None)
        assert (rep.ops, rep.op_calls) == (5, 3)

    def test_traces_per_queue(self):
        traces = (ChannelTrace("r.0"), ChannelTrace("r.1"))
        rep = ReplicatorChannel("rep", (2, 2), traces=traces)
        rep.poll_write(0, tok(1), 0.0)
        rep.poll_read(1, 0.0)
        assert traces[0].writes == 1 and traces[0].reads == 0
        assert traces[1].writes == 1 and traces[1].reads == 1

    def test_shared_detection_log(self):
        log = DetectionLog()
        rep = ReplicatorChannel("rep", (1, 1), detection_log=log,
                                strict_single_fault=False)
        rep.poll_write(0, tok(1), 0.0)
        rep.poll_write(0, tok(2), 1.0)
        assert len(log) == 2
        assert rep.log is log

    def test_repr(self, replicator):
        assert "rep" in repr(replicator)
