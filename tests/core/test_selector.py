"""Tests for the selector channel (rules S1-S3, Lemma 1, Section 3.3)."""

import numpy as np
import pytest

from repro.core.detection import MECHANISM_VALUE
from repro.core.selector import SelectorChannel
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


def tok(seqno, value=None):
    return Token(value=seqno if value is None else value, seqno=seqno,
                 stamp=0.0)


@pytest.fixture
def selector():
    return SelectorChannel("sel", capacities=(4, 4), divergence_threshold=3)


class TestConstruction:
    def test_initial_state(self, selector):
        assert selector.fill == 0
        assert selector.space == [4, 4]
        assert selector.fifo_size == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SelectorChannel("sel", (0, 4))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SelectorChannel("sel", (4, 4), divergence_threshold=0)

    def test_priming_counts_against_both(self):
        sel = SelectorChannel("sel", (4, 4),
                              priming_tokens=(tok(-1), tok(0)))
        assert sel.fill == 2
        assert sel.space == [2, 2]

    def test_priming_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            SelectorChannel("sel", (2, 4),
                            priming_tokens=(tok(-2), tok(-1), tok(0)))

    def test_writer_index_validated(self, selector):
        with pytest.raises(ValueError):
            selector.writer(2)


class TestRuleS3Merging:
    def test_first_of_pair_enqueued_second_dropped(self, selector):
        selector.poll_write(0, tok(1), 0.0)
        selector.poll_write(1, tok(1), 1.0)
        assert selector.fill == 1
        assert selector.drops == [0, 1]
        status, token = selector.poll_read(0, 2.0)
        assert status == "ok" and token.seqno == 1

    def test_other_interface_can_be_first(self, selector):
        selector.poll_write(1, tok(1), 0.0)
        selector.poll_write(0, tok(1), 1.0)
        assert selector.fill == 1
        assert selector.drops == [1, 0]

    def test_alternating_pairs(self, selector):
        order = [(0, 1), (1, 1), (1, 2), (0, 2), (0, 3), (1, 3)]
        for interface, seq in order:
            selector.poll_write(interface, tok(seq), float(seq))
        values = []
        for _ in range(3):
            _, token = selector.poll_read(0, 10.0)
            values.append(token.seqno)
        assert values == [1, 2, 3]
        assert selector.drops == [1, 2]

    def test_unequal_capacities_still_pick_first(self):
        # The fill comparison removes the |S1| != |S2| bias (the paper's
        # rule written for equal capacities generalised).
        sel = SelectorChannel("sel", capacities=(4, 6))
        sel.poll_write(1, tok(1), 0.0)  # replica 2 is earlier
        sel.poll_write(0, tok(1), 1.0)
        assert sel.drops == [1, 0]
        _, token = sel.poll_read(0, 2.0)
        assert token.seqno == 1

    def test_write_blocks_on_zero_space(self):
        sel = SelectorChannel("sel", capacities=(1, 4))
        sel.poll_write(0, tok(1), 0.0)
        status, _ = sel.poll_write(0, tok(2), 1.0)
        assert status == "full"

    def test_read_empty(self, selector):
        status, _ = selector.poll_read(0, 0.0)
        assert status == "empty"

    def test_read_increments_both_spaces(self, selector):
        selector.poll_write(0, tok(1), 0.0)
        selector.poll_write(1, tok(1), 0.5)
        selector.poll_read(0, 1.0)
        assert selector.space == [4, 4]

    def test_bad_interfaces(self, selector):
        with pytest.raises(ProtocolError):
            selector.poll_write(2, tok(1), 0.0)
        with pytest.raises(ProtocolError):
            selector.poll_read(1, 0.0)

    def test_priming_tokens_read_first(self):
        priming = (tok(-1, value="p0"), tok(0, value="p1"))
        sel = SelectorChannel("sel", (4, 4), priming_tokens=priming)
        sel.poll_write(0, tok(1), 0.0)
        values = []
        for _ in range(3):
            _, token = sel.poll_read(0, 1.0)
            values.append(token.value)
        assert values == ["p0", "p1", 1]


class TestLemma1Isolation:
    def test_backpressure_on_one_does_not_touch_other(self):
        """Lemma 1: interface 2 never modifies space_1 (and vice versa)."""
        sel = SelectorChannel("sel", capacities=(3, 3))
        space_before = sel.space[0]
        # Interface 1 (index 1) writes many tokens; without reads it
        # exhausts only its own space.
        for seq in range(1, 4):
            sel.poll_write(1, tok(seq), float(seq))
        assert sel.space[0] == space_before
        assert sel.space[1] == 0
        status, _ = sel.poll_write(1, tok(4), 5.0)
        assert status == "full"
        # Interface 0 remains fully writable.
        status, _ = sel.poll_write(0, tok(1), 6.0)
        assert status == "ok"

    def test_drops_do_not_change_other_space(self, selector):
        selector.poll_write(0, tok(1), 0.0)
        space_0 = selector.space[0]
        selector.poll_write(1, tok(1), 1.0)  # dropped duplicate
        assert selector.space[0] == space_0


class TestStallDetection:
    def test_consumer_overrun_flags_silent_replica(self):
        sel = SelectorChannel("sel", capacities=(2, 4))
        # Replica 1 (interface 1) supplies; replica 0 silent.
        for seq in range(1, 4):
            sel.poll_write(1, tok(seq), float(seq))
            sel.poll_read(0, float(seq) + 0.5)
        # space_0 grew beyond |S_0| = 2 -> replica 0 stalled the consumer.
        assert sel.fault[0] is True
        report = sel.log.first(site="selector", replica=0)
        assert report.mechanism == "stall"

    def test_no_false_stall_when_balanced(self, selector):
        for seq in range(1, 6):
            selector.poll_write(0, tok(seq), float(seq))
            selector.poll_write(1, tok(seq), float(seq) + 0.1)
            selector.poll_read(0, float(seq) + 0.5)
        assert selector.fault == [False, False]


class TestDivergenceDetection:
    def test_write_gap_flags_silent_replica(self):
        # No reads at all, so the stall mechanism stays quiet and the
        # divergence mechanism alone must catch the silent replica.
        sel = SelectorChannel("sel", capacities=(10, 10),
                              divergence_threshold=2)
        sel.poll_write(1, tok(1), 0.0)
        for seq in range(1, 5):
            sel.poll_write(0, tok(seq), float(seq))
        # writes 4 vs 1: gap 3 > 2 -> replica 1 faulty.
        assert sel.fault == [False, True]
        assert sel.log.first().mechanism == "divergence"

    def test_disabled_without_threshold(self):
        sel = SelectorChannel("sel", capacities=(10, 10),
                              divergence_threshold=None)
        for seq in range(1, 8):
            sel.poll_write(0, tok(seq), float(seq))
        # Without reads or a threshold, neither mechanism fires even
        # though the interfaces have diverged by 7 tokens.
        assert sel.fault == [False, False]

    def test_stall_dominates_when_consumer_runs_ahead(self):
        # With reads outpacing the silent replica, the stall mechanism
        # (space_k > |S_k|) legitimately fires before divergence.
        sel = SelectorChannel("sel", capacities=(10, 10),
                              divergence_threshold=50)
        for seq in range(1, 13):
            sel.poll_write(0, tok(seq), float(seq))
            sel.poll_read(0, float(seq) + 0.5)
        assert sel.fault == [False, True]
        assert sel.log.first().mechanism == "stall"


class TestPostFaultBehaviour:
    def _faulted(self):
        sel = SelectorChannel("sel", capacities=(10, 10),
                              divergence_threshold=1)
        sel.poll_write(0, tok(1), 0.0)
        sel.poll_write(0, tok(2), 1.0)  # gap 2 > 1: replica 1 flagged
        assert sel.fault == [False, True]
        return sel

    def test_faulty_writes_discarded_not_blocking(self):
        sel = self._faulted()
        for seq in range(1, 30):
            status, _ = sel.poll_write(1, tok(seq), 10.0 + seq)
            assert status == "ok"
        assert sel.fill == 2  # nothing enqueued from the faulty side

    def test_healthy_interface_single_queue_semantics(self):
        sel = self._faulted()
        sel.poll_write(0, tok(3), 2.0)
        _, token = sel.poll_read(0, 3.0)
        assert token.seqno == 1
        assert sel.fault == [False, True]

    def test_frozen_counters(self):
        sel = self._faulted()
        space_1 = sel.space[1]
        sel.poll_read(0, 5.0)
        assert sel.space[1] == space_1  # frozen after fault


class TestValueVerification:
    def test_mismatched_duplicate_raises(self):
        sel = SelectorChannel("sel", (4, 4), verify_duplicates=True)
        sel.poll_write(0, tok(1, value="good"), 0.0)
        with pytest.raises(SimulationError):
            sel.poll_write(1, tok(1, value="bad"), 1.0)

    def test_matching_duplicates_pass(self):
        sel = SelectorChannel("sel", (4, 4), verify_duplicates=True)
        sel.poll_write(0, tok(1, value="same"), 0.0)
        sel.poll_write(1, tok(1, value="same"), 1.0)
        assert sel.fill == 1

    def test_numpy_payloads_compared(self):
        sel = SelectorChannel("sel", (4, 4), verify_duplicates=True)
        sel.poll_write(0, tok(1, value=np.arange(5)), 0.0)
        sel.poll_write(1, tok(1, value=np.arange(5)), 1.0)
        assert sel.fill == 1
        sel.poll_write(0, tok(2, value=np.arange(5)), 2.0)
        with pytest.raises(SimulationError):
            sel.poll_write(1, tok(2, value=np.arange(1, 6)), 3.0)


    def test_every_late_member_compared(self):
        # n = 3: the first member's payload stays pending until both late
        # members have been compared against it.
        sel = SelectorChannel("sel", (4, 4, 4), verify_duplicates=True)
        sel.poll_write(0, tok(1, value="a"), 0.0)
        sel.poll_write(1, tok(1, value="a"), 1.0)
        with pytest.raises(SimulationError):
            sel.poll_write(2, tok(1, value="CORRUPT"), 2.0)
        [report] = sel.log.reports
        assert (report.replica, report.mechanism) == (2, MECHANISM_VALUE)

    def test_two_replicas_compare_once(self):
        sel = SelectorChannel("sel", (4, 4), verify_duplicates=True)
        sel.poll_write(0, tok(1, value="a"), 0.0)
        sel.poll_write(1, tok(1, value="a"), 1.0)
        assert sel._pending_values == {}
        sel.poll_write(0, tok(2, value="a"), 2.0)
        with pytest.raises(SimulationError):
            sel.poll_write(1, tok(2, value="b"), 3.0)
        [report] = sel.log.reports
        assert (report.replica, report.mechanism) == (1, MECHANISM_VALUE)

class TestAccounting:
    def test_op_cost_hook(self):
        # 3 primitive updates per read or write poll, counted for
        # dropped writes and blocked polls too.
        sel = SelectorChannel("sel", (4, 4))
        sel.poll_write(0, tok(1), 0.0)
        assert (sel.ops, sel.op_calls) == (3, 1)
        sel.poll_write(1, tok(1), 0.5)
        assert (sel.ops, sel.op_calls) == (6, 2)
        sel.poll_read(0, 1.0)
        assert (sel.ops, sel.op_calls) == (9, 3)
        assert sel.poll_read(0, 1.0) == ("empty", None)
        assert (sel.ops, sel.op_calls) == (12, 4)

    def test_trace_records_drops(self):
        trace = ChannelTrace("s", record_events=True)
        sel = SelectorChannel("sel", (4, 4), trace=trace)
        sel.poll_write(0, tok(1), 0.0)
        sel.poll_write(1, tok(1), 1.0)
        assert [(e.kind, e.interface) for e in trace.events] == [
            ("write", 0), ("drop", 1)]
        assert trace.max_fill == 1

    def test_repr(self, selector):
        assert "sel" in repr(selector)
