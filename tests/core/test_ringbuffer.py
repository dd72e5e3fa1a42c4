"""The replicator's circular-buffer storage (Section 3.1) and its two bodies.

Section 3.1: "More efficient implementations utilizing circular FIFO
buffers with two readers are possible".  :class:`ReplicatorChannel`
stores each write's ``(ready, token)`` entry once and shares it between
the queues, so its distinct stored entries — what a circular buffer with
one cursor per replica holds — never exceed ``max_k |R_k|`` while every
replica is healthy.  A condemned replica's leftovers stay queued.

The fixed schedules below also check the class-level two-replica bodies
against the general bodies (``tests/core/test_two_replica_bodies.py``
draws random schedules).
"""

import pytest

from repro.core.replicator import ReplicatorChannel
from repro.kpn.errors import ProtocolError
from repro.kpn.tokens import Token
from tests.helpers import general_bodies


def tok(seqno):
    return Token(value=seqno * 3, seqno=seqno, stamp=0.0)


def both(capacities=(2, 3), **kwargs):
    """The same replicator with its two-replica and its general bodies."""
    kwargs.setdefault("strict_single_fault", False)
    return (
        ReplicatorChannel("two-replica", capacities, **kwargs),
        general_bodies(ReplicatorChannel("general", capacities, **kwargs)),
    )


def drive(channel, steps):
    """Apply (op, arg) steps; return the observable outcomes."""
    outcomes = []
    now = 0.0
    seq = 1
    for op in steps:
        now += 1.0
        if op == "w":
            status, _ = channel.poll_write(0, tok(seq), now)
            outcomes.append(("w", status))
            if status == "ok":
                seq += 1
        else:
            index = 0 if op == "r0" else 1
            status, token = channel.poll_read(index, now)
            outcomes.append(
                (op, status, token.seqno if status == "ok" else None)
            )
    return outcomes


DIFFERENTIAL_SCHEDULES = [
    ["w", "r0", "r1", "w", "r0", "r1"],
    ["w", "w", "r0", "w", "r0", "r0", "r1", "r1", "r1"],
    ["r0", "w", "r1", "r0", "r1", "w", "w", "r1", "r0"],
    ["w", "w", "r1", "w", "r1", "w", "r1"],  # replica 0 never reads -> fault
    ["w", "r0", "w", "r1", "r0", "w", "r1", "r0", "r1"],
]


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("steps", DIFFERENTIAL_SCHEDULES)
    def test_same_observable_outcomes(self, steps):
        two_replica, reference = both()
        assert drive(two_replica, list(steps)) == drive(reference,
                                                        list(steps))

    @pytest.mark.parametrize("steps", DIFFERENTIAL_SCHEDULES)
    def test_same_fault_verdicts(self, steps):
        two_replica, reference = both()
        drive(two_replica, list(steps))
        drive(reference, list(steps))
        assert two_replica.fault == reference.fault
        assert [(r.replica, r.mechanism, r.detail) for r in two_replica.log] \
            == [(r.replica, r.mechanism, r.detail) for r in reference.log]

    def test_divergence_detection_matches(self):
        two_replica, reference = both((10, 10), divergence_threshold=2)
        steps = ["w", "r0"] * 4
        drive(two_replica, list(steps))
        drive(reference, list(steps))
        assert two_replica.fault == reference.fault == [False, True]
        assert reference.log.first().detail == "reads=3/0 D=2"


class TestRingSpecifics:
    def test_single_storage(self):
        rep = ReplicatorChannel("rep", (2, 3))
        for seq in (1, 2):
            rep.poll_write(0, tok(seq), float(seq))
        # Two tokens stored once each, visible to both readers.
        assert rep.stored_entries == 2
        assert rep.fill(0) == 2 and rep.fill(1) == 2

    def test_live_slots_track_slowest_healthy_reader(self):
        rep = ReplicatorChannel("rep", (3, 3))
        for seq in (1, 2, 3):
            rep.poll_write(0, tok(seq), float(seq))
        rep.poll_read(0, 4.0)
        rep.poll_read(0, 5.0)
        assert rep.stored_entries == 3  # reader 1 still needs all three

    def test_storage_bounded_by_max_capacity(self):
        # Fault-free, every queue holds a suffix of the written stream, so
        # their union is the longest one — against Σ|R_k| = 5 provisioned.
        rep = ReplicatorChannel("rep", (2, 3), divergence_threshold=3)
        peak = 0
        steps = ["w", "r0", "w", "w", "r1", "r0", "r1", "r1", "r0"] * 5
        for now, step in enumerate(steps, start=1):
            if step == "w":
                rep.poll_write(0, tok(now), float(now))
            else:
                rep.poll_read(int(step[1]), float(now))
            peak = max(peak, rep.stored_entries)
        assert not rep.any_fault
        assert peak == 3 == max(rep.capacities)

    def test_condemned_reader_keeps_its_leftovers(self):
        rep = ReplicatorChannel("rep", (1, 4))
        rep.poll_write(0, tok(1), 0.0)
        rep.poll_write(0, tok(2), 1.0)  # flags replica 0 (cap 1 full)
        assert rep.fault == [True, False]
        status, token = rep.poll_read(0, 2.0)
        assert status == "ok" and token.seqno == 1
        # The healthy replica still gets everything.
        seqnos = []
        while True:
            status, token = rep.poll_read(1, 3.0)
            if status != "ok":
                break
            seqnos.append(token.seqno)
        assert seqnos == [1, 2]

    def test_transfer_latency(self):
        for rep in both((2, 2), transfer_latency=lambda t: 5.0):
            rep.poll_write(0, tok(1), 0.0)
            status, ready = rep.poll_read(0, 1.0)
            assert status == "wait" and ready == pytest.approx(5.0)

    def test_bad_interfaces(self):
        for rep in both((2, 2)):
            with pytest.raises(ProtocolError):
                rep.poll_read(2, 0.0)
            with pytest.raises(ProtocolError):
                rep.poll_write(1, tok(1), 0.0)


class TestRingInNetwork:
    def test_drop_in_for_duplicated_network(self):
        """The general bodies slot into a full duplicated-network run and
        deliver what the two-replica bodies deliver."""
        from tests.helpers import synthetic_blueprint, synthetic_sizing
        from repro.core.duplicate import build_duplicated

        sizing = synthetic_sizing()
        outputs = []
        for swap in (False, True):
            blueprint = synthetic_blueprint(40, 40 + sizing.selector_priming)
            duplicated = build_duplicated(blueprint, sizing)
            if swap:
                general_bodies(duplicated.replicator)
                general_bodies(duplicated.selector)
            duplicated.run(max_events=200_000)
            assert len(duplicated.detection_log) == 0
            assert duplicated.consumer.stalls == 0
            outputs.append([(t.seqno, t.value, t.stamp)
                            for t in duplicated.consumer.tokens])
        assert outputs[0] == outputs[1]
