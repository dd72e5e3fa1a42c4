"""Tests for n replicas (the paper's stated extension: "tolerating up to
n timing faults can be easily constructed") — the replicator, selector,
sizing and network build with a third (and fourth) replica."""

import pytest

from repro.core.duplicate import NetworkBlueprint, build_duplicated
from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.network import Network
from repro.kpn.process import PacedRelay, PeriodicConsumer, PeriodicSource
from repro.kpn.tokens import Token
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network

PRODUCER = PJD(10.0, 1.0, 10.0)
CONSUMER = PJD(10.0, 1.0, 10.0)
TRIPLE = [PJD(10.0, 2.0, 10.0), PJD(10.0, 5.0, 10.0), PJD(10.0, 8.0, 10.0)]


def tok(seqno):
    return Token(value=seqno, seqno=seqno, stamp=0.0)


def triple_blueprint(tokens, consumer_tokens, seed=1):
    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource("P", PRODUCER, tokens,
                           payload=lambda i: (i * 17 % 97, 16),
                           seed=seed * 10 + 1)
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", CONSUMER, consumer_tokens,
                             seed=seed * 10 + 2)
        )

    def make_critical(net: Network, prefix, variant, input_ep, output_ep):
        relay = net.add_process(
            PacedRelay(f"{prefix}/stage", TRIPLE[variant],
                       seed=seed * 10 + 50 + variant)
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint("triple", make_producer, make_critical,
                            make_consumer)


@pytest.fixture(scope="module")
def sizing3():
    return size_duplicated_network(PRODUCER, TRIPLE, TRIPLE, CONSUMER)


class TestNWaySizing:
    def test_reduces_to_pairwise_for_two(self, sizing3):
        two = TRIPLE[:2]
        pairwise = size_duplicated_network(PRODUCER, two, two, CONSUMER)
        assert list(pairwise.as_dict()) == [
            "|R1|", "|R2|", "|S1|", "|S2|", "|S1|_0", "|S2|_0",
            "D_selector", "D_replicator", "selector_bound_ms",
            "replicator_bound_ms",
        ]
        row = sizing3.as_dict()
        assert [row[f"|R{k}|"] for k in (1, 2, 3)] == list(
            sizing3.replicator_capacities)
        assert [row[f"|S{k}|_0"] for k in (1, 2, 3)] == list(
            sizing3.selector_initial_fill)

    def test_three_replicas(self, sizing3):
        assert len(sizing3.replicator_capacities) == 3
        assert len(sizing3.selector_initial_fill) == 3
        assert sizing3.selector_detection_bound > 0

    def test_requires_two(self):
        with pytest.raises(ValueError):
            size_duplicated_network(PRODUCER, TRIPLE[:1], TRIPLE[:1], CONSUMER)


class TestNWaySelectorRules:
    def test_first_of_group_enqueued_rest_dropped(self):
        sel = SelectorChannel("sel", capacities=(5, 5, 5))
        for k in (1, 0, 2):
            sel.poll_write(k, tok(1), float(k))
        assert sel.fill == 1
        assert sel.drops == [1, 0, 1]  # interface 1 was first

    def test_straggler_catches_up_correctly(self):
        sel = SelectorChannel("sel", capacities=(8, 8, 8))
        # Interfaces 0 and 1 write groups 1..3; interface 2 lags.
        for seq in (1, 2, 3):
            sel.poll_write(0, tok(seq), float(seq))
            sel.poll_write(1, tok(seq), float(seq) + 0.1)
        for seq in (1, 2, 3):
            sel.poll_write(2, tok(seq), 10.0 + seq)
        assert sel.drops[2] == 3  # all late duplicates dropped
        # Interface 2 then leads group 4: its token must be the one kept.
        sel.poll_write(2, tok(4), 20.0)
        sel.poll_write(0, tok(4), 21.0)
        sel.poll_write(1, tok(4), 22.0)
        seqnos = []
        while True:
            status, token = sel.poll_read(0, 30.0)
            if status != "ok":
                break
            seqnos.append(token.seqno)
        assert seqnos == [1, 2, 3, 4]

    def test_two_faults_tolerated(self):
        sel = SelectorChannel("sel", capacities=(4, 4, 4),
                                  divergence_threshold=2)
        # Interfaces 1 and 2 go silent; 0 keeps writing.
        for seq in range(1, 8):
            sel.poll_write(0, tok(seq), float(seq))
        assert sel.fault == [False, True, True]
        # The survivor continues with plain FIFO semantics.
        status, token = sel.poll_read(0, 10.0)
        assert status == "ok" and token.seqno == 1

    def test_survivor_cannot_be_flagged(self):
        # The front replica is unreachable by both mechanisms: divergence
        # measures lag *behind* the front, and the consumer can never
        # read more tokens than the front wrote.  The last healthy
        # replica is therefore safe by construction.
        sel = SelectorChannel("sel", capacities=(6, 6),
                                  divergence_threshold=1)
        sel.poll_write(0, tok(1), 0.0)
        sel.poll_write(0, tok(2), 1.0)  # flags interface 1
        assert sel.fault == [False, True]
        for seq in range(1, 30):
            sel.poll_write(1, tok(seq), 10.0 + seq)
            sel.poll_read(0, 10.0 + seq + 0.5)
        assert sel.fault == [False, True]

    def test_all_faulty_guard(self):
        sel = SelectorChannel("sel", capacities=(6, 6),
                                  divergence_threshold=1)
        sel._flag(0, "stall", 0.0, "forced")
        with pytest.raises(SimulationError):
            sel._flag(1, "stall", 1.0, "forced")


class TestNWayReplicatorRules:
    def test_duplicates_to_all(self):
        rep = ReplicatorChannel("rep", capacities=(3, 3, 3))
        rep.poll_write(0, tok(1), 0.0)
        assert [rep.fill(k) for k in range(3)] == [1, 1, 1]

    def test_two_dead_replicas_flagged_independently(self):
        rep = ReplicatorChannel("rep", capacities=(2, 2, 4))
        for seq in range(1, 5):
            rep.poll_write(0, tok(seq), float(seq))
            rep.poll_read(2, float(seq) + 0.5)  # only replica 3 drains
        assert rep.fault == [True, True, False]

    def test_divergence_against_front(self):
        rep = ReplicatorChannel("rep", capacities=(9, 9, 9),
                                    divergence_threshold=2)
        for seq in range(1, 5):
            rep.poll_write(0, tok(seq), float(seq))
            rep.poll_read(0, float(seq))
            rep.poll_read(1, float(seq))
        assert rep.fault == [False, False, True]


class TestNWayNetwork:
    def test_triple_modular_redundancy_runs_clean(self, sizing3):
        blueprint = triple_blueprint(
            60, 60 + sizing3.selector_priming
        )
        nway = build_duplicated(blueprint, sizing3)
        _, stats = nway.run(max_events=200_000)
        assert len(nway.detection_log) == 0
        assert nway.consumer.stalls == 0
        assert len(nway.consumer.arrival_times) == (
            60 + sizing3.selector_priming
        )

    def test_tolerates_two_sequential_faults(self, sizing3):
        blueprint = triple_blueprint(
            80, 80 + sizing3.selector_priming
        )
        nway = build_duplicated(blueprint, sizing3)
        sim = nway.network.instantiate()

        def kill(replica):
            def fire():
                for process in nway.replicas[replica]:
                    sim.kill(process.name)
            return fire

        sim.schedule_at(200.0, kill(0))
        sim.schedule_at(450.0, kill(2))
        sim.run(max_events=300_000)
        flagged = {r.replica for r in nway.detection_log}
        assert 0 in flagged and 2 in flagged
        assert nway.consumer.stalls == 0
        real = [t for t in nway.consumer.tokens if t.seqno > 0]
        assert [t.seqno for t in real] == list(range(1, 81))
        assert [t.value for t in real] == [i * 17 % 97 for i in range(80)]

    def test_fault_free_output_matches_duplicated(self, sizing3):
        blueprint3 = triple_blueprint(30, 30 + sizing3.selector_priming)
        nway = build_duplicated(blueprint3, sizing3)
        nway.run(max_events=100_000)

        two = TRIPLE[:2]
        sizing2 = size_duplicated_network(PRODUCER, two, two, CONSUMER)
        blueprint2 = triple_blueprint(30, 30 + sizing2.selector_priming)
        duplicated = build_duplicated(blueprint2, sizing2)
        duplicated.run(max_events=100_000)

        nway_vals = [t.value for t in nway.consumer.tokens if t.seqno > 0]
        dup_vals = [
            t.value for t in duplicated.consumer.tokens if t.seqno > 0
        ]
        assert nway_vals == dup_vals


@pytest.mark.parametrize("n", [2, 3])
class TestInputChecks:
    """Both bodies reject bad interfaces and configurations alike."""

    @pytest.mark.parametrize("index", [-1, "n"])
    def test_replicator_bad_interfaces(self, n, index):
        rep = ReplicatorChannel("rep", capacities=(3,) * n)
        index = n if index == "n" else index
        with pytest.raises(ProtocolError):
            rep.poll_read(index, 0.0)
        with pytest.raises(ProtocolError):
            rep.poll_write(index if index < 0 else 1, tok(1), 0.0)
        with pytest.raises(ValueError):
            rep.reader(index)
        with pytest.raises(ValueError):
            rep.reprime(index)
        assert rep.reads == [0] * n and rep.ops == 0

    @pytest.mark.parametrize("index", [-1, "n"])
    def test_selector_bad_interfaces(self, n, index):
        sel = SelectorChannel("sel", capacities=(3,) * n)
        index = n if index == "n" else index
        with pytest.raises(ProtocolError):
            sel.poll_write(index, tok(1), 0.0)
        with pytest.raises(ProtocolError):
            sel.poll_read(index if index < 0 else 1, 0.0)
        with pytest.raises(ValueError):
            sel.writer(index)
        with pytest.raises(ValueError):
            sel.begin_recovery(index, 0, 0.0)
        assert sel.writes == [0] * n and sel.ops == 0

    def test_zero_divergence_threshold_rejected(self, n):
        with pytest.raises(ValueError):
            ReplicatorChannel("rep", (3,) * n, divergence_threshold=0)
        with pytest.raises(ValueError):
            SelectorChannel("sel", (3,) * n, divergence_threshold=0)

    def test_single_capacity_rejected(self, n):
        with pytest.raises(ValueError):
            ReplicatorChannel("rep", (3,))
        with pytest.raises(ValueError):
            SelectorChannel("sel", (3,))
