"""Extension benchmark — replica count vs resources and resilience.

The paper's framework generalises to ``n`` replicas tolerating ``n - 1``
timing faults.  This bench sweeps n = 2..4 and reports the resource bill
(FIFO slots, priming tokens) and the detection latency of the first
fault — the trade a designer pays for extra fault budget.
"""

from repro.analysis.tables import format_table
from repro.core.duplicate import NetworkBlueprint, build_duplicated
from repro.kpn.network import Network
from repro.kpn.process import PacedRelay, PeriodicConsumer, PeriodicSource
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network

PRODUCER = PJD(10.0, 1.0, 10.0)
CONSUMER = PJD(10.0, 1.0, 10.0)
VARIANTS = [
    PJD(10.0, 2.0, 10.0),
    PJD(10.0, 4.0, 10.0),
    PJD(10.0, 6.0, 10.0),
    PJD(10.0, 8.0, 10.0),
]
TOKENS = 120
FAULT_AT = 400.0


def _blueprint(consumer_tokens: int, seed: int) -> NetworkBlueprint:
    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource("P", PRODUCER, TOKENS,
                           payload=lambda i: (i, 64), seed=seed)
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", CONSUMER, consumer_tokens,
                             seed=seed + 1)
        )

    def make_critical(net, prefix, variant, input_ep, output_ep):
        relay = net.add_process(
            PacedRelay(f"{prefix}/stage", VARIANTS[variant],
                       seed=seed + 50 + variant)
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint("nway", make_producer, make_critical,
                            make_consumer)


def _one_configuration(n: int, seed: int):
    models = VARIANTS[:n]
    sizing = size_duplicated_network(PRODUCER, models, models, CONSUMER)
    replicated = build_duplicated(
        _blueprint(TOKENS + sizing.selector_priming, seed), sizing
    )
    sim = replicated.network.instantiate()

    def kill():
        for process in replicated.replicas[0]:
            sim.kill(process.name)

    sim.schedule_at(FAULT_AT, kill)
    sim.run(max_events=400_000)
    report = replicated.detection_log.first(replica=0)
    latency = report.time - FAULT_AT if report else None
    slots = sum(sizing.replicator_capacities) + sum(
        sizing.selector_capacities
    )
    return {
        "n": n,
        "fault budget": n - 1,
        "fifo slots": slots,
        "priming": sizing.selector_priming,
        "D": sizing.selector_threshold,
        "first-fault latency (ms)": latency,
        "consumer stalls": replicated.consumer.stalls,
        "tokens delivered": len(
            [t for t in replicated.consumer.tokens if t.seqno > 0]
        ),
    }


def test_nway_replica_sweep(benchmark, report):
    def run():
        return [_one_configuration(n, seed=7) for n in (2, 3, 4)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    headers = list(rows[0].keys())
    report(
        "nway_replica_sweep",
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title="Extension: replica count vs resources and first-fault "
                  "detection",
        ),
    )
    for row in rows:
        assert row["consumer stalls"] == 0
        assert row["tokens delivered"] == TOKENS
        assert row["first-fault latency (ms)"] is not None
    slots = [row["fifo slots"] for row in rows]
    assert slots == sorted(slots)  # resources grow with n
