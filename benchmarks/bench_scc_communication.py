"""Platform claim — "The fast on-chip communication does not
significantly influence FIFO sizes or fault detection timings"
(Section 4.1).

Runs the MJPEG Table 2 fault experiment twice — with zero-latency
channels and with the SCC MPB/mesh latency model installed on the
framework channels — and compares fills and detection latencies.
"""

import dataclasses

from repro.analysis.tables import format_table
from repro.apps import MjpegDecoderApp
from repro.core.duplicate import build_duplicated
from repro.experiments.runner import MAX_EVENTS_PER_TOKEN, fault_time_for
from repro.faults.injector import FaultInjector
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.scc.chip import SccChip
from repro.scc.mapping import Mapping
from repro.scc.rcce import RcceComm

RUNS = 10
WARMUP = 80


def _measure(app, sizing, transfer_latency):
    tokens = WARMUP + 30
    latencies = []
    fills = {"R1": 0, "R2": 0, "S": 0}
    for r in range(RUNS):
        seed = 100 + r
        fault = FaultSpec(
            replica=r % 2,
            time=fault_time_for(app, WARMUP,
                                phase=0.1 + 0.08 * r),
            kind=FAIL_STOP,
        )
        # The latency model goes on the blueprint, so every framework
        # channel of the duplicated network carries it.
        blueprint = dataclasses.replace(
            app.blueprint(tokens, tokens + sizing.selector_priming,
                          seed=seed),
            transfer_latency=transfer_latency,
        )
        duplicated = build_duplicated(blueprint, sizing)
        sim = duplicated.network.instantiate()
        injector = FaultInjector(fault)
        injector.arm(sim, duplicated)
        sim.run(max_events=tokens * MAX_EVENTS_PER_TOKEN)
        latencies.append(
            injector.detection_latency(duplicated, site="selector")
        )
        max_fills = duplicated.network.max_fills()
        fills["R1"] = max(fills["R1"], max_fills.get("replicator.R1", 0))
        fills["R2"] = max(fills["R2"], max_fills.get("replicator.R2", 0))
        fills["S"] = max(fills["S"], max_fills.get("selector.S", 0))
    mean = sum(latencies) / len(latencies)
    return mean, fills


def test_scc_latency_influence(benchmark, report):
    app = MjpegDecoderApp(seed=9)
    sizing = app.sizing()
    chip = SccChip()
    comm = RcceComm(chip, Mapping(assignment={"a": 0, "b": 46}))
    mpb_latency = comm.fixed_latency(0, 46)  # worst-case corner route

    def run():
        return _measure(app, sizing, None), _measure(app, sizing,
                                                     mpb_latency)

    (ideal_mean, ideal_fills), (scc_mean, scc_fills) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["zero-latency channels", ideal_mean, ideal_fills["R1"],
         ideal_fills["R2"], ideal_fills["S"]],
        ["SCC MPB/mesh latency", scc_mean, scc_fills["R1"],
         scc_fills["R2"], scc_fills["S"]],
    ]
    report(
        "scc_communication_influence",
        format_table(
            ["configuration", "mean selector latency (ms)",
             "max fill R1", "max fill R2", "max fill S"],
            rows,
            title=f"Section 4.1 claim check [mjpeg, {RUNS} runs]: on-chip "
                  "communication influence",
        ),
    )
    # The paper's claim: neither fills nor detection timings move
    # significantly.  A 76.8 KB frame costs ~100 us on the mesh against
    # a 30 ms period.
    assert ideal_fills == scc_fills
    assert abs(scc_mean - ideal_mean) < 1.0  # well under a period
