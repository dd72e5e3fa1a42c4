"""Extension benchmark — replicator token storage (Section 3.1).

The paper notes "more efficient implementations utilizing circular FIFO
buffers with two readers are possible" (Section 3.1).  The replicator
stores each write's entry once and shares it between its queues, so it
needs what a circular buffer with one cursor per replica needs.  This
bench runs a fault-free duplicated workload and reports three numbers
for the replicator:

* provisioned slots, ``Σ|R_k|`` (the paper's two-queue presentation);
* peak summed fills, ``max_t Σ fill_k(t)`` (what two separate queues
  would hold at once);
* peak distinct stored entries (what a circular buffer holds) — bounded
  by ``max_k |R_k|`` while every replica is healthy.
"""

from repro.analysis.tables import format_table
from repro.core.duplicate import build_duplicated
from repro.apps.synthetic import SyntheticApp
from repro.rtc.pjd import PJD

TOKENS = 200


def _app():
    return SyntheticApp(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=[PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)],
        seed=3,
    )


def _run(app, sizing):
    blueprint = app.blueprint(TOKENS, TOKENS + sizing.selector_priming,
                              seed=2)
    duplicated = build_duplicated(blueprint, sizing)
    replicator = duplicated.replicator
    peak = {"fills": 0, "entries": 0}
    write = replicator.poll_write

    def tracked_write(index, token, now):
        # Fills only grow at a write, so sampling after writes finds
        # both peaks.
        result = write(index, token, now)
        fills = sum(replicator.fill(k) for k in range(replicator.n))
        peak["fills"] = max(peak["fills"], fills)
        peak["entries"] = max(peak["entries"], replicator.stored_entries)
        return result

    replicator.poll_write = tracked_write
    duplicated.run(max_events=300_000)
    return {
        "provisioned": sum(sizing.replicator_capacities),
        "peak fills": peak["fills"],
        "peak entries": peak["entries"],
        "stalls": duplicated.consumer.stalls,
        "faults": len(duplicated.detection_log),
    }


def test_ringbuffer_storage(benchmark, report):
    app = _app()
    sizing = app.sizing()
    row = benchmark.pedantic(lambda: _run(app, sizing), rounds=1,
                             iterations=1)
    report(
        "ringbuffer_storage",
        format_table(
            ["capacities |R_k|", "provisioned slots (sum |R_k|)",
             "peak summed fills", "peak distinct entries",
             "consumer stalls"],
            [[str(sizing.replicator_capacities), row["provisioned"],
              row["peak fills"], row["peak entries"], row["stalls"]]],
            title=f"Replicator token storage over {TOKENS} tokens "
                  "(fault-free)",
        ),
    )
    assert row["stalls"] == 0 and row["faults"] == 0
    assert row["peak entries"] <= max(sizing.replicator_capacities)
    assert row["peak entries"] <= row["peak fills"] <= row["provisioned"]
