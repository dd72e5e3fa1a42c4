#!/usr/bin/env python3
"""ADPCM application under a *rate-degradation* fault, compared against
the distance-function baseline.

The paper's experiments use fail-stop faults; the framework equally
detects the subtler case where a replica keeps running but slows down
(Section 3.3: rates "lower than predicted at design time").  This
example degrades replica 2 of the ADPCM application to one quarter
speed, shows both of the framework's detection sites firing, and runs
the distance-function baseline monitor alongside for comparison.

Run:  python examples/adpcm_rate_degradation.py
"""

from repro.apps import AdpcmApp
from repro.baselines.distance import (
    DistanceFunctionMonitor,
    l_repetitive_bounds,
)
from repro.experiments.runner import fault_time_for, run_duplicated
from repro.faults.models import RATE_DEGRADE, FaultSpec


def main() -> None:
    app = AdpcmApp(seed=7)
    sizing = app.sizing()
    tokens = 200
    warmup = 100

    fault = FaultSpec(
        replica=1,
        time=fault_time_for(app, warmup, phase=0.5),
        kind=RATE_DEGRADE,
        slowdown=4.0,
    )

    bounds = [
        l_repetitive_bounds(model, margin=0.1 * model.period)
        for model in app.replica_input_models
    ]
    stop_time = (tokens + 20) * app.producer_model.period

    def monitor_factory(duplicated, recorder):
        return [
            DistanceFunctionMonitor(
                "distance-monitor",
                poll_interval=1.0,
                stop_time=stop_time,
                streams=[
                    recorder.channel("replicator.R1"),
                    recorder.channel("replicator.R2"),
                ],
                bounds=bounds,
                event_kind="read",
            )
        ]

    run = run_duplicated(
        app, tokens, seed=3, fault=fault, sizing=sizing,
        record_events=True, monitor_factory=monitor_factory,
    )

    print(f"ADPCM application: replica 2 degraded to 1/{fault.slowdown:g} "
          f"speed at t = {fault.time:.1f} ms")
    print()
    print("Our framework (no timers):")
    for report in run.detections:
        print(f"  {report.site:<10s} t = {report.time:8.1f} ms "
              f"(+{report.time - fault.time:6.1f} ms)  "
              f"[{report.mechanism}] {report.detail}")
    print()

    monitor = run.network.network.process("distance-monitor")
    print(f"Distance-function baseline (1 ms polling, {monitor.polls} "
          "polls executed):")
    for detection in monitor.detections:
        print(f"  stream {detection.stream + 1}: t = "
              f"{detection.time:8.1f} ms "
              f"(+{detection.time - fault.time:6.1f} ms)  "
              f"{detection.reason}")
    print()
    print(f"Consumer: {len(run.values)} blocks received, "
          f"{run.stalls} stalls — playback never noticed the fault.")


if __name__ == "__main__":
    main()
