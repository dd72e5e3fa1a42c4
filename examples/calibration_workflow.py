#!/usr/bin/env python3
"""Black-box calibration: derive the timing models from observation.

The paper emphasises that its interface-level timing models are "either
available, or can be generated quickly from calibrations, making our
approach applicable to large and complex applications".  This example
runs that calibration workflow end to end:

1. run the (black-box) application once, recording the token timestamps
   at its interfaces (Eq. 2's measurement);
2. fit PJD models enclosing the observed traces;
3. feed the fitted models into the Section 3.4 sizing;
4. build the duplicated network from the *calibrated* models and verify
   fault-free operation and fault detection.

Run:  python examples/calibration_workflow.py
"""

from repro.apps.synthetic import SyntheticApp
from repro.experiments.runner import fault_time_for, run_duplicated
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.kpn.tracefile import channel_timestamps
from repro.rtc.calibration import fit_pjd
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network


def main() -> None:
    # The "unknown" application: we pretend not to know these models.
    secret = SyntheticApp(
        producer=PJD(8.0, 1.2, 8.0),
        replicas=[PJD(8.0, 2.0, 8.0), PJD(8.0, 6.0, 8.0)],
        consumer=PJD(8.0, 1.0, 8.0),
        seed=31,
    )
    true_sizing = secret.sizing()

    # -- 1. Observe one instrumented run ----------------------------------
    observation = run_duplicated(secret, 400, seed=9,
                                 sizing=true_sizing, record_events=True)
    recorder = observation.network.network.recorder
    producer_trace = channel_timestamps(recorder["replicator.R1"], "write")
    out_times = [
        [e.time for e in recorder["selector.S"].events
         if e.kind in ("write", "drop") and e.interface == k]
        for k in (0, 1)
    ]

    # -- 2. Fit PJD models --------------------------------------------------
    fitted_producer = fit_pjd(producer_trace)
    fitted_replicas = [fit_pjd(times) for times in out_times]
    print("Fitted models from one observed run:")
    print(f"  producer : {fitted_producer}   (true {secret.producer_model})")
    for k, fitted in enumerate(fitted_replicas):
        print(f"  replica {k + 1}: {fitted}   "
              f"(true {secret.replica_output_models[k]})")

    # -- 3. Size from the calibrated models ---------------------------------
    calibrated = size_duplicated_network(
        fitted_producer,
        fitted_replicas,
        fitted_replicas,
        fitted_producer,  # consumer demand mirrors the producer rate
    )
    print()
    print("Sizing from calibrated models :", calibrated.as_dict())
    print("Sizing from true models       :", true_sizing.as_dict())

    # -- 4. Deploy with the calibrated sizing --------------------------------
    clean = run_duplicated(secret, 200, seed=10, sizing=calibrated)
    fault = FaultSpec(replica=0,
                      time=fault_time_for(secret, 100, phase=0.4),
                      kind=FAIL_STOP)
    faulted = run_duplicated(secret, 200, seed=10, fault=fault,
                             sizing=calibrated)
    print()
    print(f"Deployed with calibrated sizing: "
          f"{len(clean.detections)} false positives fault-free; "
          f"fault detected after "
          f"{faulted.detection_latency():.1f} ms "
          f"(selector bound {calibrated.selector_detection_bound:.0f} ms); "
          f"consumer stalls: {faulted.stalls}")


if __name__ == "__main__":
    main()
