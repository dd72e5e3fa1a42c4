"""Table 3 — comparison with the distance-function approach.

Following the paper's setup (Section 4.3): timing variations from the
replicas are minimised so the distance function can run with ``l = 1``;
the distance monitor polls every 1 ms; the monitored streams are the
replicas' consumption events at the replicator (the paper reports the
replicator side; selector-side results "are similar").  Our approach's
latency is the replicator channel's own counter-based detection — no
timers involved.

The paper's headline finding ("both fault detection techniques are
equivalent" up to polling effects, at the cost of four timers) is checked
by comparing the two latency distributions; EXPERIMENTS.md discusses where
our measured relationship differs in detail and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import LatencyStats, summarize
from repro.analysis.tables import format_table
from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale, StreamingApplication
from repro.exec import DistanceMonitorSpec, SweepExecutor, TaskSpec
from repro.experiments.runner import fault_time_for
from repro.faults.models import FAIL_STOP, FaultSpec


@dataclass
class Table3Row:
    """One application's comparison row."""

    app_name: str
    ours: LatencyStats
    baseline: LatencyStats
    baseline_timer_count: int
    baseline_false_positives: int
    poll_interval: float


@dataclass
class Table3Result:
    """All rows of Table 3."""

    rows: List[Table3Row]
    runs: int


def table3_specs(
    app: StreamingApplication,
    runs: int = 20,
    warmup_tokens: int = 100,
    post_tokens: int = 30,
    poll_interval: float = 1.0,
    base_seed: int = 1,
) -> Tuple[List[TaskSpec], List[FaultSpec]]:
    """One (already minimised) application's Table 3 sweep.

    Spec 0 is the fault-free run (monitor stop time pulled in: the
    trailing silence of a finite experiment is not a fault — a real
    stream runs forever); specs 1..runs are the faulted runs.  The fault
    list is returned alongside so the aggregation can match baseline
    detections to the faulty replica's stream.
    """
    sizing = app.sizing()
    tokens = warmup_tokens + post_tokens
    stop_time = (tokens + 20) * app.producer_model.period
    clean_stop = (tokens - 5) * app.producer_model.period
    specs = [
        TaskSpec.duplicated(
            app,
            tokens,
            base_seed,
            sizing=sizing,
            monitor=DistanceMonitorSpec(
                poll_interval=poll_interval, stop_time=clean_stop
            ),
        )
    ]
    faults: List[FaultSpec] = []
    for r in range(runs):
        seed = base_seed + r
        phase = 0.15 + 0.7 * ((seed * 104729) % 100) / 100.0
        fault = FaultSpec(
            replica=r % 2,
            time=fault_time_for(app, warmup_tokens, phase=phase),
            kind=FAIL_STOP,
        )
        faults.append(fault)
        specs.append(
            TaskSpec.duplicated(
                app,
                tokens,
                seed,
                fault=fault,
                sizing=sizing,
                monitor=DistanceMonitorSpec(
                    poll_interval=poll_interval, stop_time=stop_time
                ),
            )
        )
    return specs, faults


def run_table3(
    apps: Optional[Sequence[StreamingApplication]] = None,
    runs: int = 20,
    warmup_tokens: int = 100,
    post_tokens: int = 30,
    poll_interval: float = 1.0,
    base_seed: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> Table3Result:
    """Regenerate Table 3 across the three applications, as one sweep
    on ``executor`` (``None``: a serial, uncached one)."""
    if apps is None:
        apps = [cls(AppScale()).minimized() for cls in ALL_APPLICATIONS]
    else:
        apps = [app.minimized() for app in apps]

    per_app = []
    all_specs: List[TaskSpec] = []
    for app in apps:
        specs, faults = table3_specs(
            app, runs, warmup_tokens, post_tokens, poll_interval, base_seed
        )
        per_app.append((app, faults, len(all_specs), len(specs)))
        all_specs.extend(specs)
    all_results = (executor or SweepExecutor()).run(all_specs)

    rows: List[Table3Row] = []
    for app, faults, offset, count in per_app:
        results = all_results[offset:offset + count]
        for outcome in results:
            if not outcome.ok:
                raise AssertionError(
                    f"{app.name}: Table 3 run failed: {outcome.error}"
                )
        clean, faulted = results[0], results[1:]
        false_positives = len(clean.monitor_detections)
        if clean.detections:
            raise AssertionError(
                f"{app.name}: our approach false-positived fault-free"
            )
        ours: List[float] = []
        baseline: List[float] = []
        for fault, run in zip(faults, faulted):
            our_latency = run.detection_latency("replicator")
            if our_latency is not None:
                ours.append(our_latency)
            detection = run.first_monitor_detection(stream=fault.replica)
            if detection is not None and run.injected_at is not None:
                baseline.append(detection.time - run.injected_at)
        rows.append(
            Table3Row(
                app_name=app.name,
                ours=summarize(ours),
                baseline=summarize(baseline),
                baseline_timer_count=4,  # two per channel, as in the paper
                baseline_false_positives=false_positives,
                poll_interval=poll_interval,
            )
        )
    return Table3Result(rows=rows, runs=runs)


def render_table3(result: Table3Result) -> str:
    """Plain-text rendering mirroring the paper's Table 3."""
    headers = [
        "Application",
        "DF max", "DF min", "DF mean",
        "Ours max", "Ours min", "Ours mean",
        "DF timers", "DF false pos",
    ]
    body = []
    for row in result.rows:
        body.append(
            [
                row.app_name,
                row.baseline.maximum,
                row.baseline.minimum,
                row.baseline.mean,
                row.ours.maximum,
                row.ours.minimum,
                row.ours.mean,
                row.baseline_timer_count,
                row.baseline_false_positives,
            ]
        )
    return format_table(
        headers, body,
        title=(
            "Table 3: fault detection latency (ms) — distance-function "
            f"(DF, {result.rows[0].poll_interval:g} ms poll) vs our "
            f"approach, {result.runs} runs"
        ),
    )
