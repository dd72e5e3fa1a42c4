"""Table 2 — fault-tolerance results for one application.

Reproduces every block of the paper's Table 2:

* **Theoretical capacities / initial tokens** — the Section 3.4 numbers;
* **Max. observed fill (no faults, N runs)** — instrumented maxima of the
  replicator queues and the selector FIFO across fault-free runs;
* **Fault detection latency** — min/max/mean over N fail-stop fault runs,
  measured independently at the selector and the replicator, against the
  computed upper bounds;
* **Overhead** — memory and runtime of the framework channels;
* **Decoded inter-frame timings** — min/max/mean of the consumer's
  inter-arrival gaps, reference vs duplicated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.stats import LatencyStats, summarize
from repro.analysis.tables import format_kv_block, format_table
from repro.apps.base import StreamingApplication
from repro.core.equivalence import output_values_equal
from repro.core.overhead import OverheadReport
from repro.exec import SweepExecutor, TaskSpec
from repro.experiments.runner import fault_time_for
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.rtc.sizing import SizingResult


@dataclass
class Table2Result:
    """All measured blocks of Table 2 for one application."""

    app_name: str
    runs: int
    sizing: SizingResult
    max_fill_r1: int
    max_fill_r2: int
    max_fill_selector: int
    selector_latency: LatencyStats
    replicator_latency: LatencyStats
    detected_in_every_run: bool
    within_bounds: bool
    overhead_replicator: OverheadReport
    overhead_selector: OverheadReport
    reference_interframe: LatencyStats
    duplicated_interframe: LatencyStats
    outputs_equivalent: bool
    consumer_stalls: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "app": self.app_name,
            "runs": self.runs,
            **self.sizing.as_dict(),
            "max_fill_R1": self.max_fill_r1,
            "max_fill_R2": self.max_fill_r2,
            "max_fill_S": self.max_fill_selector,
            "sel_lat_min": self.selector_latency.minimum,
            "sel_lat_max": self.selector_latency.maximum,
            "sel_lat_mean": self.selector_latency.mean,
            "rep_lat_min": self.replicator_latency.minimum,
            "rep_lat_max": self.replicator_latency.maximum,
            "rep_lat_mean": self.replicator_latency.mean,
            "within_bounds": self.within_bounds,
            "outputs_equivalent": self.outputs_equivalent,
        }


def table2_specs(
    app: StreamingApplication,
    runs: int = 20,
    warmup_tokens: Optional[int] = None,
    post_tokens: int = 40,
    base_seed: int = 1,
) -> List[TaskSpec]:
    """The Table 2 sweep as task specs: per seed, one reference run, one
    fault-free duplicated run and one fail-stop fault run (alternating
    the faulty replica, injection phase randomised via the seed)."""
    sizing = app.sizing()
    warmup = (
        warmup_tokens
        if warmup_tokens is not None
        else min(app.scale.warmup_tokens, 300)
    )
    tokens = warmup + post_tokens
    specs: List[TaskSpec] = []
    for r in range(runs):
        seed = base_seed + r
        specs.append(TaskSpec.reference(app, tokens, seed, sizing=sizing))
        specs.append(
            TaskSpec.duplicated(
                app, tokens, seed, sizing=sizing,
                verify_duplicates=(r == 0),
            )
        )
        phase = 0.1 + 0.8 * ((seed * 7919) % 100) / 100.0
        fault = FaultSpec(
            replica=r % 2,
            time=fault_time_for(app, warmup, phase=phase),
            kind=FAIL_STOP,
        )
        specs.append(
            TaskSpec.duplicated(app, tokens, seed, sizing=sizing,
                                fault=fault)
        )
    return specs


def run_table2(
    app: StreamingApplication,
    runs: int = 20,
    warmup_tokens: Optional[int] = None,
    post_tokens: int = 40,
    base_seed: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> Table2Result:
    """Regenerate one application's half of Table 2.

    ``runs`` fault-free runs feed the observed-fill block; ``runs``
    fail-stop fault runs (alternating the faulty replica, randomised
    injection phase via the run seed) feed the latency block; one
    reference run per seed feeds the inter-frame comparison.  The sweep
    runs on ``executor`` (``None``: a serial, uncached one).
    """
    sizing = app.sizing()
    specs = table2_specs(app, runs, warmup_tokens, post_tokens, base_seed)
    results = (executor or SweepExecutor()).run(specs)

    max_fills = {"R1": 0, "R2": 0, "S": 0}
    ref_gaps: List[float] = []
    dup_gaps: List[float] = []
    selector_latencies: List[float] = []
    replicator_latencies: List[float] = []
    outputs_equivalent = True
    detected_every_run = True
    consumer_stalls = 0
    last_overhead_r = None
    last_overhead_s = None

    for r in range(runs):
        reference, fault_free, faulted = results[3 * r:3 * r + 3]
        for outcome in (reference, fault_free, faulted):
            if not outcome.ok:
                raise AssertionError(
                    f"{app.name}: run {r} failed: {outcome.error}"
                )
        ref_gaps.extend(reference.inter_arrival)

        dup_gaps.extend(fault_free.inter_arrival)
        consumer_stalls += fault_free.stalls
        if fault_free.detections:
            raise AssertionError(
                f"{app.name}: false positive in fault-free run {r}: "
                f"{fault_free.detections[0]}"
            )
        fills = fault_free.max_fills
        max_fills["R1"] = max(max_fills["R1"], fills.get("replicator.R1", 0))
        max_fills["R2"] = max(max_fills["R2"], fills.get("replicator.R2", 0))
        max_fills["S"] = max(max_fills["S"], fills.get("selector.S", 0))
        if not output_values_equal(reference.value_hashes,
                                   fault_free.value_hashes):
            outputs_equivalent = False

        consumer_stalls += faulted.stalls
        sel = faulted.detection_latency("selector")
        rep = faulted.detection_latency("replicator")
        if sel is None or rep is None:
            detected_every_run = False
        else:
            selector_latencies.append(sel)
            replicator_latencies.append(rep)
        if not output_values_equal(reference.value_hashes,
                                   faulted.value_hashes):
            outputs_equivalent = False
        last_overhead_r = faulted.overhead_replicator
        last_overhead_s = faulted.overhead_selector

    selector_stats = summarize(selector_latencies)
    replicator_stats = summarize(replicator_latencies)
    within = (
        selector_stats.within(sizing.selector_detection_bound)
        and replicator_stats.within(sizing.replicator_detection_bound)
    )
    return Table2Result(
        app_name=app.name,
        runs=runs,
        sizing=sizing,
        max_fill_r1=max_fills["R1"],
        max_fill_r2=max_fills["R2"],
        max_fill_selector=max_fills["S"],
        selector_latency=selector_stats,
        replicator_latency=replicator_stats,
        detected_in_every_run=detected_every_run,
        within_bounds=within,
        overhead_replicator=last_overhead_r,
        overhead_selector=last_overhead_s,
        reference_interframe=summarize(ref_gaps),
        duplicated_interframe=summarize(dup_gaps),
        outputs_equivalent=outputs_equivalent,
        consumer_stalls=consumer_stalls,
    )


def render_table2(result: Table2Result) -> str:
    """Plain-text rendering mirroring the paper's Table 2 layout."""
    sizing = result.sizing
    blocks = []
    blocks.append(
        format_table(
            ["FIFO", "|R1|", "|R2|", "|S1|", "|S2|", "|S1|_0", "|S2|_0"],
            [
                [
                    "Theoretical capacity",
                    sizing.replicator_capacities[0],
                    sizing.replicator_capacities[1],
                    sizing.selector_capacities[0],
                    sizing.selector_capacities[1],
                    sizing.selector_initial_fill[0],
                    sizing.selector_initial_fill[1],
                ],
                [
                    f"Max observed fill ({result.runs} runs, no faults)",
                    result.max_fill_r1,
                    result.max_fill_r2,
                    result.max_fill_selector,
                    result.max_fill_selector,
                    "-",
                    "-",
                ],
            ],
            title=f"Table 2 [{result.app_name}]: capacities and fills "
                  "(tokens)",
        )
    )
    blocks.append(
        format_table(
            ["Fault detection latency (ms)", "min", "max", "mean",
             "upper bound", "within"],
            [
                [
                    "at selector",
                    result.selector_latency.minimum,
                    result.selector_latency.maximum,
                    result.selector_latency.mean,
                    sizing.selector_detection_bound,
                    str(result.selector_latency.within(
                        sizing.selector_detection_bound)),
                ],
                [
                    "at replicator",
                    result.replicator_latency.minimum,
                    result.replicator_latency.maximum,
                    result.replicator_latency.mean,
                    sizing.replicator_detection_bound,
                    str(result.replicator_latency.within(
                        sizing.replicator_detection_bound)),
                ],
            ],
        )
    )
    blocks.append(
        format_table(
            ["Overhead", "memory", "runtime"],
            [
                [
                    "selector",
                    result.overhead_selector.memory_description(),
                    result.overhead_selector.runtime_description(),
                ],
                [
                    "replicator",
                    result.overhead_replicator.memory_description(),
                    result.overhead_replicator.runtime_description(),
                ],
            ],
        )
    )
    blocks.append(
        format_table(
            ["Inter-frame timings (ms)", "min", "max", "mean"],
            [
                [
                    "reference",
                    result.reference_interframe.minimum,
                    result.reference_interframe.maximum,
                    result.reference_interframe.mean,
                ],
                [
                    "duplicated",
                    result.duplicated_interframe.minimum,
                    result.duplicated_interframe.maximum,
                    result.duplicated_interframe.mean,
                ],
            ],
        )
    )
    blocks.append(
        format_kv_block(
            "Verdicts",
            {
                "fault detected in every run": result.detected_in_every_run,
                "latencies within computed bounds": result.within_bounds,
                "outputs equivalent (Theorem 2)": result.outputs_equivalent,
                "consumer stalls": result.consumer_stalls,
            },
        )
    )
    return "\n\n".join(blocks)
