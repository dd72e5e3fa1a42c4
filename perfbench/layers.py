"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans.

Layers follow the repository's modules: RTC sizing (``repro.rtc``),
network build (``repro.core.duplicate``), engine (``repro.kpn``),
replicator/selector bookkeeping (``repro.core``), payload compute
(``repro.codec``), executor (``repro.exec``), observability
(``repro.obs``) and the campaign loop (``repro.campaign``).
"""

from __future__ import annotations

import os
from typing import Dict

#: Span names that make up each layer's self time.
LAYERS = {
    "rtc": ("rtc.size", "rtc.solve"),
    "build": ("build.duplicated", "build.reference"),
    "sim": ("sim.run",),
    "replicator": ("replicator.poll",),
    "selector": ("selector.poll",),
    "codec": ("codec.jpeg", "codec.adpcm", "codec.h264"),
    "exec": ("exec.run",),
    "obs": ("obs.ledger", "obs.ledger_flush", "obs.timeline", "obs.report"),
    "campaign": ("campaign.generate", "campaign.evaluate",
                 "campaign.shrink"),
}


#: Unit of every per-layer metric.
UNITS = {
    **{name: "s" for name in (
        "rtc.solve_s", "build.s", "sim.self_s", "replicator.poll_s",
        "selector.poll_s", "codec.jpeg_s", "codec.adpcm_s", "codec.h264_s",
        "exec.run_s", "exec.task_s", "exec.overhead_s", "obs.ledger_s",
        "obs.timeline_s", "campaign.generate_s", "campaign.evaluate_s",
        "campaign.shrink_s", "trace.wall_s", "trace.untraced_wall_s",
        "trace.overhead_s")},
    **{name: "count" for name in (
        "rtc.solves", "rtc.calls", "build.count", "sim.events",
        "replicator.polls", "selector.polls", "selector.drops",
        "codec.calls", "exec.tasks", "exec.failed_tasks",
        "obs.ledger_records", "obs.transitions", "campaign.shrink_runs",
        "recovery.attempts", "recovery.completed", "trace.spans")},
    **{name: "bytes" for name in ("codec.bytes", "obs.ledger_bytes")},
    **{f"share.{layer}": "ratio" for layer in (*LAYERS, "other")},
    "rtc.memo_hit_ratio": "ratio",
}


def _bytes_out(result, args, kwargs) -> Dict[str, float]:
    return {"codec.bytes": len(result)}


def _bytes_in(result, args, kwargs) -> Dict[str, float]:
    return {"codec.bytes": len(args[1])}


def _sweep(result, args, kwargs) -> Dict[str, float]:
    stats = args[0].stats
    # Deduplicated tasks share one result object; inline tasks ran here
    # and were already counted by the ``sim.run`` span.
    in_workers = [
        task for task in {id(task): task for task in result}.values()
        if (task.worker or {}).get("pid") not in (None, os.getpid())
    ]
    return {
        "exec.task_s": sum(stats.task_wall_s),
        "exec.task_s_per_job": sum(stats.task_wall_s) / stats.jobs,
        "exec.tasks": stats.executed,
        "exec.failed_tasks": stats.errors,
        "exec.events": sum(task.events for task in in_workers),
    }


def install(tracer) -> None:
    """Wrap every layer boundary with a span of ``tracer``."""
    from repro.campaign import engine, shrink
    from repro.campaign.scenario import ScenarioGenerator
    from repro.codec.adpcm import AdpcmCodec
    from repro.codec.h264 import H264Encoder
    from repro.codec.jpeg import JpegCodec
    from repro.core import duplicate
    from repro.core.replicator import ReplicatorChannel
    from repro.core.selector import SelectorChannel
    from repro.exec.executor import SweepExecutor
    from repro.kpn.simulator import Simulator
    from repro.obs import report
    from repro.obs.ledger import LedgerWriter
    from repro.obs.timeline import RunTimeline
    from repro.rtc import sizing

    patch = tracer.patch
    patch(sizing, "size_duplicated_network", "rtc.size", True)
    patch(sizing, "_size_duplicated_network_impl", "rtc.solve", True)
    patch(duplicate, "build_duplicated", "build.duplicated", True)
    patch(duplicate, "build_reference", "build.reference", True)
    patch(Simulator, "run", "sim.run", True,
          after=lambda stats, args, kwargs: {"sim.events": stats.events})
    for channel, site in ((ReplicatorChannel, "replicator"),
                          (SelectorChannel, "selector")):
        patch(channel, "poll_read", f"{site}.poll", False)
        patch(channel, "poll_write", f"{site}.poll", False)
    patch(JpegCodec, "encode", "codec.jpeg", False, after=_bytes_out)
    patch(JpegCodec, "decode", "codec.jpeg", False, after=_bytes_in)
    patch(AdpcmCodec, "encode_block", "codec.adpcm", False, after=_bytes_out)
    patch(AdpcmCodec, "decode_block", "codec.adpcm", False, after=_bytes_in)
    patch(H264Encoder, "encode_frame", "codec.h264", False, after=_bytes_out)
    patch(SweepExecutor, "run", "exec.run", True, after=_sweep)
    patch(LedgerWriter, "emit", "obs.ledger", False)
    patch(LedgerWriter, "flush", "obs.ledger_flush", False)
    patch(RunTimeline, "transition", "obs.timeline", False)
    patch(report, "build_run_report", "obs.report", True)
    patch(ScenarioGenerator, "generate", "campaign.generate", True)
    patch(ScenarioGenerator, "self_tests", "campaign.generate", True)
    patch(engine, "evaluate_scenario", "campaign.evaluate", True)
    patch(shrink, "shrink_scenario", "campaign.shrink", True,
          after=lambda result, args, kwargs: {
              "campaign.shrink_runs": result.runs})


def metrics(tracer, wall_s: float, counts: Dict[str, object],
            ledger_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Times named ``*_s`` are self times (span minus child spans) unless
    noted: ``rtc.solve_s``, ``exec.run_s`` and the ``campaign.*`` phase
    times are inclusive.  ``share.*`` is each layer's self time as a
    fraction of the traced timed part; ``share.other`` is the rest
    (harness code between spans).
    """
    self_s, total_s = tracer.self_s, tracer.total_s
    calls, sums = tracer.calls, tracer.sums
    rtc_calls = calls["rtc.size"]
    solves = calls["rtc.solve"]
    exec_run = total_s["exec.run"]
    out = {
        "rtc.solve_s": total_s["rtc.solve"],
        "rtc.solves": solves,
        "rtc.calls": rtc_calls,
        "rtc.memo_hit_ratio": (max(0.0, 1 - solves / rtc_calls)
                               if rtc_calls else 0.0),
        "build.s": sum(self_s[n] for n in LAYERS["build"]),
        "build.count": sum(calls[n] for n in LAYERS["build"]),
        "sim.self_s": self_s["sim.run"],
        "sim.events": sums["sim.events"] + sums["exec.events"],
        "replicator.poll_s": self_s["replicator.poll"],
        "replicator.polls": calls["replicator.poll"],
        "selector.poll_s": self_s["selector.poll"],
        "selector.polls": calls["selector.poll"],
        "selector.drops": counts["selector.drops"],
        "codec.jpeg_s": self_s["codec.jpeg"],
        "codec.adpcm_s": self_s["codec.adpcm"],
        "codec.h264_s": self_s["codec.h264"],
        "codec.calls": sum(calls[n] for n in LAYERS["codec"]),
        "codec.bytes": sums["codec.bytes"],
        "exec.run_s": exec_run,
        "exec.task_s": sums["exec.task_s"],
        # Fork, pickling and scheduling: sweep time not covered by the
        # tasks, with task time spread over the workers.
        "exec.overhead_s": exec_run - sums["exec.task_s_per_job"],
        "exec.tasks": sums["exec.tasks"],
        "exec.failed_tasks": sums["exec.failed_tasks"],
        "obs.ledger_s": self_s["obs.ledger"] + self_s["obs.ledger_flush"],
        "obs.ledger_records": calls["obs.ledger"],
        "obs.ledger_bytes": ledger_bytes,
        "obs.timeline_s": self_s["obs.timeline"],
        "obs.transitions": calls["obs.timeline"],
        "campaign.generate_s": total_s["campaign.generate"],
        "campaign.evaluate_s": total_s["campaign.evaluate"],
        "campaign.shrink_s": total_s["campaign.shrink"],
        "campaign.shrink_runs": sums["campaign.shrink_runs"],
        "recovery.attempts": counts["recovery.attempts"],
        "recovery.completed": counts["recovery.completed"],
        "trace.spans": len(tracer.records),
    }
    covered = 0.0
    for layer, names in LAYERS.items():
        share = sum(self_s[n] for n in names) / wall_s
        out[f"share.{layer}"] = share
        covered += share
    out["share.other"] = 1.0 - covered
    return out
