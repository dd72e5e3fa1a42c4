"""Chrome-trace-event export: open a run in Perfetto.

Converts one observed run — the :class:`~repro.obs.timeline.RunTimeline`
transition stream plus the :class:`~repro.obs.metrics.MetricsRegistry`
time series — into the Chrome Trace Event JSON format that
https://ui.perfetto.dev (and ``chrome://tracing``) load directly:

* each process becomes a named thread track carrying **"X" complete
  spans**: ``compute`` spans for every service-time delay and
  ``blocked:read`` / ``blocked:write`` spans for every park interval
  (annotated with the channel the process waited on);
* every :class:`~repro.obs.metrics.TimeSeries` instrument (channel fill,
  per-replica ``space_k``, divergence, headroom) becomes a **"C" counter
  track**;
* fault injections and detections become **"i" instant markers** on a
  dedicated ``faults`` track.

Timestamps: the simulator's virtual milliseconds map to trace
microseconds (``ts = ms * 1000``) and ``displayTimeUnit`` is ``"ms"``,
so Perfetto's ruler reads directly in virtual time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: pid of the synthetic "process" holding all per-KPN-process tracks.
PID_PROCESSES = 1
#: pid of the synthetic process holding the counter tracks.
PID_COUNTERS = 2
#: tid of the instant-marker track inside PID_PROCESSES.
TID_FAULTS = 0

_MS = 1000.0  # virtual ms -> trace µs


def _span(name: str, tid: int, start_ms: float, dur_ms: float,
          args: Optional[dict] = None) -> dict:
    event = {
        "name": name,
        "ph": "X",
        "pid": PID_PROCESSES,
        "tid": tid,
        "ts": start_ms * _MS,
        "dur": max(dur_ms, 0.0) * _MS,
        "cat": "process",
    }
    if args:
        event["args"] = args
    return event


def _instant(name: str, time_ms: float, args: Optional[dict] = None) -> dict:
    event = {
        "name": name,
        "ph": "i",
        "pid": PID_PROCESSES,
        "tid": TID_FAULTS,
        "ts": time_ms * _MS,
        "s": "g",  # global scope: draw the marker across all tracks
        "cat": "fault",
    }
    if args:
        event["args"] = args
    return event


def build_trace_events(obs) -> List[dict]:
    """Flatten an :class:`~repro.obs.timeline.Observability` bundle into a
    Chrome trace event list (sorted by timestamp)."""
    timeline = obs.timeline
    events: List[dict] = []

    # -- thread metadata ----------------------------------------------------
    events.append({
        "name": "process_name", "ph": "M", "pid": PID_PROCESSES,
        "args": {"name": "kpn processes"},
    })
    events.append({
        "name": "thread_name", "ph": "M", "pid": PID_PROCESSES,
        "tid": TID_FAULTS, "args": {"name": "faults"},
    })
    tids: Dict[str, int] = {}
    for name in timeline.process_names():
        tid = tids[name] = len(tids) + 1
        events.append({
            "name": "thread_name", "ph": "M", "pid": PID_PROCESSES,
            "tid": tid, "args": {"name": name},
        })

    # -- lifecycle spans ----------------------------------------------------
    # Open blocked interval per process: (start_ms, kind, channel).
    open_block: Dict[str, tuple] = {}
    end_of_run = timeline.transitions[-1].time if timeline.transitions else 0.0
    for tr in timeline.transitions:
        tid = tids.setdefault(tr.process, len(tids) + 1)
        if tr.kind == "compute":
            events.append(_span(
                "compute", tid, tr.time, float(tr.detail or 0.0)
            ))
        elif tr.kind in ("block_read", "block_write"):
            open_block[tr.process] = (tr.time, tr.kind, tr.detail)
        elif tr.kind in ("resume", "done", "killed"):
            blocked = open_block.pop(tr.process, None)
            if blocked is not None:
                start, kind, channel = blocked
                label = "blocked:read" if kind == "block_read" \
                    else "blocked:write"
                events.append(_span(
                    label, tid, start, tr.time - start,
                    args={"channel": channel},
                ))
            if tr.kind == "killed":
                events.append(_instant(
                    f"killed {tr.process}", tr.time,
                    args={"process": tr.process},
                ))
    # A process still parked at quiescence: close its span at end of run.
    for process, (start, kind, channel) in open_block.items():
        label = "blocked:read" if kind == "block_read" else "blocked:write"
        events.append(_span(
            label, tids[process], start, end_of_run - start,
            args={"channel": channel, "unresolved": True},
        ))

    # -- counter tracks -----------------------------------------------------
    emitted_counter_meta = False

    def _counter_meta() -> None:
        nonlocal emitted_counter_meta
        if not emitted_counter_meta:
            events.append({
                "name": "process_name", "ph": "M", "pid": PID_COUNTERS,
                "args": {"name": "channel telemetry"},
            })
            emitted_counter_meta = True

    for name in obs.registry.names():
        series = obs.registry.get(name)
        if getattr(series, "kind", None) != "timeseries":
            continue
        _counter_meta()
        for time, value in zip(series.times, series.values):
            events.append({
                "name": name,
                "ph": "C",
                "pid": PID_COUNTERS,
                "ts": time * _MS,
                "args": {"value": value},
            })

    # -- fault markers ------------------------------------------------------
    for mark in timeline.injections:
        events.append(_instant(
            f"inject {mark.kind} -> replica {mark.replica + 1}",
            mark.time,
            args={"replica": mark.replica, "kind": mark.kind,
                  "processes": list(mark.processes)},
        ))
    for report in timeline.detections:
        events.append(_instant(
            f"detect {report.mechanism} @ {report.site}",
            report.time,
            args={"site": report.site, "replica": report.replica,
                  "mechanism": report.mechanism, "detail": report.detail},
        ))

    events.sort(key=lambda e: e.get("ts", -1.0))
    return events


def build_chrome_trace(obs) -> dict:
    """The full JSON-object trace (``traceEvents`` container format)."""
    return {
        "traceEvents": build_trace_events(obs),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.chrometrace"},
    }


def write_chrome_trace(obs, path: str) -> dict:
    """Serialise the trace to ``path``; returns the trace dict."""
    trace = build_chrome_trace(obs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return trace
