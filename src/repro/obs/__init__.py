"""Unified telemetry layer: metrics, run timeline, trace export, reports.

The package is organised as two halves plus two consumers:

* :mod:`repro.obs.metrics` — aggregate instruments (counters, gauges,
  mergeable log-histogram sketches, time series) behind a
  :class:`MetricsRegistry` that is free when disabled, and whose
  ``snapshot()`` is the one wire and merge form of a run, a task or a
  fleet;
* :mod:`repro.obs.timeline` — the event-shaped record of one run
  (process transitions, fault injections, detections) plus the
  :class:`Observability` bundle runs are observed through;
* :mod:`repro.obs.chrometrace` — Chrome-trace-event (Perfetto) export;
* :mod:`repro.obs.report` — the ``repro report`` run-report builder;
* the streaming half: :mod:`repro.obs.ledger` (the ``repro.ledger/1``
  append-only JSONL run ledger with tolerant replay) and
  :mod:`repro.obs.live` (the ``repro top`` renderer, Prometheus text
  exposition and the read-only HTTP status endpoint).
"""

from repro.obs.metrics import (
    DISABLED,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    LogHistogramSketch,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.timeline import (
    InjectionMark,
    Observability,
    RunTimeline,
    Transition,
)
from repro.obs.chrometrace import (
    build_chrome_trace,
    build_trace_events,
    write_chrome_trace,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    SCHEMA_ID,
    build_run_report,
    render_report,
    validate_report,
)
from repro.obs.rtccache import rtc_cache_stats
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerReplay,
    LedgerWriter,
    build_status,
    merged_snapshot,
    read_ledger,
    read_status,
)
from repro.obs.live import (
    StatusServer,
    render_prometheus,
    render_top,
)

__all__ = [
    "DISABLED",
    "Counter",
    "Gauge",
    "LogHistogramSketch",
    "MetricsRegistry",
    "TimeSeries",
    "InjectionMark",
    "Observability",
    "RunTimeline",
    "Transition",
    "build_chrome_trace",
    "build_trace_events",
    "write_chrome_trace",
    "REPORT_SCHEMA",
    "SCHEMA_ID",
    "build_run_report",
    "render_report",
    "validate_report",
    "rtc_cache_stats",
    "SNAPSHOT_SCHEMA",
    "LEDGER_SCHEMA",
    "LedgerReplay",
    "LedgerWriter",
    "build_status",
    "merged_snapshot",
    "read_ledger",
    "read_status",
    "StatusServer",
    "render_prometheus",
    "render_top",
]
