"""Run reports: one duplicated run summarised against its design bounds.

:func:`build_run_report` turns a finished
:class:`~repro.experiments.runner.DuplicatedRun` into a plain-data
dictionary that answers the paper's validation questions for that run:

* did every FIFO stay within the Eq. 3/4 **theoretical capacity**
  (Table 2's "Max. Observed Fill" vs "Theoretical Capacity" comparison)?
* how close did fault-free **divergence** get to the threshold ``D``
  (Eq. 5 headroom)?
* was the injected fault **detected within the Eq. 8 latency bound**?
* what **throughput** did the engine sustain?

The dictionary validates against :data:`REPORT_SCHEMA` (a lightweight
in-repo schema — no external jsonschema dependency) and renders to a
human-readable summary via :func:`render_report`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional

#: Schema identifier embedded in every report.  v2: ``metrics`` is the
#: registry's ``repro.metrics-snapshot/1`` wire form.  v3: the per-run
#: payload-copy section is gone.
SCHEMA_ID = "repro.run-report/3"

#: The report contract, checked by :func:`validate_report`.  Leaf values
#: are type tuples; a list entry describes each element's shape.  ``None``
#: is always additionally allowed where the description says "nullable".
REPORT_SCHEMA: Dict[str, Any] = {
    "schema": (str,),                      # == SCHEMA_ID
    "meta": {
        "app": (str,),                     # application name
        "tokens": (int,),                  # producer tokens in the run
        "seed": (int,),                    # RNG seed
        "fault": {                         # nullable: None on fault-free runs
            "kind": (str,),                # "fail-stop" | "rate-degrade"
            "replica": (int,),             # 0-based faulty replica
            "time_ms": (float, int),       # injection instant (virtual ms)
        },
    },
    "throughput": {
        "events": (int,),                  # simulator events processed
        "end_time_ms": (float, int),       # virtual end-of-run instant
        "wall_time_s": (float, int),       # host wall-clock of the run loop
        "events_per_sec": (float, int),    # engine throughput
        "tokens_delivered": (int,),        # tokens the consumer received
        "consumer_stalls": (int,),         # reads that found the FIFO empty
    },
    "channels": [{
        "name": (str,),                    # trace name, e.g. "replicator.R1"
        "max_fill": (int,),                # max observed occupancy
        "capacity": (int,),                # nullable: theoretical capacity
        "within_capacity": (bool,),        # nullable when capacity unknown
    }],
    "divergence": [{
        "site": (str,),                    # "replicator" | "selector"
        "peak": (int, float),              # nullable: max |c_1 - c_2| seen
                                           # before the injection instant
        "threshold": (int,),               # D (Eq. 5)
        "headroom": (int, float),          # nullable: threshold - peak
    }],
    "detection": {
        "injected": (bool,),               # was a fault armed and fired?
        "detected": (bool,),               # any post-injection report?
        "reports": (int,),                 # total FaultReports recorded
        "latency_ms": (float, int),        # nullable: first detection latency
        "bound_ms": (float, int),          # nullable: Eq. 8 bound at the
                                           # detecting site
        "within_bound": (bool,),           # nullable when not detected
        "site": (str,),                    # nullable: first detecting site
        "mechanism": (str,),               # nullable: detecting mechanism
    },
    "metrics": dict,                       # MetricsRegistry.snapshot()
}


def series_peak(series, cutoff: Optional[float] = None):
    """Largest value of a time series, over the retained samples taken
    strictly before ``cutoff`` when one is given (``None`` if there are
    none).  Series times never decrease, so those samples are a prefix,
    found by bisection."""
    if cutoff is None:
        return series.max
    end = bisect_left(series.times, cutoff)
    return max(series.values[:end]) if end else None


def build_run_report(
    run,
    sizing,
    app_name: str,
    tokens: int,
    seed: int,
    fault=None,
) -> Dict[str, Any]:
    """Summarise one finished duplicated run against its design bounds.

    ``run`` is a :class:`~repro.experiments.runner.DuplicatedRun`,
    ``sizing`` the :class:`~repro.rtc.sizing.SizingResult` it was built
    from, ``fault`` the :class:`~repro.faults.models.FaultSpec` injected
    (``None`` for fault-free runs).  Works with or without an attached
    ``obs`` bundle — divergence peaks and the metrics snapshot are only
    populated when the run was observed.
    """
    stats = run.stats
    obs = run.obs
    registry = obs.registry if obs is not None else None

    # -- channels: observed fill vs theoretical capacity --------------------
    capacities: Dict[str, Optional[int]] = {
        "replicator.R1": sizing.replicator_capacities[0],
        "replicator.R2": sizing.replicator_capacities[1],
        "selector.S": sizing.selector_fifo_size,
    }
    plain_channels = getattr(run.network.network, "channels", {})
    channels: List[Dict[str, Any]] = []
    for name in sorted(run.max_fills):
        capacity = capacities.get(name)
        if capacity is None:
            channel = plain_channels.get(name)
            capacity = getattr(channel, "capacity", None)
        max_fill = run.max_fills[name]
        channels.append({
            "name": name,
            "max_fill": max_fill,
            "capacity": capacity,
            "within_capacity": (
                None if capacity is None else max_fill <= capacity
            ),
        })

    # -- divergence headroom ------------------------------------------------
    # Headroom is a fault-free quantity: past the injection instant the
    # divergence is *supposed* to cross D, so peaks are taken over the
    # pre-injection samples only (the full run when no fault was armed).
    cutoff = fault.time if fault is not None else None

    def _divergence_entry(site: str, threshold: int) -> Dict[str, Any]:
        peak = None
        if registry is not None:
            series = registry.get(f"chan.{site}.divergence")
            if series is not None and series.count:
                peak = series_peak(series, cutoff)
        return {
            "site": site,
            "peak": peak,
            "threshold": threshold,
            "headroom": None if peak is None else threshold - peak,
        }

    divergence = [
        _divergence_entry("replicator", sizing.replicator_threshold),
        _divergence_entry("selector", sizing.selector_threshold),
    ]

    # -- detection latency vs Eq. 8 -----------------------------------------
    injected = run.injector is not None and run.injector.injected_at is not None
    latency = run.detection_latency() if injected else None
    first = None
    if injected and latency is not None:
        injected_at = run.injector.injected_at
        for report in run.detections:
            if (report.replica == run.injector.spec.replica
                    and report.time >= injected_at):
                first = report
                break
    bounds = {
        "replicator": sizing.replicator_detection_bound,
        "selector": sizing.selector_detection_bound,
    }
    bound = bounds.get(first.site) if first is not None else None
    detection = {
        "injected": injected,
        "detected": latency is not None,
        "reports": len(run.detections),
        "latency_ms": latency,
        "bound_ms": bound,
        "within_bound": (
            None if latency is None or bound is None else latency <= bound
        ),
        "site": first.site if first is not None else None,
        "mechanism": first.mechanism if first is not None else None,
    }

    fault_meta = None
    if fault is not None:
        fault_meta = {
            "kind": fault.kind,
            "replica": fault.replica,
            "time_ms": fault.time,
        }

    return {
        "schema": SCHEMA_ID,
        "meta": {
            "app": app_name,
            "tokens": tokens,
            "seed": seed,
            "fault": fault_meta,
        },
        "throughput": {
            "events": stats.events if stats else run.events,
            "end_time_ms": stats.end_time if stats else None,
            "wall_time_s": stats.wall_time_s if stats else None,
            "events_per_sec": stats.events_per_sec if stats else None,
            "tokens_delivered": len(run.values),
            "consumer_stalls": run.stalls,
        },
        "channels": channels,
        "divergence": divergence,
        "detection": detection,
        "metrics": registry.snapshot() if registry is not None else {},
    }


def validate_report(report: Dict[str, Any]) -> None:
    """Check ``report`` against :data:`REPORT_SCHEMA`.

    Raises :class:`ValueError` naming the offending path.  ``None`` is
    accepted for any leaf (the schema marks which fields are expected to
    be nullable; structurally every leaf may legitimately be absent data).
    """
    if report.get("schema") != SCHEMA_ID:
        raise ValueError(
            f"report schema is {report.get('schema')!r}, expected "
            f"{SCHEMA_ID!r}"
        )
    _validate_node(report, REPORT_SCHEMA, path="report")


def _validate_node(value: Any, spec: Any, path: str) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected object, got {type(value).__name__}")
        for key, sub in spec.items():
            if key not in value:
                # Nested-object specs may be entirely null (e.g. meta.fault).
                raise ValueError(f"{path}.{key}: missing")
            child = value[key]
            if child is None:
                continue
            _validate_node(child, sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected array, got {type(value).__name__}")
        for index, item in enumerate(value):
            _validate_node(item, spec[0], f"{path}[{index}]")
    elif spec is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected object, got {type(value).__name__}")
    else:  # tuple of accepted types; bool must not satisfy (int,)
        if isinstance(value, bool) and bool not in spec:
            raise ValueError(f"{path}: expected {spec}, got bool")
        if not isinstance(value, spec):
            raise ValueError(
                f"{path}: expected {tuple(t.__name__ for t in spec)}, "
                f"got {type(value).__name__}"
            )


def _fmt(value: Optional[float], spec: str) -> str:
    """Format a nullable number; ``None`` (unobserved run) renders as "?"."""
    return "?" if value is None else format(value, spec)


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a run report."""
    meta = report["meta"]
    thr = report["throughput"]
    det = report["detection"]
    lines: List[str] = []
    fault = meta["fault"]
    fault_desc = (
        f"{fault['kind']} -> replica {fault['replica'] + 1} "
        f"@ {fault['time_ms']:.1f} ms" if fault else "none"
    )
    lines.append(f"Run report: {meta['app']}")
    lines.append(
        f"  tokens={meta['tokens']}  seed={meta['seed']}  fault={fault_desc}"
    )
    lines.append("")
    lines.append("Throughput")
    lines.append(
        f"  {thr['events']} events to t={_fmt(thr['end_time_ms'], '.1f')} ms "
        f"({_fmt(thr['events_per_sec'], '.0f')} events/s host); "
        f"{thr['tokens_delivered']} tokens delivered, "
        f"{thr['consumer_stalls']} consumer stalls"
    )
    lines.append("")
    lines.append("Channel fill vs theoretical capacity")
    for chan in report["channels"]:
        cap = chan["capacity"]
        verdict = (
            "?" if chan["within_capacity"] is None
            else ("ok" if chan["within_capacity"] else "EXCEEDED")
        )
        lines.append(
            f"  {chan['name']:<16} max fill {chan['max_fill']:>4}"
            f" / capacity {cap if cap is not None else '?':>4}  [{verdict}]"
        )
    lines.append("")
    lines.append("Divergence headroom (Eq. 5)")
    for div in report["divergence"]:
        if div["peak"] is None:
            lines.append(
                f"  {div['site']:<12} peak ?    / D = {div['threshold']}"
                "  (run not observed)"
            )
        else:
            lines.append(
                f"  {div['site']:<12} peak {div['peak']:>4.0f} / D = "
                f"{div['threshold']}  (headroom {div['headroom']:.0f})"
            )
    lines.append("")
    lines.append("Detection")
    if not det["injected"]:
        lines.append(
            f"  no fault injected; {det['reports']} report(s) recorded"
        )
    elif not det["detected"]:
        lines.append("  fault injected but NOT DETECTED")
    else:
        verdict = (
            "?" if det["within_bound"] is None
            else ("within bound" if det["within_bound"] else "BOUND EXCEEDED")
        )
        bound = det["bound_ms"]
        lines.append(
            f"  detected in {det['latency_ms']:.2f} ms at {det['site']} "
            f"({det['mechanism']}); Eq. 8 bound "
            f"{bound:.2f} ms  [{verdict}]"
            if bound is not None else
            f"  detected in {det['latency_ms']:.2f} ms at {det['site']} "
            f"({det['mechanism']})"
        )
    return "\n".join(lines)
