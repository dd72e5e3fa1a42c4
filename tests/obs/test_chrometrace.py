"""Tests for the Chrome-trace-event (Perfetto) exporter."""

import json

from repro.core.detection import DetectionLog
from repro.obs.chrometrace import (
    PID_COUNTERS,
    PID_PROCESSES,
    build_chrome_trace,
    build_trace_events,
    write_chrome_trace,
)
from repro.obs.timeline import Observability


def _observed_run() -> Observability:
    """A tiny hand-rolled run: one process computing, blocking, resuming."""
    obs = Observability()
    timeline = obs.timeline
    timeline.transition(0.0, "worker", "start")
    timeline.transition(0.0, "worker", "compute", 2.0)
    timeline.transition(2.0, "worker", "block_read", "input")
    timeline.transition(5.0, "worker", "resume")
    timeline.transition(5.0, "worker", "block_write", "output")
    timeline.transition(7.0, "worker", "killed")
    fill = obs.registry.timeseries("chan.input.fill")
    fill.append(0.0, 1.0)
    fill.append(2.0, 0.0)
    timeline.mark_injection(6.0, 0, "fail-stop", ("worker",))
    log = DetectionLog()
    timeline.watch(log)
    log.record(6.5, "selector", 0, "stall", "space_1 > |S|")
    return obs


class TestSpans:
    def test_compute_span_duration(self):
        events = build_trace_events(_observed_run())
        compute = [e for e in events if e.get("name") == "compute"]
        assert len(compute) == 1
        assert compute[0]["ph"] == "X"
        assert compute[0]["ts"] == 0.0
        assert compute[0]["dur"] == 2000.0  # 2 ms -> µs

    def test_blocked_spans_close_on_resume_and_kill(self):
        events = build_trace_events(_observed_run())
        read = [e for e in events if e.get("name") == "blocked:read"]
        write = [e for e in events if e.get("name") == "blocked:write"]
        assert read[0]["ts"] == 2000.0 and read[0]["dur"] == 3000.0
        assert read[0]["args"]["channel"] == "input"
        assert write[0]["ts"] == 5000.0 and write[0]["dur"] == 2000.0

    def test_unresolved_block_closes_at_end_of_run(self):
        obs = Observability()
        obs.timeline.transition(0.0, "p", "block_read", "c")
        obs.timeline.transition(4.0, "q", "done")
        events = build_trace_events(obs)
        spans = [e for e in events if e.get("name") == "blocked:read"]
        assert spans[0]["dur"] == 4000.0
        assert spans[0]["args"]["unresolved"] is True


class TestCountersAndMarkers:
    def test_counter_track_from_timeseries(self):
        events = build_trace_events(_observed_run())
        counters = [e for e in events if e["ph"] == "C"]
        assert [(c["ts"], c["args"]["value"]) for c in counters] == [
            (0.0, 1.0), (2000.0, 0.0)
        ]
        assert all(c["pid"] == PID_COUNTERS for c in counters)

    def test_instant_markers_for_fault_and_detection(self):
        events = build_trace_events(_observed_run())
        instants = [e for e in events if e["ph"] == "i"]
        names = [e["name"] for e in instants]
        assert any("inject fail-stop" in n for n in names)
        assert any("detect stall" in n for n in names)
        assert any(n.startswith("killed") for n in names)

    def test_thread_metadata_names_every_process(self):
        events = build_trace_events(_observed_run())
        thread_names = [
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == PID_PROCESSES
        ]
        assert "worker" in thread_names
        assert "faults" in thread_names


class TestContainer:
    def test_trace_is_sorted_and_json_serialisable(self, tmp_path):
        obs = _observed_run()
        trace = build_chrome_trace(obs)
        assert trace["displayTimeUnit"] == "ms"
        stamps = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert stamps == sorted(stamps)
        path = tmp_path / "run.json"
        written = write_chrome_trace(obs, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert loaded["traceEvents"]

    def test_empty_run_still_valid(self):
        trace = build_chrome_trace(Observability())
        json.dumps(trace)
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
