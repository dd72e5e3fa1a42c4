"""Tests for the run timeline and the Observability bundle."""

from repro.core.detection import DetectionLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (
    TRANSITION_KINDS,
    Observability,
    RunTimeline,
)


class TestTransitions:
    def test_hook_records_in_order(self):
        timeline = RunTimeline()
        timeline.transition(0.0, "p", "start")
        timeline.transition(1.0, "p", "compute", 5.0)
        timeline.transition(6.0, "p", "block_read", "chan")
        assert [t.kind for t in timeline.transitions] == [
            "start", "compute", "block_read"
        ]
        assert timeline.transitions[1].detail == 5.0

    def test_process_names_preserve_first_seen_order(self):
        timeline = RunTimeline()
        timeline.transition(0.0, "b", "start")
        timeline.transition(0.0, "a", "start")
        timeline.transition(1.0, "b", "done")
        assert timeline.process_names() == ["b", "a"]

    def test_kind_vocabulary(self):
        assert "killed" in TRANSITION_KINDS
        assert "resume" in TRANSITION_KINDS


class TestFaultAccounting:
    def test_injection_lookup(self):
        timeline = RunTimeline()
        timeline.mark_injection(10.0, 0, "fail-stop", ("p1",))
        timeline.mark_injection(20.0, 1, "fail-stop")
        assert timeline.injection_for(0).time == 10.0
        assert timeline.injection_for(1).time == 20.0
        assert timeline.injection_for(0, before=5.0) is None

    def test_detection_latency_via_log(self):
        registry = MetricsRegistry()
        timeline = RunTimeline(registry)
        log = DetectionLog()
        timeline.watch(log)
        timeline.mark_injection(100.0, 0, "fail-stop")
        log.record(130.0, "selector", 0, "stall")
        assert timeline.detection_latency() == 30.0
        assert timeline.detection_latency(site="selector") == 30.0
        assert timeline.detection_latency(site="replicator") is None
        hist = registry.get("detect.latency_ms")
        assert hist.count == 1
        assert hist.max == 30.0
        assert registry.get("detect.reports").value == 1

    def test_pre_injection_reports_do_not_count_as_latency(self):
        timeline = RunTimeline()
        log = DetectionLog()
        timeline.watch(log)
        log.record(5.0, "selector", 0, "stall")  # before any injection
        timeline.mark_injection(100.0, 0, "fail-stop")
        assert timeline.detection_latency() is None
        assert len(timeline.detections) == 1

    def test_unwatch_via_detection_log_unsubscribe(self):
        timeline = RunTimeline()
        log = DetectionLog()
        timeline.watch(log)
        log.unsubscribe(timeline.on_report)
        log.record(1.0, "selector", 0, "stall")
        assert timeline.detections == []


class TestObservability:
    def test_default_bundle_shares_its_registry(self):
        obs = Observability()
        assert obs.timeline.registry is obs.registry
