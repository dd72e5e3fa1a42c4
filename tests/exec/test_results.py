"""Tests for the flat task result."""

from repro.core.detection import FaultReport
from repro.exec import KIND_DUPLICATED, TaskResult


class TestDetectionLatency:
    def test_a_report_against_the_healthy_replica_is_no_detection(self):
        # Replica 1 is implicated after the injection, but the stored
        # site latencies (faulted replica only) are empty.
        result = TaskResult(
            kind=KIND_DUPLICATED,
            injected_at=10.0,
            detections=[FaultReport(12.0, "selector", 1, "divergence")],
        )
        assert result.detection_latency() is None

    def test_no_site_takes_the_earlier_site(self):
        result = TaskResult(kind=KIND_DUPLICATED, injected_at=10.0,
                            latency_selector=7.0, latency_replicator=3.0)
        assert result.detection_latency() == 3.0
        assert result.detection_latency("selector") == 7.0
        assert result.detection_latency("replicator") == 3.0
        assert TaskResult(kind=KIND_DUPLICATED).detection_latency() is None
