"""Unit tests for the mergeable metric sketches and the registry's
wire form.

The Hypothesis merge-algebra properties (associativity, commutativity)
live in ``tests/properties/test_sketch_properties.py``; this file pins
the concrete contract: bin grid, quantile clamping, zero handling,
serialisation round-trips, the snapshot merge semantics and what
``MetricsRegistry.from_dict`` rejects.
"""

import json
import math

import pytest

from repro.obs.metrics import (
    GAMMA,
    MAX_BIN,
    MIN_BIN,
    SNAPSHOT_SCHEMA,
    LogHistogramSketch,
    MetricsRegistry,
)


class TestLogHistogramSketch:
    def test_empty_sketch(self):
        sketch = LogHistogramSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) is None
        assert sketch.mean is None
        assert sketch.percentiles()["p95"] is None

    def test_exact_count_sum_min_max(self):
        values = [3.0, 0.4, 120.0, 7.5, 0.4]
        sketch = LogHistogramSketch()
        for value in values:
            sketch.observe(value)
        assert sketch.count == len(values)
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_quantile_endpoints_are_exact(self):
        sketch = LogHistogramSketch()
        for value in (1.7, 42.0, 0.03, 9.9):
            sketch.observe(value)
        assert sketch.quantile(0.0) == 0.03
        assert sketch.quantile(1.0) == 42.0

    def test_quantile_within_one_bin(self):
        # The bin midpoint mis-states a value by at most sqrt(γ) - 1.
        values = sorted(1.5 ** k for k in range(20))
        sketch = LogHistogramSketch()
        for value in values:
            sketch.observe(value)
        exact_median = values[(len(values) - 1) // 2]
        approx = sketch.quantile(0.5)
        assert approx == pytest.approx(
            exact_median, rel=math.sqrt(GAMMA) - 1 + 1e-9
        )

    def test_single_observation_all_quantiles(self):
        sketch = LogHistogramSketch()
        sketch.observe(12.5)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert sketch.quantile(q) == 12.5

    def test_non_positive_values_use_zero_bin(self):
        sketch = LogHistogramSketch()
        sketch.observe(0.0)
        sketch.observe(-3.0)
        sketch.observe(5.0)
        assert sketch.zero == 2
        assert sketch.count == 3
        assert sketch.min == -3.0
        assert sketch.quantile(0.0) == -3.0
        assert sketch.quantile(1.0) == 5.0

    def test_bin_index_clamps_to_fixed_universe(self):
        assert LogHistogramSketch.bin_index(1e-300) == MIN_BIN
        assert LogHistogramSketch.bin_index(1e300) == MAX_BIN

    def test_quantile_rejects_out_of_range(self):
        sketch = LogHistogramSketch()
        sketch.observe(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_merge_equals_union(self):
        left, right, union = (LogHistogramSketch() for _ in range(3))
        for value in (0.5, 3.0, 3.1):
            left.observe(value)
            union.observe(value)
        for value in (80.0, 0.0):
            right.observe(value)
            union.observe(value)
        merged = LogHistogramSketch().merge(left).merge(right)
        assert merged == union
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert merged.quantile(q) == union.quantile(q)

    def test_dict_roundtrip_through_json(self):
        sketch = LogHistogramSketch()
        for value in (0.0, 0.2, 5.0, 5.0, 1234.5):
            sketch.observe(value)
        payload = json.loads(json.dumps(sketch.as_dict()))
        back = LogHistogramSketch.from_dict(payload)
        assert back == sketch
        assert back.sum == pytest.approx(sketch.sum)
        assert back.quantile(0.95) == sketch.quantile(0.95)


def _payload():
    metrics = MetricsRegistry()
    metrics.counter("sim.events").inc(420)
    metrics.gauge("eps").set(100.0)
    metrics.histogram("detect.latency_ms").observe(12.5)
    return json.loads(json.dumps(metrics.snapshot()))


class TestRegistrySnapshot:
    def test_empty_snapshot(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot == {"schema": SNAPSHOT_SCHEMA, "counters": {},
                            "gauges": {}, "sketches": {}, "series": {}}
        assert MetricsRegistry.from_dict(snapshot).names() == []

    def test_counters_add_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("tasks").inc(2)
        b.counter("tasks").inc(3)
        b.counter("errors").inc()
        a.merge(b)
        assert a.counters == {"errors": 1, "tasks": 5}

    def test_gauges_merge_min_max_mean(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("eps").set(10.0)
        for value in (30.0, 20.0):
            b.gauge("eps").set(value)
        stat = a.merge(b).snapshot()["gauges"]["eps"]
        assert stat["min"] == 10.0
        assert stat["max"] == 30.0
        assert stat["sum"] / stat["n"] == pytest.approx(20.0)

    def test_merge_does_not_alias_other(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.gauge("g").set(1.0)
        b.histogram("lat").observe(2.0)
        a.merge(b)
        a.gauge("g").set(99.0)
        a.histogram("lat").observe(99.0)
        assert b.gauge("g").max == 1.0
        assert b.get("lat").count == 1

    def test_dict_roundtrip(self):
        payload = _payload()
        assert payload["schema"] == SNAPSHOT_SCHEMA
        back = MetricsRegistry.from_dict(payload)
        assert back.snapshot() == payload

    def test_percentile_digests(self):
        metrics = MetricsRegistry()
        for value in (5.0, 10.0, 20.0):
            metrics.histogram("detect.latency_ms").observe(value)
        digest = metrics.percentile_digests()["detect.latency_ms"]
        assert digest["count"] == 3
        assert digest["min"] == 5.0
        assert digest["max"] == 20.0


class TestFromDictRejects:
    def test_wrong_schema(self):
        payload = dict(_payload(), schema="repro.metrics-snapshot/2")
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry.from_dict(payload)

    @pytest.mark.parametrize("key", ["counters", "gauges", "sketches"])
    def test_missing_section(self, key):
        payload = _payload()
        del payload[key]
        with pytest.raises(ValueError, match=key):
            MetricsRegistry.from_dict(payload)

    def test_missing_sketch_field(self):
        payload = _payload()
        del payload["sketches"]["detect.latency_ms"]["zero"]
        with pytest.raises(ValueError, match="zero"):
            MetricsRegistry.from_dict(payload)

    @pytest.mark.parametrize("path", [
        ("counters", "sim.events"),
        ("gauges", "eps", "n"),
        ("sketches", "detect.latency_ms", "zero"),
    ])
    def test_negative_count(self, path):
        payload = _payload()
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = -1
        with pytest.raises(ValueError, match="non-negative"):
            MetricsRegistry.from_dict(payload)

    def test_non_empty_sketch_without_extrema(self):
        payload = _payload()
        payload["sketches"]["detect.latency_ms"]["max"] = None
        with pytest.raises(ValueError, match="min/max"):
            MetricsRegistry.from_dict(payload)

    def test_count_without_bins(self):
        # count=3 with no bins would make quantile(0.5) answer max.
        payload = _payload()
        payload["sketches"]["detect.latency_ms"].update(
            {"bins": {}, "count": 3})
        with pytest.raises(ValueError, match="zero \\+ bins"):
            MetricsRegistry.from_dict(payload)
