"""Tests for the metrics registry and its instruments."""

import pytest

from repro.obs.metrics import (
    DISABLED,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeSeries,
)


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_set_tracks_extrema(self):
        gauge = Gauge("g")
        for value in (3.0, -1.0, 7.0):
            gauge.set(value)
        assert gauge.value == 7.0
        assert gauge.min == -1.0
        assert gauge.max == 7.0
        assert gauge.n == 3
        assert gauge.sum == 9.0
        # The last write is in-process only: it does not merge.
        assert gauge.as_dict() == {"min": -1.0, "max": 7.0, "sum": 9.0,
                                   "n": 3}


class TestHistogram:
    def test_empty_mean_is_none(self):
        assert MetricsRegistry().histogram("h").mean is None

    def test_registry_histogram_is_the_log_sketch(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.5, 5.0, 5.5, 100.0):
            hist.observe(value)
        assert hist.kind == "sketch"
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(111.0 / 4)


class TestTimeSeries:
    def test_append_and_samples(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        series.append(2.0, 2.0)
        assert series.samples() == [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
        assert series.min == 1.0
        assert series.max == 3.0
        assert series.last == 2.0
        assert series.count == 3

    def test_decimation_bounds_memory_but_keeps_extrema(self):
        series = TimeSeries("s", max_samples=8)
        peak_time = 500
        for i in range(1000):
            value = 1000.0 if i == peak_time else float(i % 7)
            series.append(float(i), value)
        assert len(series.times) < 8 * 2  # bounded despite 1000 appends
        assert series.count == 1000
        assert series.max == 1000.0  # exact even if the sample decimated
        assert series.min == 0.0

    def test_decimation_keeps_time_order(self):
        series = TimeSeries("s", max_samples=4)
        for i in range(100):
            series.append(float(i), float(i))
        assert series.times == sorted(series.times)

    def test_max_samples_floor(self):
        with pytest.raises(ValueError):
            TimeSeries("s", max_samples=1)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="x"):
            registry.gauge("x")

    def test_names_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]
        assert "a" in registry
        assert "zzz" not in registry
        assert registry.get("zzz") is None

    def test_snapshot_is_plain_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.5)
        registry.timeseries("t").append(0.0, 4.0)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must be serialisable as-is
        assert snapshot["schema"] == "repro.metrics-snapshot/1"
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"]["g"] == {"min": 3.0, "max": 3.0,
                                           "sum": 3.0, "n": 1}
        assert snapshot["sketches"]["h"]["count"] == 1
        assert snapshot["series"]["t"]["max"] == 4.0

    def test_series_stay_out_of_the_merge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.timeseries("t").append(0.0, 4.0)
        back = MetricsRegistry.from_dict(registry.snapshot())
        assert back.names() == ["c"]


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.histogram("b")  # one shared null object
        counter.inc()
        counter.set(3.0)
        counter.observe(1.0)
        counter.append(0.0, 1.0)
        assert registry.names() == []
        assert registry.snapshot() == MetricsRegistry().snapshot()

    def test_module_singleton_is_disabled(self):
        assert DISABLED.enabled is False
        DISABLED.counter("x").inc()
        assert DISABLED.names() == []
