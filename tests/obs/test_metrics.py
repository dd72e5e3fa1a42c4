"""Tests for the metrics registry and its instruments."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.chrometrace import build_chrome_trace
from repro.obs.metrics import (
    FOLD_SIZE,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.timeline import Observability

SERIES_STATE = ("times", "values", "_stride", "_skip", "count", "min",
                "max", "last")


def _state(series):
    return {name: getattr(series, name) for name in SERIES_STATE}


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

    @given(
        values=st.lists(st.integers(min_value=-50, max_value=50),
                        max_size=300),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=12),
        max_samples=st.integers(min_value=2, max_value=9),
    )
    def test_extend_matches_append_over_any_chunking(
            self, values, cuts, max_samples):
        times = [float(i) for i in range(len(values))]
        appended = TimeSeries("a", max_samples=max_samples)
        for time, value in zip(times, values):
            appended.append(time, value)
        extended = TimeSeries("e", max_samples=max_samples)
        bounds = [0, *sorted(min(cut, len(values)) for cut in cuts),
                  len(values)]
        for start, stop in zip(bounds, bounds[1:]):
            extended.extend(tuple(times[start:stop]),
                            tuple(values[start:stop]))
        assert _state(extended) == _state(appended)

    def test_extend_continues_an_appended_series(self):
        appended = TimeSeries("a", max_samples=4)
        mixed = TimeSeries("m", max_samples=4)
        for i in range(37):
            appended.append(float(i), i % 5)
            if i < 10:
                mixed.append(float(i), i % 5)
        mixed.extend(tuple(float(i) for i in range(10, 37)),
                     tuple(i % 5 for i in range(10, 37)))
        assert _state(mixed) == _state(appended)


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


class TestSeriesRows:
    """Rows buffered by a channel are visible to every registry read."""

    def _buffered(self):
        obs = Observability()
        rows = obs.registry.series_rows("chan.c.fill", "chan.c.space_1")
        rows.extend((1.0, 2, 5))
        rows.extend((2.0, 3, 4))
        return obs, rows

    def test_get_folds(self):
        obs, rows = self._buffered()
        fill = obs.registry.get("chan.c.fill")
        assert fill.samples() == [(1.0, 2), (2.0, 3)]
        assert obs.registry.get("chan.c.space_1").min == 4
        assert not rows

    def test_snapshot_folds(self):
        obs, _ = self._buffered()
        series = obs.registry.snapshot()["series"]
        assert series["chan.c.fill"]["count"] == 2
        assert series["chan.c.space_1"]["last"] == 4

    def test_chrome_trace_folds(self):
        obs, _ = self._buffered()
        counters = [event for event in build_chrome_trace(obs)["traceEvents"]
                    if event["ph"] == "C"]
        assert [(event["name"], event["args"]["value"])
                for event in counters] == [
            ("chan.c.fill", 2), ("chan.c.space_1", 5),
            ("chan.c.fill", 3), ("chan.c.space_1", 4),
        ]

    def test_rows_feed_preregistered_series(self):
        registry = MetricsRegistry()
        series = registry.timeseries("chan.c.fill", max_samples=2)
        rows = registry.series_rows("chan.c.fill")
        for i in range(5):
            rows.extend((float(i), i))
        assert registry.get("chan.c.fill") is series
        assert series.count == 5 and series._stride > 1

    def test_channel_folds_at_the_buffer_bound(self):
        from repro.core.replicator import ReplicatorChannel
        from repro.kpn.tokens import Token

        registry = MetricsRegistry()
        channel = ReplicatorChannel("rep", (2, 2), metrics=registry)
        divergence = registry.timeseries("chan.rep.divergence")
        cycles = FOLD_SIZE // 5  # 3 rows of 4 values per cycle
        for i in range(cycles):
            channel.poll_write(0, Token(i, seqno=i), float(i))
            channel.poll_read(0, float(i))
            channel.poll_read(1, float(i))
        # The channel folded on its own, with no registry read.
        assert divergence.count > 0
        assert 0 < len(channel._rows) < FOLD_SIZE
        assert divergence.count + len(channel._rows) // 4 == 3 * cycles
        assert registry.get("chan.rep.divergence").count == 3 * cycles
