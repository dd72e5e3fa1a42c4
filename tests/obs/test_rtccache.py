"""Tests for the RTC memo-effectiveness gauges."""

from repro.obs import (
    MetricsRegistry,
    record_rtc_cache_gauges,
    rtc_cache_stats,
    summarize_cache_gauges,
)
from repro.rtc.minplus import clear_curve_op_caches
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network


def _solve_once():
    producer = PJD(4.0, 1.0, 1.0)
    replicas = [PJD(4.0, 2.0, 1.0), PJD(4.0, 3.0, 1.0)]
    return size_duplicated_network(producer, replicas, replicas,
                                   PJD(4.0, 1.5, 1.0))


class TestCacheStats:
    def test_covers_every_memo_layer(self):
        stats = rtc_cache_stats()
        assert set(stats) == {
            "minplus_conv", "minplus_deconv", "maxplus_conv",
            "pjd_upper", "pjd_lower", "sizing",
        }
        for entry in stats.values():
            assert set(entry) == {"hits", "misses", "currsize"}

    def test_solving_moves_the_counters(self):
        from repro.rtc import sizing as sizing_mod

        from repro.rtc.minplus import min_plus_convolution

        clear_curve_op_caches()
        sizing_mod._size_duplicated_network_cached.cache_clear()
        before = rtc_cache_stats()
        _solve_once()
        _solve_once()  # identical call: served by the sizing cache
        upper = PJD(4.0, 1.0, 1.0).upper()
        min_plus_convolution(upper, upper, 20.0)
        min_plus_convolution(upper, upper, 20.0)
        after = rtc_cache_stats()
        assert after["pjd_upper"]["misses"] > before["pjd_upper"]["misses"]
        assert after["sizing"]["hits"] > before["sizing"]["hits"]
        assert after["minplus_conv"]["misses"] >= 1
        assert after["minplus_conv"]["hits"] >= 1


class TestGauges:
    def test_gauges_published(self):
        registry = MetricsRegistry()
        _solve_once()
        record_rtc_cache_gauges(registry)
        gauges = registry.snapshot()["gauges"]
        assert "rtc.cache.sizing.hits" in gauges
        assert "rtc.cache.total.misses" in gauges
        total = (gauges["rtc.cache.total.hits"]["max"]
                 + gauges["rtc.cache.total.misses"]["max"])
        per_cache = sum(
            gauges[f"rtc.cache.{name}.{field}"]["max"]
            for name in ("minplus_conv", "minplus_deconv", "maxplus_conv",
                         "pjd_upper", "pjd_lower", "sizing")
            for field in ("hits", "misses")
        )
        assert total == per_cache

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        record_rtc_cache_gauges(registry)
        assert registry.names() == []


class TestSummary:
    def test_summary_line_from_snapshot(self):
        registry = MetricsRegistry()
        _solve_once()
        record_rtc_cache_gauges(registry)
        line = summarize_cache_gauges(registry.snapshot())
        assert line is not None
        assert line.startswith("RTC solver memos:")
        assert "% hit rate" in line

    def test_summary_absent_without_gauges(self):
        assert summarize_cache_gauges({}) is None
