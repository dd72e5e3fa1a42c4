"""Tests for the run-report builder, schema and renderer."""

import json

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.experiments.runner import fault_time_for, run_duplicated
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.obs import (
    MetricsRegistry,
    Observability,
    SCHEMA_ID,
    build_run_report,
    render_report,
    validate_report,
)
from repro.obs.metrics import TimeSeries
from repro.obs.report import series_peak


@pytest.fixture(scope="module")
def faulted_report():
    app = SyntheticApp(seed=11)
    sizing = app.sizing()
    warmup = 30
    fault = FaultSpec(replica=0,
                      time=fault_time_for(app, warmup, phase=0.4),
                      kind=FAIL_STOP)
    obs = Observability()
    run = run_duplicated(app, warmup + 30, 11, fault=fault,
                         sizing=sizing, obs=obs)
    return build_run_report(run, sizing, app.name, warmup + 30, 11,
                            fault=fault)


@pytest.fixture(scope="module")
def clean_report():
    app = SyntheticApp(seed=4)
    sizing = app.sizing()
    obs = Observability()
    run = run_duplicated(app, 40, 4, sizing=sizing, obs=obs)
    return build_run_report(run, sizing, app.name, 40, 4)


class TestBuildRunReport:
    def test_validates_against_schema(self, faulted_report, clean_report):
        validate_report(faulted_report)
        validate_report(clean_report)

    def test_is_json_serialisable(self, faulted_report):
        json.dumps(faulted_report)

    def test_framework_channels_use_sizing_capacities(self, faulted_report):
        channels = {c["name"]: c for c in faulted_report["channels"]}
        assert channels["replicator.R1"]["capacity"] >= 1
        assert channels["selector.S"]["capacity"] >= 1
        for chan in channels.values():
            if chan["within_capacity"] is not None:
                assert chan["max_fill"] <= chan["capacity"]

    def test_divergence_headroom_is_fault_free(self, faulted_report):
        for entry in faulted_report["divergence"]:
            assert entry["peak"] is not None
            # Pre-injection peaks must respect the zero-false-positive
            # guarantee of Eq. 5 (D strictly exceeds fault-free peaks).
            assert entry["peak"] < entry["threshold"]
            assert entry["headroom"] == entry["threshold"] - entry["peak"]

    def test_detection_within_bound(self, faulted_report):
        det = faulted_report["detection"]
        assert det["injected"] and det["detected"]
        assert det["latency_ms"] >= 0.0
        assert det["bound_ms"] > 0.0
        assert det["within_bound"] is True
        assert det["site"] in ("replicator", "selector")

    def test_clean_run_has_no_detection(self, clean_report):
        det = clean_report["detection"]
        assert det["injected"] is False
        assert det["detected"] is False
        assert det["latency_ms"] is None
        assert clean_report["meta"]["fault"] is None

    def test_metrics_snapshot_embedded(self, faulted_report):
        metrics = faulted_report["metrics"]
        assert metrics["counters"]["sim.events"] > 0
        # One histogram type end to end: the run report carries the same
        # mergeable sketch the ledger does.
        latency = metrics["sketches"]["detect.latency_ms"]
        assert latency["kind"] == "sketch" and latency["count"] >= 1
        assert MetricsRegistry.from_dict(metrics).counters == \
            metrics["counters"]

    def test_unobserved_run_still_reports(self):
        app = SyntheticApp(seed=2)
        sizing = app.sizing()
        run = run_duplicated(app, 30, 2, sizing=sizing)
        report = build_run_report(run, sizing, app.name, 30, 2)
        validate_report(report)
        assert report["metrics"] == {}
        assert all(d["peak"] is None for d in report["divergence"])


class TestReportDependsOnlyOnTheRun:
    def test_identical_runs_report_identically(self):
        # Process-lifetime state (memo hit counts of the RTC solvers) must
        # not leak into a report: a sizing solved in between changes
        # nothing.
        def report_text():
            app = SyntheticApp(seed=3)
            sizing = app.sizing()
            run = run_duplicated(app, 100, 3, sizing=sizing,
                                 obs=Observability())
            report = build_run_report(run, sizing, app.name, 100, 3)
            report["throughput"].pop("wall_time_s")
            report["throughput"].pop("events_per_sec")
            return json.dumps(report, sort_keys=True)

        before = report_text()
        SyntheticApp(seed=5).sizing()
        assert report_text() == before


class TestValidateReport:
    def test_schema_id_checked(self, clean_report):
        bad = dict(clean_report, schema="other/9")
        with pytest.raises(ValueError, match=SCHEMA_ID.replace("/", "/")):
            validate_report(bad)

    def test_missing_key_named_in_error(self, clean_report):
        bad = json.loads(json.dumps(clean_report))
        del bad["throughput"]["events"]
        with pytest.raises(ValueError, match="throughput.events"):
            validate_report(bad)

    def test_wrong_type_named_in_error(self, clean_report):
        bad = json.loads(json.dumps(clean_report))
        bad["channels"][0]["max_fill"] = "lots"
        with pytest.raises(ValueError, match=r"channels\[0\].max_fill"):
            validate_report(bad)

    def test_bool_does_not_satisfy_int(self, clean_report):
        bad = json.loads(json.dumps(clean_report))
        bad["meta"]["tokens"] = True
        with pytest.raises(ValueError, match="meta.tokens"):
            validate_report(bad)


class TestRenderReport:
    def test_mentions_key_sections(self, faulted_report):
        text = render_report(faulted_report)
        assert "Channel fill vs theoretical capacity" in text
        assert "Divergence headroom" in text
        assert "within bound" in text

    def test_clean_run_rendering(self, clean_report):
        text = render_report(clean_report)
        assert "fault=none" in text
        assert "no fault injected" in text

    def test_renders_unobserved_throughput(self, clean_report):
        # A run without stats (e.g. replayed from a trace file) reports
        # None for the host-side throughput fields; the renderer must
        # degrade to "?" instead of crashing on format(None, '.1f').
        report = json.loads(json.dumps(clean_report))
        report["throughput"]["end_time_ms"] = None
        report["throughput"]["wall_time_s"] = None
        report["throughput"]["events_per_sec"] = None
        text = render_report(report)
        assert "t=? ms" in text
        assert "(? events/s host)" in text


class TestSeriesPeak:
    """The pre-injection divergence peak: samples strictly before the
    cutoff only."""

    def _series(self):
        series = TimeSeries("chan.s.divergence")
        for time, value in [(0.0, 1), (1.0, 2), (2.0, 7), (2.0, 9),
                            (3.0, 4), (5.0, 11)]:
            series.append(time, value)
        return series

    def test_cutoff_on_a_sample_time_excludes_that_sample(self):
        series = self._series()
        assert series_peak(series, 2.0) == 2
        assert series_peak(series, 5.0) == 9
        assert series_peak(series, 0.0) is None

    def test_matches_a_scan_of_every_sample(self):
        series = self._series()
        for cutoff in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 6.0):
            before = [value for time, value
                      in zip(series.times, series.values) if time < cutoff]
            assert series_peak(series, cutoff) == (
                max(before) if before else None)
        assert series_peak(series) == 11
