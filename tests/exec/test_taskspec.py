"""Tests for the TaskSpec layer: capture, reconstruction, digests."""

import pickle
import subprocess
import sys

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale
from repro.apps.synthetic import SyntheticApp
from repro.exec import (
    DistanceMonitorSpec,
    TaskSpec,
    TaskSpecError,
    build_app,
)
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.rtc.pjd import PJD


@pytest.fixture
def app():
    return ALL_APPLICATIONS[0](AppScale(), seed=42)


class TestCapture:
    def test_registry_app_round_trip(self, app):
        spec = TaskSpec.reference(app, 50, 7)
        rebuilt = build_app(spec)
        assert type(rebuilt) is type(app)
        assert rebuilt.seed == app.seed
        assert rebuilt.producer_model == app.producer_model
        assert list(rebuilt.replica_input_models) == list(
            app.replica_input_models
        )

    def test_minimized_app_round_trip(self, app):
        minimized = app.minimized()
        spec = TaskSpec.duplicated(minimized, 50, 7)
        rebuilt = build_app(spec)
        assert rebuilt.is_minimized
        assert rebuilt.producer_model == minimized.producer_model
        assert list(rebuilt.replica_input_models) == list(
            minimized.replica_input_models
        )

    def test_synthetic_app_round_trip(self):
        synth = SyntheticApp.bursty(seed=3)
        spec = TaskSpec.duplicated(synth, 50, 7)
        rebuilt = build_app(spec)
        assert rebuilt.name == synth.name
        assert rebuilt.producer_model == synth.producer_model
        assert list(rebuilt.replica_input_models) == list(
            synth.replica_input_models
        )
        assert rebuilt.consumer_model == synth.consumer_model

    def test_mutated_app_rejected(self, app):
        app.producer_model = PJD(123.0, 1.0, 100.0)
        with pytest.raises(TaskSpecError):
            TaskSpec.reference(app, 50, 7)

    def test_spec_pickles(self, app):
        spec = TaskSpec.duplicated(
            app, 50, 7, sizing=app.sizing(),
            fault=FaultSpec(replica=1, time=100.0, kind=FAIL_STOP),
            monitor=DistanceMonitorSpec(poll_interval=1.0, stop_time=50.0),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_sizing_ships_inside_spec(self, app):
        sizing = app.sizing()
        spec = TaskSpec.reference(app, 50, 7, sizing=sizing)
        shipped = pickle.loads(pickle.dumps(spec)).sizing
        assert shipped.replicator_capacities == sizing.replicator_capacities
        assert shipped.details == sizing.details


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(TaskSpecError):
            TaskSpec(kind="bogus", app="mjpeg", tokens=10, seed=1)

    def test_monitor_requires_record_events(self):
        with pytest.raises(TaskSpecError):
            TaskSpec(
                kind="duplicated", app="mjpeg", tokens=10, seed=1,
                monitor=DistanceMonitorSpec(poll_interval=1.0,
                                            stop_time=10.0),
            )

    def test_duplicated_classmethod_enables_recording(self, app):
        spec = TaskSpec.duplicated(
            app, 10, 1,
            monitor=DistanceMonitorSpec(poll_interval=1.0, stop_time=10.0),
        )
        assert spec.record_events

    def test_reference_takes_no_fault(self):
        with pytest.raises(TaskSpecError):
            TaskSpec(
                kind="reference", app="mjpeg", tokens=10, seed=1,
                fault=FaultSpec(replica=0, time=1.0, kind=FAIL_STOP),
            )


class TestDigest:
    def test_digest_stable_across_constructions(self, app):
        again = ALL_APPLICATIONS[0](AppScale(), seed=42)
        assert (
            TaskSpec.reference(app, 50, 7).digest()
            == TaskSpec.reference(again, 50, 7).digest()
        )

    def test_digest_differs_by_field(self, app):
        base = TaskSpec.reference(app, 50, 7)
        assert base.digest() != TaskSpec.reference(app, 50, 8).digest()
        assert base.digest() != TaskSpec.reference(app, 51, 7).digest()
        assert base.digest() != TaskSpec.duplicated(app, 50, 7).digest()

    def test_digest_sees_sizing_overrides(self, app):
        import dataclasses

        sizing = app.sizing()
        tweaked = dataclasses.replace(
            sizing, selector_threshold=sizing.selector_threshold + 1
        )
        assert (
            TaskSpec.reference(app, 50, 7, sizing=sizing).digest()
            != TaskSpec.reference(app, 50, 7, sizing=tweaked).digest()
        )

    def test_digest_stable_across_processes(self, app):
        spec = TaskSpec.duplicated(
            app, 50, 7, sizing=app.sizing(),
            fault=FaultSpec(replica=0, time=123.456, kind=FAIL_STOP),
        )
        script = (
            "import pickle, sys;"
            "spec = pickle.load(sys.stdin.buffer);"
            "print(spec.digest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(spec),
            capture_output=True,
            check=True,
        )
        assert out.stdout.decode().strip() == spec.digest()

    def test_hash_consistent_with_digest(self, app):
        a = TaskSpec.reference(app, 50, 7)
        b = TaskSpec.reference(app, 50, 7)
        assert hash(a) == hash(b)
        assert a == b
