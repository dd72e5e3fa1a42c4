"""Tests for fault specifications."""

import math

import pytest

from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec


class TestFaultSpec:
    def test_defaults_fail_stop(self):
        spec = FaultSpec(replica=0, time=100.0)
        assert spec.kind == FAIL_STOP

    def test_rejects_bad_replica(self):
        with pytest.raises(ValueError):
            FaultSpec(replica=2, time=0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultSpec(replica=0, time=-1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(replica=0, time=0.0, kind="meltdown")

    def test_rejects_slowdown_below_one(self):
        with pytest.raises(ValueError):
            FaultSpec(replica=0, time=0.0, kind=RATE_DEGRADE, slowdown=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, value):
        with pytest.raises(ValueError, match="finite"):
            FaultSpec(replica=0, time=value)

    @pytest.mark.parametrize("kind", [FAIL_STOP, RATE_DEGRADE])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_slowdown(self, kind, value):
        with pytest.raises(ValueError, match="finite"):
            FaultSpec(replica=0, time=10.0, kind=kind, slowdown=value)

    def test_rate_degrade_valid(self):
        spec = FaultSpec(replica=1, time=5.0, kind=RATE_DEGRADE,
                         slowdown=3.0)
        assert spec.slowdown == 3.0

    def test_frozen(self):
        import dataclasses
        spec = FaultSpec(replica=0, time=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.time = 99.0
