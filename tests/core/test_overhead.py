"""Tests for overhead accounting (Table 2 overhead block)."""

import pytest

from repro.core.overhead import (
    OpCounter,
    OverheadModel,
    replicator_overhead,
    selector_overhead,
)


class TestOverheadModel:
    def test_runtime_conversion(self):
        model = OverheadModel(tile_frequency_hz=500e6,
                              cycles_per_primitive_op=500)
        # 10 ops * 500 cycles / 500 MHz = 10 us.
        assert model.runtime_us(10) == pytest.approx(10.0)

    def test_paper_defaults(self):
        model = OverheadModel()
        assert model.tile_frequency_hz == 533e6
        assert model.replicator_code_bytes < model.selector_code_bytes


class TestReports:
    def test_replicator_report_matches_paper_structure(self):
        model = OverheadModel()
        # 100 tokens, 5 primitive ops each.
        counter = OpCounter(operations=500, calls=100)
        report = replicator_overhead(
            model, counter, capacities=(2, 3), token_bytes=10 * 1024,
            tokens_transferred=100, app_code_bytes=300 * 1024,
            period_ms=30.0,
        )
        assert report.token_slots == 5  # |R1| + |R2|
        assert report.memory_fraction_of_app == pytest.approx(
            1536 / (300 * 1024)
        )
        # MJPEG: the paper reports ~0.5 % memory and ~0.01 % runtime.
        assert 0.003 < report.memory_fraction_of_app < 0.007
        assert report.runtime_fraction_of_period < 0.001

    def test_selector_report(self):
        model = OverheadModel()
        counter = OpCounter(operations=450, calls=50)
        report = selector_overhead(
            model, counter, capacities=(5, 6), token_bytes=76800,
            tokens_transferred=50, app_code_bytes=300 * 1024,
            period_ms=30.0,
        )
        assert report.token_slots == 11
        assert report.per_token_us > 0
        assert "KB" in report.memory_description()
        assert "us" in report.runtime_description()

    def test_zero_tokens_no_division_error(self):
        model = OverheadModel()
        report = replicator_overhead(
            model, OpCounter(), (1, 1), 100, 0, 1000, 10.0
        )
        assert report.per_token_us == 0.0
