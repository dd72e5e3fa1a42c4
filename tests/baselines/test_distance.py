"""Tests for the distance-function monitor."""

import pytest

from repro.baselines.distance import (
    DistanceBounds,
    DistanceFunctionMonitor,
    l_repetitive_bounds,
)
from repro.kpn.network import Network
from repro.kpn.process import PeriodicSource, RecordingSink
from repro.kpn.simulator import Simulator
from repro.kpn.trace import ChannelTrace
from repro.rtc.pjd import PJD


class TestLRepetitiveBounds:
    def test_l1_bounds(self):
        bounds = l_repetitive_bounds(PJD(10.0, 4.0, 10.0), margin=0.0)
        assert bounds.d_max == 14.0

    def test_jitter_free(self):
        bounds = l_repetitive_bounds(PJD(10.0), margin=0.0)
        assert bounds.d_max == 10.0


def run_monitored(source_timing, monitor_bounds, tokens=20,
                  poll=1.0, kill_at=None, stop=400.0):
    net = Network("t")
    recorder = net.recorder
    recorder.record_events = True
    src = net.add_process(PeriodicSource("src", source_timing, tokens,
                                         seed=1))
    snk = net.add_process(RecordingSink("snk"))
    fifo = net.add_fifo("f", 64)
    fifo.trace.record_events = True
    src.output = fifo.writer
    snk.input = fifo.reader
    monitor = DistanceFunctionMonitor(
        "mon", poll_interval=poll, stop_time=stop,
        streams=[fifo.trace], bounds=[monitor_bounds],
    )
    net.add_process(monitor)
    sim = net.instantiate()
    if kill_at is not None:
        sim.schedule_at(kill_at, lambda: sim.kill("src"))
    sim.run(max_events=100_000)
    return monitor


class TestDistanceFunctionMonitor:
    def test_no_false_positive_on_conforming_stream(self):
        model = PJD(10.0, 4.0, 10.0)
        monitor = run_monitored(model, l_repetitive_bounds(model),
                                tokens=30, stop=290.0)
        assert monitor.detections == []
        assert monitor.polls > 0

    def test_detects_fail_stop(self):
        model = PJD(10.0, 0.0, 10.0)
        monitor = run_monitored(model, l_repetitive_bounds(model),
                                tokens=100, kill_at=55.0)
        assert len(monitor.detections) == 1
        detection = monitor.detections[0]
        # Last event at t = 50; d_max = 10; 1 ms polls -> detect at 61.
        assert detection.time == pytest.approx(61.0, abs=0.6)

    def test_detection_latency_includes_polling(self):
        model = PJD(10.0, 0.0, 10.0)
        coarse = run_monitored(model, l_repetitive_bounds(model),
                               tokens=100, kill_at=55.0, poll=7.0)
        fine = run_monitored(model, l_repetitive_bounds(model),
                             tokens=100, kill_at=55.0, poll=0.5)
        assert coarse.detections[0].time >= fine.detections[0].time

    def test_not_armed_before_first_event(self):
        model = PJD(50.0, 0.0, 50.0)
        monitor = run_monitored(
            model, l_repetitive_bounds(model), tokens=3, stop=100.0
        )
        # First event only at t = 0... the startup gap never flags.
        assert all(
            d.reason.startswith("gap") is False for d in monitor.detections
        ) or monitor.detections == []

    def test_bounds_arity_checked(self):
        with pytest.raises(ValueError):
            DistanceFunctionMonitor(
                "mon", 1.0, 10.0, [ChannelTrace("a"), ChannelTrace("b")],
                bounds=[l_repetitive_bounds(PJD(10.0))],
            )

    def test_first_detection_filter(self):
        model = PJD(10.0, 0.0, 10.0)
        monitor = run_monitored(model, l_repetitive_bounds(model),
                                tokens=100, kill_at=55.0)
        assert monitor.first_detection(stream=0) is not None
        assert monitor.first_detection(stream=5) is None
