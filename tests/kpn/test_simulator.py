"""Tests for the discrete-event engine."""

import pytest

from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.operations import Delay, Halt, Read, Write
from repro.kpn.process import Process
from repro.kpn.simulator import ProcessState, Simulator


class Ticker(Process):
    """Delays `step` repeatedly, recording wake times."""

    def __init__(self, name, step, count):
        super().__init__(name)
        self.step = step
        self.count = count
        self.wakes = []

    def behavior(self):
        for _ in range(self.count):
            yield Delay(self.step)
            self.wakes.append(self.now)


class Halter(Process):
    def behavior(self):
        yield Delay(1.0)
        yield Halt()
        yield Delay(100.0)  # must never run


class BadOpProcess(Process):
    def behavior(self):
        yield "not-an-operation"


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_delay_advances_time(self):
        sim = Simulator()
        ticker = Ticker("t", 2.5, 4)
        sim.register(ticker)
        stats = sim.run()
        assert ticker.wakes == [2.5, 5.0, 7.5, 10.0]
        assert stats.end_time == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_tie_breaking_is_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_early(self):
        sim = Simulator()
        ticker = Ticker("t", 1.0, 100)
        sim.register(ticker)
        stats = sim.run(until=10.0)
        assert stats.end_time <= 10.0
        assert len(ticker.wakes) == 10

    def test_max_events_cap(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 100))
        stats = sim.run(max_events=5)
        assert stats.halted_on_limit is True
        assert stats.events == 5

    def test_step_by_step(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 2))
        steps = 0
        while sim.step():
            steps += 1
        assert steps >= 3  # start + two delays

    def test_event_count_accumulates(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 3))
        sim.run()
        assert sim.event_count >= 4


class TestProcessLifecycle:
    def test_duplicate_name_rejected(self):
        sim = Simulator()
        sim.register(Ticker("same", 1.0, 1))
        with pytest.raises(ProtocolError):
            sim.register(Ticker("same", 1.0, 1))

    def test_done_after_exhaustion(self):
        sim = Simulator()
        handle = sim.register(Ticker("t", 1.0, 1))
        sim.run()
        assert handle.state is ProcessState.DONE
        assert not handle.alive

    def test_halt_terminates(self):
        sim = Simulator()
        halter = Halter("h")
        handle = sim.register(halter)
        stats = sim.run()
        assert handle.state is ProcessState.DONE
        assert stats.end_time == 1.0

    def test_kill_prevents_further_execution(self):
        sim = Simulator()
        ticker = Ticker("t", 1.0, 100)
        sim.register(ticker)
        sim.schedule(5.5, lambda: sim.kill("t"))
        sim.run()
        assert len(ticker.wakes) == 5

    def test_kill_done_process_is_noop(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 1))
        sim.run()
        sim.kill("t")  # must not raise

    def test_unknown_operation_raises(self):
        sim = Simulator()
        sim.register(BadOpProcess("bad"))
        with pytest.raises(ProtocolError):
            sim.run()

    def test_live_processes_listing(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 2))
        assert sim.live_processes() == ["t"]
        sim.run()
        assert sim.live_processes() == []

    def test_handle_lookup(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 1))
        assert sim.handle("t").name == "t"


class SelfKiller(Process):
    """Kills itself mid-execution — the generator is running when
    ``kill`` tries to close it."""

    def __init__(self, name):
        super().__init__(name)
        self.steps = []

    def behavior(self):
        yield Delay(1.0)
        self.steps.append(self.now)
        self._sim.kill(self.name)
        yield Delay(1.0)  # must never complete
        self.steps.append(self.now)


class TestKillTiming:
    def test_self_kill_mid_execution(self):
        sim = Simulator()
        killer = SelfKiller("k")
        handle = sim.register(killer)
        sim.run()  # must not raise from generator.close()
        assert killer.steps == [1.0]
        assert handle.state is ProcessState.KILLED

    def test_kill_at_exact_advance_instant(self):
        # The kill callback and the ticker's resume share the instant
        # t=5.0; the callback was scheduled first (smaller sequence
        # number), so it fires first and the 5.0 wake must be dropped.
        sim = Simulator()
        ticker = Ticker("t", 1.0, 100)
        sim.register(ticker)
        sim.schedule(5.0, lambda: sim.kill("t"))
        sim.run()
        assert ticker.wakes == [1.0, 2.0, 3.0, 4.0]

    def test_kill_parked_process(self):
        from repro.kpn.channel import Fifo
        from repro.kpn.tokens import Token

        class BlockedWriter(Process):
            def __init__(self, name, endpoint):
                super().__init__(name)
                self.endpoint = endpoint

            def behavior(self):
                yield Write(
                    self.endpoint, Token(value=1, seqno=1, stamp=0.0)
                )
                yield Write(
                    self.endpoint, Token(value=2, seqno=2, stamp=0.0)
                )

        sim = Simulator()
        fifo = Fifo("f", 1)
        fifo.bind(sim)
        writer = BlockedWriter("w", fifo.writer)
        handle = sim.register(writer)
        sim.schedule(1.0, lambda: sim.kill("w"))
        sim.run()
        assert handle.state is ProcessState.KILLED
        assert fifo.fill == 1  # second write never committed


class TestRunStats:
    def test_throughput_reported(self):
        sim = Simulator()
        sim.register(Ticker("t", 1.0, 50))
        stats = sim.run()
        assert stats.wall_time_s > 0.0
        assert stats.events_per_sec > 0.0
        # events/sec must be consistent with the other two fields.
        assert stats.events_per_sec == pytest.approx(
            stats.events / stats.wall_time_s
        )

    def test_zero_duration_run_reports_zero_rate(self, monkeypatch):
        # On coarse clocks (or an empty scenario) the run loop can start
        # and finish within one perf_counter tick; events/sec must report
        # 0.0 rather than dividing by zero.
        import repro.kpn.simulator as sim_mod

        monkeypatch.setattr(sim_mod, "perf_counter", lambda: 42.0)
        stats = Simulator().run()
        assert stats.events == 0
        assert stats.wall_time_s == 0.0
        assert stats.events_per_sec == 0.0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulator()
            tickers = [Ticker(f"t{i}", 1.0 + i * 0.1, 20) for i in range(5)]
            sim.register_all(tickers)
            sim.run()
            return [tuple(t.wakes) for t in tickers]

        assert run_once() == run_once()


def _pipeline():
    """A jittered source feeding a consumer through a 4-slot FIFO."""
    from repro.kpn.network import Network
    from repro.kpn.process import PeriodicConsumer, PeriodicSource
    from repro.rtc.pjd import PJD

    net = Network("resume")
    src = net.add_process(PeriodicSource("P", PJD(1.0, 0.1, 1.0), 50, seed=3))
    snk = net.add_process(
        PeriodicConsumer("C", PJD(1.0, 0.1, 1.0), 50, seed=5)
    )
    fifo = net.add_fifo("f", 4)
    src.output = fifo.writer
    snk.input = fifo.reader
    return snk, net.instantiate()


class TestResume:
    """A run cut short by ``until`` or ``max_events`` leaves its pending
    events queued; the next ``run()`` continues exactly where it left
    off, as if the run had never been split."""

    def test_split_on_max_events_matches_one_run(self):
        snk_split, sim_split = _pipeline()
        first = sim_split.run(max_events=40)
        assert first.halted_on_limit
        second = sim_split.run()

        snk_whole, sim_whole = _pipeline()
        whole = sim_whole.run()

        assert snk_split.tokens == snk_whole.tokens
        assert first.events + second.events == whole.events
        assert second.end_time == whole.end_time

    def test_split_on_until_resumes_pending_events_in_order(self):
        sim = Simulator()
        order = []
        for time, label in ((3.0, "c"), (1.0, "a"), (3.0, "d"), (2.0, "b"),
                            (7.0, "e")):
            sim.schedule_at(time, lambda label=label: order.append(label))
        stats = sim.run(until=2.5)
        assert order == ["a", "b"]
        assert stats.events == 2 and not stats.halted_on_limit
        sim.run()
        assert order == ["a", "b", "c", "d", "e"]
        assert sim.now == 7.0

    def test_step_after_partial_run_continues(self):
        snk_split, sim_split = _pipeline()
        sim_split.run(max_events=25)
        while sim_split.step():
            pass
        snk_whole, sim_whole = _pipeline()
        sim_whole.run()
        assert snk_split.tokens == snk_whole.tokens
        assert sim_split.event_count == sim_whole.event_count


def _observed_synthetic_sim():
    """A 200-token duplicated synthetic network with engine metrics."""
    from repro.apps import SyntheticApp
    from repro.core.duplicate import build_duplicated
    from repro.obs.metrics import MetricsRegistry

    app = SyntheticApp(seed=1)
    sizing = app.sizing()
    blueprint = app.blueprint(200, 200 + sizing.selector_priming, seed=2)
    registry = MetricsRegistry()
    duplicated = build_duplicated(blueprint, sizing, metrics=registry)
    return duplicated.network.instantiate(), registry


class TestStepAccounting:
    ENGINE_COUNTERS = ("sim.events", "sim.heap_events", "sim.runq_wakes")

    def test_step_loop_counts_like_run(self):
        sim_run, registry_run = _observed_synthetic_sim()
        sim_run.run()
        sim_step, registry_step = _observed_synthetic_sim()
        while sim_step.step():
            pass
        counters_run = registry_run.counters
        counters_step = registry_step.counters
        assert sim_step.event_count == sim_run.event_count > 0
        assert counters_run["sim.runq_wakes"] > 0
        for name in self.ENGINE_COUNTERS:
            assert counters_step[name] == counters_run[name], name
        assert counters_step["sim.events"] == sim_step.event_count


class TestInputValidation:
    def test_max_events_zero_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        stats = sim.run(max_events=0)
        assert stats.events == 0
        assert stats.halted_on_limit is True
        assert fired == [] and sim.now == 0.0
        sim.run()
        assert fired == [1]

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=-1)
        assert sim.event_count == 0

    @pytest.mark.parametrize("until", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_until_rejected(self, until):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="until"):
            sim.run(until=until)
        assert sim.event_count == 0

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, duration):
        with pytest.raises(ValueError):
            Delay(duration)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_schedule_rejected(self, value):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(value, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(value, lambda: None)
        assert sim.run().events == 0
        assert sim.now == 0.0
