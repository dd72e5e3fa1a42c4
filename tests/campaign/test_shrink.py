"""Shrinking tests: candidate enumeration, acceptance rule, budgets."""

import dataclasses

from repro.apps.synthetic import SyntheticApp
from repro.campaign.scenario import (
    MISSIZE_CAPACITY,
    Scenario,
    SyntheticModels,
)
from repro.campaign.shrink import _candidates, shrink_scenario
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.rtc.pjd import PJD

PERIOD = 10.0


def _models():
    return SyntheticModels(
        producer=PJD(PERIOD, 1.0, PERIOD),
        replicas=(PJD(PERIOD, 2.0, PERIOD), PJD(PERIOD, 8.0, PERIOD)),
        consumer=PJD(PERIOD, 1.0, PERIOD),
    )


def _scenario(**kwargs):
    defaults = dict(index=0, app="synthetic", tokens=80, warmup_tokens=30,
                    seed=5, models=_models())
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestCandidates:
    def test_halves_the_post_warmup_stream_first(self):
        scenario = _scenario(tokens=80, warmup_tokens=30)
        first = next(_candidates(scenario, PERIOD))
        assert first.tokens == 30 + 25  # warmup + half of 50
        assert first.warmup_tokens == 30

    def test_halving_warmup_keeps_fault_phase(self):
        fault = FaultSpec(replica=0, time=350.0, kind=FAIL_STOP)
        scenario = _scenario(fault=fault)
        halved = [c for c in _candidates(scenario, PERIOD)
                  if c.warmup_tokens == 15]
        assert len(halved) == 1
        # 15 warmup tokens dropped -> injection shifts 15 periods earlier.
        assert halved[0].fault.time == 350.0 - 15 * PERIOD
        assert halved[0].tokens == 80 - 15

    def test_margin_normalised(self):
        scenario = _scenario(capacity_margin=2.0)
        assert any(c.capacity_margin == 1.0
                   for c in _candidates(scenario, PERIOD))

    def test_fault_bisected_toward_warmup_boundary(self):
        fault = FaultSpec(replica=1, time=500.0, kind=FAIL_STOP)
        scenario = _scenario(fault=fault)
        times = [c.fault.time for c in _candidates(scenario, PERIOD)
                 if c.fault is not None
                 and c.fault.time not in (500.0, 350.0)]
        # Bisection midpoint between warmup end (300) and 500.
        assert 400.0 in times

    def test_rate_degrade_simplified_to_fail_stop(self):
        fault = FaultSpec(replica=0, time=400.0, kind=RATE_DEGRADE,
                          slowdown=3.0)
        scenario = _scenario(fault=fault)
        kinds = [c.fault.kind for c in _candidates(scenario, PERIOD)
                 if c.fault is not None and c.fault.time == 400.0]
        assert FAIL_STOP in kinds

    def test_fault_dropped_entirely(self):
        fault = FaultSpec(replica=0, time=400.0, kind=FAIL_STOP)
        assert any(c.fault is None
                   for c in _candidates(_scenario(fault=fault), PERIOD))

    def test_candidates_never_grow(self):
        fault = FaultSpec(replica=0, time=400.0, kind=RATE_DEGRADE,
                          slowdown=2.0)
        scenario = _scenario(fault=fault, capacity_margin=1.5)
        for candidate in _candidates(scenario, PERIOD):
            assert candidate.tokens <= scenario.tokens
            assert candidate.warmup_tokens <= scenario.warmup_tokens


class TestShrinkSearch:
    def _violating(self):
        """A deliberately mis-sized, fault-free scenario.  The bursty
        regime is where capacity-1 FIFOs demonstrably overflow (smooth
        streams never occupy more than one slot), so every run trips
        the no-false-positive oracle."""
        app = SyntheticApp.bursty(seed=0)
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        return _scenario(tokens=40, warmup_tokens=0, models=models,
                         missize=MISSIZE_CAPACITY, expect_violation=True)

    def test_shrinks_while_preserving_the_violation(self):
        result = shrink_scenario(self._violating(), max_runs=10)
        assert result.target_oracles  # the original did violate
        assert result.runs <= 10
        assert result.reduced
        assert result.token_reduction > 0
        # The minimal reproducer still violates a targeted oracle.
        assert {v.oracle for v in result.violations} & set(
            result.target_oracles
        )

    def test_known_violations_skip_baseline_run(self):
        scenario = self._violating()
        with_baseline = shrink_scenario(scenario, max_runs=1)
        assert with_baseline.runs == 1  # budget burnt on the baseline
        assert not with_baseline.reduced

        seeded = shrink_scenario(
            scenario, max_runs=1,
            known_violations=with_baseline.violations,
        )
        # Same single-run budget now buys one real candidate.
        assert seeded.runs == 1
        assert seeded.reduced

    def test_non_violating_scenario_is_left_alone(self):
        result = shrink_scenario(_scenario(tokens=40, warmup_tokens=10),
                                 max_runs=10)
        assert result.target_oracles == ()
        assert result.violations == ()
        assert not result.reduced
        assert result.runs == 1  # only the baseline execution

    def test_rejects_candidates_that_fail_differently(self, monkeypatch):
        """Dropping the fault turns a latency violation into a vacuous
        pass — the acceptance rule must reject that candidate, so the
        minimal reproducer keeps a fault.  A stub judge makes the rule
        observable without simulating: only faulted scenarios violate."""
        from types import SimpleNamespace

        from repro.campaign import engine
        from repro.campaign.oracles import Violation

        def fake_judge(scenarios, oracles, executor=None):
            return [
                SimpleNamespace(violations=(
                    (Violation("detection-latency", "stub"),)
                    if scenario.fault is not None else ()
                ))
                for scenario in scenarios
            ]

        monkeypatch.setattr(engine, "judge_scenarios", fake_judge)
        fault = FaultSpec(replica=0, time=350.0, kind=FAIL_STOP)
        scenario = _scenario(tokens=60, warmup_tokens=30, fault=fault)
        result = shrink_scenario(scenario, max_runs=30)
        assert result.target_oracles == ("detection-latency",)
        assert result.minimal.fault is not None  # drop-fault rejected
        assert result.reduced  # but same-oracle reductions were taken
        assert result.minimal.tokens < scenario.tokens
