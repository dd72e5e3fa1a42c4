"""Unit tests of the invariant oracles on hand-built outcomes.

Each oracle is exercised against synthetic :class:`TaskResult` pairs —
no simulation — so every judgement path (pass, violation, stand-down on
aborted runs) is pinned exactly.
"""

import pytest

from repro.campaign.oracles import (
    ALL_ORACLES,
    OracleError,
    OutcomeContext,
    oracles_by_name,
)
from repro.campaign.scenario import Scenario, SyntheticModels
from repro.core.detection import FaultReport
from repro.exec.results import TaskResult
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult

ORACLES = {oracle.name: oracle for oracle in ALL_ORACLES}


def _models():
    return SyntheticModels(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=(PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)),
        consumer=PJD(10.0, 1.0, 10.0),
    )


def _sizing():
    return SizingResult(
        replicator_capacities=(2, 3),
        selector_capacities=(3, 4),
        selector_initial_fill=(1, 2),
        selector_threshold=2,
        replicator_threshold=2,
        selector_detection_bound=40.0,
        replicator_detection_bound=50.0,
    )


def _scenario(**kwargs):
    defaults = dict(index=0, app="synthetic", tokens=80, warmup_tokens=30,
                    seed=5, models=_models())
    defaults.update(kwargs)
    return Scenario(**defaults)


def _result(kind="duplicated", hashes=("h1", "h2", "h3"), **kwargs):
    return TaskResult(kind=kind, value_hashes=list(hashes), **kwargs)


def _ctx(scenario, duplicated, reference=None):
    return OutcomeContext(
        scenario=scenario,
        sizing=_sizing(),
        reference=reference or _result(kind="reference"),
        duplicated=duplicated,
    )


FAULT = FaultSpec(replica=0, time=310.0, kind=FAIL_STOP)


class TestRunOk:
    def test_passes_on_clean_runs(self):
        assert ORACLES["run-ok"](_ctx(_scenario(), _result())) == []

    def test_flags_aborted_run(self):
        broken = _result(ok=False, error="SimulationError: deadlock",
                         hashes=())
        violations = ORACLES["run-ok"](_ctx(_scenario(), broken))
        assert len(violations) == 1
        assert "deadlock" in violations[0].message


class TestNoFalsePositive:
    def test_fault_free_run_must_have_zero_detections(self):
        detected = _result(detections=[FaultReport(
            time=100.0, site="selector", replica=1,
            mechanism="divergence")])
        violations = ORACLES["no-false-positive"](
            _ctx(_scenario(), detected)
        )
        assert len(violations) == 1

    def test_detection_before_injection_is_false_positive(self):
        early = _result(
            injected_at=310.0,
            detections=[FaultReport(time=200.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        violations = ORACLES["no-false-positive"](
            _ctx(_scenario(fault=FAULT), early)
        )
        assert len(violations) == 1
        assert "precedes injection" in violations[0].message

    def test_post_injection_detection_is_fine(self):
        detected = _result(
            injected_at=310.0,
            detections=[FaultReport(time=330.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        assert ORACLES["no-false-positive"](
            _ctx(_scenario(fault=FAULT), detected)
        ) == []

    def test_stands_down_on_aborted_run(self):
        broken = _result(ok=False, error="boom", hashes=())
        assert ORACLES["no-false-positive"](
            _ctx(_scenario(), broken)
        ) == []


class TestIsolation:
    def test_flags_healthy_replica_implicated(self):
        wrong = _result(
            injected_at=310.0,
            detections=[FaultReport(time=330.0, site="selector",
                                        replica=1,
                                        mechanism="divergence")],
        )
        violations = ORACLES["isolation"](
            _ctx(_scenario(fault=FAULT), wrong)
        )
        assert len(violations) == 1
        assert "Lemma" not in violations[0].oracle  # oracle name is short

    def test_faulty_replica_detections_pass(self):
        right = _result(
            injected_at=310.0,
            detections=[FaultReport(time=330.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        assert ORACLES["isolation"](
            _ctx(_scenario(fault=FAULT), right)
        ) == []

    def test_vacuous_without_fault(self):
        assert ORACLES["isolation"](_ctx(_scenario(), _result())) == []


class TestDetectionLatency:
    def test_undetected_fault_is_violation(self):
        silent = _result(injected_at=310.0)
        violations = ORACLES["detection-latency"](
            _ctx(_scenario(fault=FAULT), silent)
        )
        assert len(violations) == 1
        assert "never" in violations[0].message

    def test_fail_stop_site_bound_enforced(self):
        slow = _result(
            injected_at=310.0,
            latency_selector=41.0,  # bound is 40 ms
            latency_replicator=20.0,
            detections=[FaultReport(time=351.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        violations = ORACLES["detection-latency"](
            _ctx(_scenario(fault=FAULT), slow)
        )
        assert len(violations) == 1
        assert "selector" in violations[0].message

    def test_fail_stop_within_bounds_passes(self):
        quick = _result(
            injected_at=310.0,
            latency_selector=39.0,
            latency_replicator=49.0,
            detections=[FaultReport(time=349.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        assert ORACLES["detection-latency"](
            _ctx(_scenario(fault=FAULT), quick)
        ) == []

    def test_rate_degrade_needs_detection_but_no_bound(self):
        """Eq. 8 assumes fail-stop; a limping replica still delivers, so
        only *detection*, not the numeric bound, is enforced."""
        degrade = FaultSpec(replica=0, time=310.0, kind=RATE_DEGRADE,
                            slowdown=3.0)
        late = _result(
            injected_at=310.0,
            latency_selector=500.0,  # way past the fail-stop bound
            detections=[FaultReport(time=810.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
        )
        assert ORACLES["detection-latency"](
            _ctx(_scenario(fault=degrade), late)
        ) == []


class TestEquivalence:
    def test_identical_streams_pass(self):
        assert ORACLES["equivalence"](
            _ctx(_scenario(), _result(),
                 reference=_result(kind="reference"))
        ) == []

    def test_diverging_stream_flagged(self):
        mutated = _result(hashes=("h1", "hX", "h3"))
        violations = ORACLES["equivalence"](
            _ctx(_scenario(), mutated,
                 reference=_result(kind="reference"))
        )
        assert len(violations) == 1
        assert "token 1" in violations[0].message

    def test_truncated_stream_flagged(self):
        short = _result(hashes=("h1", "h2"))
        violations = ORACLES["equivalence"](
            _ctx(_scenario(), short, reference=_result(kind="reference"))
        )
        assert len(violations) == 1

    def test_stalls_violate_timing_equivalence(self):
        stalled = _result(stalls=2)
        violations = ORACLES["equivalence"](
            _ctx(_scenario(), stalled,
                 reference=_result(kind="reference"))
        )
        assert len(violations) == 1
        assert "stalled" in violations[0].message


class TestRecovery:
    """The post-recovery-equivalence oracle, path by path."""

    def _attempt(self, detected_at=330.0, completed_at=340.0, replica=0):
        return {"replica": replica, "detected_at": detected_at,
                "completed_at": completed_at}

    def _recovery_scenario(self, **kwargs):
        from repro.recovery import RecoverySpec

        defaults = dict(fault=FAULT, recovery=RecoverySpec())
        defaults.update(kwargs)
        return _scenario(**defaults)

    def _judge(self, scenario, duplicated, reference_times=()):
        reference = _result(kind="reference",
                            times=list(reference_times))
        return ORACLES["recovery"](
            _ctx(scenario, duplicated, reference=reference)
        )

    def test_stands_down_without_a_spec(self):
        recovered = _result(recovery={"attempts": [self._attempt()]})
        assert self._judge(_scenario(fault=FAULT), recovered) == []

    def test_clean_recovery_passes(self):
        times = [400.0, 410.0, 420.0]
        recovered = _result(
            injected_at=310.0,
            times=list(times),
            detections=[FaultReport(time=330.0, site="selector",
                                        replica=0,
                                        mechanism="divergence")],
            recovery={"attempts": [self._attempt()], "completed": 1},
        )
        assert self._judge(self._recovery_scenario(), recovered,
                           reference_times=times) == []

    def test_fault_free_countermeasure_is_a_violation(self):
        spurious = _result(recovery={"attempts": [self._attempt()]})
        violations = self._judge(
            self._recovery_scenario(fault=None), spurious
        )
        assert len(violations) == 1
        assert "fault-free" in violations[0].message

    def test_fault_without_countermeasure_is_a_violation(self):
        silent = _result(injected_at=310.0, recovery={"attempts": []})
        violations = self._judge(self._recovery_scenario(), silent)
        assert len(violations) == 1
        assert "never triggered" in violations[0].message

    def test_isolation_policy_has_no_post_recovery_regime(self):
        from repro.recovery import RecoverySpec

        isolated = _result(
            injected_at=310.0,
            recovery={"attempts": [self._attempt(completed_at=None)]},
        )
        scenario = self._recovery_scenario(
            recovery=RecoverySpec(respawn=False)
        )
        assert self._judge(scenario, isolated) == []

    def test_unfinished_recovery_is_a_violation(self):
        hung = _result(
            injected_at=310.0,
            recovery={"attempts": [self._attempt(completed_at=None)]},
        )
        violations = self._judge(self._recovery_scenario(), hung)
        assert len(violations) == 1
        assert "never completed" in violations[0].message

    def test_detection_after_completion_is_a_violation(self):
        relapsed = _result(
            injected_at=310.0,
            detections=[
                FaultReport(time=330.0, site="selector", replica=0,
                                mechanism="divergence"),
                FaultReport(time=500.0, site="selector", replica=0,
                                mechanism="stall"),
            ],
            recovery={"attempts": [self._attempt()]},
        )
        violations = self._judge(self._recovery_scenario(), relapsed)
        assert len(violations) == 1
        assert "not" in violations[0].message
        assert "re-established" in violations[0].message

    def test_diverged_stream_after_recovery_is_a_violation(self):
        mutated = _result(
            injected_at=310.0,
            hashes=("h1", "hX", "h3"),
            recovery={"attempts": [self._attempt()]},
        )
        violations = self._judge(self._recovery_scenario(), mutated)
        assert len(violations) == 1
        assert "reference" in violations[0].message

    def test_weakly_hard_budget_enforced(self):
        from repro.recovery import RecoverySpec

        # One miss inside the recovery window, zero-budget constraint.
        late = _result(
            injected_at=310.0,
            times=[330.0],
            recovery={"attempts": [self._attempt()]},
        )
        scenario = self._recovery_scenario(
            recovery=RecoverySpec(m=0, k=5)
        )
        violations = self._judge(scenario, late, reference_times=[320.0])
        assert len(violations) == 1
        assert "weakly-hard budget" in violations[0].message

    def test_miss_outside_recovery_window_is_a_violation(self):
        # Within the (m, k) budget but *after* completion: the transient
        # leaked into the post-recovery regime.
        leaked = _result(
            injected_at=310.0,
            times=[400.0, 455.0],
            recovery={"attempts": [self._attempt()]},
        )
        violations = self._judge(self._recovery_scenario(), leaked,
                                 reference_times=[400.0, 450.0])
        assert len(violations) == 1
        assert "outside the recovery window" in violations[0].message

    def test_stands_down_on_aborted_run(self):
        broken = _result(ok=False, error="boom", hashes=())
        assert self._judge(self._recovery_scenario(), broken) == []


class TestSelection:
    def test_default_is_all(self):
        assert oracles_by_name(None) == ALL_ORACLES
        assert oracles_by_name(()) == ALL_ORACLES

    def test_subset_preserves_canonical_order(self):
        subset = oracles_by_name(["equivalence", "run-ok"])
        assert [o.name for o in subset] == ["run-ok", "equivalence"]

    def test_unknown_name_rejected(self):
        with pytest.raises(OracleError, match="no-such-oracle"):
            oracles_by_name(["no-such-oracle"])
