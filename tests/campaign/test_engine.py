"""Campaign engine tests: verdict semantics, wiring, determinism.

Verdict logic is pinned with hand-built :class:`TaskResult` fakes (no
simulation); the end-to-end wiring tests run tiny real campaigns —
small token budgets keep them in tier-1 territory.
"""

import pytest

from repro.campaign.engine import (
    VERDICT_EXPECTED,
    VERDICT_MISSED,
    VERDICT_PASS,
    VERDICT_VIOLATION,
    CampaignConfig,
    CampaignResult,
    evaluate_scenario,
    judge_scenarios,
    run_campaign,
)
from repro.campaign.scenario import (
    MISSIZE_CAPACITY,
    Scenario,
    SyntheticModels,
)
from repro.core.detection import FaultReport
from repro.exec import (
    KIND_DUPLICATED,
    KIND_REFERENCE,
    WorkerPool,
)
from repro.exec.results import TaskResult
from repro.rtc.pjd import PJD


def _models():
    return SyntheticModels(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=(PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)),
        consumer=PJD(10.0, 1.0, 10.0),
    )


def _scenario(**kwargs):
    defaults = dict(index=0, app="synthetic", tokens=60, warmup_tokens=20,
                    seed=5, models=_models())
    defaults.update(kwargs)
    return Scenario(**defaults)


def _clean(kind):
    return TaskResult(kind=kind, value_hashes=["h1", "h2", "h3"])


def _false_positive(kind):
    return TaskResult(
        kind=kind,
        value_hashes=["h1", "h2", "h3"],
        detections=[FaultReport(time=100.0, site="selector",
                                    replica=0, mechanism="divergence")],
    )


class TestVerdicts:
    def test_clean_scenario_passes(self):
        outcome = evaluate_scenario(
            _scenario(), _clean(KIND_REFERENCE), _clean(KIND_DUPLICATED)
        )
        assert outcome.verdict == VERDICT_PASS
        assert outcome.passed

    def test_unexpected_violation(self):
        outcome = evaluate_scenario(
            _scenario(), _clean(KIND_REFERENCE),
            _false_positive(KIND_DUPLICATED),
        )
        assert outcome.verdict == VERDICT_VIOLATION
        assert not outcome.passed
        assert {v.oracle for v in outcome.violations} == {
            "no-false-positive"
        }

    def test_self_test_passes_by_violating(self):
        selftest = _scenario(missize=MISSIZE_CAPACITY,
                             expect_violation=True)
        outcome = evaluate_scenario(
            selftest, _clean(KIND_REFERENCE),
            _false_positive(KIND_DUPLICATED),
        )
        assert outcome.verdict == VERDICT_EXPECTED
        assert outcome.passed

    def test_self_test_that_stays_silent_fails(self):
        selftest = _scenario(missize=MISSIZE_CAPACITY,
                             expect_violation=True)
        outcome = evaluate_scenario(
            selftest, _clean(KIND_REFERENCE), _clean(KIND_DUPLICATED)
        )
        assert outcome.verdict == VERDICT_MISSED
        assert not outcome.passed


class TestCampaignDigest:
    def _result(self, verdict_outcomes):
        result = CampaignResult(seed=7, budget=2, oracle_names=("run-ok",))
        result.outcomes = verdict_outcomes
        return result

    def _outcome(self, scenario, violating):
        duplicated = (_false_positive(KIND_DUPLICATED) if violating
                      else _clean(KIND_DUPLICATED))
        return evaluate_scenario(scenario, _clean(KIND_REFERENCE),
                                 duplicated)

    def test_digest_reflects_verdicts(self):
        scenario = _scenario()
        passing = self._result([self._outcome(scenario, violating=False)])
        failing = self._result([self._outcome(scenario, violating=True)])
        assert passing.digest() != failing.digest()

    def test_digest_stable_for_equal_content(self):
        a = self._result([self._outcome(_scenario(), violating=False)])
        b = self._result([self._outcome(_scenario(), violating=False)])
        assert a.digest() == b.digest()

    def test_failures_and_ok(self):
        outcome = self._outcome(_scenario(), violating=True)
        result = self._result([outcome])
        assert result.failures == [outcome]
        assert not result.ok
        assert self._result(
            [self._outcome(_scenario(), violating=False)]
        ).ok


class TestExecution:
    def test_judge_scenarios_returns_ordered_outcomes(self):
        scenarios = [_scenario(tokens=40, warmup_tokens=10),
                     _scenario(index=1, tokens=30, warmup_tokens=10)]
        outcomes = list(judge_scenarios(scenarios))
        assert [o.scenario for o in outcomes] == scenarios
        for outcome in outcomes:
            assert outcome.reference.kind == KIND_REFERENCE
            assert outcome.duplicated.kind == KIND_DUPLICATED
            assert outcome.reference.ok and outcome.duplicated.ok
            assert (outcome.duplicated.value_hashes
                    == outcome.reference.value_hashes)
            assert outcome.verdict == VERDICT_PASS

    @pytest.mark.parametrize("caller",
                             ["judge", "shrink", "replay", "table2"])
    def test_one_off_callers_leave_no_live_pool(self, caller,
                                                monkeypatch):
        """A caller that passes no executor runs on a serial one: no
        worker pool is ever forked, so none can be left behind."""
        from repro.apps import AdpcmApp
        from repro.apps.base import AppScale
        from repro.campaign.persist import Reproducer, replay_reproducer
        from repro.campaign.shrink import shrink_scenario
        from repro.experiments.table2 import run_table2

        def refuse(pool, *args, **kwargs):
            raise AssertionError("a worker pool was forked")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        scenario = _scenario(tokens=40, warmup_tokens=10)
        if caller == "judge":
            list(judge_scenarios([scenario]))
        elif caller == "shrink":
            shrink_scenario(scenario, max_runs=2)
        elif caller == "replay":
            replay_reproducer(Reproducer(scenario, target_oracles=()))
        else:
            run_table2(AdpcmApp(AppScale(), seed=42), runs=1,
                       warmup_tokens=10, post_tokens=10)

    def test_campaign_is_deterministic(self):
        config = CampaignConfig(seed=7, budget=3, self_tests=False,
                                shrink=False)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.digest() == second.digest()
        assert [o.verdict for o in first.outcomes] == [
            o.verdict for o in second.outcomes
        ]
        assert len(first.outcomes) == 3

    def test_self_tests_are_caught_and_shrunk(self):
        config = CampaignConfig(seed=7, budget=0, self_tests=True,
                                shrink=True, max_shrink_runs=6)
        messages = []
        result = run_campaign(config, progress=messages.append)
        assert len(result.outcomes) == 3
        assert all(o.verdict == VERDICT_EXPECTED for o in result.outcomes)
        assert result.ok  # self-tests pass by violating
        # Every violated outcome gets a shrink entry keyed by its digest.
        assert set(result.shrunk) == {o.digest for o in result.outcomes}
        for outcome in result.outcomes:
            shrink = result.shrunk[outcome.digest]
            assert shrink.runs <= 6
            assert shrink.target_oracles
        assert any("generated 3 scenarios" in m for m in messages)

    def test_broken_countermeasure_self_test_trips_recovery_oracle(self):
        # Satellite of the recovery battery: the generator's broken
        # countermeasure self-test must be caught by the post-recovery-
        # equivalence oracle specifically — not by collateral damage.
        from repro.campaign.scenario import ScenarioGenerator

        [broken] = [t for t in ScenarioGenerator(seed=7).self_tests()
                    if t.recovery is not None]
        assert not broken.recovery.reprime
        [outcome] = judge_scenarios([broken])
        assert outcome.verdict == VERDICT_EXPECTED
        assert outcome.passed
        assert "recovery" in {v.oracle for v in outcome.violations}

    def test_oracle_subset_respected(self):
        config = CampaignConfig(seed=7, budget=0, self_tests=True,
                                shrink=False, oracles=("run-ok",))
        result = run_campaign(config)
        # Mis-sized self-tests still *complete*, so with only run-ok
        # armed nothing barks and both self-tests are missed.
        assert result.oracle_names == ("run-ok",)
        assert all(o.verdict == VERDICT_MISSED for o in result.outcomes)
        assert not result.ok


class TestStreaming:
    """The ISSUE-8 acceptance loop: a streamed campaign's ledger replay
    must reproduce the batch-end report exactly."""

    def _streamed_campaign(self, tmp_path, jobs=2, budget=4):
        from repro.campaign.report import build_campaign_report
        from repro.obs.ledger import LedgerWriter, read_ledger

        path = tmp_path / "campaign.ledger"
        with LedgerWriter(path) as ledger:
            config = CampaignConfig(seed=7, budget=budget, jobs=jobs,
                                    shrink=True, max_shrink_runs=6,
                                    ledger=ledger)
            result = run_campaign(config)
        return result, build_campaign_report(result), read_ledger(path)

    def test_replay_matches_batch_end_report(self, tmp_path):
        from repro.campaign.engine import stream_summary
        from repro.obs.ledger import merged_snapshot

        result, report, replay = self._streamed_campaign(tmp_path)
        assert replay.ok, replay.warnings

        # Verdict counts: ledger scenario-verdict records == report.
        verdicts = {}
        for record in replay.by_type("scenario-verdict"):
            verdicts[record["verdict"]] = (
                verdicts.get(record["verdict"], 0) + 1
            )
        for name, count in report["verdicts"].items():
            assert verdicts.get(name, 0) == count

        # Merged detect.latency_ms p50/p95/max: replay == report, exact.
        replayed_stream = stream_summary(merged_snapshot(replay))
        assert replayed_stream == report["stream"]
        latency = report["stream"]["percentiles"]["detect.latency_ms"]
        assert latency["count"] > 0

        # The campaign-end record carries the same summary (so a status
        # probe needs no report file at all).
        end = replay.by_type("campaign-end")[-1]
        assert end["stream"] == report["stream"]
        assert end["verdicts"] == report["verdicts"]
        assert end["digest"] == report["campaign"]["digest"]

    def test_replay_survives_json_roundtrip(self, tmp_path):
        # The acceptance comparison must be exact across JSON (ledger
        # lines and report files are both JSON): float repr round-trips.
        import json

        from repro.campaign.engine import stream_summary
        from repro.obs.ledger import merged_snapshot

        _result, report, replay = self._streamed_campaign(tmp_path)
        replayed = json.loads(
            json.dumps(stream_summary(merged_snapshot(replay)))
        )
        assert replayed == json.loads(json.dumps(report["stream"]))

    def test_streaming_does_not_change_campaign_digest(self, tmp_path):
        from repro.obs.ledger import LedgerWriter

        config = CampaignConfig(seed=7, budget=3, self_tests=False,
                                shrink=False)
        plain = run_campaign(config)
        with LedgerWriter(tmp_path / "c.ledger") as ledger:
            streamed = run_campaign(CampaignConfig(
                seed=7, budget=3, self_tests=False, shrink=False,
                ledger=ledger,
            ))
        assert streamed.digest() == plain.digest()
        assert [o.verdict for o in streamed.outcomes] == [
            o.verdict for o in plain.outcomes
        ]

    def test_shrink_sweeps_stay_out_of_the_ledger(self, tmp_path):
        # Self-tests violate and get shrunk; the shrink search runs its
        # own executor without the ledger, so task counts replayed from
        # the ledger describe the main batch only.
        _result, report, replay = self._streamed_campaign(
            tmp_path, jobs=1, budget=0
        )
        scenarios = report["campaign"]["scenarios"]
        assert report["shrunk"]  # shrinking actually happened
        assert len(replay.by_type("task-finished")) == 2 * scenarios
        assert len(replay.by_type("sweep-start")) == 1
