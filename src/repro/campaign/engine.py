"""The campaign loop: generate, execute, judge, shrink.

:func:`run_campaign` is the orchestration spine: the seeded
:class:`~repro.campaign.scenario.ScenarioGenerator` produces the
scenario matrix, every scenario's (reference, duplicated) TaskSpec pair
runs through one :class:`~repro.exec.SweepExecutor` batch (so ``--jobs``
parallelism and the result cache apply across the whole campaign), the
oracle suite judges each outcome, and every violated scenario is shrunk
to a minimal reproducer.

The campaign digest (:meth:`CampaignResult.digest`) hashes every
scenario digest together with its verdict — two runs of the same seed
and budget must agree byte-for-byte, cache or no cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.oracles import (
    ALL_ORACLES,
    Oracle,
    OutcomeContext,
    Violation,
    oracles_by_name,
)
from repro.campaign.scenario import Scenario, ScenarioGenerator
from repro.campaign.shrink import ShrinkResult, shrink_scenario
from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepStats,
    TaskResult,
    run_sweep,
)

#: Verdict strings (stable; part of the campaign digest).
VERDICT_PASS = "pass"
VERDICT_VIOLATION = "violation"
VERDICT_EXPECTED = "expected-violation"
VERDICT_MISSED = "missed-expected-violation"

ProgressFn = Callable[[str], None]


@dataclass
class CampaignConfig:
    """Everything one campaign run needs.

    ``oracles`` is a sequence of oracle names (empty means all five);
    ``self_tests`` appends the deliberately mis-sized scenarios that the
    oracles *must* flag — a campaign whose watchdogs never bark proves
    nothing.  ``cache`` memoises individual task runs; verdicts and the
    campaign digest are independent of it.
    """

    seed: int = 7
    budget: int = 100
    jobs: int = 1
    oracles: Tuple[str, ...] = ()
    self_tests: bool = True
    shrink: bool = True
    max_shrink_runs: int = 48
    cache: Optional[ResultCache] = None
    generator: Optional[ScenarioGenerator] = None
    #: Streaming run ledger (a :class:`~repro.obs.ledger.LedgerWriter`):
    #: when set, the campaign appends campaign-start / per-task /
    #: scenario-verdict / campaign-end records as it runs, so `repro
    #: top` and the status endpoint observe it live.  Pure
    #: observability — verdicts and the campaign digest are independent
    #: of it.
    ledger: Optional[object] = None


@dataclass
class ScenarioOutcome:
    """One judged scenario."""

    scenario: Scenario
    digest: str
    violations: Tuple[Violation, ...]
    reference: TaskResult
    duplicated: TaskResult

    @property
    def verdict(self) -> str:
        if self.scenario.expect_violation:
            return VERDICT_EXPECTED if self.violations else VERDICT_MISSED
        return VERDICT_VIOLATION if self.violations else VERDICT_PASS

    @property
    def passed(self) -> bool:
        """True when the scenario behaved as the paper promises —
        including self-tests, which pass by *violating*."""
        return self.verdict in (VERDICT_PASS, VERDICT_EXPECTED)


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    seed: int
    budget: int
    oracle_names: Tuple[str, ...]
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    shrunk: Dict[str, ShrinkResult] = field(default_factory=dict)
    stats: Optional[SweepStats] = None
    #: Fleet-wide mergeable metric aggregate over every task the main
    #: batch executed (the executor's parent-side snapshot merge) —
    #: the source of the report's ``stream`` section, and exactly what
    #: a ledger replay reconstructs.
    metrics: Optional[object] = None

    def verdict_counts(self) -> Dict[str, int]:
        counts = {VERDICT_PASS: 0, VERDICT_VIOLATION: 0,
                  VERDICT_EXPECTED: 0, VERDICT_MISSED: 0}
        for outcome in self.outcomes:
            counts[outcome.verdict] += 1
        return counts

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        """Hex digest over every (scenario digest, verdict, oracles) —
        the campaign's determinism witness."""
        payload = [
            [o.digest, o.verdict,
             sorted({v.oracle for v in o.violations})]
            for o in self.outcomes
        ]
        blob = json.dumps({"campaign": payload, "seed": self.seed},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stream_summary(metrics) -> Dict[str, object]:
    """The batch-end streaming aggregate: sketch percentile digests and
    fleet counters from the executor's merged
    :class:`~repro.obs.metrics.MetricsRegistry`.

    This exact shape appears in the ``campaign-end`` ledger record and
    in the campaign report's ``stream`` section — and a ledger replay's
    merged snapshot reproduces it, which is the acceptance criterion
    the streaming tests pin.
    """
    if metrics is None or not metrics.names():
        return {}
    return {
        "percentiles": metrics.percentile_digests(),
        "counters": metrics.counters,
    }


def run_scenario(
    scenario: Scenario,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    executor: Optional[SweepExecutor] = None,
) -> Tuple[TaskResult, TaskResult]:
    """Execute one scenario's (reference, duplicated) pair."""
    results = run_sweep(scenario.specs(), jobs=jobs, cache=cache,
                        executor=executor)
    return results[0], results[1]


def evaluate_scenario(
    scenario: Scenario,
    reference: TaskResult,
    duplicated: TaskResult,
    oracles: Sequence[Oracle] = ALL_ORACLES,
) -> ScenarioOutcome:
    """Judge one executed scenario against the oracle suite."""
    ctx = OutcomeContext(
        scenario=scenario,
        sizing=scenario.applied_sizing(scenario.build_app()),
        reference=reference,
        duplicated=duplicated,
    )
    violations: List[Violation] = []
    for oracle in oracles:
        violations.extend(oracle(ctx))
    return ScenarioOutcome(
        scenario=scenario,
        digest=scenario.digest(),
        violations=tuple(violations),
        reference=reference,
        duplicated=duplicated,
    )


def run_campaign(
    config: CampaignConfig,
    progress: Optional[ProgressFn] = None,
) -> CampaignResult:
    """Run one full campaign: generate, execute, judge, shrink."""
    say = progress or (lambda _message: None)
    oracles = oracles_by_name(config.oracles)
    generator = config.generator or ScenarioGenerator(config.seed)

    scenarios = generator.generate(config.budget)
    if config.self_tests:
        scenarios = scenarios + generator.self_tests()
    say(f"generated {len(scenarios)} scenarios "
        f"(seed={config.seed}, budget={config.budget})")

    ledger = config.ledger
    if ledger is not None:
        ledger.campaign_start(
            seed=config.seed, budget=config.budget,
            scenarios=len(scenarios),
            oracles=[o.name for o in oracles],
        )

    specs = []
    for scenario in scenarios:
        specs.extend(scenario.specs())
    # One persistent executor carries the whole campaign: the main batch
    # AND every shrink candidate reuse the same worker pool instead of
    # forking per call.
    executor = SweepExecutor(jobs=config.jobs, cache=config.cache,
                             ledger=ledger)
    try:
        results = executor.run(specs)

        outcome_list: List[ScenarioOutcome] = []
        for position, scenario in enumerate(scenarios):
            reference = results[2 * position]
            duplicated = results[2 * position + 1]
            outcome = evaluate_scenario(scenario, reference, duplicated,
                                        oracles)
            outcome_list.append(outcome)
            if ledger is not None:
                ledger.scenario_verdict(
                    index=scenario.index,
                    digest=outcome.digest,
                    label=scenario.label(),
                    verdict=outcome.verdict,
                    violations=[v.as_dict() for v in outcome.violations],
                )
            if not outcome.passed:
                say(f"FAIL {scenario.label()}: {outcome.verdict} "
                    + "; ".join(v.message for v in outcome.violations))

        result = CampaignResult(
            seed=config.seed,
            budget=config.budget,
            oracle_names=tuple(o.name for o in oracles),
            outcomes=outcome_list,
            stats=executor.stats,
            metrics=executor.metrics,
        )

        if config.shrink:
            # Shrink runs are exploratory — keep them out of the ledger
            # so its task records describe exactly the main batch.
            executor.ledger = None
            violated = [o for o in result.outcomes if o.violations]
            for outcome in violated:
                say(f"shrinking {outcome.scenario.label()} ...")
                result.shrunk[outcome.digest] = shrink_scenario(
                    outcome.scenario,
                    oracles=oracles,
                    jobs=config.jobs,
                    cache=config.cache,
                    max_runs=config.max_shrink_runs,
                    executor=executor,
                )
    finally:
        executor.close()

    if ledger is not None:
        ledger.campaign_end(
            digest=result.digest(),
            verdicts=result.verdict_counts(),
            ok=result.ok,
            stream=stream_summary(result.metrics),
        )

    verdicts = [o.verdict for o in result.outcomes]
    say(f"campaign digest {result.digest()[:16]}: "
        f"{verdicts.count(VERDICT_PASS)} pass, "
        f"{verdicts.count(VERDICT_VIOLATION)} violation(s), "
        f"{verdicts.count(VERDICT_EXPECTED)} expected, "
        f"{verdicts.count(VERDICT_MISSED)} missed self-test(s)")
    return result
