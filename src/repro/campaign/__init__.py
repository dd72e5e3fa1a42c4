"""Adversarial fault-injection campaigns with invariant oracles.

The campaign engine turns the repository's correctness story from
example-based to adversarial: a seeded generator samples a scenario
matrix (application x fault model x injection time/site x sizing margin
x seed), the :mod:`repro.exec` sweep executor runs every scenario (and
its reference-network twin), and a library of machine-checkable
**invariant oracles** derived from the paper judges each outcome:

=====================  ====================================================
oracle                 paper claim it checks
=====================  ====================================================
``run-ok``             a correctly sized network never aborts its run
``no-false-positive``  Eq. 3/5 sizing admits zero fault-free detections
``isolation``          Lemma 1: only the faulty replica is ever implicated
``detection-latency``  Eqs. 6-8: faults detected within the latency bound
``equivalence``        Theorem 2: consumer stream identical to reference
=====================  ====================================================

Failing scenarios are shrunk to minimal reproducers
(:mod:`repro.campaign.shrink`) and persisted as replayable TaskSpec JSON
plus a ``repro.run-report`` artifact (:mod:`repro.campaign.persist`).
``repro campaign`` drives it from the command line.
"""

from repro.campaign.engine import (
    CampaignConfig,
    CampaignResult,
    ScenarioOutcome,
    evaluate_scenario,
    judge_scenarios,
    run_campaign,
)
from repro.campaign.mttf import (
    MttfConfig,
    MttfCycle,
    MttfResult,
    run_mttf_campaign,
)
from repro.campaign.oracles import (
    ALL_ORACLES,
    Oracle,
    OutcomeContext,
    Violation,
    oracles_by_name,
)
from repro.campaign.persist import (
    REPRODUCER_SCHEMA_ID,
    Reproducer,
    ReproducerError,
    load_reproducer,
    replay_reproducer,
    save_reproducer,
    save_run_report,
)
from repro.campaign.report import (
    CAMPAIGN_SCHEMA_ID,
    MTTF_SCHEMA_ID,
    build_campaign_report,
    build_mttf_report,
    render_campaign_report,
    render_mttf_report,
    validate_campaign_report,
    validate_mttf_report,
)
from repro.campaign.scenario import (
    MISSIZE_CAPACITY,
    MISSIZE_THRESHOLD,
    Scenario,
    ScenarioGenerator,
    SyntheticModels,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from repro.campaign.shrink import ShrinkResult, shrink_scenario

__all__ = [
    "ALL_ORACLES",
    "CAMPAIGN_SCHEMA_ID",
    "CampaignConfig",
    "CampaignResult",
    "MISSIZE_CAPACITY",
    "MISSIZE_THRESHOLD",
    "MTTF_SCHEMA_ID",
    "MttfConfig",
    "MttfCycle",
    "MttfResult",
    "Oracle",
    "OutcomeContext",
    "REPRODUCER_SCHEMA_ID",
    "Reproducer",
    "ReproducerError",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioOutcome",
    "ShrinkResult",
    "SyntheticModels",
    "Violation",
    "build_campaign_report",
    "build_mttf_report",
    "evaluate_scenario",
    "judge_scenarios",
    "load_reproducer",
    "oracles_by_name",
    "render_campaign_report",
    "render_mttf_report",
    "replay_reproducer",
    "run_campaign",
    "run_mttf_campaign",
    "save_reproducer",
    "save_run_report",
    "scenario_from_jsonable",
    "scenario_to_jsonable",
    "shrink_scenario",
    "validate_campaign_report",
    "validate_mttf_report",
]
