"""Replayable minimal-reproducer files.

A reproducer is one JSON document carrying everything needed to re-run a
violated scenario months later: the scenario itself (decoded through the
same validating constructors that built it), the violated oracle names,
the human-readable violation messages, and the fully-expanded
(reference, duplicated) TaskSpec pair for tooling that wants to execute
the tasks without the campaign layer.

Loading is strict and total: *any* malformed input — unreadable file,
invalid JSON, wrong schema id, missing keys, a scenario that fails its
own validators, a digest that does not match the stored one — raises
:exc:`ReproducerError` and nothing else, so a campaign loop replaying a
directory of reproducers can quarantine bad files without crashing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.campaign.engine import ScenarioOutcome, judge_scenarios
from repro.campaign.oracles import Violation, oracles_by_name
from repro.campaign.scenario import (
    Scenario,
    ScenarioError,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from repro.exec import (
    SweepExecutor,
    TaskSpec,
    TaskSpecError,
    spec_from_jsonable,
    spec_to_jsonable,
)

#: Schema identifier embedded in every reproducer file.
REPRODUCER_SCHEMA_ID = "repro.campaign-reproducer/1"


class ReproducerError(Exception):
    """A reproducer file that cannot be loaded or validated."""


@dataclass(frozen=True)
class Reproducer:
    """One minimal reproducer: a scenario plus what it violates."""

    scenario: Scenario
    target_oracles: Tuple[str, ...]
    violations: Tuple[Violation, ...] = ()
    campaign_seed: Optional[int] = None

    def matches(self, outcome: ScenarioOutcome) -> bool:
        """Did a replay reproduce (one of) the recorded violations?"""
        violated = {v.oracle for v in outcome.violations}
        return bool(violated & set(self.target_oracles))


def save_reproducer(
    reproducer: Reproducer, path: Union[str, Path]
) -> Path:
    """Write a reproducer JSON document; returns the path written."""
    path = Path(path)
    reference_spec, duplicated_spec = reproducer.scenario.specs()
    document = {
        "schema": REPRODUCER_SCHEMA_ID,
        "campaign_seed": reproducer.campaign_seed,
        "scenario_digest": reproducer.scenario.digest(),
        "scenario": scenario_to_jsonable(reproducer.scenario),
        "target_oracles": list(reproducer.target_oracles),
        "violations": [v.as_dict() for v in reproducer.violations],
        "tasks": {
            "reference": spec_to_jsonable(reference_spec),
            "duplicated": spec_to_jsonable(duplicated_spec),
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def load_reproducer(path: Union[str, Path]) -> Reproducer:
    """Load and fully validate a reproducer file.

    Raises :exc:`ReproducerError` for every failure mode; see module
    docstring.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ReproducerError(f"cannot read {path}: {error}") from error
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproducerError(
            f"{path} is not valid JSON: {error}"
        ) from error
    if not isinstance(document, dict):
        raise ReproducerError(f"{path}: top level must be an object")
    schema = document.get("schema")
    if schema != REPRODUCER_SCHEMA_ID:
        raise ReproducerError(
            f"{path}: schema {schema!r} is not {REPRODUCER_SCHEMA_ID!r}"
        )
    for key in ("scenario", "scenario_digest", "target_oracles"):
        if key not in document:
            raise ReproducerError(f"{path}: missing key {key!r}")

    try:
        scenario = scenario_from_jsonable(document["scenario"])
    except ScenarioError as error:
        raise ReproducerError(f"{path}: {error}") from error
    if not isinstance(scenario, Scenario):
        raise ReproducerError(
            f"{path}: 'scenario' decodes to "
            f"{type(scenario).__name__}, not a Scenario"
        )
    if scenario.digest() != document["scenario_digest"]:
        raise ReproducerError(
            f"{path}: scenario digest mismatch — file corrupted or "
            f"hand-edited (stored {document['scenario_digest'][:16]}..., "
            f"recomputed {scenario.digest()[:16]}...)"
        )

    target = document["target_oracles"]
    if (not isinstance(target, list)
            or not all(isinstance(name, str) for name in target)):
        raise ReproducerError(
            f"{path}: 'target_oracles' must be a list of strings"
        )

    violations = []
    for item in document.get("violations", []):
        if (not isinstance(item, dict) or "oracle" not in item
                or "message" not in item):
            raise ReproducerError(
                f"{path}: malformed violation entry {item!r}"
            )
        violations.append(Violation(oracle=str(item["oracle"]),
                                    message=str(item["message"])))

    tasks = document.get("tasks")
    if tasks is not None:
        if not isinstance(tasks, dict):
            raise ReproducerError(f"{path}: 'tasks' must be an object")
        for label in ("reference", "duplicated"):
            if label not in tasks:
                raise ReproducerError(f"{path}: tasks missing {label!r}")
            try:
                spec = spec_from_jsonable(tasks[label])
            except TaskSpecError as error:
                raise ReproducerError(
                    f"{path}: invalid {label} task spec: {error}"
                ) from error
            if not isinstance(spec, TaskSpec):
                # Untagged JSON decodes to itself; only a real TaskSpec
                # went through the validating constructors.
                raise ReproducerError(
                    f"{path}: {label} task does not decode to a TaskSpec"
                )

    seed = document.get("campaign_seed")
    if seed is not None and not isinstance(seed, int):
        raise ReproducerError(f"{path}: 'campaign_seed' must be an int")

    return Reproducer(
        scenario=scenario,
        target_oracles=tuple(target),
        violations=tuple(violations),
        campaign_seed=seed,
    )


def save_run_report(
    scenario: Scenario, path: Union[str, Path]
) -> Path:
    """Run one scenario's duplicated network under full telemetry and
    write the obs layer's ``repro.run-report`` artifact.

    Minimal reproducers ship with one of these so a failure can be read
    (channel fills vs capacity, divergence headroom, detection latency
    vs bound) without re-running anything.
    """
    import json

    from repro.experiments.runner import run_duplicated
    from repro.obs import Observability, build_run_report, validate_report

    app = scenario.build_app()
    sizing = scenario.applied_sizing(app)
    obs = Observability()
    run = run_duplicated(
        app,
        scenario.tokens,
        scenario.seed,
        fault=scenario.fault,
        sizing=sizing,
        strict_single_fault=scenario.missize is None,
        recovery=scenario.recovery,
        obs=obs,
    )
    report = build_run_report(run, sizing, app.name, scenario.tokens,
                              scenario.seed, fault=scenario.fault)
    validate_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return path


def replay_reproducer(
    reproducer: Reproducer,
    executor: Optional[SweepExecutor] = None,
) -> ScenarioOutcome:
    """Re-execute a reproducer's scenario under the full oracle suite,
    on ``executor`` (``None``: a serial, uncached one).

    Returns the judged outcome; :meth:`Reproducer.matches` tells whether
    the recorded violation reproduced.
    """
    [outcome] = judge_scenarios([reproducer.scenario],
                                oracles_by_name(None), executor)
    return outcome
