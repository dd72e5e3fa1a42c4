"""The benchmark's three workloads.

Each workload is built in two steps, so the caller can time them apart:
the constructor is the *set-up* (imports and application construction),
:meth:`run` is the *timed part*, and :meth:`check` judges the outputs
afterwards, untimed.  :meth:`guard` runs just before the timed part and
refuses to measure a warm process: every repetition must pay the cold
costs a fresh ``repro`` command pays.

Why these three (each layer that is likely to be optimised does most of
the work in one workload and little or none in another):

* ``media-cold`` — ``repro report`` defaults for MJPEG, ADPCM and H.264,
  each on a fresh application, so payload compute (``repro.codec``)
  dominates; no campaign, no executor, no recovery.
* ``campaign`` — ``repro campaign`` defaults restricted to the synthetic
  families: every distinct random model set is a fresh Section 3.4 solve
  in the parent (``repro.rtc``) and ~200 short simulations run in the
  worker pool (``repro.exec``), streaming to a run ledger; no codec.
* ``horizon`` — ``repro report`` on the default synthetic application at
  the paper's 18,000-token injection point with the recovery
  countermeasure armed: one solve, no codec, so the engine, the
  replicator/selector bookkeeping, the observability hooks and the
  recovery path dominate.  Few processes and many tokens, the opposite
  of ``media-cold``.
"""

from __future__ import annotations

import os
import random
import tempfile
from typing import Dict, List, Tuple

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: exercises the same code paths in about a second, for the self-tests.
SIZES = {
    "full": {
        "media_warmup": 80, "media_drain": 40,
        "campaign_budget": 100,
        "horizon_runs": 4, "horizon_warmup": 18000, "horizon_drain": 200,
    },
    "tiny": {
        "media_warmup": 6, "media_drain": 40,
        "campaign_budget": 4,
        "horizon_runs": 2, "horizon_warmup": 300, "horizon_drain": 200,
    },
}

#: ``repro campaign`` runs its pool with this many workers here: one
#: per core of the 2-core reference host.
CAMPAIGN_JOBS = 2


class Outcome:
    """The judged result of one repetition.

    ``counts`` are deterministic for a given seed and size: identical
    across repetitions, and between traced and untraced runs.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counts: Dict[str, object] = {}

    def judge(self, label: str, problems: List[str]) -> None:
        """Count one operation; it fails when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


class ColdStartError(RuntimeError):
    """The process was warm where a repetition must start cold."""


def _require_cold_rtc() -> None:
    from repro.obs.rtccache import rtc_cache_stats

    warm = {name: s["currsize"] for name, s in rtc_cache_stats().items()
            if s["currsize"]}
    if warm:
        raise ColdStartError(f"RTC memo not empty: {warm}")


def _tokens_delivered(values, tokens: int, priming: int) -> List[str]:
    expected = tokens + priming
    if len(values) != expected:
        return [f"{len(values)} tokens delivered, expected {expected}"]
    return []


class MediaCold:
    """``repro report`` defaults on each media app, from a cold start."""

    name = "media-cold"
    parallel = False

    def __init__(self, seed: int, size: str) -> None:
        from repro.apps import AdpcmApp, H264EncoderApp, MjpegDecoderApp
        from repro.apps.base import AppScale
        from repro.experiments import runner
        from repro.faults.models import FAIL_STOP, FaultSpec
        from repro.obs import (
            Observability,
            build_run_report,
            validate_report,
        )

        self._runner = runner
        self._observability = Observability
        self._build_report = build_run_report
        self._validate = validate_report
        params = SIZES[size]
        self.seed = seed
        self.warmup = params["media_warmup"]
        self.tokens = self.warmup + params["media_drain"]
        self.apps = [cls(AppScale(), seed=seed)
                     for cls in (MjpegDecoderApp, AdpcmApp, H264EncoderApp)]
        self.faults = [
            FaultSpec(replica=0,
                      time=runner.fault_time_for(app, self.warmup, phase=0.4),
                      kind=FAIL_STOP, slowdown=4.0)
            for app in self.apps
        ]
        self.results: List[Tuple] = []

    def guard(self) -> None:
        _require_cold_rtc()
        for app in self.apps:
            for attr in ("_stripe_cache", "_decode_cache", "_enc_cache",
                         "_dec_cache", "_streams"):
                if getattr(app, attr, None):
                    raise ColdStartError(f"{app.name}.{attr} is not empty")

    def run(self) -> None:
        for app, fault in zip(self.apps, self.faults):
            sizing = app.sizing()
            run = self._runner.run_duplicated(
                app, self.tokens, self.seed, fault=fault, sizing=sizing,
                obs=self._observability(),
            )
            report = self._build_report(run, sizing, app.name, self.tokens,
                                        self.seed, fault=fault)
            self._validate(report)
            self.results.append((app, fault, sizing, run, report))

    def check(self) -> Outcome:
        from repro.exec.results import hash_values

        outcome = Outcome()
        events, tokens, drops, detections = [], 0, 0, 0
        for app, fault, sizing, run, report in self.results:
            problems = _tokens_delivered(run.values, self.tokens,
                                         sizing.selector_priming)
            reference = self._runner.run_reference(app, self.tokens,
                                                   self.seed, sizing=sizing)
            if hash_values(run.values) != hash_values(reference.values):
                problems.append("consumer values differ from the "
                                "reference network (Theorem 2)")
            problems += _detection_problems(run, sizing, fault, report)
            outcome.judge(app.name, problems)
            events.append(run.events)
            tokens += len(run.values)
            drops += sum(run.selector_drops)
            detections += len(run.detections)
        outcome.counts = {
            "sim.events": sum(events), "events_by_app": events,
            "tokens": tokens, "selector.drops": drops,
            "detections": detections, "recovery.attempts": 0,
            "recovery.completed": 0,
        }
        return outcome


def _detection_problems(run, sizing, fault, report) -> List[str]:
    """One detection per site, all at the faulted replica, each within
    its Eq. 6-8 bound."""
    problems = []
    sites = [d.site for d in run.detections]
    if not sites:
        return ["fault not detected"]
    if len(sites) != len(set(sites)):
        problems.append(f"more than one detection at a site: {sites}")
    stray = [d for d in run.detections if d.replica != fault.replica]
    if stray:
        problems.append(f"detection at the healthy replica: {stray[0]}")
    bounds = {"replicator": sizing.replicator_detection_bound,
              "selector": sizing.selector_detection_bound}
    for site in set(sites):
        latency = run.detection_latency(site=site)
        if latency is None or latency > bounds[site]:
            problems.append(f"{site} latency {latency} exceeds its "
                            f"bound {bounds[site]}")
    if report["detection"]["within_bound"] is not True:
        problems.append("run report: detection not within bound")
    return problems


class Campaign:
    """``repro campaign`` defaults over the synthetic families."""

    name = "campaign"
    #: Forks pool workers: runs on every vCPU instead of one.
    parallel = True

    def __init__(self, seed: int, size: str) -> None:
        from repro.campaign import CampaignConfig, run_campaign
        from repro.campaign.scenario import (
            DEFAULT_APP_WEIGHTS,
            ScenarioGenerator,
        )
        from repro.obs import LedgerWriter

        self._run_campaign = run_campaign
        weights = tuple(w for w in DEFAULT_APP_WEIGHTS
                        if w[0].startswith("synthetic"))
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=out)
        self.ledger_path = os.path.join(self._tmp.name, "campaign.ledger")
        self.ledger = LedgerWriter(self.ledger_path)
        self.config = CampaignConfig(
            seed=seed,
            budget=SIZES[size]["campaign_budget"],
            jobs=CAMPAIGN_JOBS,
            ledger=self.ledger,
            generator=ScenarioGenerator(seed, app_weights=weights),
        )
        self.result = None

    def guard(self) -> None:
        _require_cold_rtc()
        if self.config.cache is not None:
            raise ColdStartError("a ResultCache is configured")

    def run(self) -> None:
        try:
            self.result = self._run_campaign(self.config)
        finally:
            self.ledger.close()

    def check(self) -> Outcome:
        outcome = Outcome()
        events = tokens = drops = attempts = completed = 0
        for scenario in self.result.outcomes:
            outcome.judge(scenario.scenario.label(),
                          [] if scenario.passed
                          else [f"verdict {scenario.verdict}"])
            for task in (scenario.reference, scenario.duplicated):
                events += task.events
            tokens += scenario.duplicated.token_count
            drops += sum(scenario.duplicated.selector_drops)
            recovery = scenario.duplicated.recovery
            if recovery:
                attempts += len(recovery["attempts"])
                completed += recovery["completed"]
        outcome.counts = {
            "digest": self.result.digest(),
            "scenarios": len(self.result.outcomes),
            "sim.events": events, "tokens": tokens,
            "selector.drops": drops, "recovery.attempts": attempts,
            "recovery.completed": completed,
            "obs.ledger_records": self.ledger.records_written,
        }
        self.ledger_bytes = os.path.getsize(self.ledger_path)
        self._tmp.cleanup()
        return outcome


class Horizon:
    """``repro report`` on the default synthetic app at the paper's
    18,000-token injection point, with recovery armed."""

    name = "horizon"
    parallel = False

    def __init__(self, seed: int, size: str) -> None:
        from repro.apps import SyntheticApp
        from repro.experiments import runner
        from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
        from repro.obs import (
            Observability,
            build_run_report,
            validate_report,
        )
        from repro.recovery import RecoverySpec

        self._runner = runner
        self._observability = Observability
        self._build_report = build_run_report
        self._validate = validate_report
        self._recovery = RecoverySpec()
        params = SIZES[size]
        warmup = params["horizon_warmup"]
        self.tokens = warmup + params["horizon_drain"]
        self.app = SyntheticApp(seed=seed)
        rng = random.Random(seed)
        # Fail-stop and rate-degrade alternate; so does the faulted
        # replica, every second run: (FS, R1), (RD, R2), (FS, R2), ...
        self.runs = [
            (rng.randrange(1_000_000),
             FaultSpec(replica=(index + index // 2) % 2,
                       time=runner.fault_time_for(self.app, warmup,
                                                  phase=0.4),
                       kind=FAIL_STOP if index % 2 == 0 else RATE_DEGRADE,
                       slowdown=4.0))
            for index in range(params["horizon_runs"])
        ]
        self.results: List[Tuple] = []

    def guard(self) -> None:
        _require_cold_rtc()

    def run(self) -> None:
        sizing = self.app.sizing()
        for run_seed, fault in self.runs:
            run = self._runner.run_duplicated(
                self.app, self.tokens, run_seed, fault=fault, sizing=sizing,
                obs=self._observability(), recovery=self._recovery,
            )
            report = self._build_report(run, sizing, self.app.name,
                                        self.tokens, run_seed, fault=fault)
            self._validate(report)
            self.results.append((fault, sizing, run, report))

    def check(self) -> Outcome:
        outcome = Outcome()
        events = tokens = drops = attempts = completed = 0
        for index, (fault, sizing, run, report) in enumerate(self.results):
            problems = _tokens_delivered(run.values, self.tokens,
                                         sizing.selector_priming)
            recovery = run.recovery or {"attempts": [], "completed": 0}
            if len(recovery["attempts"]) != 1 or recovery["completed"] != 1:
                problems.append(
                    f"{len(recovery['attempts'])} recovery attempt(s), "
                    f"{recovery['completed']} completed; expected 1 and 1"
                )
            if report["detection"]["within_bound"] is not True:
                problems.append("detection not within its bound")
            outcome.judge(f"run {index} {fault.kind}@r{fault.replica}",
                          problems)
            events += run.events
            tokens += len(run.values)
            drops += sum(run.selector_drops)
            attempts += len(recovery["attempts"])
            completed += recovery["completed"]
        outcome.counts = {
            "sim.events": events, "tokens": tokens,
            "selector.drops": drops, "recovery.attempts": attempts,
            "recovery.completed": completed,
        }
        return outcome


WORKLOADS = {cls.name: cls for cls in (MediaCold, Campaign, Horizon)}
