"""MTTF / availability campaigns: repeated inject→detect→recover cycles.

The detection half of the paper bounds *when* a fault is noticed; the
recovery layer (:mod:`repro.recovery`) closes the loop.  This module
measures what the closed loop buys: a seeded stream of fault scenarios —
every cycle a fresh system start, a sampled fault, a countermeasure, and
the oracle suite judging the aftermath — reduced to the classic
dependability triple

* **MTTF** — mean time to failure: the mean injection instant over the
  cycles (each cycle boots a fresh virtual system, so the injection
  instant *is* its time to failure);
* **MTTR** — mean time to repair: detection-to-completion of the
  countermeasure, plus the detection latency itself (failure to full
  recovery, ``recovered_at - injected_at``);
* **availability** — ``MTTF / (MTTF + MTTR)``, the steady-state fraction
  of time the duplicated network provides Theorem 2 service.

Cycles run in fixed-size batches through one persistent
:class:`~repro.exec.SweepExecutor` (one worker pool, cache, ledger
streaming), but convergence is judged strictly in cycle order with a
batch size independent of ``jobs`` — the stopping point, and therefore
the result, is a pure function of the seed and the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.engine import (
    VERDICT_PASS,
    ScenarioOutcome,
    evaluate_scenario,
)
from repro.campaign.oracles import oracles_by_name
from repro.campaign.scenario import ScenarioGenerator
from repro.exec import ResultCache, SweepExecutor
from repro.recovery.spec import RecoverySpec


@dataclass
class MttfConfig:
    """Everything one MTTF campaign needs.

    The campaign stops at the first cycle where the moving availability
    estimate has converged (relative change over the last ``window``
    cycles below ``rel_tol``, after at least ``min_cycles`` cycles), or
    at ``max_cycles``, whichever comes first.
    """

    seed: int = 7
    max_cycles: int = 60
    min_cycles: int = 12
    window: int = 8
    rel_tol: float = 0.05
    jobs: int = 1
    recovery: RecoverySpec = field(default_factory=RecoverySpec)
    oracles: Tuple[str, ...] = ()
    cache: Optional[ResultCache] = None
    ledger: Optional[object] = None

    def __post_init__(self) -> None:
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.min_cycles < 1:
            raise ValueError("min_cycles must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")


@dataclass
class MttfCycle:
    """One judged inject→detect→recover cycle."""

    outcome: ScenarioOutcome
    #: Injection instant — this cycle's time to failure (ms).
    ttf_ms: Optional[float]
    #: Failure to full recovery, ``recovered_at - injected_at`` (ms);
    #: ``None`` when the countermeasure never completed.
    mttr_ms: Optional[float]

    @property
    def verdict(self) -> str:
        return self.outcome.verdict

    @property
    def passed(self) -> bool:
        return self.outcome.passed


@dataclass
class MttfResult:
    """Everything one MTTF campaign produced."""

    seed: int
    recovery: RecoverySpec
    cycles: List[MttfCycle] = field(default_factory=list)
    converged: bool = False
    #: Running availability estimate after each cycle (the convergence
    #: trace; ``None`` entries mark cycles without both means yet).
    availability_trace: List[Optional[float]] = field(default_factory=list)

    @property
    def mttf_ms(self) -> Optional[float]:
        times = [c.ttf_ms for c in self.cycles if c.ttf_ms is not None]
        return sum(times) / len(times) if times else None

    @property
    def mttr_ms(self) -> Optional[float]:
        times = [c.mttr_ms for c in self.cycles if c.mttr_ms is not None]
        return sum(times) / len(times) if times else None

    @property
    def availability(self) -> Optional[float]:
        mttf, mttr = self.mttf_ms, self.mttr_ms
        if mttf is None or mttr is None or mttf + mttr <= 0:
            return None
        return mttf / (mttf + mttr)

    @property
    def failures(self) -> List[MttfCycle]:
        return [c for c in self.cycles if not c.passed]

    @property
    def ok(self) -> bool:
        return bool(self.cycles) and not self.failures

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cycle in self.cycles:
            counts[cycle.verdict] = counts.get(cycle.verdict, 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """The plain-data reduction the campaign report embeds."""
        return {
            "seed": self.seed,
            "cycles": len(self.cycles),
            "converged": self.converged,
            "ok": self.ok,
            "mttf_ms": self.mttf_ms,
            "mttr_ms": self.mttr_ms,
            "availability": self.availability,
            "verdicts": self.verdict_counts(),
            "recovery": self.recovery.as_dict(),
            "failures": [
                {
                    "cycle": index,
                    "label": cycle.outcome.scenario.label(),
                    "verdict": cycle.verdict,
                    "violations": [
                        v.as_dict() for v in cycle.outcome.violations
                    ],
                }
                for index, cycle in enumerate(self.cycles)
                if not cycle.passed
            ],
        }


def _cycle_metrics(outcome: ScenarioOutcome
                   ) -> Tuple[Optional[float], Optional[float]]:
    """(ttf, mttr) of one judged cycle, in virtual milliseconds."""
    duplicated = outcome.duplicated
    ttf = duplicated.injected_at
    if ttf is None and outcome.scenario.fault is not None:
        ttf = outcome.scenario.fault.time
    mttr = None
    summary = duplicated.recovery or {}
    attempts = summary.get("attempts", [])
    completed = [a.get("completed_at") for a in attempts
                 if a.get("completed_at") is not None]
    if ttf is not None and completed:
        mttr = max(completed) - ttf
    return ttf, mttr


def run_mttf_campaign(config: MttfConfig, progress=None) -> MttfResult:
    """Run one MTTF campaign to convergence (or ``max_cycles``)."""
    say = progress or (lambda _message: None)
    oracles = oracles_by_name(config.oracles)
    generator = ScenarioGenerator(
        config.seed, fault_rate=1.0, margin_rate=0.0,
        recovery=config.recovery,
    )
    ledger = config.ledger
    if ledger is not None:
        ledger.mttf_start(
            seed=config.seed, max_cycles=config.max_cycles,
            recovery=config.recovery.as_dict(),
        )

    result = MttfResult(seed=config.seed, recovery=config.recovery)
    executor = SweepExecutor(jobs=config.jobs, cache=config.cache,
                             ledger=ledger)
    # Batch size is deliberately independent of ``jobs``: the stopping
    # cycle must be a pure function of (seed, config), not parallelism.
    batch = max(config.window, 4)
    try:
        while len(result.cycles) < config.max_cycles:
            start = len(result.cycles)
            count = min(batch, config.max_cycles - start)
            scenarios = [generator.scenario(start + offset)
                         for offset in range(count)]
            specs = []
            for scenario in scenarios:
                specs.extend(scenario.specs())
            results = executor.run(specs)
            stop = False
            for position, scenario in enumerate(scenarios):
                outcome = evaluate_scenario(
                    scenario,
                    results[2 * position],
                    results[2 * position + 1],
                    oracles,
                )
                ttf, mttr = _cycle_metrics(outcome)
                result.cycles.append(
                    MttfCycle(outcome=outcome, ttf_ms=ttf, mttr_ms=mttr)
                )
                availability = result.availability
                result.availability_trace.append(availability)
                cycle_index = len(result.cycles) - 1
                if ledger is not None:
                    ledger.mttf_cycle(
                        cycle=cycle_index,
                        verdict=outcome.verdict,
                        ttf_ms=ttf,
                        mttr_ms=mttr,
                        availability=availability,
                    )
                if not outcome.passed:
                    say(f"FAIL cycle {cycle_index} "
                        f"{scenario.label()}: {outcome.verdict} "
                        + "; ".join(v.message
                                    for v in outcome.violations))
                if _converged(result.availability_trace,
                              config.min_cycles, config.window,
                              config.rel_tol):
                    result.converged = True
                    stop = True
                    break
            if stop:
                break
    finally:
        executor.close()

    if ledger is not None:
        ledger.mttf_end(
            cycles=len(result.cycles),
            mttf_ms=result.mttf_ms,
            mttr_ms=result.mttr_ms,
            availability=result.availability,
            converged=result.converged,
            ok=result.ok,
        )
    availability = result.availability
    say(f"mttf campaign: {len(result.cycles)} cycle(s), "
        f"{len(result.failures)} failure(s), "
        f"MTTF {_fmt(result.mttf_ms)} ms, MTTR {_fmt(result.mttr_ms)} ms, "
        f"availability {_fmt(availability, 6)}"
        + (" (converged)" if result.converged else " (cycle budget hit)"))
    return result


def _converged(trace: List[Optional[float]], min_cycles: int,
               window: int, rel_tol: float) -> bool:
    """Moving-average convergence of the running availability estimate.

    Converged when the estimate after the latest cycle differs from the
    estimate ``window`` cycles earlier by less than ``rel_tol`` of its
    magnitude — i.e. another window of cycles no longer moves the
    answer.
    """
    n = len(trace)
    if n < max(min_cycles, window + 1):
        return False
    latest = trace[-1]
    earlier = trace[-1 - window]
    if latest is None or earlier is None or latest <= 0:
        return False
    return abs(latest - earlier) <= rel_tol * latest


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"
