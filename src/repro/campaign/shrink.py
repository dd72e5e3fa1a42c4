"""Greedy shrinking of violated scenarios to minimal reproducers.

Given a scenario with at least one oracle violation, :func:`shrink_scenario`
searches for a *smaller* scenario that still violates one of the same
oracles: fewer tokens, less warmup, an earlier (bisected) injection
instant, a simpler fault model, a normalised sizing margin — or no fault
at all, when the violation never needed one.  Each candidate costs one
(reference, duplicated) execution pair, so the search is greedy and
budgeted (``max_runs``): first-improvement restarts, like delta
debugging's simple mode, rather than an exhaustive lattice walk.

The invariant that keeps shrinking honest: a reduction is accepted only
if the candidate violates **an oracle the original violated** — a
candidate that merely fails differently (e.g. dropping the fault turns a
latency violation into a vacuous pass) is rejected, so the minimal
reproducer replays to the same class of violation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.oracles import (
    ALL_ORACLES,
    Oracle,
    OutcomeContext,
    Violation,
)
from repro.campaign.scenario import Scenario
from repro.exec import ResultCache, SweepExecutor, run_sweep
from repro.faults.models import FAIL_STOP, FaultSpec


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    original: Scenario
    minimal: Scenario
    #: Oracles the original scenario violated (the shrink target set).
    target_oracles: Tuple[str, ...]
    #: Violations the minimal scenario still exhibits.
    violations: Tuple[Violation, ...]
    #: Scenario executions spent (each is one reference+duplicated pair).
    runs: int

    @property
    def reduced(self) -> bool:
        return self.minimal.digest() != self.original.digest()

    @property
    def token_reduction(self) -> int:
        return self.original.tokens - self.minimal.tokens


def _judge(
    scenario: Scenario,
    oracles: Sequence[Oracle],
    jobs: int,
    cache: Optional[ResultCache],
    executor: Optional[SweepExecutor] = None,
) -> Tuple[Violation, ...]:
    """Execute one scenario and return its oracle violations."""
    results = run_sweep(scenario.specs(), jobs=jobs, cache=cache,
                        executor=executor)
    ctx = OutcomeContext(
        scenario=scenario,
        sizing=scenario.applied_sizing(scenario.build_app()),
        reference=results[0],
        duplicated=results[1],
    )
    violations: List[Violation] = []
    for oracle in oracles:
        violations.extend(oracle(ctx))
    return tuple(violations)


def _candidates(scenario: Scenario, period: float) -> Iterator[Scenario]:
    """Smaller variants of ``scenario``, most-promising first."""
    tokens, warmup = scenario.tokens, scenario.warmup_tokens
    fault = scenario.fault

    # 1. Halve the post-warmup stream (the dominant cost).
    post = tokens - warmup
    if post > 1:
        yield dataclasses.replace(
            scenario, tokens=warmup + max(1, post // 2)
        )

    # 2. Halve the warmup, keeping the fault at the same phase relative
    #    to the (shorter) warmup — the stream just starts later.
    if warmup > 0:
        new_warmup = warmup // 2
        delta = warmup - new_warmup
        new_fault = fault
        if fault is not None:
            new_time = fault.time - delta * period
            if new_time < 0:
                new_fault = None  # fall through to candidate 6's effect
            else:
                new_fault = dataclasses.replace(fault, time=new_time)
        if new_fault is not None or fault is None:
            yield dataclasses.replace(
                scenario,
                tokens=tokens - delta,
                warmup_tokens=new_warmup,
                fault=new_fault,
            )

    # 3. Normalise an over-provisioning margin back to the exact sizing.
    if scenario.capacity_margin != 1.0:
        yield dataclasses.replace(scenario, capacity_margin=1.0)

    if fault is not None:
        # 4. Bisect the injection instant toward the warmup boundary.
        floor = warmup * period
        if fault.time - floor > period / 4:
            yield dataclasses.replace(
                scenario,
                fault=dataclasses.replace(
                    fault, time=(fault.time + floor) / 2
                ),
            )
        # 5. Simplify rate degradation to the fail-stop special case.
        if fault.kind != FAIL_STOP:
            yield dataclasses.replace(
                scenario,
                fault=FaultSpec(replica=fault.replica, time=fault.time,
                                kind=FAIL_STOP),
            )
        # 6. Drop the fault entirely (false positives never needed one).
        yield dataclasses.replace(scenario, fault=None)


def shrink_scenario(
    scenario: Scenario,
    oracles: Sequence[Oracle] = ALL_ORACLES,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    max_runs: int = 48,
    known_violations: Optional[Sequence[Violation]] = None,
    executor: Optional[SweepExecutor] = None,
) -> ShrinkResult:
    """Shrink a violated scenario to a minimal reproducer.

    ``known_violations`` (e.g. from the campaign's own evaluation) skips
    the baseline re-execution.  If the scenario turns out not to violate
    anything, the result is the scenario itself with zero target oracles.
    Pass ``executor`` to judge candidates on an existing executor (and
    its live pool) instead of a fresh pool per candidate —
    the campaign engine shares its batch executor this way.
    """
    runs = 0
    if known_violations is None:
        baseline = _judge(scenario, oracles, jobs, cache, executor)
        runs += 1
    else:
        baseline = tuple(known_violations)
    target: FrozenSet[str] = frozenset(v.oracle for v in baseline)
    if not target:
        return ShrinkResult(
            original=scenario, minimal=scenario, target_oracles=(),
            violations=(), runs=runs,
        )

    period = scenario.build_app().producer_model.period
    current = scenario
    current_violations = baseline
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(current, period):
            if runs >= max_runs:
                break
            violations = _judge(candidate, oracles, jobs, cache, executor)
            runs += 1
            if target & {v.oracle for v in violations}:
                current = candidate
                current_violations = violations
                improved = True
                break

    return ShrinkResult(
        original=scenario,
        minimal=current,
        target_oracles=tuple(sorted(target)),
        violations=current_violations,
        runs=runs,
    )
