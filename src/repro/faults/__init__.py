"""Timing-fault models and the injector.

The paper's fault model (Section 2): at most one *permanent timing fault*,
eventually observed when the faulty replica "either stops producing (or
consuming) tokens, or does so at a rate lower than expected".  Both shapes
are provided:

* :data:`FAIL_STOP` — the replica's processes halt at the injection
  instant (the shape used in the paper's experiments, Section 4.2);
* :data:`RATE_DEGRADE` — the replica's processes keep running with all
  service times scaled up by a slowdown factor.

The phase sweeps (:mod:`~repro.faults.scenarios`, which runs the
experiment harness) and the fault sampler load on first use.
"""

from repro._lazy import lazy_exports
from repro.faults.models import (
    FAIL_STOP,
    RATE_DEGRADE,
    FaultSpec,
)
from repro.faults.injector import FaultInjector

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(["PhasePoint", "ScenarioResult", "phase_sweep",
                     "scenario_matrix"], "scenarios"),
    **dict.fromkeys(["FaultSampler", "derive_rng"], "sampling"),
})

__all__ = ["FAIL_STOP", "RATE_DEGRADE", "FaultSpec", "FaultInjector",
           "PhasePoint", "ScenarioResult", "phase_sweep",
           "scenario_matrix", "FaultSampler", "derive_rng"]
