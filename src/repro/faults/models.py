"""Fault specifications."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The replica halts entirely at the injection instant.
FAIL_STOP = "fail-stop"

#: The replica keeps running but every service time is multiplied by
#: ``slowdown`` (> 1), modelling a degraded clock / thermal throttling /
#: partial hardware failure.
RATE_DEGRADE = "rate-degrade"

_KINDS = (FAIL_STOP, RATE_DEGRADE)


@dataclass(frozen=True)
class FaultSpec:
    """One permanent timing fault.

    Attributes
    ----------
    replica:
        Index of the faulty replica (0 or 1).
    time:
        Virtual injection instant (ms).
    kind:
        :data:`FAIL_STOP` or :data:`RATE_DEGRADE`.
    slowdown:
        Service-time multiplier for :data:`RATE_DEGRADE` (must be > 1).

    ``time`` and ``slowdown`` must be finite: NaN compares false against
    every bound and would slip past the range checks.
    """

    replica: int
    time: float
    kind: str = FAIL_STOP
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.replica not in (0, 1):
            raise ValueError("replica must be 0 or 1")
        if not (math.isfinite(self.time) and math.isfinite(self.slowdown)):
            raise ValueError("fault time and slowdown must be finite")
        if self.time < 0:
            raise ValueError("fault time must be >= 0")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == RATE_DEGRADE and self.slowdown <= 1.0:
            raise ValueError("slowdown must be > 1 for rate degradation")
