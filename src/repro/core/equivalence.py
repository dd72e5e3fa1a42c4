"""Runtime-checkable equivalence between reference and duplicated networks.

Theorem 2 states that for the same input sequence the duplicated network
produces the *same output token sequence* as the reference network, and
timestamps that still satisfy the consumer's timing requirements — even
under a single timing fault.  This module turns that statement into
concrete checks over recorded runs:

* **functional equivalence** — the consumer's payload sequences are equal
  (up to the shorter run's length when a fault truncates the experiment);
* **timing acceptability** — the duplicated network's consumer never
  stalls (its PJD demand schedule was always met), and the inter-arrival
  statistics match the reference's within the framework's overhead.

Lemma 1 (isolation) is validated separately by the property tests in
``tests/core/test_selector.py`` (one replica's back-pressure is unaffected
by the other replica's behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np


def payload_equal(a: Any, b: Any) -> bool:
    """Payload equality that tolerates numpy arrays and nested tuples."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            payload_equal(x, y) for x, y in zip(a, b)
        )
    return bool(a == b)


def common_prefix_length(a: Sequence[Any], b: Sequence[Any]) -> int:
    """Length of the longest common prefix of two payload sequences."""
    length = 0
    for x, y in zip(a, b):
        if not payload_equal(x, y):
            break
        length += 1
    return length


def output_values_equal(
    reference: Sequence[Any], duplicated: Sequence[Any]
) -> bool:
    """True iff the shorter sequence is a value-prefix of the longer.

    Kahn determinacy means a truncated run (e.g. one ended early by fault
    injection teardown) must still agree on every token it did produce.
    """
    shorter = min(len(reference), len(duplicated))
    return common_prefix_length(reference, duplicated) >= shorter


@dataclass
class EquivalenceReport:
    """Outcome of comparing a reference run against a duplicated run."""

    values_equal: bool
    prefix_length: int
    reference_count: int
    duplicated_count: int
    reference_stalls: int
    duplicated_stalls: int
    max_time_shift_ms: float
    mean_time_shift_ms: float

    @property
    def equivalent(self) -> bool:
        """Theorem 2 verdict: same values, and the duplicated consumer met
        its demand schedule whenever the reference one did."""
        timing_ok = (
            self.duplicated_stalls <= self.reference_stalls
            or self.duplicated_stalls == 0
        )
        return self.values_equal and timing_ok


def check_equivalence(
    reference_values: Sequence[Any],
    duplicated_values: Sequence[Any],
    reference_times: Sequence[float],
    duplicated_times: Sequence[float],
    reference_stalls: int = 0,
    duplicated_stalls: int = 0,
) -> EquivalenceReport:
    """Compare two consumer-side recordings (values + read-completion
    times) and produce an :class:`EquivalenceReport`."""
    prefix = common_prefix_length(reference_values, duplicated_values)
    shorter = min(len(reference_values), len(duplicated_values))
    shifts: List[float] = [
        d - r
        for r, d in zip(reference_times, duplicated_times)
    ]
    max_shift = max((abs(s) for s in shifts), default=0.0)
    mean_shift = float(np.mean([abs(s) for s in shifts])) if shifts else 0.0
    return EquivalenceReport(
        values_equal=prefix >= shorter,
        prefix_length=prefix,
        reference_count=len(reference_values),
        duplicated_count=len(duplicated_values),
        reference_stalls=reference_stalls,
        duplicated_stalls=duplicated_stalls,
        max_time_shift_ms=max_shift,
        mean_time_shift_ms=mean_shift,
    )
