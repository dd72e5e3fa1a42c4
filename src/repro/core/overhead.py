"""Memory and runtime overhead accounting (Table 2, "Overhead" block).

The paper reports, per application:

* memory overhead of the framework — a small code/static-state footprint
  (2.1 KB at the selector, 1.5 KB at the replicator) plus token storage
  (``|S_1| + |S_2|`` tokens at the selector, ``|R_1| + |R_2|`` at the
  replicator), expressed as a percentage of the application code size;
* runtime overhead — the bookkeeping time the framework adds per token,
  expressed as a percentage of the application period.

On the SCC these were measured with the TSC; in this reproduction they are
*modelled*: every channel counts the primitive counter updates its
operations perform (its ``ops`` and ``op_calls`` counters), and an
:class:`OverheadModel` converts primitive-operation counts into cycles and
microseconds using the paper's platform clock (533 MHz tiles).  The cycle
cost per primitive operation is a model constant calibrated so the MJPEG
numbers land in the paper's range; what the experiments *measure* is the
operation counts, which are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple


class OpCounter(NamedTuple):
    """Primitive-operation counts of one channel: ``operations`` updates
    over ``calls`` channel operations."""

    operations: int = 0
    calls: int = 0


@dataclass(frozen=True)
class OverheadModel:
    """Platform model converting operation counts into time and bytes.

    Defaults reproduce the paper's SCC configuration: 533 MHz tile clock;
    the per-primitive cycle cost is a calibration constant representing the
    counter update plus its share of MPB access on the SCC.
    """

    tile_frequency_hz: float = 533e6
    cycles_per_primitive_op: int = 350
    replicator_code_bytes: int = 1536  # the paper's 1.5 KB
    selector_code_bytes: int = 2150  # the paper's 2.1 KB

    def runtime_us(self, operations: int) -> float:
        """Microseconds of framework bookkeeping for ``operations``."""
        cycles = operations * self.cycles_per_primitive_op
        return cycles / self.tile_frequency_hz * 1e6


@dataclass
class OverheadReport:
    """Overhead of one channel in one run (one Table 2 "Overhead" row)."""

    site: str
    code_bytes: int
    token_slots: int
    token_bytes: int
    per_token_us: float
    memory_fraction_of_app: float
    runtime_fraction_of_period: float
    total_operations: int = 0

    def memory_description(self) -> str:
        """Rendered like the paper: ``2.1KB+10Tokens (0.7%)``."""
        return (
            f"{self.code_bytes / 1024:.1f}KB+{self.token_slots}Tokens "
            f"({self.memory_fraction_of_app * 100:.2g}%)"
        )

    def runtime_description(self) -> str:
        """Rendered like the paper: ``6 us (0.02%)``."""
        return (
            f"{self.per_token_us:.2g} us "
            f"({self.runtime_fraction_of_period * 100:.2g}%)"
        )


def replicator_overhead(
    model: OverheadModel,
    counter: OpCounter,
    capacities: Tuple[int, int],
    token_bytes: int,
    tokens_transferred: int,
    app_code_bytes: int,
    period_ms: float,
) -> OverheadReport:
    """Build the replicator overhead row from a finished run."""
    slots = sum(capacities)
    per_token_ops = (
        counter.operations / tokens_transferred if tokens_transferred else 0.0
    )
    per_token_us = model.runtime_us(1) * per_token_ops
    return OverheadReport(
        site="replicator",
        code_bytes=model.replicator_code_bytes,
        token_slots=slots,
        token_bytes=slots * token_bytes,
        per_token_us=per_token_us,
        memory_fraction_of_app=model.replicator_code_bytes / app_code_bytes,
        runtime_fraction_of_period=(per_token_us / 1000.0) / period_ms,
        total_operations=counter.operations,
    )


def selector_overhead(
    model: OverheadModel,
    counter: OpCounter,
    capacities: Tuple[int, int],
    token_bytes: int,
    tokens_transferred: int,
    app_code_bytes: int,
    period_ms: float,
) -> OverheadReport:
    """Build the selector overhead row from a finished run."""
    slots = sum(capacities)
    per_token_ops = (
        counter.operations / tokens_transferred if tokens_transferred else 0.0
    )
    per_token_us = model.runtime_us(1) * per_token_ops
    return OverheadReport(
        site="selector",
        code_bytes=model.selector_code_bytes,
        token_slots=slots,
        token_bytes=slots * token_bytes,
        per_token_us=per_token_us,
        memory_fraction_of_app=model.selector_code_bytes / app_code_bytes,
        runtime_fraction_of_period=(per_token_us / 1000.0) / period_ms,
        total_operations=counter.operations,
    )
