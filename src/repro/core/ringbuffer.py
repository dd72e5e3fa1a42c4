"""Ring-buffer replicator — the paper's suggested efficient variant.

Section 3.1: "More efficient implementations utilizing circular FIFO
buffers with two readers are possible, but we retain the simple design
for the present discussion."  This module implements that variant: a
*single* circular buffer storing each token once, with one cursor per
reader.  Behaviour is observably identical to the two-queue
:class:`~repro.core.replicator.ReplicatorChannel` for the producer and
every healthy replica (verified by the differential tests; the one
difference is that a *condemned* replica's leftover tokens are dropped
rather than retained), while token storage drops from
``|R_1| + |R_2|`` slots to ``max(|R_1|, |R_2|)`` — on the paper's MJPEG
numbers, from 5 to 3 encoded frames (50 KB -> 30 KB at 10 KB/frame).

Mechanics: tokens live in a ring of size ``max(capacities)``.  Reader
``k`` owns a cursor ``read_k`` (count of tokens consumed); the writer
owns ``written``.  ``fill_k = written - read_k`` and ``space_k =
|R_k| - fill_k``.  A slot is reclaimed once *every healthy* reader has
passed it, so the ring never needs more than ``max_k |R_k|`` live slots
(a reader further than ``|R_k|`` behind has already been flagged
faulty).  Detection rules are exactly those of Section 3.3.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_OVERFLOW,
    DetectionLog,
)
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.tokens import Token


class RingBufferReplicator:
    """Single-storage replicator with per-reader cursors.

    Drop-in replacement for
    :class:`~repro.core.replicator.ReplicatorChannel` (same constructor
    shape, same engine-facing protocol, same detection semantics).
    """

    def __init__(
        self,
        name: str,
        capacities: Tuple[int, int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        detection_log: Optional[DetectionLog] = None,
        strict_single_fault: bool = True,
    ) -> None:
        if len(capacities) != 2:
            raise ValueError("replicator needs exactly two capacities")
        if any(c < 1 for c in capacities):
            raise ValueError("capacities must be >= 1")
        if divergence_threshold is not None and divergence_threshold < 1:
            raise ValueError("divergence threshold must be >= 1")
        self.name = name
        self.capacities = tuple(capacities)
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.strict_single_fault = strict_single_fault
        self.ops = 0
        self.op_calls = 0
        self.ring_size = max(capacities)
        self._ring: List[Optional[Tuple[float, Token]]] = (
            [None] * self.ring_size
        )
        self.written = 0
        self.reads = [0, 0]
        self.fault = [False, False]
        self._sim = None
        self._parked_readers: Tuple[Deque, Deque] = (deque(), deque())
        self._parked_writers: Deque = deque()

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        self._sim = sim

    @property
    def writer(self) -> WriteEndpoint:
        return WriteEndpoint(self, 0)

    def reader(self, replica: int) -> ReadEndpoint:
        if replica not in (0, 1):
            raise ValueError("replica index must be 0 or 1")
        return ReadEndpoint(self, replica)

    # -- state --------------------------------------------------------------

    def fill(self, replica: int) -> int:
        """Tokens written but not yet consumed by ``replica``."""
        return self.written - self.reads[replica]

    def space(self, replica: int) -> int:
        return self.capacities[replica] - self.fill(replica)

    @property
    def any_fault(self) -> bool:
        return any(self.fault)

    @property
    def live_slots(self) -> int:
        """Ring slots currently holding a token some healthy reader still
        needs — the storage the paper's comparison counts."""
        healthy = [k for k in (0, 1) if not self.fault[k]]
        if not healthy:
            return 0
        oldest = min(self.reads[k] for k in healthy)
        return self.written - oldest

    @property
    def writes(self) -> int:
        """Alias matching :class:`ReplicatorChannel`'s counter."""
        return self.written

    # -- detection ------------------------------------------------------------

    def _flag(self, replica: int, mechanism: str, now: float,
              detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self.log.record(now, "replicator", replica, mechanism, detail)
        if self.strict_single_fault and all(self.fault):
            raise SimulationError(
                f"{self.name}: both replicas flagged faulty"
            )

    def quarantine(self, replica: int) -> None:
        """Multi-port coordination hook (see
        :class:`~repro.core.multiport.FaultCoordinator`)."""
        if not self.fault[replica]:
            self.fault[replica] = True

    def _check_divergence(self, now: float) -> None:
        if self.threshold is None or self.any_fault:
            return
        gap = self.reads[0] - self.reads[1]
        if gap > self.threshold:
            self._flag(1, MECHANISM_DIVERGENCE, now,
                       f"reads={self.reads[0]}/{self.reads[1]} "
                       f"D={self.threshold}")
        elif -gap > self.threshold:
            self._flag(0, MECHANISM_DIVERGENCE, now,
                       f"reads={self.reads[0]}/{self.reads[1]} "
                       f"D={self.threshold}")

    # -- channel protocol -----------------------------------------------------

    def poll_read(self, index: int, now: float):
        if index not in (0, 1):
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        self.ops += 1
        self.op_calls += 1
        if self.fault[index]:
            # A condemned replica is cut off entirely: its leftover slots
            # were reclaimed when its cursor was abandoned.
            return ("empty", None)
        if self.reads[index] >= self.written:
            return ("empty", None)
        slot = self._ring[self.reads[index] % self.ring_size]
        ready, token = slot
        if ready > now + 1e-12:
            return ("wait", ready)
        self.reads[index] += 1
        self._check_divergence(now)
        self._wake(self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        self.ops += 3
        self.op_calls += 1
        for k in (0, 1):
            if not self.fault[k] and self.space(k) == 0:
                self._flag(k, MECHANISM_OVERFLOW, now,
                           f"space_{k + 1}=0 at write of seq "
                           f"{token.seqno}")
        healthy = [k for k in (0, 1) if not self.fault[k]]
        if not healthy:
            return ("full", None)
        # A faulty reader's cursor is abandoned: advance it so the ring
        # slot count follows only the healthy readers.
        for k in (0, 1):
            if self.fault[k]:
                self.reads[k] = max(self.reads[k], self.written)
        delay = self._latency(token) if self._latency is not None else 0.0
        self._ring[self.written % self.ring_size] = (now + delay, token)
        self.written += 1
        for k in healthy:
            self._wake(self._parked_readers[k])
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers[index].append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    def _wake(self, parked: Deque) -> None:
        # FIFO wake order (see Fifo._wake): deterministic retry sequence.
        sim = self._sim
        while parked:
            handle = parked.popleft()
            handle.is_parked = False
            if sim is not None:
                sim.retry(handle)

    def __repr__(self) -> str:
        return (
            f"RingBufferReplicator({self.name}, written={self.written}, "
            f"reads={self.reads}, fault={self.fault})"
        )
