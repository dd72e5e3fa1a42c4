"""Fail-silent process construction: value faults become timing faults.

The paper's fault model rests on the premise that "various techniques
already exist, both at the application level and at the hardware level,
which ensure that all faults are exhibited solely as timing faults"
(Section 1, citing Brasileiro et al.'s application-level fail-silent
nodes and master/checker processors).  This module supplies that
substrate so the repository covers the full chain *value fault ->
self-silencing -> timing fault -> detection by the framework*:

* :class:`LockstepProcess` — executes the transform on two redundant
  lanes (master/checker) and compares results token by token; on the
  first mismatch the process **halts silently** instead of emitting the
  corrupt token.  Downstream, the framework observes exactly a fail-stop
  timing fault and tolerates it;
* :class:`ValueFaultInjector` — schedules a lane corruption at a virtual
  instant (a transient upset of one lane's computation).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.core.equivalence import payload_equal
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.errors import ProtocolError
from repro.kpn.operations import Delay, Read, Write
from repro.kpn.process import Process
from repro.kpn.simulator import Simulator
from repro.kpn.tokens import Token


class LockstepProcess(Process):
    """A master/checker pair in one process.

    Both lanes run ``transform`` on every input token; the results are
    compared before anything is emitted.  A corrupted lane (injected via
    :class:`ValueFaultInjector`, or any nondeterminism bug in the
    transform) causes a mismatch, upon which the process silences itself:
    it stops consuming and producing — the fail-silent contract.

    ``service`` is the computation time of one lane in ms (the checker
    lane is modelled as running on parallel hardware, so lockstep adds
    only the comparison overhead, ``compare_ms``).
    """

    def __init__(
        self,
        name: str,
        transform: Callable[[Any], Any],
        service: float = 0.0,
        compare_ms: float = 0.01,
        seed: int = 0,
        out_size: Optional[Callable[[Any], int]] = None,
    ) -> None:
        super().__init__(name)
        self.transform = transform
        self.service = service
        self.compare_ms = compare_ms
        self.seed = seed
        self.out_size = out_size
        self.input: Optional[ReadEndpoint] = None
        self.output: Optional[WriteEndpoint] = None
        self.processed = 0
        self.silenced = False
        self.silenced_at: Optional[float] = None
        #: When set, the checker lane's next result is corrupted once.
        self._corrupt_next = False

    def inject_lane_fault(self) -> None:
        """Corrupt the checker lane's next computation (one transient)."""
        self._corrupt_next = True

    def _checker_result(self, value: Any) -> Any:
        result = self.transform(value)
        if self._corrupt_next:
            self._corrupt_next = False
            return _corrupt(result)
        return result

    def behavior(self):
        if self.input is None or self.output is None:
            raise ProtocolError(f"{self.name}: endpoints not connected")
        while True:
            token = yield Read(self.input)
            if self.service > 0:
                yield Delay(self.service * self.slowdown)
            master = self.transform(token.value)
            checker = self._checker_result(token.value)
            if self.compare_ms > 0:
                yield Delay(self.compare_ms)
            if not payload_equal(master, checker):
                # Fail silent: emit nothing, consume nothing, forever.
                self.silenced = True
                self.silenced_at = self.now
                return
            out = Token(
                value=master,
                seqno=token.seqno,
                stamp=self.now,
                size_bytes=(
                    self.out_size(master) if self.out_size else
                    token.size_bytes
                ),
                origin=self.name,
            )
            yield Write(self.output, out)
            self.processed += 1


def _corrupt(value: Any) -> Any:
    """A deterministic single-upset corruption of a payload."""
    if isinstance(value, np.ndarray):
        corrupted = value.copy()
        flat = corrupted.reshape(-1)
        if flat.size:
            if flat.dtype.kind in "iu":
                flat[0] = flat[0] ^ 1
            else:
                flat[0] = flat[0] + 1.0
        return corrupted
    if isinstance(value, bytes):
        if not value:
            return b"\x01"
        return bytes([value[0] ^ 0x01]) + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 0x1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, tuple):
        return (_corrupt(value[0]),) + value[1:] if value else ("?",)
    return ("corrupted", value)


class ValueFaultInjector:
    """Schedules a transient value fault into a lockstep process."""

    def __init__(self, process_name: str, time: float) -> None:
        if time < 0:
            raise ValueError("injection time must be >= 0")
        self.process_name = process_name
        self.time = time
        self.injected_at: Optional[float] = None

    def arm(self, sim: Simulator, network) -> None:
        """Schedule the upset; ``network`` is anything with a
        ``network.process(name)`` lookup (a :class:`~repro.kpn.network.
        Network` or a built duplicated-network wrapper)."""
        container = getattr(network, "network", network)
        process = container.process(self.process_name)
        if not isinstance(process, LockstepProcess):
            raise TypeError(
                f"{self.process_name} is not a LockstepProcess"
            )

        def fire() -> None:
            self.injected_at = sim.now
            process.inject_lane_fault()

        sim.schedule_at(self.time, fire)
