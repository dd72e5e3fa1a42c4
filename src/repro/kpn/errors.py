"""Exception hierarchy of the KPN simulator."""

from __future__ import annotations


class KpnError(Exception):
    """Base class for all simulator errors."""


class SimulationError(KpnError):
    """An invariant of the simulation engine was violated."""


class ProtocolError(KpnError):
    """A process or channel broke the KPN protocol (e.g. a second reader
    attached to a single-reader FIFO, or an unknown operation yielded)."""


class DeadlockError(KpnError):
    """All live processes are blocked and no event is pending.

    Carries the blocked process names to aid debugging of mis-sized
    networks (a correctly sized reference network never deadlocks;
    Section 3.3 assumes such a design).
    """

    def __init__(self, blocked: list) -> None:
        names = ", ".join(sorted(blocked)) or "<none>"
        super().__init__(f"deadlock: blocked processes: {names}")
        self.blocked = list(blocked)
