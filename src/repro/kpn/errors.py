"""Exception hierarchy of the KPN simulator."""

from __future__ import annotations


class KpnError(Exception):
    """Base class for all simulator errors."""


class SimulationError(KpnError):
    """An invariant of the simulation engine was violated."""


class ProtocolError(KpnError):
    """A process or channel broke the KPN protocol (e.g. a second reader
    attached to a single-reader FIFO, or an unknown operation yielded)."""
