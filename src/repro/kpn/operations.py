"""Operations a process may yield to the simulator.

Processes are Python generators.  Each ``yield`` hands the simulator one of
the operations below; the simulator completes it (possibly after blocking in
virtual time) and resumes the generator with the operation's result:

* ``token = yield Read(endpoint)`` — destructive blocking read;
* ``yield Write(endpoint, token)`` — blocking write;
* ``yield Delay(duration)`` — advance virtual time (models computation);
* ``yield Halt()`` — terminate the process cleanly.

Operations are plain ``__slots__`` records, not frozen dataclasses: a
process owns the operations it yields and may *reuse* one instance across
iterations, mutating its fields between yields.  The engine only reads an
operation's fields while it is the process's current (pending) operation,
and a process can have at most one operation outstanding — it is suspended
at the yield until the operation completes — so reuse is observationally
identical to allocating a fresh record per yield while eliminating an
allocation on the hottest path in the library.  The standard process shapes
in :mod:`repro.kpn.process` all use this pattern.
"""

from __future__ import annotations

import math
from typing import Any


class Operation:
    """Marker base class for yielded operations."""

    __slots__ = ()


class Read(Operation):
    """Blocking destructive read from a channel read endpoint.

    The channel, interface index and poll entry point are captured at
    construction: an operation is created once per process and reused,
    so pre-binding ``channel.poll_read`` here removes two attribute hops
    and a method bind from every poll the engine performs.
    """

    __slots__ = ("endpoint", "channel", "index", "poll")

    def __init__(self, endpoint: Any) -> None:
        self.endpoint = endpoint
        channel = endpoint.channel
        self.channel = channel
        self.index = endpoint.index
        self.poll = channel.poll_read

    def __repr__(self) -> str:
        return f"Read(endpoint={self.endpoint!r})"


class Write(Operation):
    """Blocking write of ``token`` to a channel write endpoint.

    Pre-binds ``channel.poll_write`` exactly as :class:`Read` does.
    """

    __slots__ = ("endpoint", "channel", "index", "poll", "token")

    def __init__(self, endpoint: Any, token: Any) -> None:
        self.endpoint = endpoint
        channel = endpoint.channel
        self.channel = channel
        self.index = endpoint.index
        self.poll = channel.poll_write
        self.token = token

    def __repr__(self) -> str:
        return f"Write(endpoint={self.endpoint!r}, token={self.token!r})"


class Delay(Operation):
    """Advance the process's local virtual time by ``duration``
    (finite, >= 0)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        # The chained comparison also rejects NaN.
        if not 0 <= duration < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration!r})"


class Halt(Operation):
    """Terminate the process."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Halt()"
