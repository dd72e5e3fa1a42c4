"""Data tokens flowing through FIFO channels.

A token ``T_k[j]`` (Section 2) carries a payload value, a monotonically
increasing per-stream sequence number ``j``, and the timestamp ``t(k, j)``
of the instant it was produced.  The size in bytes drives the SCC
communication-latency model (the paper's tokens are 10 KB encoded frames,
76.8 KB decoded frames and 3 KB ADPCM samples).

Representation
--------------

``Token`` is an immutable ``tuple`` subclass rather than a frozen
dataclass: sources construct one token per event on the engine's hottest
path, and ``tuple.__new__`` is several times cheaper than a frozen
dataclass ``__init__`` (which pays one ``object.__setattr__`` round-trip
per field).  The public surface is unchanged — named attribute access,
keyword construction, :meth:`stamped` / :meth:`with_value` copies, and
``dataclasses.FrozenInstanceError`` on attempted mutation.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Optional

_tuple_new = tuple.__new__


class Token(tuple):
    """One data token.

    Attributes
    ----------
    value:
        The payload.  Determinacy (Section 2) means this depends only on
        the input token sequence, never on timing — the equivalence checks
        compare these values between reference and duplicated networks.
    seqno:
        Per-stream sequence number ``j`` (1-based, as in the paper).
    stamp:
        Production timestamp ``t(k, j)`` in simulated milliseconds;
        ``None`` until first produced.
    size_bytes:
        Payload size used by communication-latency models.
    origin:
        Name of the producing process (diagnostic only).
    """

    __slots__ = ()

    def __new__(
        cls,
        value: Any,
        seqno: int = 0,
        stamp: Optional[float] = None,
        size_bytes: int = 0,
        origin: str = "",
    ) -> "Token":
        return _tuple_new(cls, (value, seqno, stamp, size_bytes, origin))

    # Field accessors.  Hot engine paths read ``seqno`` and ``value``;
    # tuple indexing through a property is the cheapest attribute scheme
    # that keeps the instance immutable.
    @property
    def value(self) -> Any:
        return self[0]

    @property
    def seqno(self) -> int:
        return self[1]

    @property
    def stamp(self) -> Optional[float]:
        return self[2]

    @property
    def size_bytes(self) -> int:
        return self[3]

    @property
    def origin(self) -> str:
        return self[4]

    def __setattr__(self, name: str, val: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"Token(value={self[0]!r}, seqno={self[1]!r}, "
            f"stamp={self[2]!r}, size_bytes={self[3]!r}, "
            f"origin={self[4]!r})"
        )

    # -- derived copies -----------------------------------------------------

    def stamped(self, time: float, seqno: Optional[int] = None,
                origin: Optional[str] = None) -> "Token":
        """A copy of this token stamped with a production time (and
        optionally renumbered / re-attributed)."""
        return _tuple_new(
            Token,
            (
                self[0],
                self[1] if seqno is None else seqno,
                time,
                self[3],
                self[4] if origin is None else origin,
            ),
        )

    def with_value(self, value: Any,
                   size_bytes: Optional[int] = None) -> "Token":
        """A copy carrying a transformed payload (same identity fields)."""
        return _tuple_new(
            Token,
            (
                value,
                self[1],
                self[2],
                self[3] if size_bytes is None else size_bytes,
                self[4],
            ),
        )
