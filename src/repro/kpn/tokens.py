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

Zero-copy payloads
------------------

Byte-stream payloads (encoded frames, access units, sample blocks) flow
through the replicator → selector chains *by reference*: channels move
token objects, never payload bytes.  The only places copies can occur are
process boundaries that re-slice or re-assemble streams.  For those,
:meth:`Token.view` derives a sub-token backed by a read-only
``memoryview`` of the parent payload (no bytes are moved) and
:meth:`Token.materialize` performs the one *explicit* copy when a real
``bytes`` object is genuinely required.  Both sides are counted in
:data:`COPY_STATS` so a run can prove transport was copy-free (the
per-channel complement lives in :class:`repro.kpn.channel.Fifo`).

``memoryview`` payloads over ``bytes`` are hashable and compare equal to
the bytes they view, so memoised codec caches and the determinacy
equivalence checks are representation-blind.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Optional

_tuple_new = tuple.__new__


class PayloadCopyStats:
    """Process-wide accounting of payload copies vs zero-copy views.

    ``copies`` / ``copied_bytes`` count explicit payload materialisations
    (the copies a zero-copy pipeline is supposed to eliminate); ``views``
    counts zero-copy sub-tokens derived via :meth:`Token.view`.
    """

    __slots__ = ("copies", "copied_bytes", "views")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.copies = 0
        self.copied_bytes = 0
        self.views = 0

    def count_copy(self, nbytes: int) -> None:
        self.copies += 1
        self.copied_bytes += nbytes

    def snapshot(self) -> dict:
        """Point-in-time copy of the counters (a plain dict)."""
        return {
            "copies": self.copies,
            "copied_bytes": self.copied_bytes,
            "views": self.views,
        }

    def delta(self, since: dict) -> dict:
        """Counter increments since an earlier :meth:`snapshot`.

        A sweep worker writes the delta of its run into the task's
        ``copy.*`` metrics counters, which is how the copies reach the
        parent process (whose global instance never sees them).
        """
        return {
            "copies": self.copies - since.get("copies", 0),
            "copied_bytes": self.copied_bytes
            - since.get("copied_bytes", 0),
            "views": self.views - since.get("views", 0),
        }

    def __repr__(self) -> str:
        return (
            f"PayloadCopyStats(copies={self.copies}, "
            f"copied_bytes={self.copied_bytes}, views={self.views})"
        )


#: Global payload-copy accounting (per process), read as per-run deltas.
#: Parallel sweep workers each count their own; fleet totals are the
#: ``copy.*`` counters of the executor's merged ``metrics``.  Reset with
#: ``COPY_STATS.reset()``.
COPY_STATS = PayloadCopyStats()


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

    # -- zero-copy payload derivation ---------------------------------------

    def view(self, start: int = 0, stop: Optional[int] = None,
             origin: Optional[str] = None) -> "Token":
        """A zero-copy sub-token over ``value[start:stop]``.

        The payload must support the buffer protocol (``bytes``,
        ``bytearray``, ``memoryview``, ...).  The derived token's payload
        is a read-only ``memoryview`` sharing the parent's storage — no
        bytes are copied — and its ``size_bytes`` is the slice length.
        """
        buffer = self[0]
        if type(buffer) is not memoryview:
            buffer = memoryview(buffer)
        view = buffer[start:stop] if stop is not None else buffer[start:]
        if not view.readonly:
            view = view.toreadonly()
        COPY_STATS.views += 1
        return _tuple_new(
            Token,
            (
                view,
                self[1],
                self[2],
                view.nbytes,
                self[4] if origin is None else origin,
            ),
        )

    def materialize(self) -> "Token":
        """A token whose payload is an owned ``bytes`` object.

        The one sanctioned copy point: a ``memoryview`` payload is copied
        into fresh bytes (counted in :data:`COPY_STATS`); any other
        payload is already owned and the token is returned unchanged.
        """
        buffer = self[0]
        if type(buffer) is not memoryview:
            return self
        COPY_STATS.count_copy(buffer.nbytes)
        return _tuple_new(
            Token, (bytes(buffer), self[1], self[2], self[3], self[4])
        )
