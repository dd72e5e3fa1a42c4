"""Application-specific process shapes (Figure 2 topologies).

The MJPEG decoder's ``splitstream`` and ``mergeframe`` processes are
fan-out / fan-in stages; the generic shapes in :mod:`repro.kpn.process`
are single-input single-output, so the two multi-port shapes live here.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.errors import ProtocolError
from repro.kpn.operations import Delay, Read, Write
from repro.kpn.process import Process, jitter_offsets
from repro.kpn.tokens import Token
from repro.rtc.pjd import PJD

_tuple_new = tuple.__new__


class SplitStream(Process):
    """Fan a composite token out to parallel workers.

    The incoming token's value must be a sequence with one element per
    output; element ``i`` goes to output ``i``.  Models the MJPEG
    ``splitstream`` process over pre-striped payloads.
    """

    def __init__(
        self,
        name: str,
        fanout: int,
        service_ms: float = 0.0,
        part_size: Optional[Callable[[Any], int]] = None,
    ) -> None:
        super().__init__(name)
        self.fanout = fanout
        self.service_ms = service_ms
        self.part_size = part_size or (lambda part: 0)
        self.input: Optional[ReadEndpoint] = None
        self.outputs: List[Optional[WriteEndpoint]] = [None] * fanout
        self.processed = 0

    def behavior(self):
        if self.input is None or any(o is None for o in self.outputs):
            raise ProtocolError(f"{self.name}: endpoints not connected")
        while True:
            token = yield Read(self.input)
            if self.service_ms > 0:
                yield Delay(self.service_ms * self.slowdown)
            parts = token.value
            if len(parts) != self.fanout:
                raise ProtocolError(
                    f"{self.name}: token has {len(parts)} parts, "
                    f"expected {self.fanout}"
                )
            for i, part in enumerate(parts):
                out = Token(
                    value=part,
                    seqno=token.seqno,
                    stamp=self.now,
                    size_bytes=self.part_size(part),
                    origin=self.name,
                )
                yield Write(self.outputs[i], out)
            self.processed += 1


class MergeFrame(Process):
    """Join one token from every input, combine, and pace the output.

    Models the MJPEG ``mergeframe`` process: stripes from the parallel
    decoders are reassembled into one frame, and the frame is released on
    the replica's production PJD model (this is where the replicas'
    design-diversity jitter lives).  Rate-degradation faults stretch the
    pacing via ``self.slowdown``.  Paced exactly as
    :class:`~repro.kpn.process.PacedRelay`, jitter stream included.
    """

    def __init__(
        self,
        name: str,
        fanin: int,
        combine: Callable[[Sequence[Any]], Any],
        timing: PJD,
        seed: int = 0,
        out_size: Optional[Callable[[Any], int]] = None,
        service_ms: float = 0.0,
    ) -> None:
        super().__init__(name)
        self.fanin = fanin
        self.combine = combine
        self.timing = timing
        self.seed = seed
        self.out_size = out_size or (lambda value: 0)
        self.service_ms = service_ms
        self.inputs: List[Optional[ReadEndpoint]] = [None] * fanin
        self.output: Optional[WriteEndpoint] = None
        self.release_times: List[float] = []

    def behavior(self):
        if any(i is None for i in self.inputs) or self.output is None:
            raise ProtocolError(f"{self.name}: endpoints not connected")
        timing = self.timing
        period = timing.period
        min_distance = timing.min_distance
        half_jitter = timing.jitter / 2.0
        next_offset = (
            jitter_offsets(np.random.default_rng(self.seed),
                           half_jitter).__next__
            if half_jitter > 0 else None
        )
        nominal = 0.0
        previous = -math.inf
        sim = self._sim
        name = self.name
        combine = self.combine
        out_size = self.out_size
        service_ms = self.service_ms
        release_append = self.release_times.append
        read_ops = [Read(endpoint) for endpoint in self.inputs]
        delay_op = Delay(0.0)
        write_op = Write(self.output, None)
        while True:
            parts = []
            seqno = None
            for read_op in read_ops:
                token = yield read_op
                if seqno is None:
                    seqno = token[1]
                elif token[1] != seqno:
                    raise ProtocolError(
                        f"{name}: stripe sequence mismatch "
                        f"({token[1]} vs {seqno})"
                    )
                parts.append(token[0])
            if service_ms > 0:
                delay_op.duration = service_ms * self.slowdown
                yield delay_op
            value = combine(parts)
            slowdown = self.slowdown
            nominal += period * slowdown
            target = nominal
            if next_offset is not None:
                target += next_offset()
            # ``max(target, floor, now)``, keeping the first of equals.
            floor = previous + min_distance * slowdown
            if floor > target:
                target = floor
            now = sim._now
            if now > target:
                target = now
            wait = target - now
            if wait > 0:
                delay_op.duration = wait
                yield delay_op
                now = sim._now
            previous = now
            write_op.token = _tuple_new(
                Token, (value, seqno, now, out_size(value), name)
            )
            release_append(now)
            yield write_op
