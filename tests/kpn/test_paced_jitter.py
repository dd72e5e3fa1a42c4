"""Pin: the pacers' jitter stream is the per-token scalar draw sequence.

:class:`~repro.kpn.process.PacedRelay` and
:class:`~repro.apps.processes.MergeFrame` pace every token to
``nominal + phi`` with ``phi`` uniform in ``[-jitter/2, +jitter/2]``,
drawn from a generator seeded fresh in ``behavior()``.  However the
pacers draw those offsets, the release instants must equal those of the
reference pacers below, which make one scalar ``rng.uniform`` call per
token.  The runs cover well over a thousand tokens, so any block-wise
drawing crosses several block boundaries, and a rate-degrade
``slowdown`` change lands mid-run.
"""

import math

import numpy as np
import pytest

from repro.apps.processes import MergeFrame, SplitStream
from repro.kpn.network import Network
from repro.kpn.operations import Delay, Read, Write
from repro.kpn.process import PacedRelay, PeriodicSource, Process, RecordingSink
from repro.kpn.tokens import Token
from repro.rtc.pjd import PJD

TOKENS = 1_200
#: Virtual time (ms) at which the degrader raises the pacer's slowdown.
DEGRADE_AT = 4_000.0


class ScalarPacedRelay(PacedRelay):
    """Reference: one scalar ``rng.uniform`` per token."""

    def behavior(self):
        rng = np.random.default_rng(self.seed)
        half_jitter = self.timing.jitter / 2.0
        nominal = self.start
        previous = -math.inf
        while True:
            token = yield Read(self.input)
            nominal += self.timing.period * self.slowdown
            target = nominal
            if half_jitter > 0:
                target += rng.uniform(-half_jitter, half_jitter)
            target = max(target,
                         previous + self.timing.min_distance * self.slowdown,
                         self.now)
            wait = target - self.now
            if wait > 0:
                yield Delay(wait)
            previous = self.now
            self.release_times.append(self.now)
            yield Write(self.output, Token(token.value, token.seqno,
                                           self.now, token.size_bytes,
                                           self.name))


class ScalarMergeFrame(MergeFrame):
    """Reference: one scalar ``rng.uniform`` per frame."""

    def behavior(self):
        rng = np.random.default_rng(self.seed)
        half_jitter = self.timing.jitter / 2.0
        nominal = 0.0
        previous = -math.inf
        while True:
            parts = []
            seqno = None
            for endpoint in self.inputs:
                token = yield Read(endpoint)
                seqno = token.seqno
                parts.append(token.value)
            if self.service_ms > 0:
                yield Delay(self.service_ms * self.slowdown)
            value = self.combine(parts)
            nominal += self.timing.period * self.slowdown
            target = nominal
            if half_jitter > 0:
                target += rng.uniform(-half_jitter, half_jitter)
            target = max(target,
                         previous + self.timing.min_distance * self.slowdown,
                         self.now)
            wait = target - self.now
            if wait > 0:
                yield Delay(wait)
            previous = self.now
            self.release_times.append(self.now)
            yield Write(self.output, Token(value, seqno, self.now,
                                           self.out_size(value), self.name))


class Degrader(Process):
    """Raises ``target.slowdown`` at virtual time ``at``."""

    def __init__(self, target: Process, at: float, slowdown: float) -> None:
        super().__init__("degrader")
        self.target = target
        self.at = at
        self.to = slowdown

    def behavior(self):
        yield Delay(self.at)
        self.target.slowdown = self.to


def _relay_run(cls, timing, degrade):
    net = Network("relay")
    src = net.add_process(PeriodicSource("src", PJD(4.0, 3.0, 1.0),
                                         TOKENS, seed=5))
    relay = net.add_process(cls("relay", timing, seed=9, start=2.0))
    snk = net.add_process(RecordingSink("snk"))
    fin = net.add_fifo("fin", 4)
    fout = net.add_fifo("fout", 4)
    src.output = fin.writer
    relay.input = fin.reader
    relay.output = fout.writer
    snk.input = fout.reader
    if degrade:
        net.add_process(Degrader(relay, DEGRADE_AT, 2.5))
    net.run()
    assert len(snk.records) == TOKENS
    return relay.release_times


def _merge_run(cls, timing, degrade):
    fanout = 2
    net = Network("merge")
    src = net.add_process(PeriodicSource(
        "src", PJD(4.0, 3.0, 1.0), TOKENS,
        payload=lambda i: ((i, -i), 0), seed=5))
    split = net.add_process(SplitStream("split", fanout, service_ms=0.25))
    merge = net.add_process(cls("merge", fanout, combine=tuple,
                                timing=timing, seed=9, service_ms=0.5))
    snk = net.add_process(RecordingSink("snk"))
    head = net.add_fifo("head", 4)
    tail = net.add_fifo("tail", 4)
    src.output = head.writer
    split.input = head.reader
    merge.output = tail.writer
    snk.input = tail.reader
    for k in range(fanout):
        mid = net.add_fifo(f"mid{k}", 2)
        split.outputs[k] = mid.writer
        merge.inputs[k] = mid.reader
    if degrade:
        net.add_process(Degrader(merge, DEGRADE_AT, 2.5))
    net.run()
    assert len(snk.records) == TOKENS
    return merge.release_times


PACERS = {
    "relay": (_relay_run, PacedRelay, ScalarPacedRelay),
    "merge": (_merge_run, MergeFrame, ScalarMergeFrame),
}

TIMINGS = {
    "jittered": PJD(4.0, 6.0, 1.5),
    "zero-jitter": PJD(4.0, 0.0, 4.0),
}


@pytest.mark.parametrize("degrade", [False, True],
                         ids=["steady", "rate-degrade"])
@pytest.mark.parametrize("timing", sorted(TIMINGS))
@pytest.mark.parametrize("pacer", sorted(PACERS))
def test_release_times_match_scalar_draws(pacer, timing, degrade):
    run, cls, reference = PACERS[pacer]
    model = TIMINGS[timing]
    released = run(cls, model, degrade)
    assert released == run(reference, model, degrade)
    assert all(type(instant) is float for instant in released)


@pytest.mark.parametrize("pacer", sorted(PACERS))
def test_rate_degrade_lands_mid_run(pacer):
    # The degraded runs must really change pace part way through, or
    # the parametrised pin above would not cover a slowdown change.
    run, cls, _ = PACERS[pacer]
    model = TIMINGS["jittered"]
    steady = run(cls, model, False)
    degraded = run(cls, model, True)
    changed = next(i for i, (a, b) in enumerate(zip(steady, degraded))
                   if a != b)
    assert 100 < changed < TOKENS - 100
