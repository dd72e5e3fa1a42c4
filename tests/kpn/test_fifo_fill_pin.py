"""Output pin: the ``chan.<name>.fill`` series every FIFO samples.

With a metrics registry attached, a :class:`~repro.kpn.channel.Fifo`
samples its fill level at every committed read and write.  Two runs are
digested (SHA-256 over canonical JSON of each ``*.fill`` series'
retained ``times``/``values``):

* ``mjpeg`` — a short observed duplicated MJPEG run: twelve untimed
  plain FIFOs inside the replicas plus the selector's fill series;
* ``timed-primed`` — a hand-built chain through a timed FIFO (transfer
  latency) and a primed FIFO (initial tokens), so the sampling of both
  general channel shapes is pinned too.

Changes to how the fill is sampled must keep both digests, so never
regenerate them to make a refactor pass.
"""

import hashlib
import json

from repro.apps import MjpegDecoderApp
from repro.experiments import runner
from repro.kpn.network import Network
from repro.kpn.process import FunctionProcess, PeriodicSource, RecordingSink
from repro.kpn.tokens import Token
from repro.obs import MetricsRegistry, Observability, TimeSeries
from repro.rtc.pjd import PJD

PINS = {
    "mjpeg": ("aa346d2bff5d670a83fd0a3176349b5b"
              "f4187f77d8970c011861ec182fefef0c"),
    "timed-primed": ("9691384821ddf6ff512e3eb824b3b14d"
                     "7d45a05c102203a7c9cb486b2e6c4602"),
}


def _fill_digest(registry) -> str:
    series = {}
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, TimeSeries) and name.endswith(".fill"):
            series[name] = [instrument.times, instrument.values]
    assert series
    text = json.dumps(series, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mjpeg_registry():
    obs = Observability()
    runner.run_duplicated(MjpegDecoderApp(seed=2), 12, 5, obs=obs)
    return obs.registry


def _timed_primed_registry():
    registry = MetricsRegistry()
    net = Network("chain", metrics=registry)
    src = net.add_process(PeriodicSource("src", PJD(3.0, 2.0, 1.0), 60,
                                         seed=4))
    work = net.add_process(FunctionProcess("work", lambda v: v * 2,
                                           service=2.5))
    snk = net.add_process(RecordingSink("snk"))
    timed = net.add_fifo("timed", 3,
                         transfer_latency=lambda token: 0.75 + token[1] % 3)
    primed = net.add_fifo(
        "primed", 5,
        initial_tokens=tuple(Token(-k, seqno=0) for k in range(2)))
    src.output = timed.writer
    work.input = timed.reader
    work.output = primed.writer
    snk.input = primed.reader
    net.run()
    assert len(snk.records) == 62
    return registry


def test_mjpeg_fill_series_match_pin():
    assert _fill_digest(_mjpeg_registry()) == PINS["mjpeg"]


def test_timed_and_primed_fill_series_match_pin():
    assert _fill_digest(_timed_primed_registry()) == PINS["timed-primed"]
