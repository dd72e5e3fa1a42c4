"""Output pin: observed runs must keep producing the same telemetry.

Three seeded ``SyntheticApp(seed=3)`` runs of 500 tokens with the
recovery countermeasure armed, each observed through an
:class:`~repro.obs.Observability` bundle:

* ``fail-stop-r1`` — a fail-stop fault on replica 1 (index 0);
* ``rate-degrade-r2`` — a rate-degrade fault (slowdown 4) on replica 2;
* ``fail-stop-r1-decimated`` — the first run again, with every channel
  series registered up front with ``max_samples=64`` (``timeseries()`` is
  get-or-create, so the channels pick those instruments up), which
  drives the series through several decimation rounds.

Each run is digested (SHA-256 over canonical JSON) from four parts: the
run report without its wall-clock fields, the retained ``times``/``values`` of every time
series, the Chrome trace, and the Table 2 overhead inputs and results.
Changes to how telemetry is recorded must keep every digest, so never
regenerate them to make a refactor pass.
"""

import hashlib
import json

import pytest

from repro.apps import SyntheticApp
from repro.experiments import runner
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.obs import Observability, build_run_report
from repro.obs.chrometrace import build_chrome_trace
from repro.obs.metrics import TimeSeries
from repro.recovery import RecoverySpec

TOKENS = 500
WARMUP = 300

CHANNEL_SERIES = (
    "chan.replicator.space_1", "chan.replicator.space_2",
    "chan.replicator.divergence", "chan.selector.fill",
    "chan.selector.space_1", "chan.selector.space_2",
    "chan.selector.divergence", "chan.selector.headroom",
)

#: Run name -> (faulted replica, fault kind, run seed, decimated).
RUNS = {
    "fail-stop-r1": (0, FAIL_STOP, 11, False),
    "rate-degrade-r2": (1, RATE_DEGRADE, 12, False),
    "fail-stop-r1-decimated": (0, FAIL_STOP, 11, True),
}

#: Run name -> the SHA-256 digest of each part.
PINS = {
    "fail-stop-r1": {
        "report": ("829981e11cd3bdfa9b2d31eddc205c6f"
                   "ea12bab1fdb12c2e4dfd92d5a91b2c37"),
        "series": ("a01103e2a21dc9dce619361b8e0e5ae6"
                   "85dd350fe530d3ce07ff3d85437e2265"),
        "chrome": ("9935daf97f47b53e15c278ca1a7b808a"
                   "a2d5b738bf4614d14f78a4103c42ab3e"),
        "overhead": ("b2e6ce732d91f9ac80f2e8ea07bbb57c"
                     "f141fc36a6575f71407d92b1164d4053"),
    },
    "rate-degrade-r2": {
        "report": ("09c9df9d89157d078b150637959802e5"
                   "af4e189e778ef88cc015abebd8f59dcc"),
        "series": ("3cc2d66f6e7046823e608ef28814c246"
                   "30526369d99dd4da4196fc2942a20e46"),
        "chrome": ("ffd307a3cc3d214d5b005a42ffee0f1d"
                   "0cf7a9945536a6e58c76a07814b06725"),
        "overhead": ("dfacb111b77a04ea5ade0add7a211c7b"
                     "0d933f6b8844ce7c4492e5c2d749a6a6"),
    },
    "fail-stop-r1-decimated": {
        "report": ("4e2528808c462267da4c3dbf8881ff19"
                   "e2a33676a886876ee4d27487e247e1a4"),
        "series": ("f92f238408658b49ec9ebb2174212e91"
                   "deb41d51e5071572fcf91b04c3105a13"),
        "chrome": ("034f7afa83ef29ac05bbd273ae93ac6f"
                   "e2e540b355ea24e3f238523cc790948b"),
        "overhead": ("b2e6ce732d91f9ac80f2e8ea07bbb57c"
                     "f141fc36a6575f71407d92b1164d4053"),
    },
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _observed_run(replica, kind, seed, decimated):
    app = SyntheticApp(seed=3)
    sizing = app.sizing()
    fault = FaultSpec(replica=replica,
                      time=runner.fault_time_for(app, WARMUP, phase=0.4),
                      kind=kind, slowdown=4.0)
    obs = Observability()
    if decimated:
        for name in CHANNEL_SERIES:
            obs.registry.timeseries(name, max_samples=64)
    run = runner.run_duplicated(app, TOKENS, seed, fault=fault,
                                sizing=sizing, obs=obs,
                                recovery=RecoverySpec())
    report = build_run_report(run, sizing, app.name, TOKENS, seed,
                              fault=fault)
    return run, obs, report


def _digests(run, obs, report):
    report["throughput"].pop("wall_time_s")
    report["throughput"].pop("events_per_sec")
    registry = obs.registry
    series = {}
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, TimeSeries):
            series[name] = [instrument.times, instrument.values]
    network = run.network
    overhead = {
        "replicator_ops": [network.replicator_ops.operations,
                           network.replicator_ops.calls],
        "selector_ops": [network.selector_ops.operations,
                         network.selector_ops.calls],
        "overhead_replicator": vars(run.overhead_replicator),
        "overhead_selector": vars(run.overhead_selector),
    }
    return {
        "report": _digest(report),
        "series": _digest(series),
        "chrome": _digest(build_chrome_trace(obs)),
        "overhead": _digest(overhead),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observed_run_matches_pin(name):
    run, obs, report = _observed_run(*RUNS[name])
    assert run.recovery["completed"] == 1
    assert _digests(run, obs, report) == PINS[name]


def test_decimated_run_really_decimates():
    run, obs, report = _observed_run(*RUNS["fail-stop-r1-decimated"])
    for name in CHANNEL_SERIES:
        series = obs.registry.get(name)
        assert series.count > 4 * 64
        assert len(series.times) < 64
