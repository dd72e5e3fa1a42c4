"""Golden-trace equivalence: the optimized engine must be trace-identical.

The hot-path overhaul (typed event records, the same-time direct-handoff
run queue, FIFO wake order) is only admissible under the determinism
policy of DESIGN.md if it never changes observable behaviour.  These
tests run nine seeded duplicated networks — MJPEG, ADPCM, H.264 and
synthetic; fault-free, fault-injected and recovered — with telemetry
off, on, and streaming, and with the engine driven in one ``run()`` or
split into partial runs and single steps, and compare the complete
per-channel
``ChannelTrace`` event streams byte-for-byte against golden JSON captured
from the seed engine (before the optimization landed).

Regenerating the goldens (only legitimate when a PR *deliberately*
changes observable behaviour, in the same commit that justifies it)::

    PYTHONPATH=src python tests/integration/test_trace_equivalence.py --capture
"""

import json
import math
import os
import sys

import pytest

from repro.apps.adpcm import AdpcmApp
from repro.apps.h264 import H264EncoderApp
from repro.apps.mjpeg import MjpegDecoderApp
from repro.apps.synthetic import SyntheticApp
from repro.experiments.runner import fault_time_for, run_duplicated
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.kpn.simulator import RunStats, Simulator
from repro.kpn.tracefile import recorder_to_dict
from repro.recovery import RecoverySpec

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_traces")


def _scenarios():
    """The seeded scenarios, built fresh per call.

    Each builder returns ``(app, tokens, seed, fault, recovery)``.
    Names are the golden file stems; keep them stable.
    """

    def mjpeg_clean():
        return MjpegDecoderApp(seed=77), 40, 4, None, None

    def mjpeg_failstop():
        app = MjpegDecoderApp(seed=13)
        fault = FaultSpec(replica=0,
                          time=fault_time_for(app, 25, phase=0.55),
                          kind=FAIL_STOP)
        return app, 45, 9, fault, None

    def mjpeg_recovery():
        # The closed loop on the paper's flagship codec: fail-stop,
        # countermeasure, respawned generation — all on the golden path.
        app = MjpegDecoderApp(seed=13)
        fault = FaultSpec(replica=0,
                          time=fault_time_for(app, 25, phase=0.55),
                          kind=FAIL_STOP)
        return app, 45, 9, fault, RecoverySpec()

    def synthetic_clean():
        return SyntheticApp(seed=5), 60, 5, None, None

    def synthetic_bursty():
        return SyntheticApp.bursty(seed=3), 60, 3, None, None

    def synthetic_degrade():
        app = SyntheticApp(seed=8)
        fault = FaultSpec(replica=1,
                          time=fault_time_for(app, 30, phase=0.42),
                          kind=RATE_DEGRADE, slowdown=5.0)
        return app, 70, 8, fault, None

    def h264_clean():
        # Pins the third codec (Table 1's H.264 encoder) on the event
        # engine: full encode pipeline, paced exits, no fault.
        return H264EncoderApp(seed=11), 18, 6, None, None

    def adpcm_failstop():
        app = AdpcmApp(seed=21)
        fault = FaultSpec(replica=1,
                          time=fault_time_for(app, 35, phase=0.48),
                          kind=FAIL_STOP)
        return app, 55, 7, fault, None

    def adpcm_recovery():
        # Recovery with a response delay on the second codec: the
        # countermeasure instant lands between token events, pinning the
        # scheduler interleave of respawn against a live stream.
        app = AdpcmApp(seed=21)
        fault = FaultSpec(replica=1,
                          time=fault_time_for(app, 35, phase=0.48),
                          kind=FAIL_STOP)
        return app, 55, 7, fault, RecoverySpec(response_ms=3.0)

    return {
        "mjpeg_clean": mjpeg_clean,
        "mjpeg_failstop": mjpeg_failstop,
        "mjpeg_recovery": mjpeg_recovery,
        "synthetic_clean": synthetic_clean,
        "synthetic_bursty": synthetic_bursty,
        "synthetic_degrade": synthetic_degrade,
        "h264_clean": h264_clean,
        "adpcm_failstop": adpcm_failstop,
        "adpcm_recovery": adpcm_recovery,
    }


def _trace_bytes(builder, obs=None) -> bytes:
    """Run one scenario and serialise its traces canonically."""
    app, tokens, seed, fault, recovery = builder()
    run = run_duplicated(app, tokens, seed, fault=fault,
                         sizing=app.sizing(), record_events=True, obs=obs,
                         recovery=recovery)
    payload = recorder_to_dict(run.network.network.recorder)
    # Canonical form: sorted keys, repr-exact floats, no whitespace
    # variation — byte-identity then means event-stream identity.
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_traces_match_seed_engine(name):
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    assert os.path.exists(golden_path), (
        f"missing golden trace {golden_path}; regenerate with "
        f"'python {__file__} --capture'"
    )
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    assert _trace_bytes(_scenarios()[name]) == golden, (
        f"scenario {name}: engine produced a different event stream than "
        "the seed engine — determinism regression"
    )


@pytest.mark.parametrize("name", sorted(_scenarios()),
                         ids=lambda name: f"{name}-enabled-registry")
def test_telemetry_does_not_perturb_traces(name):
    """Observation is read-only: running a scenario with the telemetry
    layer attached — full metrics + transition hook + timeline — must
    reproduce the golden event stream byte-for-byte."""
    from repro.obs import Observability

    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    assert _trace_bytes(_scenarios()[name], obs=Observability()) == golden, (
        f"scenario {name}: telemetry perturbed the event stream"
    )


def test_recovery_goldens_pin_a_completed_countermeasure():
    """The recovery goldens are only meaningful if the countermeasure
    actually ran to completion inside the captured window — otherwise
    byte-identity would pin a silent no-op."""
    for name in ("mjpeg_recovery", "adpcm_recovery"):
        app, tokens, seed, fault, recovery = _scenarios()[name]()
        run = run_duplicated(app, tokens, seed, fault=fault,
                             sizing=app.sizing(), record_events=True,
                             recovery=recovery)
        assert run.recovery["completed"] == 1, name
        [attempt] = run.recovery["attempts"]
        assert attempt["respawned"], name


def test_repeated_runs_are_byte_identical():
    """Within one engine version, re-running a scenario is a no-op diff."""
    builder = _scenarios()["synthetic_clean"]
    assert _trace_bytes(builder) == _trace_bytes(builder)


_run_once = Simulator.run


def _pending(sim: Simulator) -> bool:
    # ``run()`` reports a drained queue only as a short return, so the
    # split drivers below peek at the heap and the same-time run queue.
    return bool(sim._heap or sim._runq)


def _split_run(chunk):
    """A ``Simulator.run`` stand-in reaching the end state through
    partial runs: ``chunk(sim, left)`` fires at most ``left`` events and
    returns how many it fired; it is called until the queues drain or
    the ``max_events`` budget is spent."""

    def run(sim, until=None, max_events=None):
        assert until is None, "split drivers choose their own horizons"
        budget = math.inf if max_events is None else max_events
        events = 0
        while _pending(sim) and events < budget:
            events += chunk(sim, budget - events)
        return RunStats(events=events, end_time=sim.now,
                        halted_on_limit=events >= budget,
                        blocked_processes=sim.blocked_processes())

    return run


def _limit(left):
    return None if left == math.inf else left


def _single_steps():
    return lambda sim, left: int(sim.step())


def _event_batches(size=7):
    def chunk(sim, left):
        return _run_once(sim, max_events=min(size, left)).events

    return chunk


def _time_horizons(quantum=1.25):
    # A binary-exact quantum lands horizons on integral event times, so
    # events exactly at a horizon (which must fire inside that partial
    # run) are exercised too.
    horizon = [0.0]

    def chunk(sim, left):
        horizon[0] += quantum
        return _run_once(sim, until=horizon[0],
                         max_events=_limit(left)).events

    return chunk


#: Ways of driving the one engine that must all reproduce the goldens
#: byte-for-byte: one ``run()`` to quiescence, ``run()`` cut at
#: virtual-time horizons (``until``) or into event batches
#: (``max_events``), and pure single-event ``step()`` calls.  Each maps
#: to a factory of the chunk function for :func:`_split_run`, or None
#: for the plain ``run()``.
_DRIVE_MODES = {
    "stepped-pure": _single_steps,
    "stepped-partitioned": _event_batches,
    "generator": None,
    "generator-partitioned": _time_horizons,
}


def _use_drive_mode(monkeypatch, drive_mode: str) -> None:
    factory = _DRIVE_MODES[drive_mode]
    if factory is not None:
        monkeypatch.setattr(Simulator, "run", _split_run(factory()))


@pytest.mark.parametrize("drive_mode", list(_DRIVE_MODES))
@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_all_engine_modes_match_goldens(name, drive_mode, monkeypatch):
    """Splitting a run is invisible: pending events stay queued between
    partial runs and single steps, so every drive mode must reproduce the
    golden event stream byte-for-byte (the DESIGN.md admissibility
    criterion)."""
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    _use_drive_mode(monkeypatch, drive_mode)
    assert _trace_bytes(_scenarios()[name]) == golden, (
        f"scenario {name}: drive mode {drive_mode} produced a different "
        "event stream — determinism regression"
    )


@pytest.mark.parametrize("drive_mode", list(_DRIVE_MODES))
@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_streaming_telemetry_matches_goldens(name, drive_mode, tmp_path,
                                             monkeypatch):
    """Full telemetry + the streaming observability stack, under every
    drive mode: an enabled registry/timeline, a live run ledger
    appending records around the run, and the mergeable snapshot built
    from the run's reduced outputs must leave the event stream
    byte-identical to the seed engine."""
    from repro.obs import (
        LedgerWriter,
        MetricsRegistry,
        Observability,
        read_ledger,
    )

    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    _use_drive_mode(monkeypatch, drive_mode)
    obs = Observability()
    with LedgerWriter(tmp_path / "run.ledger") as ledger:
        ledger.sweep_start(1, jobs=1)
        ledger.task_submitted(0, "duplicated")
        trace = _trace_bytes(_scenarios()[name], obs=obs)
        metrics = MetricsRegistry()
        metrics.counter("sim.events").inc()
        metrics.histogram("detect.latency_ms").observe(1.0)
        ledger.emit("task-finished", task=0, ok=True, cache_hit=False,
                    metrics=metrics.snapshot())
        ledger.sweep_end({"tasks": 1})
    assert trace == golden, (
        f"scenario {name}: streaming telemetry perturbed the event "
        f"stream under drive mode {drive_mode}"
    )
    assert read_ledger(tmp_path / "run.ledger").ok


def _capture() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, builder in sorted(_scenarios().items()):
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "wb") as handle:
            handle.write(_trace_bytes(builder))
        print(f"captured {path}")


if __name__ == "__main__":
    if "--capture" in sys.argv:
        _capture()
    else:
        print(__doc__)
