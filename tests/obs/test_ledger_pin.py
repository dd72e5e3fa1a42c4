"""Replay pin: a checked-in ledger must keep replaying to the same status.

``data/sweep-pin.ledger`` was written once by a ``SweepExecutor`` with a
``LedgerWriter`` attached: three ``SyntheticApp.bursty(seed=3)`` tasks of
40 tokens (a reference run, a healthy duplicated run and a duplicated run
with a fail-stop fault at replica 1, t=120 ms, which both sites detect).
``data/sweep-pin.status.json`` is the ``build_status()`` document of that
replay without the fields derived from the record timestamps or the file
location.  Refactors of the metric model must replay old ledgers to the
same document, so never regenerate either file.
"""

import json
from pathlib import Path

from repro.obs.ledger import build_status, read_ledger

DATA = Path(__file__).parent / "data"


def _replayed_status():
    status = build_status(read_ledger(DATA / "sweep-pin.ledger"))
    status.pop("path")
    status["progress"].pop("elapsed_s")
    status["progress"].pop("eta_s")
    return status


def test_pinned_ledger_replays_to_pinned_status():
    pinned = json.loads((DATA / "sweep-pin.status.json").read_text())
    assert _replayed_status() == pinned


def test_pinned_ledger_replays_cleanly():
    status = _replayed_status()
    assert status["warnings"] == []
    assert status["complete"] is True
    assert status["counters"]["detect.reports"] == 2
    assert status["percentiles"]["detect.latency_ms"]["count"] == 1
