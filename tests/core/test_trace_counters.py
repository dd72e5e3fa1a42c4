"""The replicator and selector keep their channel traces inline.

The channels own their occupancy; a trace keeps only the high-water mark
``max_fill``, raised from the channel's own queue length, and the event
log when ``record_events`` is set.  Recording must not change the
high-water mark, and the event log must list every committed operation
in order.
"""

import pytest

from repro.apps import SyntheticApp
from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.experiments import runner
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace
from repro.recovery import RecoverySpec

TOKENS = 400
WARMUP = 200


def _traces(kind, record_events):
    app = SyntheticApp(seed=3)
    fault = FaultSpec(replica=1,
                      time=runner.fault_time_for(app, WARMUP, phase=0.4),
                      kind=kind, slowdown=4.0)
    run = runner.run_duplicated(app, TOKENS, 11, fault=fault,
                                sizing=app.sizing(),
                                record_events=record_events,
                                recovery=RecoverySpec())
    assert run.recovery["completed"] == 1
    network = run.network
    return (*network.replicator.traces, network.selector.trace)


@pytest.mark.parametrize("kind", [FAIL_STOP, RATE_DEGRADE])
def test_inline_counters_match_the_method_path(kind):
    """Recording the event log leaves every high-water mark unchanged."""
    inline = _traces(kind, record_events=False)
    recorded = _traces(kind, record_events=True)
    assert [t.max_fill for t in inline] == [t.max_fill for t in recorded]
    assert all(not trace.events for trace in inline)
    # The selector dropped the late member of every pair and the
    # faulty replica's tokens, so all three event kinds were logged.
    assert {e.kind for e in recorded[2].events} == {"write", "read", "drop"}


def _scripted_selector(record_events):
    trace = ChannelTrace("sel", record_events=record_events)
    selector = SelectorChannel("sel", (4, 4), trace=trace,
                               priming_tokens=(Token(0, seqno=0),))
    time = 0.0
    for seqno in range(1, 4):   # replica 1 leads: three enqueues
        time += 1.0
        selector.poll_write(0, Token(seqno, seqno=seqno), time)
    for seqno in range(1, 4):   # replica 2's late copies: three drops
        time += 1.0
        selector.poll_write(1, Token(seqno, seqno=seqno), time)
    for _ in range(2):
        time += 1.0
        selector.poll_read(0, time)
    selector.quarantine(1)
    time += 1.0
    selector.poll_write(1, Token(4, seqno=4), time)  # faulted: dropped
    selector.poll_write(0, Token(4, seqno=4), time)
    assert selector.fill == 3
    return trace


def _scripted_replicator(record_events):
    traces = (ChannelTrace("R1", record_events),
              ChannelTrace("R2", record_events))
    replicator = ReplicatorChannel("rep", (3, 3), traces=traces)
    for seqno in range(1, 3):
        replicator.poll_write(0, Token(seqno, seqno=seqno), float(seqno))
    replicator.poll_read(0, 3.0)
    replicator.poll_read(1, 3.0)
    replicator.quarantine(1)
    replicator.poll_write(0, Token(3, seqno=3), 4.0)
    replicator.poll_write(0, Token(4, seqno=4), 5.0)
    assert (replicator.fill(0), replicator.fill(1)) == (3, 1)
    return traces


def test_scripted_selector_counters_match_the_method_path():
    inline = _scripted_selector(record_events=False)
    recorded = _scripted_selector(record_events=True)
    assert inline.max_fill == recorded.max_fill == 4
    assert inline.events == []
    assert [(e.kind, e.seqno, e.interface) for e in recorded.events] == [
        ("write", 1, 0), ("write", 2, 0), ("write", 3, 0),
        ("drop", 1, 1), ("drop", 2, 1), ("drop", 3, 1),
        ("read", 0, 0), ("read", 1, 0),
        ("drop", 4, 1), ("write", 4, 0),
    ]


def test_scripted_replicator_counters_match_the_method_path():
    inline = _scripted_replicator(record_events=False)
    recorded = _scripted_replicator(record_events=True)
    assert [t.max_fill for t in inline] == [
        t.max_fill for t in recorded] == [3, 2]
    assert [t.events for t in inline] == [[], []]
    assert [(e.kind, e.seqno, e.interface) for e in recorded[0].events] == [
        ("write", 1, 0), ("write", 2, 0), ("read", 1, 0),
        ("write", 3, 0), ("write", 4, 0),
    ]
    assert [(e.kind, e.seqno, e.interface) for e in recorded[1].events] == [
        ("write", 1, 1), ("write", 2, 1), ("read", 1, 1),
    ]
