"""Differential tests: the two-replica poll bodies against the general ones.

``ReplicatorChannel`` and ``SelectorChannel`` run the paper's two-replica
case through straight-line class-level ``poll_read``/``poll_write``
bodies and install general bodies (``_poll_read_n``/``_poll_write_n``)
for ``n > 2``.  The general bodies are the reference: installed on an
``n = 2`` channel, every random schedule of writes, reads, quarantines
and recoveries must give identical poll results, fault flags, detection
log entries, counters, op accounting, trace counters and metric series.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.kpn.errors import SimulationError
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace
from repro.obs.metrics import MetricsRegistry
from tests.helpers import general_bodies


def tok(seqno):
    return Token(value=seqno * 7, seqno=seqno, stamp=0.0)


def series(registry):
    names = sorted(registry.snapshot()["series"])
    return {name: registry.timeseries(name).samples() for name in names}


def trace_counters(trace):
    return (trace.fill, trace.max_fill, trace.writes, trace.reads,
            trace.drops)


@st.composite
def channel_config(draw):
    return {
        "capacities": (draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        "divergence_threshold": draw(st.one_of(st.none(),
                                               st.integers(1, 3))),
        "strict_single_fault": draw(st.booleans()),
        "transfer_latency": draw(st.sampled_from([None, 1.5])),
    }


def schedule(step):
    """A random op list that contains at least one quarantine and one
    recovery step (re-prime or begin a handover)."""
    return st.tuples(
        st.lists(step, max_size=40),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 40),
        st.integers(0, 40),
    ).map(lambda t: _with_fault_steps(*t))


def _with_fault_steps(ops, quarantined, recovered, at_q, at_r):
    ops = list(ops)
    ops.insert(min(at_q, len(ops)), ("quarantine", quarantined))
    ops.insert(min(at_r, len(ops)), ("recover", recovered))
    return ops


REPLICATOR_STEP = st.one_of(
    st.just(("write",)),
    st.tuples(st.just("read"), st.integers(0, 1)),
    st.tuples(st.just("quarantine"), st.integers(0, 1)),
    st.tuples(st.just("recover"), st.integers(0, 1)),
)

SELECTOR_STEP = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1)),
    st.just(("read",)),
    st.tuples(st.just("quarantine"), st.integers(0, 1)),
    st.tuples(st.just("unquarantine"), st.integers(0, 1)),
    st.tuples(st.just("recover"), st.integers(0, 1)),
)


def _outcome(call):
    try:
        return ("ok", call())
    except SimulationError as error:
        return ("raised", type(error).__name__, str(error))


def _log(channel):
    return [(r.time, r.site, r.replica, r.mechanism, r.detail)
            for r in channel.log]


class _Replicator:
    def __init__(self, config):
        self.metrics = MetricsRegistry()
        self.traces = (ChannelTrace("R1"), ChannelTrace("R2"))
        latency = config["transfer_latency"]
        self.channel = ReplicatorChannel(
            "rep", config["capacities"],
            divergence_threshold=config["divergence_threshold"],
            transfer_latency=(lambda token: latency) if latency else None,
            traces=self.traces,
            strict_single_fault=config["strict_single_fault"],
            metrics=self.metrics,
        )
        self.seq = 0

    def apply(self, op, now):
        channel = self.channel
        if op[0] == "write":
            self.seq += 1
            seq = self.seq
            return _outcome(lambda: channel.poll_write(0, tok(seq), now))
        if op[0] == "read":
            return _outcome(lambda: channel.poll_read(op[1], now))
        if op[0] == "quarantine":
            return _outcome(lambda: channel.quarantine(op[1]))
        return _outcome(lambda: channel.reprime(op[1]))

    def state(self):
        channel = self.channel
        return (
            list(channel.fault), channel.any_fault, _log(channel),
            list(channel.reads), channel.writes,
            [channel.space(k) for k in (0, 1)],
            channel.ops, channel.op_calls, channel._recovering,
            list(channel._rows),
            [trace_counters(trace) for trace in self.traces],
        )


class _Selector:
    def __init__(self, config, verify, stall_detection):
        self.metrics = MetricsRegistry()
        self.trace = ChannelTrace("S")
        latency = config["transfer_latency"]
        capacities = config["capacities"]
        priming = min(capacities) // 2
        self.channel = SelectorChannel(
            "sel", capacities,
            divergence_threshold=config["divergence_threshold"],
            transfer_latency=(lambda token: latency) if latency else None,
            trace=self.trace,
            strict_single_fault=config["strict_single_fault"],
            verify_duplicates=verify,
            priming_tokens=tuple(tok(-i) for i in range(priming)),
            stall_detection=stall_detection,
            metrics=self.metrics,
        )
        self.next_seq = [1, 1]
        self.completions = []

    def apply(self, op, now):
        channel = self.channel
        if op[0] == "write":
            k = op[1]
            token = tok(self.next_seq[k])

            def write():
                result = channel.poll_write(k, token, now)
                if result[0] == "ok":
                    self.next_seq[k] += 1
                return result
            return _outcome(write)
        if op[0] == "read":
            return _outcome(lambda: channel.poll_read(0, now))
        if op[0] == "quarantine":
            return _outcome(lambda: channel.quarantine(op[1]))
        if op[0] == "unquarantine":
            return _outcome(lambda: channel.unquarantine(op[1]))
        handover = max(channel.writes)
        return _outcome(lambda: channel.begin_recovery(
            op[1], handover, now, on_complete=self.completions.append))

    def state(self):
        channel = self.channel
        return (
            list(channel.fault), channel.any_fault, _log(channel),
            channel.reads, list(channel.writes), list(channel.space),
            channel.fill, list(channel.drops), channel.ops,
            channel.op_calls, channel._recovering, channel._handover,
            list(channel._rows), trace_counters(self.trace),
            list(self.completions),
        )


def _run_pair(reference, candidate, ops):
    now = 0.0
    for op in ops:
        now += 1.0
        expected = reference.apply(op, now)
        assert candidate.apply(op, now) == expected, op
        assert candidate.state() == reference.state(), op
        if expected[0] == "raised":
            break
    assert series(candidate.metrics) == series(reference.metrics)


@settings(max_examples=300, deadline=None)
@given(channel_config(), schedule(REPLICATOR_STEP))
def test_replicator_general_bodies_match_two_replica_bodies(config, ops):
    reference = _Replicator(config)
    general_bodies(reference.channel)
    _run_pair(reference, _Replicator(config), ops)


@settings(max_examples=300, deadline=None)
@given(channel_config(), st.booleans(), st.booleans(),
       schedule(SELECTOR_STEP))
def test_selector_general_bodies_match_two_replica_bodies(
        config, verify, stall_detection, ops):
    reference = _Selector(config, verify, stall_detection)
    general_bodies(reference.channel)
    _run_pair(reference, _Selector(config, verify, stall_detection), ops)


def test_general_bodies_are_installed_only_above_two():
    assert "poll_read" not in vars(ReplicatorChannel("rep", (2, 2)))
    assert "poll_write" not in vars(SelectorChannel("sel", (2, 2)))
    three = ReplicatorChannel("rep", (2, 2, 2))
    assert three.poll_read == three._poll_read_n
    assert three.poll_write == three._poll_write_n
    three = SelectorChannel("sel", (2, 2, 2))
    assert three.poll_read == three._poll_read_n
    assert three.poll_write == three._poll_write_n
