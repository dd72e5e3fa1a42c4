"""Property-based tests of the selector's merge invariants for n = 2..4
(one poll body per operation serves every n)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selector import SelectorChannel
from repro.kpn.tokens import Token


@st.composite
def nway_interleavings(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=40))
    # Step i in [0, n) = interface i writes its next token; n = read.
    steps = draw(
        st.lists(st.integers(min_value=0, max_value=n),
                 min_size=length, max_size=length)
    )
    return n, steps


def drive(selector, n, steps):
    next_seq = [1] * n
    received = []
    now = 0.0
    for step in steps:
        now += 1.0
        if step < n:
            token = Token(value=f"v{next_seq[step]}",
                          seqno=next_seq[step], stamp=now)
            status, _ = selector.poll_write(step, token, now)
            if status == "ok":
                next_seq[step] += 1
        else:
            status, token = selector.poll_read(0, now)
            if status == "ok":
                received.append(token.seqno)
    return received


def _merge_only(selector):
    selector._check_stall = lambda now: None
    return selector


@settings(max_examples=100)
@given(nway_interleavings())
def test_consumer_sees_each_group_once_in_order(case):
    n, steps = case
    selector = _merge_only(
        SelectorChannel("sel", capacities=(6,) * n,
                        divergence_threshold=None)
    )
    received = drive(selector, n, steps)
    assert received == list(range(1, len(received) + 1))


@settings(max_examples=100)
@given(nway_interleavings())
def test_exactly_one_kept_per_group(case):
    n, steps = case
    selector = _merge_only(
        SelectorChannel("sel", capacities=(6,) * n,
                        divergence_threshold=None)
    )
    received = drive(selector, n, steps)
    kept = sum(selector.writes) - sum(selector.drops)
    assert kept == selector.fill + len(received)
    assert 0 <= selector.fill <= selector.fifo_size


@settings(max_examples=100)
@given(nway_interleavings())
def test_space_accounting_per_interface(case):
    """Lemma 1 generalised: space_k depends only on interface k's writes
    and the consumer's reads."""
    n, steps = case
    selector = _merge_only(
        SelectorChannel("sel", capacities=(6,) * n,
                        divergence_threshold=None)
    )
    received = drive(selector, n, steps)
    for k in range(n):
        assert selector.space[k] == 6 - selector.writes[k] + len(received)
