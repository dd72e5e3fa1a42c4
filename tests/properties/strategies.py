"""Shared Hypothesis strategies for the property-test suite.

One vocabulary for every property and metamorphic test: PJD arrival
models (:func:`pjd_models`), whole duplicated-network interface tuples
(:func:`network_models`), fault specifications (:func:`fault_specs`) and
adversarial channel interleavings (:func:`interleavings`).  Keeping the
generators here means every suite explores the same — documented —
corner of the model space (bursty jitter above 0.8 periods, minimum
distances that keep the PJD validator happy, equal long-run rates along
a relay pipeline so Eq. 3 backlogs stay finite).

Example-count policy lives in ``conftest.py``: the ``ci`` profile keeps
tier-1 fast, ``HYPOTHESIS_PROFILE=thorough`` buys a deeper nightly
search.  Tests therefore do *not* pin ``max_examples`` locally.
"""

from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.rtc.pjd import PJD

#: Bounds used across the suite; PJD validators reject anything outside.
MIN_PERIOD = 1.0
MAX_PERIOD = 50.0


def _zero_or_at_least(minimum: float, maximum: float) -> st.SearchStrategy:
    """Either exactly zero or a value comfortably above the curve
    solvers' EPS scale.

    Values within a few ULPs of zero (denormals, 1e-300...) are *not*
    interesting inputs: the solvers resolve breakpoint ties with an
    absolute 1e-9 tolerance, so an infinitesimal jitter legitimately
    rounds a bound up to the next breakpoint — which breaks metamorphic
    relations without revealing a bug.
    """
    if maximum <= minimum:
        return st.just(0.0)
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=minimum, max_value=maximum,
                  allow_nan=False, allow_infinity=False),
    )


def periods(min_value: float = MIN_PERIOD,
            max_value: float = MAX_PERIOD) -> st.SearchStrategy:
    """Producer/consumer periods (ms)."""
    return st.floats(min_value=min_value, max_value=max_value,
                     allow_nan=False, allow_infinity=False)


def jitters(max_value: float = 60.0) -> st.SearchStrategy:
    """Absolute jitter windows (ms); may exceed the period (bursts)."""
    return _zero_or_at_least(1e-3, max_value)


@st.composite
def pjd_models(
    draw,
    period: Optional[float] = None,
    min_period: float = MIN_PERIOD,
    max_period: float = MAX_PERIOD,
    max_jitter_periods: float = 3.0,
) -> PJD:
    """A valid PJD model, optionally with a caller-pinned period.

    The minimum distance is drawn within ``[0, period]`` (the validator's
    admissible range); jitter up to ``max_jitter_periods`` periods covers
    the bursty regime where ``alpha_u`` is distance-limited.
    """
    if period is None:
        period = draw(periods(min_period, max_period))
    jitter = draw(_zero_or_at_least(period / 64,
                                    max_jitter_periods * period))
    distance = draw(_zero_or_at_least(period / 64, period))
    return PJD(period, jitter, distance)


@st.composite
def network_models(
    draw,
    min_period: float = 2.0,
    max_period: float = 30.0,
) -> Tuple[PJD, Tuple[PJD, PJD], PJD]:
    """Interface models of one duplicated network (Figure 1 topology).

    Returns ``(producer, (replica_1, replica_2), consumer)``.  All four
    interfaces share one period — a relay pipeline needs equal long-run
    rates for the Eq. 3 backlog (and hence every sizing quantity) to be
    finite — while jitters and distances vary per interface.
    """
    period = draw(periods(min_period, max_period))

    def interface(max_jitter_factor: float) -> PJD:
        jitter = draw(_zero_or_at_least(period / 64,
                                        max_jitter_factor * period))
        if jitter > 0.8 * period:
            # Bursty: a tight minimum distance keeps the burst limit
            # meaningful (mirrors SyntheticApp.randomized).
            distance = draw(st.floats(
                min_value=period / 8, max_value=0.6 * period,
                allow_nan=False, allow_infinity=False,
            ))
        else:
            distance = draw(st.floats(
                min_value=period / 2, max_value=period,
                allow_nan=False, allow_infinity=False,
            ))
        return PJD(period, jitter, distance)

    producer = interface(1.2)
    replicas = (interface(1.5), interface(1.5))
    consumer = interface(0.5)
    return producer, replicas, consumer


@st.composite
def fault_specs(
    draw,
    max_time: float = 2000.0,
    kinds: Tuple[str, ...] = (FAIL_STOP, RATE_DEGRADE),
) -> FaultSpec:
    """A permanent timing fault at either replica."""
    replica = draw(st.integers(min_value=0, max_value=1))
    time = draw(st.floats(min_value=0.0, max_value=max_time,
                          allow_nan=False, allow_infinity=False))
    kind = draw(st.sampled_from(kinds))
    if kind == RATE_DEGRADE:
        slowdown = draw(st.floats(min_value=1.5, max_value=8.0,
                                  allow_nan=False, allow_infinity=False))
        return FaultSpec(replica=replica, time=time, kind=kind,
                         slowdown=slowdown)
    return FaultSpec(replica=replica, time=time, kind=kind)


def interleavings(symbols: int = 3, min_size: int = 1,
                  max_size: int = 50) -> st.SearchStrategy:
    """An adversarial schedule over ``symbols`` channel operations.

    The channel property tests interpret each integer as one operation
    (e.g. 0 = producer write, 1/2 = replica reads); blocked operations
    are skipped by the driver, as a parked process would wait.
    """
    return st.lists(
        st.integers(min_value=0, max_value=symbols - 1),
        min_size=min_size, max_size=max_size,
    )
