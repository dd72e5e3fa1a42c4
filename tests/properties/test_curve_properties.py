"""Property-based tests of the arrival-curve layer."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtc.curves import (
    EPS,
    NUDGE,
    DerivedCurve,
    PiecewiseConstantCurve,
    infimum_crossing,
    supremum_difference,
)
from repro.rtc.pjd import PJD, _ceil

pjd_models = st.builds(
    PJD,
    period=st.floats(min_value=0.5, max_value=100.0,
                     allow_nan=False, allow_infinity=False),
    jitter=st.floats(min_value=0.0, max_value=200.0,
                     allow_nan=False, allow_infinity=False),
    min_distance=st.just(0.0),
)

# Zero or comfortably above the curves' internal float tolerance (1e-9);
# windows inside the tolerance band are not meaningful inputs.
windows = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)


@given(pjd_models, windows)
def test_lower_never_exceeds_upper(model, delta):
    assert model.lower()(delta) <= model.upper()(delta)


@given(pjd_models, windows, windows)
def test_curves_wide_sense_increasing(model, a, b):
    low, high = sorted((a, b))
    assert model.upper()(low) <= model.upper()(high)
    assert model.lower()(low) <= model.lower()(high)


@given(pjd_models)
def test_zero_window_zero_events(model):
    assert model.upper()(0.0) == 0.0
    assert model.lower()(0.0) == 0.0


@given(pjd_models, windows, windows)
def test_upper_subadditive(model, a, b):
    """alpha_u(a + b) <= alpha_u(a) + alpha_u(b) — the defining property
    of a valid upper arrival curve."""
    upper = model.upper()
    assert upper(a + b) <= upper(a) + upper(b) + 1e-9


@given(pjd_models, windows, windows)
def test_lower_superadditive(model, a, b):
    """alpha_l(a + b) >= alpha_l(a) + alpha_l(b)."""
    lower = model.lower()
    assert lower(a + b) >= lower(a) + lower(b) - 1e-9


@settings(max_examples=40)
@given(pjd_models, pjd_models)
def test_supremum_difference_nonnegative_when_bounded(a, b):
    # Same long-run rate guarantees boundedness: reuse a's period.
    b = PJD(a.period, b.jitter, 0.0)
    sup = supremum_difference(a.upper(), b.lower())
    assert sup >= 0.0
    # The supremum dominates a dense sample of the difference.
    for k in range(1, 20):
        delta = k * a.period / 3.0
        assert a.upper()(delta) - b.lower()(delta) <= sup + 1e-9


@settings(max_examples=40)
@given(pjd_models, st.integers(min_value=1, max_value=20))
def test_infimum_crossing_is_a_crossing(model, level):
    delta = infimum_crossing(model.lower(), level)
    lower = model.lower()
    assert lower(delta) >= level
    # Just before the crossing the level is not yet reached (up to the
    # solver's breakpoint tolerance).
    if delta > 1e-3:
        assert lower(delta - 1e-3) <= level


# -- array evaluation and the vectorised solvers ---------------------------
#
# ``Curve.values`` and the numpy solvers must agree bit for bit with the
# scalar forms.  The oracles below are the scalar loops the solvers used
# before they were vectorised; they call ``value()`` one point at a time.


def _oracle_upper_breakpoints(model, horizon):
    points = {0.0}
    k = max(1, _ceil(model.jitter / model.period))
    while True:
        point = k * model.period - model.jitter
        if point > horizon + EPS:
            break
        if point > 0:
            points.add(point)
        k += 1
    if model.min_distance > 0:
        k = 1
        while True:
            point = k * model.min_distance
            if point > horizon + EPS:
                break
            points.add(point)
            k += 1
    points.add(NUDGE)
    return sorted(points)


def _oracle_lower_breakpoints(model, horizon):
    points = {0.0}
    k = 1
    while True:
        point = k * model.period + model.jitter
        if point > horizon + EPS:
            break
        points.add(point)
        k += 1
    return sorted(points)


def _oracle_supremum(upper, lower):
    horizon = max(upper.suggested_horizon(), lower.suggested_horizon())
    merged = set()
    for point in upper.breakpoints(horizon):
        merged.add(point)
        merged.add(point + NUDGE)
    for point in lower.breakpoints(horizon):
        merged.add(max(point - NUDGE, 0.0))
        merged.add(point)
    merged.add(0.0)
    merged.add(horizon)
    ordered = sorted(p for p in merged if -EPS <= p <= horizon + EPS)
    candidates = list(ordered)
    for left, right in zip(ordered, ordered[1:]):
        candidates.append((left + right) / 2.0)
    best = 0.0
    for point in candidates:
        difference = upper.value(point) - lower.value(point)
        if difference > best:
            best = difference
    return best


def _oracle_crossing(curve, level):
    if level <= 0:
        return 0.0
    rate = curve.long_run_rate()
    if rate > 0 and not math.isinf(rate):
        horizon = max(curve.suggested_horizon(), 2.0 * level / rate)
    else:
        horizon = curve.suggested_horizon()
    for _ in range(8):
        points = set(curve.breakpoints(horizon))
        points.add(horizon)
        for point in sorted(points):
            if curve.value(point) >= level - EPS:
                return point
        if curve.long_run_rate() <= EPS:
            return math.inf
        horizon *= 2.0
    raise AssertionError("oracle did not cross")


def _bits(values):
    """Exact IEEE-754 bytes, so 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


edge_periods = st.floats(min_value=0.5, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def edge_models(draw, period=None):
    """PJD models at the tolerance edges of the closed forms: jitter 0,
    below ``EPS * period``, 1e-12/1e-7, inside and above the period;
    minimum distance 0, equal to the period, or a fraction of it."""
    p = draw(edge_periods) if period is None else period
    fraction = st.floats(min_value=0.05, max_value=1.0)
    jitter = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=0.99).map(
            lambda f: f * EPS * p),
        st.sampled_from([1e-12, 1e-7]),
        fraction.map(lambda f: f * p),
        st.floats(min_value=1.01, max_value=4.0).map(lambda f: f * p),
    ))
    distance = draw(st.one_of(st.just(0.0), st.just(p),
                              fraction.map(lambda f: f * p)))
    return PJD(p, jitter, distance)


@given(edge_models(), st.lists(st.floats(min_value=0.0, max_value=1.0),
                               max_size=30))
def test_pjd_values_match_scalar_value(model, fractions):
    upper, lower = model.curves()
    horizon = upper.suggested_horizon()
    jumps = upper.breakpoints(horizon) + lower.breakpoints(horizon)
    deltas = [0.0, EPS / 2, EPS, 2 * EPS, horizon]
    deltas += [f * horizon for f in fractions]
    for jump in jumps:
        deltas += [jump, jump + NUDGE, max(jump - NUDGE, 0.0),
                   jump + EPS / 2, max(jump - EPS / 2, 0.0)]
    array = np.array(deltas, dtype=np.float64)
    for curve in (upper, lower):
        assert _bits(curve.values(array)) == _bits(
            [curve.value(delta) for delta in deltas])


@given(edge_models(), st.floats(min_value=0.0, max_value=3.0))
def test_pjd_breakpoints_match_scalar_loops(model, scale):
    horizon = model.upper().suggested_horizon() * scale
    assert model.upper().breakpoints(horizon) == \
        _oracle_upper_breakpoints(model, horizon)
    assert model.lower().breakpoints(horizon) == \
        _oracle_lower_breakpoints(model, horizon)


@given(edge_periods.flatmap(
    lambda p: st.tuples(edge_models(p), edge_models(p))))
def test_supremum_matches_scalar_oracle(pair):
    a, b = pair
    for upper, lower in ((a.upper(), b.lower()), (b.upper(), a.lower()),
                         (a.upper(), a.lower())):
        assert repr(supremum_difference(upper, lower)) == \
            repr(_oracle_supremum(upper, lower))


@given(edge_models(), st.integers(min_value=1, max_value=40))
def test_crossing_matches_scalar_oracle(model, level):
    for curve in model.curves():
        assert repr(infimum_crossing(curve, level)) == \
            repr(_oracle_crossing(curve, level))


@st.composite
def staircases(draw, period):
    """A calibrated-style upper staircase with a ``ceil`` tail at the
    model rate: strictly increasing positions, increasing values."""
    gaps = draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                         min_size=1, max_size=8))
    rises = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=len(gaps), max_size=len(gaps)))
    steps = [(0.0, 0.0)]
    for gap, rise in zip(gaps, rises):
        steps.append((steps[-1][0] + gap * period,
                      steps[-1][1] + rise + 1))
    return PiecewiseConstantCurve(steps, tail_rate=1.0 / period,
                                  tail_round="ceil")


@given(edge_periods.flatmap(
    lambda p: st.tuples(staircases(p), edge_models(p),
                        st.floats(min_value=0.0, max_value=3.0))),
       st.integers(min_value=1, max_value=20))
def test_fallback_values_match_scalar_oracles(case, level):
    """``PiecewiseConstantCurve`` and ``DerivedCurve`` go through the
    per-element ``Curve.values`` fallback."""
    staircase, model, delay = case
    derived = model.lower().shift(delay * model.period)
    assert isinstance(derived, DerivedCurve)
    assert repr(supremum_difference(staircase, derived)) == \
        repr(_oracle_supremum(staircase, derived))
    for curve in (staircase, derived):
        assert repr(infimum_crossing(curve, level)) == \
            repr(_oracle_crossing(curve, level))
