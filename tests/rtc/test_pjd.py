"""Tests for the PJD event model and its closed-form arrival curves."""

import math

import pytest

from repro.rtc.pjd import PJD, PJDLowerCurve, PJDUpperCurve


class TestPjdValidation:
    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            PJD(0.0)

    def test_rejects_negative_period(self):
        with pytest.raises(ValueError):
            PJD(-5.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            PJD(10.0, -1.0)

    def test_rejects_negative_min_distance(self):
        with pytest.raises(ValueError):
            PJD(10.0, 0.0, -1.0)

    def test_rejects_min_distance_above_period(self):
        with pytest.raises(ValueError):
            PJD(10.0, 0.0, 11.0)

    @pytest.mark.parametrize("params", [
        (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (10.0, math.inf, 1.0),
        (10.0, math.nan, 1.0), (10.0, 0.0, math.nan),
    ], ids=["nan-period", "inf-period", "inf-jitter", "nan-jitter",
            "nan-min-distance"])
    def test_rejects_non_finite_parameters(self, params):
        with pytest.raises(ValueError, match="finite"):
            PJD(*params)

    def test_jitter_may_exceed_period(self):
        model = PJD(10.0, 25.0, 10.0)
        assert model.jitter == 25.0

    def test_rate(self):
        assert PJD(4.0).rate == 0.25

    def test_str_matches_paper_tuple_format(self):
        assert str(PJD(30.0, 2.0, 30.0)) == "<30, 2, 30>"

    def test_as_tuple(self):
        assert PJD(6.3, 1.5, 6.3).as_tuple() == (6.3, 1.5, 6.3)

    def test_with_jitter(self):
        model = PJD(30.0, 2.0, 30.0).with_jitter(10.0)
        assert model.jitter == 10.0
        assert model.period == 30.0

    def test_minimized_zeroes_jitter(self):
        model = PJD(30.0, 20.0, 30.0).minimized()
        assert model.jitter == 0.0
        assert model.period == 30.0


class TestUpperCurve:
    def test_zero_window_is_zero(self):
        assert PJD(10.0, 5.0).upper()(0.0) == 0.0

    def test_periodic_counts(self):
        upper = PJD(10.0).upper()
        # Half-open windows: a window shorter than one period holds one
        # event, length p + eps holds two.
        assert upper(5.0) == 1
        assert upper(10.0 + 1e-6) == 2
        assert upper(25.0) == 3

    def test_jitter_increases_burst(self):
        tight = PJD(10.0, 0.0, 0.0).upper()
        loose = PJD(10.0, 15.0, 0.0).upper()
        assert loose(5.0) >= tight(5.0)
        assert loose(5.0) == 2  # ceil((5+15)/10)

    def test_min_distance_caps_burst(self):
        # jitter 30 would allow 2 events in a tiny window, but d = 10
        # caps any window of length <= 10 at ceil(d/10)+1 = 2.
        curve = PJD(10.0, 30.0, 10.0).upper()
        assert curve(1.0) == 2
        assert curve(9.0) == 2

    def test_monotone(self):
        curve = PJD(7.0, 3.0, 7.0).upper()
        values = [curve(d) for d in [0, 1, 3, 7, 7.5, 14, 20, 50]]
        assert values == sorted(values)

    def test_long_run_rate(self):
        assert PJD(8.0, 2.0).upper().long_run_rate() == pytest.approx(0.125)

    def test_breakpoints_cover_jumps(self):
        curve = PJD(10.0, 4.0, 10.0).upper()
        points = curve.breakpoints(50.0)
        # Every jump must occur at a listed breakpoint: scan densely.
        previous = curve(0.0)
        grid = sorted(points + [p + 1e-7 for p in points])
        for delta in grid:
            value = curve(delta)
            assert value >= previous
            previous = value


class TestLowerCurve:
    def test_zero_window_is_zero(self):
        assert PJD(10.0, 5.0).lower()(0.0) == 0.0

    def test_periodic_guarantee(self):
        lower = PJD(10.0).lower()
        assert lower(9.0) == 0
        assert lower(10.0) == 1
        assert lower(35.0) == 3

    def test_jitter_weakens_guarantee(self):
        tight = PJD(10.0, 0.0).lower()
        loose = PJD(10.0, 8.0).lower()
        assert loose(15.0) <= tight(15.0)
        assert loose(15.0) == 0

    def test_never_negative(self):
        lower = PJD(10.0, 100.0).lower()
        for delta in [0.0, 1.0, 50.0, 99.0]:
            assert lower(delta) >= 0

    def test_lower_below_upper_everywhere(self):
        model = PJD(6.3, 6.3, 6.3)
        upper, lower = model.curves()
        for delta in [0.0, 0.1, 3.0, 6.3, 6.4, 12.6, 31.5, 63.0, 200.0]:
            assert lower(delta) <= upper(delta)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            PJD(10.0).lower()(-1.0)

    def test_repr_contains_model(self):
        assert "30" in repr(PJD(30.0, 5.0, 30.0).lower())


class TestSubEpsilonJitter:
    """Jitters smaller than EPS * period must still be honoured.

    Regression for a hypothesis-found conservativeness violation: with
    jitter ~4e-9 the EPS-tolerant ceiling/floor rounded the genuine
    jitter term away, so the upper curve under-counted (a schedule could
    legally place 2 events inside a one-period window the curve claimed
    holds 1) and the lower curve over-promised.
    """

    def test_upper_admits_extra_event_at_period_multiples(self):
        model = PJD(4.0, 3.948563905066275e-09, 0.0)
        upper = model.upper()
        assert upper(4.0) >= 2
        assert upper(8.0) >= 3

    def test_lower_does_not_over_promise_at_period_multiples(self):
        model = PJD(4.0, 3.948563905066275e-09, 0.0)
        lower = model.lower()
        assert lower(4.0) <= 0
        assert lower(8.0) <= 1

    def test_zero_jitter_unchanged(self):
        model = PJD(4.0, 0.0, 0.0)
        assert model.upper()(4.0) == 1
        assert model.lower()(4.0) == 1

    def test_real_app_scale_jitter_unchanged(self):
        upper, lower = PJD(30.0, 2.0, 30.0).curves()
        assert upper(30.0) == 2
        assert upper(60.0) == 3
        assert lower(30.0) == 0
        assert lower(32.0) == 1
