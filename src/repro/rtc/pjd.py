"""The PJD (period, jitter, minimum-distance) event model.

All timing parameters in the paper's evaluation are reported as
``<period, jitter, delay>`` tuples "as is common in real time systems"
(Table 1).  The model describes an event stream whose ``i``-th event occurs
at ``t_i = i * period + phi_i`` with ``|phi_i| <= jitter / 2`` and any two
consecutive events at least ``min_distance`` apart (the *delay* component —
in a PJD model the d-parameter is a minimum inter-arrival distance limiting
burst density when ``jitter > period``).

Closed-form arrival curves (Henia et al., "System level performance
analysis - the SymTA/S approach"):

* upper:  ``alpha_u(delta) = min( ceil((delta + j) / p),
  ceil(delta / d) + 1 )`` for ``delta > 0`` (second term only when
  ``d > 0``), and ``alpha_u(0) = 0``;
* lower:  ``alpha_l(delta) = max( floor((delta - j) / p), 0 )``.

Both are staircases; breakpoints are enumerable exactly, which the solvers
in :mod:`repro.rtc.curves` rely on.  Each curve evaluates one window length
with :meth:`~repro.rtc.curves.Curve.value` and a whole array with
:meth:`~repro.rtc.curves.Curve.values`; the array form applies the same
IEEE-754 operations in the same order, so both agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from repro.rtc.curves import EPS, NUDGE, Curve, _sorted_unique


def _ceil(value: float) -> int:
    """Ceiling with a tolerance so that 3.0000000001 -> 3, not 4."""
    return int(math.ceil(value - EPS))


def _floor(value: float) -> int:
    """Floor with a tolerance so that 2.9999999999 -> 3, not 2."""
    return int(math.floor(value + EPS))


def _multiples(start: int, step: float, offset: float,
               horizon: float) -> np.ndarray:
    """``k * step + offset`` for ``k = start, start + 1, ...`` while the
    point stays within ``horizon + EPS``."""
    stop = math.floor((horizon + EPS - offset) / step) + 2
    points = np.arange(start, max(stop, start), dtype=np.float64) * step
    points += offset
    return points[points <= horizon + EPS]


def _clamp_count(deltas: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Zero for empty windows and negative bounds, like ``max(bound, 0)``
    in the scalar forms (and never ``-0.0``)."""
    return np.where((deltas > EPS) & (bound > 0.0), bound, 0.0)


@dataclass(frozen=True)
class PJD:
    """A period / jitter / minimum-distance event model.

    Parameters
    ----------
    period:
        Long-run mean inter-event time (``p > 0``).
    jitter:
        Maximum deviation window of event times from the periodic grid
        (``j >= 0``).  ``jitter`` may exceed ``period``, producing bursts.
    min_distance:
        Minimum separation of consecutive events (``d >= 0``).  ``0``
        disables the burst limit.  In the paper's tables this is the third
        tuple component.
    """

    period: float
    jitter: float = 0.0
    min_distance: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite,
                       (self.period, self.jitter, self.min_distance))):
            raise ValueError(
                f"parameters must be finite, got {self.as_tuple()}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.min_distance < 0:
            raise ValueError(
                f"min_distance must be >= 0, got {self.min_distance}"
            )
        if self.min_distance > self.period + EPS:
            raise ValueError(
                "min_distance cannot exceed the period "
                f"({self.min_distance} > {self.period})"
            )

    @property
    def rate(self) -> float:
        """Long-run event rate (events per time unit)."""
        return 1.0 / self.period

    def upper(self) -> "PJDUpperCurve":
        """The upper arrival curve ``alpha_u`` of this model.

        Equal models return the *same* curve object: curves hash by
        identity, so a stable object per PJD value is what lets the
        memoized operators in :mod:`repro.rtc.minplus` hit their caches.
        """
        return _upper_curve(self)

    def lower(self) -> "PJDLowerCurve":
        """The lower arrival curve ``alpha_l`` of this model.

        Equal models return the same curve object (see :meth:`upper`).
        """
        return _lower_curve(self)

    def curves(self) -> tuple:
        """``(alpha_u, alpha_l)`` convenience pair."""
        return self.upper(), self.lower()

    def as_tuple(self) -> tuple:
        """``(period, jitter, min_distance)`` — the paper's table format."""
        return (self.period, self.jitter, self.min_distance)

    def with_jitter(self, jitter: float) -> "PJD":
        """A copy of this model with a different jitter (design diversity)."""
        return PJD(self.period, jitter, min(self.min_distance, self.period))

    def minimized(self) -> "PJD":
        """A jitter-free copy — the paper's Table 3 setup where "timing
        variations from the replicas were minimized"."""
        return PJD(self.period, 0.0, self.min_distance)

    def __str__(self) -> str:
        return f"<{self.period:g}, {self.jitter:g}, {self.min_distance:g}>"


@lru_cache(maxsize=256)
def _upper_curve(model: "PJD") -> "PJDUpperCurve":
    return PJDUpperCurve(model)


@lru_cache(maxsize=256)
def _lower_curve(model: "PJD") -> "PJDLowerCurve":
    return PJDLowerCurve(model)


class PJDUpperCurve(Curve):
    """Closed-form upper arrival curve of a :class:`PJD` model."""

    def __init__(self, model: PJD) -> None:
        self._model = model

    @property
    def model(self) -> PJD:
        return self._model

    def value(self, delta: float) -> float:
        if delta <= EPS:
            return 0.0
        model = self._model
        bound = _ceil((delta + model.jitter) / model.period)
        if model.jitter > 0:
            # A positive jitter, however small, admits one extra event in
            # a window of exactly k periods (two events can legally sit
            # strictly closer than k*p apart).  The tolerance in `_ceil`
            # must not swallow jitters below EPS * period, or the curve
            # stops being an upper bound on real schedules.
            bound = max(bound, _floor(delta / model.period) + 1)
        if model.min_distance > 0:
            bound = min(bound, _ceil(delta / model.min_distance) + 1)
        return float(max(bound, 0))

    def values(self, deltas: np.ndarray) -> np.ndarray:
        model = self._model
        bound = np.ceil((deltas + model.jitter) / model.period - EPS)
        if model.jitter > 0:
            bound = np.maximum(
                bound, np.floor(deltas / model.period + EPS) + 1.0
            )
        if model.min_distance > 0:
            bound = np.minimum(
                bound, np.ceil(deltas / model.min_distance - EPS) + 1.0
            )
        return _clamp_count(deltas, bound)

    def breakpoints(self, horizon: float) -> List[float]:
        model = self._model
        # Jumps of ceil((delta + j)/p): delta = k*p - j for integer k.
        jumps = _multiples(max(1, _ceil(model.jitter / model.period)),
                           model.period, -model.jitter, horizon)
        # The curve jumps from 0 at delta -> 0+, hence the NUDGE point.
        parts = [jumps[jumps > 0], (0.0, NUDGE)]
        # Jumps of ceil(delta/d) + 1: delta = k*d.
        if model.min_distance > 0:
            parts.append(_multiples(1, model.min_distance, 0.0, horizon))
        return _sorted_unique(np.concatenate(parts)).tolist()

    def long_run_rate(self) -> float:
        return self._model.rate

    def suggested_horizon(self) -> float:
        # The jitter shifts all breakpoints right; the scan must cover it.
        return Curve.suggested_horizon(self) + self._model.jitter

    def __repr__(self) -> str:
        return f"alpha_u{self._model}"


class PJDLowerCurve(Curve):
    """Closed-form lower arrival curve of a :class:`PJD` model."""

    def __init__(self, model: PJD) -> None:
        self._model = model

    @property
    def model(self) -> PJD:
        return self._model

    def value(self, delta: float) -> float:
        if delta <= EPS:
            return 0.0
        model = self._model
        bound = _floor((delta - model.jitter) / model.period)
        if model.jitter > 0:
            # Mirror of the upper-curve guard: with any positive jitter a
            # window of exactly k periods may contain only k - 1 events,
            # even when the jitter is smaller than the `_floor` tolerance.
            bound = min(bound, _ceil(delta / model.period) - 1)
        return float(max(bound, 0))

    def values(self, deltas: np.ndarray) -> np.ndarray:
        model = self._model
        bound = np.floor((deltas - model.jitter) / model.period + EPS)
        if model.jitter > 0:
            bound = np.minimum(
                bound, np.ceil(deltas / model.period - EPS) - 1.0
            )
        return _clamp_count(deltas, bound)

    def breakpoints(self, horizon: float) -> List[float]:
        model = self._model
        # Jumps of floor((delta - j)/p): delta = k*p + j for integer k >= 1.
        jumps = _multiples(1, model.period, model.jitter, horizon)
        return _sorted_unique(np.append(jumps, 0.0)).tolist()

    def long_run_rate(self) -> float:
        return self._model.rate

    def suggested_horizon(self) -> float:
        # The jitter shifts all breakpoints right; the scan must cover it.
        return Curve.suggested_horizon(self) + self._model.jitter

    def __repr__(self) -> str:
        return f"alpha_l{self._model}"
