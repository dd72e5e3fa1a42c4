"""Arrival-curve abstractions.

An *arrival curve* pair ``[alpha_u, alpha_l]`` bounds the number of events a
stream may produce in any sliding time window (Eq. 2 of the paper)::

    alpha_l(t - s) <= G[s, t) <= alpha_u(t - s)   for all s < t

Curves here are functions from a non-negative window length ``delta`` to a
non-negative event count.  They are wide-sense increasing and satisfy
``curve(0) == 0``.  Concrete subclasses provide closed-form evaluation
(:class:`repro.rtc.pjd.PJDUpperCurve`), tabulated staircases calibrated from
traces (:class:`PiecewiseConstantCurve`), or lazy compositions
(:class:`DerivedCurve`).

Two solvers operate on curves:

* :func:`supremum_difference` computes ``sup_{delta >= 0} u(delta) -
  l(delta)``, the quantity behind FIFO sizing (Eq. 3), initial fill
  (Eq. 4) and the divergence threshold ``D`` (Eq. 5);
* :func:`infimum_crossing` computes ``inf {delta | curve(delta) >= level}``,
  the quantity behind the fault-detection latency bounds (Eqs. 6-8).

Both exploit the fact that staircase curves only change value at *breakpoint*
window lengths, so a supremum/infimum over continuous ``delta`` reduces to a
scan over finitely many candidates plus a long-run-rate argument for the
tail beyond the scan horizon.  The scan evaluates every candidate in one
:meth:`Curve.values` call over a numpy array.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Tolerance used when comparing floating-point window lengths.
EPS = 1e-9

#: Distance used to probe a staircase "just before" / "just after" a jump.
#: Must be comfortably larger than :data:`EPS` so the probes are not
#: swallowed by the evaluation tolerance.
NUDGE = 1e-6

#: Default number of long-run periods the breakpoint scan covers when the
#: caller does not give an explicit horizon.
DEFAULT_HORIZON_PERIODS = 64


def _sorted_unique(points: np.ndarray) -> np.ndarray:
    """``sorted(set(points))`` as a float64 array.

    Not ``np.unique``: that imports ``numpy.ma`` on first use, which adds
    ~1.6 MB of resident memory to every process that sizes a network.
    """
    points = np.sort(points)
    keep = np.empty(points.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    return points[keep]


class CurveError(ValueError):
    """Raised for ill-posed curve computations (e.g. unbounded suprema)."""


class Curve:
    """Base class for wide-sense increasing event-bound curves.

    Subclasses must implement :meth:`value`, :meth:`breakpoints` and
    :meth:`long_run_rate`.  The base class provides operator sugar and the
    generic derived-curve constructors (:meth:`add`, :meth:`shift`, ...).
    Subclasses with a closed form may override :meth:`values`.
    """

    def value(self, delta: float) -> float:
        """Return the bound for a window of length ``delta`` (>= 0)."""
        raise NotImplementedError

    def values(self, deltas: np.ndarray) -> np.ndarray:
        """Return :meth:`value` at every window length of a float64 array.

        The default evaluates :meth:`value` element by element; overrides
        must return bit-identical results.
        """
        return np.array([self.value(d) for d in deltas.tolist()],
                        dtype=np.float64)

    def breakpoints(self, horizon: float) -> List[float]:
        """Return the window lengths in ``[0, horizon]`` where the curve may
        change value, in increasing order.

        The list need not be exhaustive beyond jumps: solvers add the
        endpoints themselves.  It must be finite for any finite horizon.
        """
        raise NotImplementedError

    def long_run_rate(self) -> float:
        """Return ``lim_{delta->inf} value(delta) / delta``.

        Used by the solvers to reason about curve behaviour beyond the
        scanned horizon.  ``math.inf`` is a legal return value for curves
        without a linear bound.
        """
        raise NotImplementedError

    def suggested_horizon(self) -> float:
        """A horizon (window length) adequate for breakpoint scans.

        Defaults to :data:`DEFAULT_HORIZON_PERIODS` long-run periods; curves
        with zero long-run rate fall back to a unit horizon and rely on the
        rate argument in the solvers.
        """
        rate = self.long_run_rate()
        if rate <= 0 or math.isinf(rate):
            return 1.0
        return DEFAULT_HORIZON_PERIODS / rate

    def __call__(self, delta: float) -> float:
        if delta < -EPS:
            raise ValueError(f"window length must be >= 0, got {delta}")
        return self.value(max(delta, 0.0))

    # -- composition ------------------------------------------------------

    def add(self, other: "Curve") -> "Curve":
        """Pointwise sum of two curves."""
        return DerivedCurve(
            lambda d: self.value(d) + other.value(d),
            children=(self, other),
            rate=self.long_run_rate() + other.long_run_rate(),
            label=f"({self!r} + {other!r})",
        )

    def scale(self, factor: float) -> "Curve":
        """Pointwise scaling by a non-negative factor."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return DerivedCurve(
            lambda d: self.value(d) * factor,
            children=(self,),
            rate=self.long_run_rate() * factor,
            label=f"({factor} * {self!r})",
        )

    def offset(self, amount: float) -> "Curve":
        """Pointwise addition of a constant for ``delta > 0``.

        ``curve(0) == 0`` is preserved, matching the convention that an
        empty window contains no events.
        """
        return DerivedCurve(
            lambda d: 0.0 if d <= EPS else self.value(d) + amount,
            children=(self,),
            rate=self.long_run_rate(),
            label=f"({self!r} offset {amount})",
            extra_breakpoints=(0.0,),
        )

    def min_with(self, other: "Curve") -> "Curve":
        """Pointwise minimum of two curves."""
        return DerivedCurve(
            lambda d: min(self.value(d), other.value(d)),
            children=(self, other),
            rate=min(self.long_run_rate(), other.long_run_rate()),
            label=f"min({self!r}, {other!r})",
        )

    def max_with(self, other: "Curve") -> "Curve":
        """Pointwise maximum of two curves."""
        return DerivedCurve(
            lambda d: max(self.value(d), other.value(d)),
            children=(self, other),
            rate=max(self.long_run_rate(), other.long_run_rate()),
            label=f"max({self!r}, {other!r})",
        )

    def shift(self, delay: float) -> "Curve":
        """Time-shift the curve right by ``delay`` (a pure delay element).

        The shifted curve bounds a stream whose every event is delayed by
        ``delay`` relative to the original stream.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return DerivedCurve(
            lambda d: self.value(max(d - delay, 0.0)),
            children=(self,),
            rate=self.long_run_rate(),
            label=f"({self!r} shifted {delay})",
            breakpoint_shift=delay,
        )

    def __add__(self, other: "Curve") -> "Curve":
        if not isinstance(other, Curve):
            return NotImplemented
        return self.add(other)

    def __mul__(self, factor: float) -> "Curve":
        return self.scale(factor)

    __rmul__ = __mul__


class ZeroCurve(Curve):
    """The curve that is identically zero.

    Models a stream that never produces events — the paper uses this as the
    post-fault upper curve of a fail-stop replica (``alpha_bar_1^u`` in
    Eq. 6 degenerates to zero in the fail-stop case of Eq. 8).
    """

    def value(self, delta: float) -> float:
        return 0.0

    def breakpoints(self, horizon: float) -> List[float]:
        return [0.0]

    def long_run_rate(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "ZeroCurve()"


class DerivedCurve(Curve):
    """A curve defined by a function of other curves.

    Breakpoints are the union of the children's breakpoints (optionally
    shifted), because any jump of a pointwise composition happens at a jump
    of some child.
    """

    def __init__(
        self,
        func: Callable[[float], float],
        children: Sequence[Curve] = (),
        rate: float = math.inf,
        label: str = "derived",
        breakpoint_shift: float = 0.0,
        extra_breakpoints: Iterable[float] = (),
    ) -> None:
        self._func = func
        self._children = tuple(children)
        self._rate = rate
        self._label = label
        self._breakpoint_shift = breakpoint_shift
        self._extra_breakpoints = tuple(extra_breakpoints)

    def value(self, delta: float) -> float:
        return self._func(delta)

    def breakpoints(self, horizon: float) -> List[float]:
        points = set(self._extra_breakpoints)
        points.add(0.0)
        for child in self._children:
            child_horizon = max(horizon - self._breakpoint_shift, 0.0)
            for point in child.breakpoints(child_horizon):
                shifted = point + self._breakpoint_shift
                if shifted <= horizon + EPS:
                    points.add(shifted)
        return sorted(points)

    def long_run_rate(self) -> float:
        return self._rate

    def suggested_horizon(self) -> float:
        horizons = [child.suggested_horizon() for child in self._children]
        horizons.append(Curve.suggested_horizon(self))
        return max(horizons)

    def __repr__(self) -> str:
        return self._label


class PiecewiseConstantCurve(Curve):
    """A right-continuous staircase curve given by explicit steps.

    ``steps`` is a sequence of ``(delta, value)`` pairs meaning "for window
    lengths in ``[delta_i, delta_{i+1})`` the bound is ``value_i``".  Beyond
    the last step the curve optionally extrapolates linearly with
    ``tail_rate`` (events per time unit), quantised with ``math.floor`` for
    lower curves or ``math.ceil`` for upper curves via ``tail_round``.

    This is the representation produced by trace calibration
    (:func:`repro.rtc.calibration.empirical_curves`).
    """

    def __init__(
        self,
        steps: Sequence[Tuple[float, float]],
        tail_rate: float = 0.0,
        tail_round: Optional[str] = None,
    ) -> None:
        if not steps:
            raise ValueError("steps must be non-empty")
        previous_delta = -math.inf
        previous_value = -math.inf
        for delta, value in steps:
            if delta < -EPS:
                raise ValueError("step positions must be >= 0")
            if delta <= previous_delta:
                raise ValueError("step positions must be strictly increasing")
            if value < previous_value - EPS:
                raise ValueError("curve values must be wide-sense increasing")
            previous_delta, previous_value = delta, value
        if tail_round not in (None, "floor", "ceil"):
            raise ValueError("tail_round must be None, 'floor' or 'ceil'")
        self._steps = [(float(d), float(v)) for d, v in steps]
        self._tail_rate = float(tail_rate)
        self._tail_round = tail_round

    @property
    def steps(self) -> List[Tuple[float, float]]:
        """The ``(delta, value)`` step table (copy)."""
        return list(self._steps)

    def value(self, delta: float) -> float:
        last_delta, last_value = self._steps[-1]
        if delta > last_delta + EPS:
            extra = self._tail_rate * (delta - last_delta)
            if self._tail_round == "floor":
                extra = math.floor(extra + EPS)
            elif self._tail_round == "ceil":
                extra = math.ceil(extra - EPS)
            return last_value + extra
        # Binary search for the step containing delta.
        low, high = 0, len(self._steps) - 1
        result = self._steps[0][1]
        while low <= high:
            mid = (low + high) // 2
            if self._steps[mid][0] <= delta + EPS:
                result = self._steps[mid][1]
                low = mid + 1
            else:
                high = mid - 1
        return result

    def breakpoints(self, horizon: float) -> List[float]:
        points = [d for d, _ in self._steps if d <= horizon + EPS]
        last_delta = self._steps[-1][0]
        if self._tail_rate > 0 and horizon > last_delta:
            # Tail jumps every 1/rate beyond the table.
            step = 1.0 / self._tail_rate
            position = last_delta + step
            while position <= horizon + EPS:
                points.append(position)
                position += step
        if not points:
            points = [0.0]
        return points

    def long_run_rate(self) -> float:
        return self._tail_rate

    def suggested_horizon(self) -> float:
        base = Curve.suggested_horizon(self)
        return max(base, self._steps[-1][0])

    def __repr__(self) -> str:
        return (
            f"PiecewiseConstantCurve({len(self._steps)} steps, "
            f"tail_rate={self._tail_rate})"
        )


def _candidate_points(
    upper: Curve, lower: Curve, horizon: float
) -> np.ndarray:
    """Candidate window lengths where ``upper - lower`` may attain its sup.

    The difference of two staircases changes only at a jump of either curve.
    At an upward jump of ``upper`` the difference jumps up *at* the point
    (right-continuity), at an upward jump of ``lower`` it drops, so the sup
    over the preceding interval is attained *just before* the lower's jump.
    We therefore evaluate at every breakpoint and just before each.
    """
    upper_points = np.array(upper.breakpoints(horizon), dtype=np.float64)
    lower_points = np.array(lower.breakpoints(horizon), dtype=np.float64)
    merged = np.concatenate((
        upper_points,
        upper_points + NUDGE,
        np.maximum(lower_points - NUDGE, 0.0),
        lower_points,
        (0.0, horizon),
    ))
    in_range = (merged >= -EPS) & (merged <= horizon + EPS)
    ordered = _sorted_unique(merged[in_range])
    # The maximum can live strictly between two breakpoints closer
    # together than the nudge (e.g. curves with near-zero jitter), so
    # probe every gap's midpoint as well.
    midpoints = (ordered[:-1] + ordered[1:]) / 2.0
    return np.concatenate((ordered, midpoints))


def supremum_difference(
    upper: Curve,
    lower: Curve,
    horizon: Optional[float] = None,
    require_bounded: bool = True,
    rate_tolerance: float = 1e-3,
) -> float:
    """Compute ``sup_{delta >= 0} upper(delta) - lower(delta)``.

    ``horizon`` bounds the breakpoint scan; by default it is derived from
    the curves' suggested horizons.  If ``upper`` has a strictly larger
    long-run rate than ``lower`` the supremum is infinite; with
    ``require_bounded`` (the default) this raises :class:`CurveError`,
    matching the paper's requirement that each replica can individually
    sustain the consumer's long-run demand.

    ``rate_tolerance`` is the *relative* rate mismatch treated as equal
    rates.  Models calibrated from separate traces of the same stream
    (Eq. 2's measurement path) carry tiny period-estimation errors; the
    drift they cause over the scan horizon is far below one token, so
    rejecting them as "unbounded" would be spurious.
    """
    rate_upper = upper.long_run_rate()
    rate_lower = lower.long_run_rate()
    rate_slack = max(abs(rate_lower), EPS) * rate_tolerance
    if rate_upper > rate_lower + rate_slack + EPS:
        if require_bounded:
            raise CurveError(
                "supremum is unbounded: upper long-run rate "
                f"{rate_upper} exceeds lower long-run rate {rate_lower}"
            )
        return math.inf
    if horizon is None:
        horizon = max(upper.suggested_horizon(), lower.suggested_horizon())
    points = _candidate_points(upper, lower, horizon)
    difference = upper.values(points) - lower.values(points)
    return max(0.0, float(difference.max()))


def infimum_crossing(
    curve: Curve,
    level: float,
    horizon: Optional[float] = None,
) -> float:
    """Compute ``inf { delta >= 0 | curve(delta) >= level }``.

    Returns ``math.inf`` when the curve never reaches ``level`` within the
    scan horizon and its long-run rate is zero (it never will); raises
    :class:`CurveError` when the horizon is exhausted but the rate is
    positive (the caller passed too small a horizon).  Curves are
    staircases, so the first scan point at or above ``level`` is the same
    breakpoint under any horizon that contains it.
    """
    if level <= 0:
        return 0.0
    auto_horizon = horizon is None
    if auto_horizon:
        rate = curve.long_run_rate()
        if rate > 0 and not math.isinf(rate):
            horizon = max(curve.suggested_horizon(), 2.0 * level / rate)
        else:
            horizon = curve.suggested_horizon()
    # With an automatic horizon, a positive-rate curve must eventually
    # cross; expand geometrically until it does.
    attempts = 8 if auto_horizon else 1
    for _ in range(attempts):
        points = _sorted_unique(
            np.append(curve.breakpoints(horizon), horizon)
        )
        reached = curve.values(points) >= level - EPS
        if reached.any():
            return float(points[reached.argmax()])
        if curve.long_run_rate() <= EPS:
            return math.inf
        horizon *= 2.0
    raise CurveError(
        f"curve did not reach level {level} within horizon {horizon}; "
        "increase the horizon"
    )
