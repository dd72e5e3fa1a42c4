"""Min-plus / max-plus algebra on arrival curves.

The paper's Eqs. 3-8 only need suprema of curve differences, but the
arrival-curve framework it cites ([1], interface-based rate analysis) is
built on min-plus algebra.  We provide the three standard operators so the
library can be used for the general buffer-sizing and delay analyses the
reference network's design stage requires (Section 3.3 assumes "the
reference process network has been designed correctly" — these operators are
how that design is done):

* min-plus convolution   ``(f (x) g)(d) = inf_{0<=s<=d} f(s) + g(d - s)``
* min-plus deconvolution ``(f (/) g)(d) = sup_{s>=0} f(d + s) - g(s)``
* max-plus convolution   ``(f (+) g)(d) = sup_{0<=s<=d} f(s) + g(d - s)``

Operands are sampled at the union of their breakpoints (curves are
staircases, so this sampling is exact within the horizon) and the result is
returned as a :class:`~repro.rtc.curves.PiecewiseConstantCurve` with a
linear tail at the appropriate combined rate.

All three operators are memoized on ``(f, g, horizon)``.  Curves define no
``__eq__``, so the key is *object identity* — cheap, collision-free, and
correct because curves are immutable views of immutable models.  Identity
keying only pays off when equal models yield the same curve object, which
:meth:`repro.rtc.pjd.PJD.upper`/``lower`` guarantee.  The caches hold
strong references to their keys, so a cached curve's ``id`` can never be
recycled while an entry is alive.  :func:`clear_curve_op_caches` drops all
entries (useful for memory-sensitive sweeps and cache-behaviour tests).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

from repro.rtc.curves import EPS, Curve, PiecewiseConstantCurve


def _sample_grid(f: Curve, g: Curve, horizon: float) -> List[float]:
    """The exact evaluation grid: union of both curves' breakpoints."""
    points = set(f.breakpoints(horizon))
    points.update(g.breakpoints(horizon))
    points.add(0.0)
    points.add(horizon)
    return sorted(p for p in points if -EPS <= p <= horizon + EPS)


def _dedupe_steps(steps: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Drop steps that do not change the value (keeps tables small)."""
    result: List[Tuple[float, float]] = []
    for delta, value in steps:
        if result and abs(result[-1][1] - value) < EPS:
            continue
        if result and delta <= result[-1][0] + EPS:
            result[-1] = (result[-1][0], value)
            continue
        result.append((delta, value))
    if not result:
        result = [(0.0, 0.0)]
    return result


def _default_horizon(f: Curve, g: Curve) -> float:
    return max(f.suggested_horizon(), g.suggested_horizon())


def min_plus_convolution(
    f: Curve, g: Curve, horizon: float = None
) -> PiecewiseConstantCurve:
    """Min-plus convolution of two curves over ``[0, horizon]``.

    The result is the tightest upper arrival curve of a stream that must
    satisfy both ``f`` and ``g`` (e.g. combining a long-term rate bound with
    a burst bound).  Memoized on ``(f, g, horizon)`` identity (see module
    docstring).
    """
    if horizon is None:
        horizon = _default_horizon(f, g)
    try:
        return _min_plus_convolution_cached(f, g, horizon)
    except TypeError:
        # Unhashable operand (a custom curve defining __eq__ without
        # __hash__): compute uncached.
        return _min_plus_convolution_impl(f, g, horizon)


@lru_cache(maxsize=256)
def _min_plus_convolution_cached(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    return _min_plus_convolution_impl(f, g, horizon)


def _min_plus_convolution_impl(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    grid = _sample_grid(f, g, horizon)
    values_f = {p: f.value(p) for p in grid}
    steps: List[Tuple[float, float]] = []
    for delta in grid:
        best = math.inf
        for split in grid:
            if split > delta + EPS:
                break
            remainder = delta - split
            # Staircases: g evaluated at the remainder exactly.
            candidate = values_f[split] + g.value(remainder)
            if candidate < best:
                best = candidate
        steps.append((delta, best))
    tail_rate = min(f.long_run_rate(), g.long_run_rate())
    return PiecewiseConstantCurve(_dedupe_steps(steps), tail_rate=tail_rate)


def min_plus_deconvolution(
    f: Curve, g: Curve, horizon: float = None
) -> PiecewiseConstantCurve:
    """Min-plus deconvolution ``f (/) g`` over ``[0, horizon]``.

    For an input bounded by arrival curve ``f`` served with service curve
    ``g``, the output stream is bounded by ``f (/) g`` — the standard output
    arrival-curve bound used when propagating models through a subnetwork.
    The supremum over the shift variable is scanned up to ``horizon``; the
    operands must satisfy ``f.long_run_rate() <= g.long_run_rate()`` for the
    result to be finite.  Memoized on ``(f, g, horizon)`` identity (see
    module docstring).
    """
    if horizon is None:
        horizon = _default_horizon(f, g)
    if f.long_run_rate() > g.long_run_rate() + EPS:
        raise ValueError(
            "deconvolution is unbounded: f's long-run rate exceeds g's"
        )
    try:
        return _min_plus_deconvolution_cached(f, g, horizon)
    except TypeError:
        return _min_plus_deconvolution_impl(f, g, horizon)


@lru_cache(maxsize=256)
def _min_plus_deconvolution_cached(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    return _min_plus_deconvolution_impl(f, g, horizon)


def _min_plus_deconvolution_impl(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    shift_grid = _sample_grid(f, g, horizon)
    eval_grid = _sample_grid(f, g, horizon)
    steps: List[Tuple[float, float]] = []
    for delta in eval_grid:
        best = -math.inf
        for shift in shift_grid:
            candidate = f.value(delta + shift) - g.value(shift)
            if candidate > best:
                best = candidate
            # Also probe just before g's next jump where the difference
            # is locally maximal.
            candidate = f.value(delta + shift + EPS) - g.value(shift)
            if candidate > best:
                best = candidate
        steps.append((delta, max(best, 0.0)))
    return PiecewiseConstantCurve(
        _dedupe_steps(steps), tail_rate=f.long_run_rate()
    )


def max_plus_convolution(
    f: Curve, g: Curve, horizon: float = None
) -> PiecewiseConstantCurve:
    """Max-plus convolution of two curves over ``[0, horizon]``.

    Used to compose lower (guarantee) curves: the output of a component with
    lower service ``g`` fed a stream with lower arrival curve ``f`` is lower
    bounded by ``f (+) g`` in the max-plus sense.  Memoized on
    ``(f, g, horizon)`` identity (see module docstring).
    """
    if horizon is None:
        horizon = _default_horizon(f, g)
    try:
        return _max_plus_convolution_cached(f, g, horizon)
    except TypeError:
        return _max_plus_convolution_impl(f, g, horizon)


@lru_cache(maxsize=256)
def _max_plus_convolution_cached(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    return _max_plus_convolution_impl(f, g, horizon)


def _max_plus_convolution_impl(
    f: Curve, g: Curve, horizon: float
) -> PiecewiseConstantCurve:
    grid = _sample_grid(f, g, horizon)
    steps: List[Tuple[float, float]] = []
    for delta in grid:
        best = 0.0
        for split in grid:
            if split > delta + EPS:
                break
            candidate = f.value(split) + g.value(delta - split)
            if candidate > best:
                best = candidate
        steps.append((delta, best))
    tail_rate = max(f.long_run_rate(), g.long_run_rate())
    return PiecewiseConstantCurve(_dedupe_steps(steps), tail_rate=tail_rate)


def clear_curve_op_caches() -> None:
    """Drop every memoized curve-operation result.

    The caches key on curve identity and hold strong references to their
    operands; long parameter sweeps over many distinct models can clear
    them periodically to bound memory.
    """
    _min_plus_convolution_cached.cache_clear()
    _min_plus_deconvolution_cached.cache_clear()
    _max_plus_convolution_cached.cache_clear()
