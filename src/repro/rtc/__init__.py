"""Real-Time Calculus (RTC) substrate.

This package implements the analytic real-time models the paper builds on:
arrival curves (upper/lower event bounds over sliding windows, Eq. 2 of the
paper), the PJD (period / jitter / minimum-distance) event model that the
paper uses to specify all application interfaces (Table 1), min-plus algebra
on curves, calibration of curves from observed event traces, and the design
time computations of Section 3.4:

* FIFO capacities (Eq. 3),
* initial fill levels (Eq. 4),
* the selector/replicator divergence threshold ``D`` (Eq. 5), and
* fault-detection latency upper bounds (Eqs. 6-8).
"""

from repro.rtc.curves import (
    Curve,
    CurveError,
    DerivedCurve,
    PiecewiseConstantCurve,
    ZeroCurve,
    infimum_crossing,
    supremum_difference,
)
from repro.rtc.pjd import PJD, PJDLowerCurve, PJDUpperCurve
from repro.rtc.minplus import (
    clear_curve_op_caches,
    max_plus_convolution,
    min_plus_convolution,
    min_plus_deconvolution,
)
from repro.rtc.calibration import (
    empirical_curves,
    fit_pjd,
    sliding_window_counts,
)
from repro.rtc.sizing import (
    SizingResult,
    detection_latency_bound,
    detection_latency_bound_fail_stop,
    divergence_threshold,
    fifo_capacity,
    initial_fill,
    size_duplicated_network,
)

__all__ = [
    "Curve",
    "CurveError",
    "DerivedCurve",
    "PiecewiseConstantCurve",
    "ZeroCurve",
    "infimum_crossing",
    "supremum_difference",
    "PJD",
    "PJDLowerCurve",
    "PJDUpperCurve",
    "clear_curve_op_caches",
    "max_plus_convolution",
    "min_plus_convolution",
    "min_plus_deconvolution",
    "empirical_curves",
    "fit_pjd",
    "sliding_window_counts",
    "SizingResult",
    "detection_latency_bound",
    "detection_latency_bound_fail_stop",
    "divergence_threshold",
    "fifo_capacity",
    "initial_fill",
    "size_duplicated_network",
]
