"""The flat row buffer through which channels sample their time series.

A leaf module: it imports nothing from the package, so the engine's own
channels (:mod:`repro.kpn.channel`) and the framework channels
(:mod:`repro.core`) can both hold a buffer without importing the
observability layer.  :mod:`repro.obs.metrics` hands the buffers out
(:meth:`~repro.obs.metrics.MetricsRegistry.series_rows`) and re-exports
both names.
"""

from __future__ import annotations

from typing import Any, Tuple

#: Values a :class:`SeriesRows` buffer holds before its channel folds it
#: into the series (a few thousand rows): bounds the buffer at a few
#: hundred kilobytes.
FOLD_SIZE = 16_384


class SeriesRows(list):
    """Flat row buffer of a group of time series sampled together.

    A channel samples all its series at each committed operation, so it
    records one row ``time, value_1, value_2, ...`` with a single
    ``extend`` of this flat list instead of one ``TimeSeries.append``
    call per series.  :meth:`fold` moves the buffered rows into the
    series (anything with ``extend(times, values)``, in practice
    :class:`~repro.obs.metrics.TimeSeries`) in one batch, a column at a
    time; the registry folds before every read, and the channel folds
    once the buffer holds :data:`FOLD_SIZE` values.
    """

    __slots__ = ("series",)

    def __init__(self, series: Tuple[Any, ...]) -> None:
        super().__init__()
        self.series = series

    def fold(self) -> None:
        if not self:
            return
        width = len(self.series) + 1
        times = self[::width]
        for column, series in enumerate(self.series, start=1):
            series.extend(times, self[column::width])
        self.clear()
