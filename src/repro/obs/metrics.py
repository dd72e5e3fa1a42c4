"""The metrics registry: the one metric model of a run, a task and a fleet.

The paper's detection story is *observability by construction*: faults
surface as FIFO occupancy (``space_k == 0``, Eq. 3) and divergence
``|space_1 - space_2|`` crossing the threshold ``D`` (Eq. 5).  This module
provides the in-band instruments the engine and the framework channels use
to expose those quantities while a run executes — without perturbing it —
and the plain-data form those instruments travel in:

* :class:`Counter`, :class:`Gauge`, the mergeable
  :class:`LogHistogramSketch` and :class:`TimeSeries`, handed out by a
  :class:`MetricsRegistry`, plus :class:`SeriesRows`, the flat row
  buffer through which a channel samples several series with one list
  extend;
* :meth:`MetricsRegistry.snapshot` — the wire form (schema
  :data:`SNAPSHOT_SCHEMA`) embedded in run reports, shipped on every
  :class:`~repro.exec.results.TaskResult` and streamed into the run
  ledger;
* :meth:`MetricsRegistry.from_dict` / :meth:`MetricsRegistry.merge` —
  fold snapshots back into one registry.  Counters add, gauges combine
  ``{min, max, sum, n}``, sketches add bin counts; every operation is
  order-independent (up to float rounding in the sums), so a fleet-wide
  aggregate is the same whichever order worker results arrive in.  Time
  series stay run-local: a fleet has no single time axis.

Design constraints (both load-bearing):

* **Determinism** — instruments only *record*; they never touch simulator
  state, so an instrumented run fires the exact same event sequence as an
  uninstrumented one (checked byte-for-byte against the golden traces).
* **Off means free** — the hot path must pay ~nothing when metrics are
  off (no registry passed).  Instrumented code therefore holds either a
  live instrument or ``None`` and guards each sample with one ``is not
  None`` check (the same idiom as the existing ``ChannelTrace`` hooks).

Typical use::

    registry = MetricsRegistry()
    sim = Simulator(metrics=registry)
    ... run ...
    registry.snapshot()      # plain-data dump for reports / JSON
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Re-exported: the row buffer lives in a leaf module of the engine layer,
# so that the engine's own FIFOs can hold one without importing this
# package.
from repro.kpn.seriesrows import FOLD_SIZE, SeriesRows  # noqa: F401

#: Schema tag of :meth:`MetricsRegistry.snapshot`.
SNAPSHOT_SCHEMA = "repro.metrics-snapshot/1"

#: Fixed bin growth factor: γ = 2**(1/4) ≈ 1.189.  A value in bin ``k``
#: lies in ``(γ**k, γ**(k+1)]``; the bin midpoint mis-states it by at
#: most ``sqrt(γ) - 1`` ≈ 9 %.  Part of the sketch wire format — never
#: change without bumping :data:`SNAPSHOT_SCHEMA`.
GAMMA = 2.0 ** 0.25

_LOG_GAMMA = math.log(GAMMA)

#: Bin index clamp: indices outside [MIN_BIN, MAX_BIN] saturate into the
#: edge bins, keeping the bin *universe* fixed and finite (≈ 1e-10 ms to
#: 1e13 ms at the default γ — far beyond any latency this repo models).
MIN_BIN = -192
MAX_BIN = 256


def _count(value: Any) -> int:
    """``value`` as a count; :class:`ValueError` unless a whole number
    >= 0."""
    count = int(value)
    if count < 0 or count != value:
        raise ValueError(f"count {value!r} is not a non-negative integer")
    return count


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def _lower(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return b if a is None or (b is not None and b < a) else a


def _upper(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return b if a is None or (b is not None and b > a) else a


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value with running ``min``/``max``/``sum``/``n``.

    ``value`` is the last write, for in-process readers.  It is not part
    of the wire form: last-write-wins does not commute under merging.
    """

    __slots__ = ("name", "value", "min", "max", "sum", "n")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sum = 0.0
        self.n = 0

    def set(self, value: float) -> None:
        self.value = value
        self.sum += value
        self.n += 1
        self.min = _lower(self.min, value)
        self.max = _upper(self.max, value)

    def merge(self, other: "Gauge") -> None:
        self.min = _lower(self.min, other.min)
        self.max = _upper(self.max, other.max)
        self.sum += other.sum
        self.n += other.n

    def as_dict(self) -> Dict[str, Any]:
        return {"min": self.min, "max": self.max, "sum": self.sum,
                "n": self.n}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class LogHistogramSketch:
    """Fixed-bin log-scale histogram with exact count/sum/min/max.

    Bin boundaries are powers of the fixed :data:`GAMMA`, so two sketches
    built independently (different workers, different runs) share one
    bin grid and merge by adding counts.  Quantiles are answered to
    within one bin (≤ ~9 % relative error), with ``min``/``max`` exact.
    Non-positive observations land in a dedicated ``zero`` bin (the log
    grid only covers positive values); quantiles treat them as 0.0.
    Bins are stored sparsely: a few dozen cover the handful of decades a
    campaign's latencies span.
    """

    __slots__ = ("bins", "zero", "count", "sum", "min", "max")

    kind = "sketch"

    def __init__(self) -> None:
        self.bins: Dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording ----------------------------------------------------------

    @staticmethod
    def bin_index(value: float) -> int:
        """The fixed grid index of a positive value."""
        index = math.floor(math.log(value) / _LOG_GAMMA)
        return max(MIN_BIN, min(MAX_BIN, index))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        index = self.bin_index(value)
        self.bins[index] = self.bins.get(index, 0) + 1

    def merge(self, other: "LogHistogramSketch") -> "LogHistogramSketch":
        """Fold ``other`` into this sketch (returns ``self``).

        Associative and commutative on everything a quantile reads
        (integer bin counts, exact min/max); ``sum`` commutes up to
        float rounding.
        """
        for index, count in other.bins.items():
            self.bins[index] = self.bins.get(index, 0) + count
        self.zero += other.zero
        self.count += other.count
        self.sum += other.sum
        self.min = _lower(self.min, other.min)
        self.max = _upper(self.max, other.max)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 ≤ q ≤ 1), ``None`` on an empty sketch.

        Answered from the bin grid: the bin holding the target rank
        reports its geometric midpoint, clamped to the exact observed
        ``[min, max]`` (so ``quantile(0) == min``, ``quantile(1) ==
        max`` exactly).
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        # count == zero + sum(bins), so the rank lands in the zero bin
        # or in one of the bins.
        rank = q * (self.count - 1)
        cumulative = self.zero
        value = 0.0
        if cumulative <= rank:
            for index in sorted(self.bins):
                cumulative += self.bins[index]
                if cumulative > rank:
                    value = GAMMA ** (index + 0.5)
                    break
        return min(max(value, self.min), self.max)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The standard report digest: p50/p95/max (+ count/mean/min)."""
        return {
            "count": self.count,
            "min": self.min,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "max": self.max,
        }

    # -- serialisation ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "bins": {str(index): count
                     for index, count in sorted(self.bins.items())},
            "zero": self.zero,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogHistogramSketch":
        """Rebuild an :meth:`as_dict` payload.

        :class:`ValueError` on a negative count, a ``count`` that is not
        ``zero`` plus the bin counts (quantiles of such a sketch would
        answer from bins that are not there), or missing extrema.
        """
        sketch = cls()
        sketch.bins = {int(index): _count(count)
                       for index, count in data["bins"].items()}
        sketch.zero = _count(data["zero"])
        sketch.count = _count(data["count"])
        sketch.sum = float(data["sum"])
        sketch.min = _optional_float(data["min"])
        sketch.max = _optional_float(data["max"])
        binned = sketch.zero + sum(sketch.bins.values())
        if sketch.count != binned:
            raise ValueError(f"sketch count {sketch.count} != zero + bins "
                             f"({binned})")
        if sketch.count and (sketch.min is None or sketch.max is None):
            raise ValueError("non-empty sketch without min/max")
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogramSketch):
            return NotImplemented
        return (self.bins == other.bins and self.zero == other.zero
                and self.count == other.count and self.min == other.min
                and self.max == other.max)

    def __repr__(self) -> str:
        return (f"LogHistogramSketch(n={self.count}, "
                f"bins={len(self.bins)})")


class TimeSeries:
    """A ``(virtual time, value)`` sample stream with running extrema.

    Samples are appended in virtual-time order by construction (channels
    sample at the event that changed their state).  ``max_samples`` bounds
    memory on very long runs: when exceeded, every other retained sample
    is dropped and the stride doubles — peak/valley are tracked exactly
    either way, so Table-2-style maxima never decimate away.
    """

    __slots__ = ("name", "times", "values", "max_samples", "_stride",
                 "_skip", "count", "min", "max", "last")

    kind = "timeseries"

    def __init__(self, name: str, max_samples: int = 100_000) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []
        self.max_samples = max_samples
        self._stride = 1
        self._skip = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.last: Optional[float] = None

    def append(self, time: float, value: float) -> None:
        self.count += 1
        self.last = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.times.append(time)
        self.values.append(value)
        if len(self.times) >= self.max_samples:
            self.times = self.times[::2]
            self.values = self.values[::2]
            self._stride *= 2

    def extend(self, times: Sequence[float],
               values: Sequence[float]) -> None:
        """Fold a batch of samples in: the same end state as calling
        :meth:`append` on each ``(times[i], values[i])`` in turn,
        decimation included."""
        n = len(values)
        if not n:
            return
        self.count += n
        self.last = values[-1]
        low, high = min(values), max(values)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        i = 0
        while i < n:
            if self._skip:
                skipped = min(self._skip, n - i)
                self._skip -= skipped
                i += skipped
                continue
            # Keep every stride-th sample from i on, up to the one that
            # fills the buffer and triggers the next halving.
            stride = self._stride
            room = self.max_samples - len(self.times)
            kept = min(room, (n - 1 - i) // stride + 1)
            stop = i + (kept - 1) * stride + 1
            self.times.extend(times[i:stop:stride])
            self.values.extend(values[i:stop:stride])
            self._skip = stride - 1
            i = stop
            if kept == room:
                self.times = self.times[::2]
                self.values = self.values[::2]
                self._stride *= 2

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "retained": len(self.times),
        }

    def __repr__(self) -> str:
        return f"TimeSeries({self.name}, n={self.count})"


class MetricsRegistry:
    """Named instruments for one run, one task or a whole fleet.

    Instrument factories are get-or-create: asking twice for the same name
    returns the same object (a name collision across instrument kinds is
    an error).  Components that are handed no registry (``None``) record
    nothing and install no per-sample hooks.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._rows: List[SeriesRows] = []

    # -- factories ----------------------------------------------------------

    def _get_or_create(self, name: str, cls, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(*args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, name)

    def histogram(self, name: str) -> LogHistogramSketch:
        return self._get_or_create(name, LogHistogramSketch)

    def timeseries(self, name: str, max_samples: int = 100_000) -> TimeSeries:
        self.fold()
        return self._get_or_create(name, TimeSeries, name, max_samples)

    def series_rows(self, *names: str) -> SeriesRows:
        """A row buffer feeding the (get-or-created) series ``names``;
        a row is ``time, value for names[0], value for names[1], ...``."""
        rows = SeriesRows(tuple(self.timeseries(name) for name in names))
        self._rows.append(rows)
        return rows

    def fold(self) -> None:
        """Move every buffered series row into its series (reads do this
        themselves)."""
        for rows in self._rows:
            rows.fold()

    # -- access -------------------------------------------------------------

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        self.fold()
        return self._instruments.get(name)

    def names(self) -> List[str]:
        self.fold()
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def _each(self, cls) -> List[Tuple[str, Any]]:
        """``(name, instrument)`` of one kind, sorted by name."""
        return [(name, self._instruments[name]) for name in self.names()
                if isinstance(self._instruments[name], cls)]

    @property
    def counters(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in self._each(Counter)}

    def percentile_digests(self) -> Dict[str, Dict[str, Optional[float]]]:
        """p50/p95/max digest per sketch (the status-surface payload)."""
        return {name: sketch.percentiles()
                for name, sketch in self._each(LogHistogramSketch)}

    # -- wire form ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The plain-data, JSON-serialisable wire form.

        ``counters`` are ints, ``gauges`` ``{min, max, sum, n}`` and
        ``sketches`` :meth:`LogHistogramSketch.as_dict` payloads — the
        mergeable part.  ``series`` are run-local summaries that
        :meth:`from_dict` ignores.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": self.counters,
            "gauges": {name: gauge.as_dict()
                       for name, gauge in self._each(Gauge)},
            "sketches": {name: sketch.as_dict()
                         for name, sketch in self._each(LogHistogramSketch)},
            "series": {name: series.as_dict()
                       for name, series in self._each(TimeSeries)},
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s counters, gauges and sketches in (returns
        ``self``; ``other`` is never aliased)."""
        for name, value in other.counters.items():
            self.counter(name).inc(value)
        for name, gauge in other._each(Gauge):
            self.gauge(name).merge(gauge)
        for name, sketch in other._each(LogHistogramSketch):
            self.histogram(name).merge(sketch)
        return self

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """A registry holding the mergeable part of a :meth:`snapshot`.

        :class:`ValueError` on a foreign schema, a missing section or
        field, a negative count, or an inconsistent sketch.
        """
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(f"snapshot schema is {schema!r}, expected "
                             f"{SNAPSHOT_SCHEMA!r}")
        registry = cls()
        try:
            for name, value in data["counters"].items():
                registry.counter(name).inc(_count(value))
            for name, stat in data["gauges"].items():
                gauge = registry.gauge(name)
                gauge.min = _optional_float(stat["min"])
                gauge.max = _optional_float(stat["max"])
                gauge.sum = float(stat["sum"])
                gauge.n = _count(stat["n"])
            for name, payload in data["sketches"].items():
                registry.histogram(name).merge(
                    LogHistogramSketch.from_dict(payload))
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(
                f"malformed metrics snapshot: {type(error).__name__}: "
                f"{error}") from None
        return registry

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} metrics)"
