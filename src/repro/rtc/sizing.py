"""Design-time FIFO sizing and fault-detection thresholds (Section 3.4).

Implements the paper's Eqs. 3-8 on top of the curve solvers:

* :func:`fifo_capacity` — Eq. 3: the smallest capacity ``|F|`` such that a
  producer bounded by ``alpha_P^u`` never blocks against a consumer that
  guarantees ``alpha_in^l``;
* :func:`initial_fill` — Eq. 4: the smallest pre-fill ``F_0`` such that the
  consumer never stalls on an empty FIFO;
* :func:`divergence_threshold` — Eq. 5: the smallest integer ``D`` strictly
  exceeding the worst fault-free divergence between the replicas' token
  counts (guaranteeing zero false positives);
* :func:`detection_latency_bound` — Eqs. 6-7: the worst-case time between a
  timing fault and its detection via the ``2D - 1`` divergence argument;
* :func:`detection_latency_bound_fail_stop` — Eq. 8: the fail-stop
  specialisation;
* :func:`size_duplicated_network` — the end-to-end computation producing a
  :class:`SizingResult` for a duplicated process network (the numbers in
  the "Theoretical Capacity" rows of Table 2).

As in the paper, sizing is a design-time computation: each set of
interface models is solved once (memoised per process on the PJD
values) and a run only consumes the resulting :class:`SizingResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.rtc.curves import (
    EPS,
    Curve,
    ZeroCurve,
    infimum_crossing,
    supremum_difference,
)
from repro.rtc.pjd import PJD


def _ceil_int(value: float) -> int:
    return int(math.ceil(value - EPS))


def fifo_capacity(
    producer_upper: Curve,
    consumer_lower: Curve,
    horizon: Optional[float] = None,
) -> int:
    """Eq. 3: smallest ``|F|`` with ``alpha_P^u(d) <= alpha_in^l(d) + |F|``.

    ``producer_upper`` bounds the stream written into the FIFO and
    ``consumer_lower`` guarantees the stream read out of it.  The capacity
    is the ceiling of the worst-case backlog ``sup (alpha_P^u -
    alpha_in^l)``.  Raises :class:`~repro.rtc.curves.CurveError` if the
    producer's long-run rate exceeds the consumer's (no finite FIFO works).
    """
    backlog = supremum_difference(producer_upper, consumer_lower, horizon)
    return max(_ceil_int(backlog), 1)


def initial_fill(
    consumer_upper: Curve,
    replica_out_lower: Curve,
    horizon: Optional[float] = None,
) -> int:
    """Eq. 4: smallest pre-fill so the consumer never stalls.

    ``alpha_out^l(d) >= alpha_C^u(d) - F_0`` for all ``d`` rearranges to
    ``F_0 = sup (alpha_C^u - alpha_out^l)``, rounded up to whole tokens.
    """
    deficit = supremum_difference(consumer_upper, replica_out_lower,
                                  horizon)
    return max(_ceil_int(deficit), 0)


def divergence_threshold(
    upper_curves: Sequence[Curve],
    lower_curves: Sequence[Curve],
    horizon: Optional[float] = None,
) -> int:
    """Eq. 5: smallest integer ``D`` strictly exceeding the fault-free
    divergence between any ordered replica pair.

    ``upper_curves[i]`` / ``lower_curves[i]`` are the output (or input)
    curves of replica ``i`` at the monitored channel.  Because the bound is
    strict (``D > sup``) the returned threshold guarantees no false
    positives under fault-free operation.
    """
    if len(upper_curves) != len(lower_curves):
        raise ValueError("need matching upper/lower curve lists")
    if len(upper_curves) < 2:
        raise ValueError("divergence needs at least two replicas")
    worst = 0.0
    count = len(upper_curves)
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            gap = supremum_difference(
                upper_curves[i], lower_curves[j], horizon
            )
            if gap > worst:
                worst = gap
    # Smallest integer strictly greater than the supremum.
    threshold = int(math.floor(worst + EPS)) + 1
    return max(threshold, 1)


def detection_latency_bound(
    healthy_lower: Curve,
    threshold: int,
    faulty_upper: Optional[Curve] = None,
    horizon: Optional[float] = None,
) -> float:
    """Eq. 6: worst-case detection latency for one (healthy, faulty) pair.

    After the fault, the healthy replica delivers at least
    ``healthy_lower`` while the faulty one delivers at most ``faulty_upper``
    (``None`` means fail-stop, i.e. the zero curve).  Detection happens once
    the divergence has grown by ``2 * D - 1`` tokens; the bound is the
    infimum window in which that growth is guaranteed.
    """
    if threshold < 1:
        raise ValueError("threshold D must be >= 1")
    required = 2 * threshold - 1
    if faulty_upper is None or isinstance(faulty_upper, ZeroCurve):
        return infimum_crossing(healthy_lower, required, horizon)
    difference = _difference_curve(healthy_lower, faulty_upper)
    return infimum_crossing(difference, required, horizon)


def _difference_curve(lower: Curve, upper: Curve) -> Curve:
    """The curve ``d -> max(lower(d) - upper(d), 0)`` with merged
    breakpoints, used for Eq. 6's crossing search."""
    from repro.rtc.curves import DerivedCurve

    rate = max(lower.long_run_rate() - upper.long_run_rate(), 0.0)
    return DerivedCurve(
        lambda d: max(lower.value(d) - upper.value(d), 0.0),
        children=(lower, upper),
        rate=rate,
        label=f"({lower!r} - {upper!r})",
    )


def detection_latency_bound_fail_stop(
    lower_curves: Sequence[Curve],
    threshold: int,
    horizon: Optional[float] = None,
) -> float:
    """Eq. 8: worst-case detection latency when the faulty replica stops
    producing altogether — the maximum over healthy replicas of the window
    needed to guarantee ``2D - 1`` tokens from the slowest healthy stream.
    """
    if not lower_curves:
        raise ValueError("need at least one healthy lower curve")
    if threshold < 1:
        raise ValueError("threshold D must be >= 1")
    required = 2 * threshold - 1
    return max(
        infimum_crossing(curve, required, horizon)
        for curve in lower_curves
    )


def replicator_blocking_bound(
    producer_lower: Curve,
    capacity: int,
    faulty_in_upper: Optional[Curve] = None,
    horizon: Optional[float] = None,
) -> float:
    """Worst-case latency of the replicator's occupancy-based detection.

    A replica that stops (or slows) consuming is detected when the producer
    finds its replicator FIFO full, i.e. after the backlog has grown past
    the capacity.  Starting from the worst case of an empty FIFO at the
    fault instant, ``capacity + 1`` producer tokens must arrive (net of
    whatever the limping replica still drains, bounded by
    ``faulty_in_upper``); the slowest such accumulation is bounded by the
    producer's lower arrival curve.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    required = capacity + 1
    if faulty_in_upper is None:
        return infimum_crossing(producer_lower, required, horizon)
    difference = _difference_curve(producer_lower, faulty_in_upper)
    return infimum_crossing(difference, required, horizon)


@dataclass
class SizingResult:
    """All design-time numbers for one duplicated process network.

    Attributes mirror the "Theoretical Capacity" block of Table 2:

    * ``replicator_capacities[k]`` — ``|R_k|`` (Eq. 3 per replica);
    * ``selector_capacities[k]`` — ``|S_k|`` (per-interface virtual queue
      bound: worst backlog plus pre-fill);
    * ``selector_initial_fill[k]`` — ``|S_k|_0`` (Eq. 4 per replica);
    * ``selector_threshold`` — ``D`` at the selector (Eq. 5 on output
      curves);
    * ``replicator_threshold`` — ``D`` at the replicator (Eq. 5 on input
      curves; the paper calls the computation "analogous");
    * ``selector_detection_bound`` — Eq. 8 bound at the selector (ms);
    * ``replicator_detection_bound`` — occupancy-detection bound at the
      replicator (ms).
    """

    replicator_capacities: Tuple[int, int]
    selector_capacities: Tuple[int, int]
    selector_initial_fill: Tuple[int, int]
    selector_threshold: int
    replicator_threshold: int
    selector_detection_bound: float
    replicator_detection_bound: float
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def selector_fifo_size(self) -> int:
        """``|S| = max(|S_1|, |S_2|)`` — rule 1 of the selector."""
        return max(self.selector_capacities)

    @property
    def selector_priming(self) -> int:
        """Number of priming tokens pre-filled into the selector FIFO.

        Eq. 4 gives a per-replica requirement; a single shared FIFO must
        pre-fill the maximum so the consumer's guarantee holds even when
        the *other* replica is the one that failed at time zero.
        """
        return max(self.selector_initial_fill)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for table rendering."""
        return {
            "|R1|": self.replicator_capacities[0],
            "|R2|": self.replicator_capacities[1],
            "|S1|": self.selector_capacities[0],
            "|S2|": self.selector_capacities[1],
            "|S1|_0": self.selector_initial_fill[0],
            "|S2|_0": self.selector_initial_fill[1],
            "D_selector": self.selector_threshold,
            "D_replicator": self.replicator_threshold,
            "selector_bound_ms": self.selector_detection_bound,
            "replicator_bound_ms": self.replicator_detection_bound,
        }


def size_duplicated_network(
    producer: PJD,
    replica_inputs: Sequence[PJD],
    replica_outputs: Sequence[PJD],
    consumer: PJD,
    horizon: Optional[float] = None,
) -> SizingResult:
    """Run the full Section 3.4 computation for a duplicated network.

    Parameters are the PJD interface models of Table 1: the producer's
    token production, each replica's token consumption (``replica_inputs``)
    and production (``replica_outputs``), and the consumer's token
    consumption.  Returns the capacities, initial fills, thresholds and
    detection-latency bounds that parameterise the replicator and selector
    channels.

    Results are memoized on the PJD parameter values (PJD is a frozen,
    hashable dataclass) — applications and benchmarks re-size the same
    Table 1 interface models constantly.  Each call returns a fresh
    :class:`SizingResult` copy, so mutating a result cannot poison the
    cache.

    The memo is per-process.  Every spec producer in :mod:`repro.exec`
    sweeps attaches a solved :class:`SizingResult` (plain picklable
    data), so pool workers only solve for specs handed to them unsized.
    """
    try:
        cached = _size_duplicated_network_cached(
            producer,
            tuple(replica_inputs),
            tuple(replica_outputs),
            consumer,
            horizon,
        )
    except TypeError:
        # Unhashable stand-in models (e.g. test doubles): compute uncached.
        return _size_duplicated_network_impl(
            producer, replica_inputs, replica_outputs, consumer, horizon
        )
    return replace(cached, details=dict(cached.details))


@lru_cache(maxsize=128)
def _size_duplicated_network_cached(
    producer: PJD,
    replica_inputs: Tuple[PJD, ...],
    replica_outputs: Tuple[PJD, ...],
    consumer: PJD,
    horizon: Optional[float],
) -> SizingResult:
    return _size_duplicated_network_impl(
        producer, replica_inputs, replica_outputs, consumer, horizon
    )


def _size_duplicated_network_impl(
    producer: PJD,
    replica_inputs: Sequence[PJD],
    replica_outputs: Sequence[PJD],
    consumer: PJD,
    horizon: Optional[float],
) -> SizingResult:
    if len(replica_inputs) != 2 or len(replica_outputs) != 2:
        raise ValueError("exactly two replicas are supported (paper setup)")
    producer_upper, producer_lower = producer.curves()
    consumer_upper, _consumer_lower = consumer.curves()

    replicator_caps = tuple(
        fifo_capacity(producer_upper, model.lower(), horizon)
        for model in replica_inputs
    )
    initial_fills = tuple(
        initial_fill(consumer_upper, model.lower(), horizon)
        for model in replica_outputs
    )
    # The per-interface selector bound must hold the common priming fill
    # (the max of the per-replica Eq. 4 requirements, since either replica
    # may be the surviving one) plus the worst-case backlog of that
    # replica's output against the consumer drain.
    priming = max(initial_fills)
    selector_caps = tuple(
        priming
        + fifo_capacity(model.upper(), consumer.lower(), horizon)
        for model in replica_outputs
    )
    selector_threshold = divergence_threshold(
        [model.upper() for model in replica_outputs],
        [model.lower() for model in replica_outputs],
        horizon,
    )
    replicator_threshold = divergence_threshold(
        [model.upper() for model in replica_inputs],
        [model.lower() for model in replica_inputs],
        horizon,
    )
    selector_bound = detection_latency_bound_fail_stop(
        [model.lower() for model in replica_outputs],
        selector_threshold,
        horizon,
    )
    # The paper computes the replicator-side bound "analogously" to the
    # selector (Eq. 8 on the replica input curves); the occupancy-based
    # blocking bound (usually tighter) is reported in `details`.
    replicator_bound = detection_latency_bound_fail_stop(
        [model.lower() for model in replica_inputs],
        replicator_threshold,
        horizon,
    )
    blocking_bounds = {
        f"replicator_blocking_bound_R{k + 1}": replicator_blocking_bound(
            producer_lower, cap, None, horizon
        )
        for k, cap in enumerate(replicator_caps)
    }
    return SizingResult(
        replicator_capacities=replicator_caps,
        selector_capacities=selector_caps,
        selector_initial_fill=initial_fills,
        selector_threshold=selector_threshold,
        replicator_threshold=replicator_threshold,
        selector_detection_bound=selector_bound,
        replicator_detection_bound=replicator_bound,
        details=blocking_bounds,
    )
