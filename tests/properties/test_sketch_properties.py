"""Merge-algebra properties of the metrics registry and its sketches.

The parent-side fleet aggregation folds worker snapshots in whatever
order the pool completes them, and a ledger replay folds them in record
order — the two must agree.  That holds iff registry merging is
associative and commutative on counters, on gauge min/max/n, and on
everything a sketch quantile reads: integer bin counts, the zero bin,
the total count, and the exact min/max.  The float sums only commute
up to rounding, so they are compared approximately and everything else
exactly.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import LogHistogramSketch, MetricsRegistry

#: Latency-like observations: non-negative, spanning many decades, with
#: zeros (and tiny negatives via the zero bin) included deliberately.
observations = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


def _sketch(values):
    sketch = LogHistogramSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def _assert_equivalent(a: LogHistogramSketch, b: LogHistogramSketch):
    # Exact on everything quantiles read …
    assert a == b  # bins, zero, count, min, max
    for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
        assert a.quantile(q) == b.quantile(q)
    # … approximate only on the float sum.
    assert a.sum == pytest.approx(b.sum, rel=1e-9, abs=1e-9)


class TestSketchMergeAlgebra:
    @given(observations, observations)
    def test_merge_commutative(self, xs, ys):
        ab = _sketch(xs).merge(_sketch(ys))
        ba = _sketch(ys).merge(_sketch(xs))
        _assert_equivalent(ab, ba)

    @given(observations, observations, observations)
    def test_merge_associative(self, xs, ys, zs):
        left = _sketch(xs).merge(_sketch(ys)).merge(_sketch(zs))
        right = _sketch(xs).merge(_sketch(ys).merge(_sketch(zs)))
        _assert_equivalent(left, right)

    @given(observations, observations)
    def test_merge_equals_pooled_observation(self, xs, ys):
        # Merging two sketches is indistinguishable from having observed
        # the union in one sketch — the distributed = centralised law.
        merged = _sketch(xs).merge(_sketch(ys))
        pooled = _sketch(xs + ys)
        _assert_equivalent(merged, pooled)

    @given(observations)
    def test_identity_element(self, xs):
        merged = _sketch(xs).merge(LogHistogramSketch())
        _assert_equivalent(merged, _sketch(xs))

    @given(observations)
    def test_serialisation_respects_merge(self, xs):
        # A sketch that travelled through its wire format merges the
        # same as the original (the worker->parent->ledger path).
        original = _sketch(xs)
        travelled = LogHistogramSketch.from_dict(original.as_dict())
        _assert_equivalent(
            LogHistogramSketch().merge(travelled),
            LogHistogramSketch().merge(original),
        )


def _registry(values, tag):
    registry = MetricsRegistry()
    for value in values:
        registry.counter("tasks").inc()
        registry.counter(f"kind.{tag}").inc()
        registry.gauge("eps").set(value + 1.0)
        registry.histogram("lat").observe(value)
    return registry


def _assert_registries_equivalent(a: MetricsRegistry, b: MetricsRegistry):
    assert a.counters == b.counters
    gauges_a = a.snapshot()["gauges"]
    gauges_b = b.snapshot()["gauges"]
    assert set(gauges_a) == set(gauges_b)
    for name in gauges_a:
        for key in ("min", "max", "n"):
            assert gauges_a[name][key] == gauges_b[name][key]
        assert gauges_a[name]["sum"] == pytest.approx(
            gauges_b[name]["sum"], rel=1e-9, abs=1e-9
        )
    assert a.names() == b.names()
    for name in a.percentile_digests():
        _assert_equivalent(a.get(name), b.get(name))


class TestSnapshotMergeAlgebra:
    @given(observations, observations)
    def test_snapshot_merge_commutative(self, xs, ys):
        ab = MetricsRegistry().merge(_registry(xs, "a")).merge(
            _registry(ys, "b")
        )
        ba = MetricsRegistry().merge(_registry(ys, "b")).merge(
            _registry(xs, "a")
        )
        _assert_registries_equivalent(ab, ba)

    @given(observations, observations, observations)
    def test_snapshot_merge_associative(self, xs, ys, zs):
        left = _registry(xs, "a").merge(_registry(ys, "b")).merge(
            _registry(zs, "c")
        )
        right = _registry(xs, "a").merge(
            _registry(ys, "b").merge(_registry(zs, "c"))
        )
        _assert_registries_equivalent(left, right)

    @given(observations, observations)
    def test_wire_form_respects_merge(self, xs, ys):
        # Registries that travelled through snapshot()/from_dict (the
        # worker -> parent -> ledger path) merge like the originals.
        travelled = MetricsRegistry.from_dict(
            _registry(xs, "a").snapshot()
        ).merge(MetricsRegistry.from_dict(_registry(ys, "b").snapshot()))
        direct = _registry(xs, "a").merge(_registry(ys, "b"))
        _assert_registries_equivalent(travelled, direct)
