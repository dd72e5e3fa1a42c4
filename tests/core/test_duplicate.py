"""Tests for network assembly (Figure 1 reference / duplicated)."""

import pytest

from repro.core.duplicate import build_duplicated, build_reference
from tests.helpers import synthetic_blueprint, synthetic_sizing


@pytest.fixture
def sizing():
    return synthetic_sizing()


def run_both(tokens, sizing, seed=1, **dup_kwargs):
    blueprint = synthetic_blueprint(
        tokens, tokens + sizing.selector_priming, seed=seed
    )
    reference = build_reference(
        blueprint,
        input_capacity=sizing.replicator_capacities[0],
        output_capacity=sizing.selector_fifo_size,
        initial_fill=sizing.selector_priming,
    )
    reference.run()
    duplicated = build_duplicated(blueprint, sizing, **dup_kwargs)
    duplicated.run()
    return reference, duplicated


class TestReferenceConstruction:
    def test_topology(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        reference = build_reference(blueprint, 2, 4, initial_fill=2)
        assert reference.input_fifo.capacity == 2
        assert reference.output_fifo.capacity == 4
        assert reference.output_fifo.fill == 2  # priming
        assert len(reference.critical_processes) == 1

    def test_runs_to_completion(self, sizing):
        reference, _ = run_both(30, sizing)
        assert len(reference.consumer.arrival_times) == (
            30 + sizing.selector_priming
        )
        assert reference.consumer.stalls == 0

    def test_variant_selects_timing(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        ref0 = build_reference(blueprint, 3, 6, variant=0, initial_fill=2)
        ref1 = build_reference(blueprint, 3, 6, variant=1, initial_fill=2)
        relay0 = ref0.critical_processes[0]
        relay1 = ref1.critical_processes[0]
        assert relay0.timing.jitter != relay1.timing.jitter


class TestDuplicatedConstruction:
    def test_channel_parameters_from_sizing(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        duplicated = build_duplicated(blueprint, sizing)
        assert duplicated.replicator.capacities == (
            sizing.replicator_capacities
        )
        assert duplicated.selector.capacities == sizing.selector_capacities
        assert duplicated.selector.threshold == sizing.selector_threshold
        assert duplicated.selector.priming == sizing.selector_priming

    def test_two_replicas_with_prefixed_names(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        duplicated = build_duplicated(blueprint, sizing)
        assert duplicated.replica_process_names(0) == ["R1/stage"]
        assert duplicated.replica_process_names(1) == ["R2/stage"]

    def test_shared_detection_log(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        duplicated = build_duplicated(blueprint, sizing)
        assert duplicated.replicator.log is duplicated.detection_log
        assert duplicated.selector.log is duplicated.detection_log

    def test_priming_tokens_negative_seqnos(self, sizing):
        blueprint = synthetic_blueprint(5, 5)
        tokens = blueprint.priming_tokens(3)
        assert [t.seqno for t in tokens] == [-2, -1, 0]
        assert all(t.origin == "priming" for t in tokens)


class TestFaultFreeEquivalence:
    def test_outputs_identical(self, sizing):
        reference, duplicated = run_both(40, sizing,
                                         verify_duplicates=True)
        ref_values = [t.value for t in reference.consumer.tokens]
        dup_values = [t.value for t in duplicated.consumer.tokens]
        assert ref_values == dup_values

    def test_no_detections_fault_free(self, sizing):
        _, duplicated = run_both(40, sizing)
        assert len(duplicated.detection_log) == 0

    def test_fills_within_capacity(self, sizing):
        _, duplicated = run_both(40, sizing)
        fills = duplicated.network.max_fills()
        assert fills["replicator.R1"] <= sizing.replicator_capacities[0]
        assert fills["replicator.R2"] <= sizing.replicator_capacities[1]
        assert fills["selector.S"] <= sizing.selector_fifo_size

    def test_no_consumer_stalls(self, sizing):
        _, duplicated = run_both(40, sizing)
        assert duplicated.consumer.stalls == 0

    def test_overhead_counters_active(self, sizing):
        _, duplicated = run_both(10, sizing)
        assert duplicated.replicator_ops.operations > 0
        assert duplicated.selector_ops.operations > 0
