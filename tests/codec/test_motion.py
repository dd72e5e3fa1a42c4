"""Tests for motion estimation / compensation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.blocks import BLOCK
from repro.codec.motion import (
    motion_compensate,
    motion_estimate,
    motion_search,
)


def oracle_estimate(current, reference, top, left, search_range, block):
    """The per-candidate full search the vectorised kernel replaced."""
    height, width = reference.shape
    patch = current[top: top + block, left: left + block].astype(np.int64)
    candidates = []
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            y, x = top + dy, left + dx
            if y < 0 or x < 0 or y + block > height or x + block > width:
                continue
            candidate = reference[y: y + block, x: x + block].astype(np.int64)
            sad = float(np.abs(patch - candidate).sum())
            candidates.append((sad, abs(dy) + abs(dx), dy, dx))
    if not candidates:
        return (0, 0, float(np.abs(patch).sum()))
    sad, _, dy, dx = min(candidates)
    return (dy, dx, sad)


def textured(height=32, width=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, (height, width)).astype(np.float64)


class TestMotionEstimate:
    def test_finds_exact_translation(self):
        reference = textured()
        # Current frame: reference shifted down-right by (2, 3).
        current = np.roll(np.roll(reference, 2, axis=0), 3, axis=1)
        dy, dx, sad = motion_estimate(current, reference, 8, 8,
                                      search_range=4)
        assert (dy, dx) == (-2, -3)
        assert sad == 0.0

    def test_zero_motion_on_static(self):
        reference = textured(seed=1)
        dy, dx, sad = motion_estimate(reference, reference, 8, 8)
        assert (dy, dx) == (0, 0)
        assert sad == 0.0

    def test_prefers_smallest_vector_on_tie(self):
        flat = np.zeros((32, 32))
        dy, dx, _ = motion_estimate(flat, flat, 8, 8, search_range=3)
        assert (dy, dx) == (0, 0)

    def test_respects_frame_bounds(self):
        reference = textured()
        dy, dx, _ = motion_estimate(reference, reference, 0, 0,
                                    search_range=4)
        # Candidates reaching outside the frame are skipped.
        assert dy >= 0 and dx >= 0 or (dy, dx) == (0, 0)


class TestMotionCompensate:
    def test_zero_field_is_identity(self):
        reference = textured()
        motion = np.zeros((4, 4, 2), dtype=np.int64)
        assert np.array_equal(motion_compensate(reference, motion),
                              reference)

    def test_uniform_shift(self):
        reference = textured()
        motion = np.zeros((4, 4, 2), dtype=np.int64)
        motion[1, 1] = (2, 1)
        predicted = motion_compensate(reference, motion)
        block = predicted[8:16, 8:16]
        assert np.array_equal(block, reference[10:18, 9:17])

    def test_vector_outside_reference_rejected(self):
        motion = np.zeros((4, 4, 2), dtype=np.int64)
        motion[0, 0] = (-1, 0)
        with pytest.raises(ValueError):
            motion_compensate(textured(), motion)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            motion_compensate(np.zeros((16, 16)),
                              np.zeros((4, 4, 2), dtype=np.int64))


class TestMotionSearchMatchesOracle:
    @staticmethod
    @st.composite
    def frames(draw):
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
        shape = (rows * BLOCK, cols * BLOCK)
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(
            ["random", "flat", "fractional", "shifted"]
        ))
        if kind == "flat":
            # Every candidate ties: the smallest vector must win.
            value = draw(st.integers(0, 255))
            current = np.full(shape, float(value))
            reference = np.full(shape, float(value))
        elif kind == "fractional":
            # A non-integer reference, truncated before the SAD.
            current = rng.integers(0, 6, shape).astype(np.float64)
            reference = rng.uniform(0.0, 6.0, shape)
        elif kind == "shifted":
            base = rng.integers(0, 255, (shape[0] + 8, shape[1] + 8))
            dy, dx = rng.integers(0, 8, 2)
            current = base[dy: dy + shape[0], dx: dx + shape[1]] * 1.0
            reference = base[4: 4 + shape[0], 4: 4 + shape[1]] * 1.0
        else:
            # Few grey levels, so equal SADs from distinct vectors are common.
            current = rng.integers(0, 3, shape).astype(np.float64)
            reference = rng.integers(0, 3, shape).astype(np.float64)
        return current, reference

    @settings(deadline=None)
    @given(case=frames(), search_range=st.integers(0, 4))
    def test_grid_equals_per_block_oracle(self, case, search_range):
        current, reference = case
        grid = motion_search(current, reference, search_range)
        rows, cols = current.shape[0] // BLOCK, current.shape[1] // BLOCK
        assert grid.shape == (rows, cols, 2)
        for r in range(rows):
            for c in range(cols):
                top, left = r * BLOCK, c * BLOCK
                expected = oracle_estimate(
                    current, reference, top, left, search_range, BLOCK
                )
                assert tuple(grid[r, c]) == expected[:2]
                assert motion_estimate(
                    current, reference, top, left, search_range
                ) == expected

    def test_rejects_mismatched_or_unaligned_frames(self):
        with pytest.raises(ValueError):
            motion_search(np.zeros((16, 16)), np.zeros((16, 24)))
        with pytest.raises(ValueError):
            motion_search(np.zeros((12, 16)), np.zeros((12, 16)))
        with pytest.raises(ValueError):
            motion_search(np.zeros((16, 16)), np.zeros((16, 16)),
                          search_range=-1)

    def test_block_outside_current_rejected(self):
        with pytest.raises(ValueError):
            motion_estimate(np.zeros((16, 16)), np.zeros((16, 16)), 12, 0)

    def test_no_in_frame_candidate_keeps_zero_vector(self):
        current = np.ones((8, 8))
        reference = np.zeros((4, 4))
        assert motion_estimate(current, reference, 0, 0) == (0, 0, 64.0)
