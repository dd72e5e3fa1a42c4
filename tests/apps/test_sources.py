"""Tests for synthetic media generators."""

import numpy as np
import pytest

from repro.apps.sources import SyntheticAudio, SyntheticVideo


def _full_grid_frame(video, index):
    """The frame formula evaluated on the whole pixel grid: the reference
    for the per-axis evaluation in :meth:`SyntheticVideo.frame`."""
    y, x = np.mgrid[0: video.height, 0: video.width]
    phase = index * 0.35
    base = (
        128.0
        + 55.0 * np.sin((x + 4.0 * index) / 11.0 + phase * 0.1)
        + 35.0 * np.cos((y - 2.0 * index) / 8.0)
    )
    dy = (2 * index) % video.height
    dx = (3 * index) % video.width
    texture = video._texture[dy: dy + video.height, dx: dx + video.width]
    return np.clip(base + texture, 0, 255).astype(np.uint8)


class TestSyntheticVideo:
    def test_frame_geometry_and_type(self):
        video = SyntheticVideo(64, 48, seed=0)
        frame = video.frame(0)
        assert frame.shape == (48, 64)
        assert frame.dtype == np.uint8

    def test_deterministic(self):
        a = SyntheticVideo(64, 48, seed=3)
        b = SyntheticVideo(64, 48, seed=3)
        assert np.array_equal(a.frame(7), b.frame(7))

    def test_seed_changes_content(self):
        a = SyntheticVideo(64, 48, seed=1).frame(0)
        b = SyntheticVideo(64, 48, seed=2).frame(0)
        assert not np.array_equal(a, b)

    def test_frames_evolve(self):
        video = SyntheticVideo(64, 48, seed=0)
        assert not np.array_equal(video.frame(0), video.frame(1))

    @pytest.mark.parametrize("width, height", [(96, 72), (320, 240),
                                               (50, 38)])
    def test_matches_full_grid_formula(self, width, height):
        video = SyntheticVideo(width, height, seed=5)
        for index in range(300):
            assert np.array_equal(video.frame(index),
                                  _full_grid_frame(video, index)), index

    def test_has_texture(self):
        # The codecs need non-trivial content; a flat frame would make
        # the compression tests meaningless.
        frame = SyntheticVideo(64, 48, seed=0).frame(0).astype(float)
        assert frame.std() > 10.0


class TestSyntheticAudio:
    def test_block_size_and_type(self):
        audio = SyntheticAudio(1536, seed=0)
        block = audio.block(0)
        assert block.shape == (1536,)
        assert block.dtype == np.int16
        assert block.nbytes == 3 * 1024

    def test_deterministic(self):
        a = SyntheticAudio(512, seed=4)
        b = SyntheticAudio(512, seed=4)
        assert np.array_equal(a.block(9), b.block(9))

    def test_blocks_differ(self):
        audio = SyntheticAudio(512, seed=0)
        assert not np.array_equal(audio.block(0), audio.block(1))

    def test_amplitude_in_range(self):
        audio = SyntheticAudio(2048, seed=0)
        block = audio.block(3)
        assert block.min() >= -32768
        assert block.max() <= 32767
