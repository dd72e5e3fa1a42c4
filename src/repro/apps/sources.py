"""Deterministic synthetic media generators.

The paper feeds its applications real camera frames and audio samples; we
have neither, so the producers synthesise media deterministically from a
seed: video frames are a moving gradient plus band-limited texture (enough
detail that the codecs do real work, enough smoothness that motion
estimation finds matches), audio is a multi-tone sweep.  Substitution
documented in DESIGN.md Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SyntheticVideo:
    """A deterministic frame sequence ``frame(t)``.

    ``width`` / ``height`` default to a scaled-down geometry for fast
    simulation; the paper's 320x240 is available via the experiment
    configuration's paper-scale flag.
    """

    width: int = 96
    height: int = 72
    seed: int = 0

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        # A fixed texture layer so consecutive frames share content that
        # motion estimation can track.
        noise = rng.normal(0.0, 1.0, (self.height * 2, self.width * 2))
        # Cheap separable smoothing via cumulative sums.
        smoothed = noise
        for _ in range(2):
            smoothed = (
                np.cumsum(smoothed, axis=0) - np.pad(
                    np.cumsum(smoothed, axis=0), ((5, 0), (0, 0))
                )[:-5]
            ) / 5.0
            smoothed = (
                np.cumsum(smoothed, axis=1) - np.pad(
                    np.cumsum(smoothed, axis=1), ((0, 0), (5, 0))
                )[:, :-5]
            ) / 5.0
        self._texture = smoothed * 20.0

    def frame(self, index: int) -> np.ndarray:
        """The ``index``-th frame (uint8, ``height x width``)."""
        # 128 + 55 sin(x-term) + 35 cos(y-term): each term depends on one
        # axis only, so it is evaluated on that axis and broadcast, in the
        # same order of additions as the full-grid formula.
        x = np.arange(self.width)
        y = np.arange(self.height)
        phase = index * 0.35
        base = (
            (128.0 + 55.0 * np.sin((x + 4.0 * index) / 11.0 + phase * 0.1))
            + (35.0 * np.cos((y - 2.0 * index) / 8.0))[:, None]
        )
        # Scroll the texture by the frame index (pure translation: ideal
        # for the motion estimator, like a panning camera).
        dy = (2 * index) % self.height
        dx = (3 * index) % self.width
        texture = self._texture[dy: dy + self.height, dx: dx + self.width]
        return np.clip(base + texture, 0, 255).astype(np.uint8)


@dataclass
class SyntheticAudio:
    """A deterministic int16 PCM stream cut into fixed-size blocks."""

    samples_per_block: int = 1536  # 3 KB of int16 per block, as in the paper
    seed: int = 0

    def block(self, index: int) -> np.ndarray:
        """The ``index``-th PCM block (int16)."""
        rng = np.random.default_rng(self.seed + index)
        n = self.samples_per_block
        t = np.arange(index * n, (index + 1) * n, dtype=np.float64)
        signal = (
            6000.0 * np.sin(t * 0.031)
            + 3000.0 * np.sin(t * 0.0073 + index * 0.2)
            + 500.0 * rng.normal(0.0, 1.0, n)
        )
        return np.clip(signal, -32768, 32767).astype(np.int16)
