"""Tests for the JPEG-style frame codec."""

import numpy as np
import pytest

from repro.codec.jpeg import JpegCodec


def gradient_frame(height=48, width=64):
    y, x = np.mgrid[0:height, 0:width]
    return np.clip(
        128 + 60 * np.sin(x / 9.0) + 40 * np.cos(y / 7.0), 0, 255
    ).astype(np.uint8)


class TestJpegCodec:
    def test_roundtrip_close(self):
        codec = JpegCodec(quality=75)
        frame = gradient_frame()
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == frame.shape
        assert decoded.dtype == np.uint8
        error = np.abs(decoded.astype(int) - frame.astype(int)).mean()
        assert error < 3.0

    def test_compression_achieved(self):
        codec = JpegCodec(quality=75)
        frame = gradient_frame()
        encoded = codec.encode(frame)
        assert len(encoded) < frame.nbytes / 3

    def test_deterministic(self):
        codec = JpegCodec(quality=60)
        frame = gradient_frame()
        assert codec.encode(frame) == codec.encode(frame)
        encoded = codec.encode(frame)
        assert np.array_equal(codec.decode(encoded), codec.decode(encoded))

    def test_quality_tradeoff(self):
        frame = gradient_frame()
        low = JpegCodec(quality=20)
        high = JpegCodec(quality=95)
        assert len(low.encode(frame)) < len(high.encode(frame))
        err_low = np.abs(
            low.decode(low.encode(frame)).astype(int) - frame.astype(int)
        ).mean()
        err_high = np.abs(
            high.decode(high.encode(frame)).astype(int) - frame.astype(int)
        ).mean()
        assert err_high <= err_low

    def test_non_multiple_of_block_dimensions(self):
        codec = JpegCodec()
        frame = gradient_frame(height=45, width=61)
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == (45, 61)

    def test_flat_frame_tiny(self):
        codec = JpegCodec()
        frame = np.full((32, 32), 128, dtype=np.uint8)
        encoded = codec.encode(frame)
        decoded = codec.decode(encoded)
        assert len(encoded) < 128
        assert np.abs(decoded.astype(int) - 128).max() <= 1

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError):
            JpegCodec().encode(np.zeros((8, 8), dtype=np.float64))

    def test_quality_embedded_in_stream(self):
        frame = gradient_frame()
        encoded = JpegCodec(quality=30).encode(frame)
        # Any codec instance can decode: quality travels in the header.
        decoded = JpegCodec(quality=95).decode(encoded)
        assert decoded.shape == frame.shape

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            JpegCodec().decode(b"\x00\x08")
