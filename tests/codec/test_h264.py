"""Tests for the simplified H.264 encoder/decoder."""

import numpy as np
import pytest

from repro.codec.h264 import FRAME_I, FRAME_P, H264Decoder, H264Encoder


def frame_sequence(count, height=48, width=64):
    frames = []
    y, x = np.mgrid[0:height, 0:width]
    for t in range(count):
        img = 128 + 60 * np.sin((x + 3 * t) / 9.0) + 40 * np.cos(
            (y - 2 * t) / 7.0
        )
        frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames


class TestGopStructure:
    def test_first_frame_is_intra(self):
        encoder = H264Encoder(64, 48, gop=4)
        frames = frame_sequence(1)
        data = encoder.encode_frame(frames[0])
        assert data[5] == FRAME_I  # header byte 5 is the frame type

    def test_gop_cadence(self):
        encoder = H264Encoder(64, 48, gop=3)
        types = []
        for frame in frame_sequence(7):
            data = encoder.encode_frame(frame)
            types.append(data[5])
        assert types == [FRAME_I, FRAME_P, FRAME_P] * 2 + [FRAME_I]

    def test_p_frames_smaller_than_i(self):
        encoder = H264Encoder(64, 48, gop=4)
        sizes = [len(encoder.encode_frame(f)) for f in frame_sequence(4)]
        assert sizes[1] < sizes[0]
        assert sizes[2] < sizes[0]

    def test_reset_restarts_gop(self):
        encoder = H264Encoder(64, 48, gop=8)
        frames = frame_sequence(3)
        encoder.encode_frame(frames[0])
        encoder.encode_frame(frames[1])
        encoder.reset()
        data = encoder.encode_frame(frames[2])
        assert data[5] == FRAME_I

    def test_rejects_bad_geometry(self):
        encoder = H264Encoder(64, 48)
        with pytest.raises(ValueError):
            encoder.encode_frame(np.zeros((32, 32), dtype=np.uint8))

    def test_rejects_bad_dtype(self):
        encoder = H264Encoder(64, 48)
        with pytest.raises(ValueError):
            encoder.encode_frame(np.zeros((48, 64), dtype=np.float32))

    def test_rejects_bad_gop(self):
        with pytest.raises(ValueError):
            H264Encoder(64, 48, gop=0)


class TestRoundTrip:
    def test_sequence_decodes_close(self):
        encoder = H264Encoder(64, 48, quality=70, gop=4)
        decoder = H264Decoder()
        for frame in frame_sequence(8):
            decoded = decoder.decode_frame(encoder.encode_frame(frame))
            error = np.abs(
                decoded.astype(int) - frame.astype(int)
            ).mean()
            assert error < 4.0

    def test_no_drift_across_gop(self):
        # Closed-loop prediction: the error of the last P-frame in a GOP
        # must not be much worse than the first.
        encoder = H264Encoder(64, 48, quality=70, gop=8)
        decoder = H264Decoder()
        errors = []
        for frame in frame_sequence(8):
            decoded = decoder.decode_frame(encoder.encode_frame(frame))
            errors.append(
                np.abs(decoded.astype(int) - frame.astype(int)).mean()
            )
        assert errors[-1] < errors[1] * 3 + 1.0

    def test_deterministic(self):
        def encode_all():
            encoder = H264Encoder(64, 48, gop=4)
            return [encoder.encode_frame(f) for f in frame_sequence(5)]

        assert encode_all() == encode_all()

    def test_p_frame_without_reference_rejected(self):
        encoder = H264Encoder(64, 48, gop=2)
        frames = frame_sequence(2)
        encoder.encode_frame(frames[0])
        p_frame = encoder.encode_frame(frames[1])
        fresh_decoder = H264Decoder()
        with pytest.raises(ValueError):
            fresh_decoder.decode_frame(p_frame)

    @pytest.mark.parametrize("unit", [b"", b"\x00", b"\x00\x08\x00"])
    def test_truncated_header_rejected(self, unit):
        with pytest.raises(ValueError, match="header"):
            H264Decoder().decode_frame(unit)

    def test_unknown_frame_type_rejected(self):
        encoder = H264Encoder(64, 48)
        data = bytearray(encoder.encode_frame(frame_sequence(1)[0]))
        data[5] = 7
        with pytest.raises(ValueError, match="frame type"):
            H264Decoder().decode_frame(bytes(data))

    def test_compression_vs_raw(self):
        encoder = H264Encoder(64, 48, quality=70, gop=8)
        total = sum(len(encoder.encode_frame(f))
                    for f in frame_sequence(8))
        raw = 8 * 64 * 48
        assert total < raw / 4
