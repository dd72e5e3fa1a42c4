"""Tests for the IMA ADPCM codec."""

import numpy as np
import pytest

from repro.codec.adpcm import INDEX_TABLE, STEP_TABLE, AdpcmCodec


def sine_block(n=1536, amplitude=8000.0):
    t = np.arange(n)
    return (amplitude * np.sin(t * 0.05)).astype(np.int16)


class TestTables:
    def test_step_table_length(self):
        assert len(STEP_TABLE) == 89

    def test_step_table_monotone(self):
        assert np.all(np.diff(STEP_TABLE) > 0)

    def test_index_table_shape(self):
        assert len(INDEX_TABLE) == 8


class TestAdpcmCodec:
    def test_exact_4_to_1_compression(self):
        codec = AdpcmCodec()
        block = sine_block()
        encoded = codec.encode_block(block)
        assert len(encoded) == block.nbytes // 4

    def test_roundtrip_tracks_signal(self):
        codec = AdpcmCodec()
        block = sine_block()
        decoded = codec.decode_block(codec.encode_block(block), len(block))
        # ADPCM is lossy but must track a smooth signal closely after the
        # initial adaptation ramp.
        error = np.abs(
            decoded[200:].astype(int) - block[200:].astype(int)
        ).mean()
        assert error < 600

    def test_deterministic(self):
        codec = AdpcmCodec()
        block = sine_block()
        assert codec.encode_block(block) == codec.encode_block(block)

    def test_roundtrip_block_helper(self):
        codec = AdpcmCodec()
        block = sine_block(256)
        direct = codec.decode_block(codec.encode_block(block), 256)
        helper = codec.roundtrip_block(block)
        assert np.array_equal(direct, helper)

    def test_odd_sample_count(self):
        codec = AdpcmCodec()
        block = sine_block(101)
        encoded = codec.encode_block(block)
        assert len(encoded) == 51  # ceil(101 / 2)
        decoded = codec.decode_block(encoded, 101)
        assert len(decoded) == 101

    def test_silence_stays_quiet(self):
        codec = AdpcmCodec()
        block = np.zeros(512, dtype=np.int16)
        decoded = codec.roundtrip_block(block)
        assert np.abs(decoded.astype(int)).max() < 32

    def test_extreme_amplitude_no_overflow(self):
        codec = AdpcmCodec()
        block = np.array([32767, -32768] * 128, dtype=np.int16)
        decoded = codec.roundtrip_block(block)
        assert decoded.dtype == np.int16

    def test_step_response_converges(self):
        codec = AdpcmCodec()
        block = np.full(600, 12000, dtype=np.int16)
        decoded = codec.roundtrip_block(block)
        assert abs(int(decoded[-1]) - 12000) < 400


class TestMalformedInput:
    def test_short_code_buffer_rejected(self):
        with pytest.raises(ValueError, match="need 2 bytes"):
            AdpcmCodec().decode_block(b"\x12", 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            AdpcmCodec().decode_block(b"\x12", -1)

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(ValueError, match="int16"):
            AdpcmCodec().encode_block([40000, -40000])
        with pytest.raises(ValueError, match="int16"):
            AdpcmCodec().encode_block([0, -32769])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            AdpcmCodec().encode_block(np.zeros((4, 4), dtype=np.int16))

    def test_empty_block_roundtrips(self):
        codec = AdpcmCodec()
        assert codec.encode_block(np.zeros(0, dtype=np.int16)) == b""
        decoded = codec.decode_block(b"", 0)
        assert decoded.shape == (0,) and decoded.dtype == np.int16

    def test_trailing_code_bytes_ignored(self):
        codec = AdpcmCodec()
        block = sine_block(10)
        encoded = codec.encode_block(block)
        assert np.array_equal(codec.decode_block(encoded + b"\xff", 10),
                              codec.decode_block(encoded, 10))
