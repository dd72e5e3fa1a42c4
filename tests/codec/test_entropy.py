"""Tests for exp-Golomb coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import MAX_LEADING_ZEROS, BitReader, BitWriter
from repro.codec.entropy import (
    read_blocks,
    read_signed_exp_golomb,
    read_unsigned_exp_golomb,
    write_blocks,
    write_signed_exp_golomb,
    write_unsigned_exp_golomb,
)
from repro.codec.zigzag import (
    inverse_zigzag,
    run_length_decode,
    run_length_encode,
    zigzag,
)


class TestUnsigned:
    def test_known_codewords(self):
        # H.264 spec: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
        expectations = {0: "1", 1: "010", 2: "011", 3: "00100",
                        4: "00101", 5: "00110", 6: "00111", 7: "0001000"}
        for value, bits in expectations.items():
            writer = BitWriter()
            write_unsigned_exp_golomb(writer, value)
            assert writer.bit_length == len(bits)
            got = "".join(
                str((writer.getvalue()[i // 8] >> (7 - i % 8)) & 1)
                for i in range(writer.bit_length)
            )
            assert got == bits

    def test_roundtrip_range(self):
        writer = BitWriter()
        for value in range(200):
            write_unsigned_exp_golomb(writer, value)
        reader = BitReader(writer.getvalue())
        for value in range(200):
            assert read_unsigned_exp_golomb(reader) == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            write_unsigned_exp_golomb(BitWriter(), -1)

    def test_malformed_raises(self):
        reader = BitReader(b"\x00" * 20)
        with pytest.raises(ValueError):
            read_unsigned_exp_golomb(reader)

    def test_roundtrip_to_two_pow_twenty(self):
        writer = BitWriter()
        values = range(2 ** 20 + 1)
        for value in values:
            write_unsigned_exp_golomb(writer, value)
        reader = BitReader(writer.getvalue())
        decoded = [read_unsigned_exp_golomb(reader) for _ in values]
        assert decoded == list(values)
        assert reader.bits_remaining < 8

    @pytest.mark.parametrize("offset", [0, 3, 7])
    def test_sixty_five_leading_zeros_raise_value_error(self, offset):
        # offset leading 1-bits are consumed first so the zero run starts
        # mid-byte; then 65 zeros and a 1 that would end a 65-zero code.
        writer = BitWriter()
        writer.write_bits((1 << offset) - 1, offset)
        writer.write_bits(1, 66)
        reader = BitReader(writer.getvalue())
        reader.read_bits(offset)
        with pytest.raises(ValueError):
            read_unsigned_exp_golomb(reader)
        # Like a bit-at-a-time reader, the failed read consumed the zeros
        # up to and including the first one past the limit.
        consumed = offset + MAX_LEADING_ZEROS + 1
        assert reader.bits_remaining == len(writer.getvalue()) * 8 - consumed

    def test_sixty_four_leading_zeros_still_decode(self):
        writer = BitWriter()
        write_unsigned_exp_golomb(writer, 2 ** 64 - 1)
        reader = BitReader(writer.getvalue())
        assert read_unsigned_exp_golomb(reader) == 2 ** 64 - 1

    @pytest.mark.parametrize("stream", [b"", b"\x00", b"\x00" * 8])
    def test_short_zero_stream_raises_eof(self, stream):
        reader = BitReader(stream)
        with pytest.raises(EOFError):
            read_unsigned_exp_golomb(reader)
        assert reader.bits_remaining == 0

    def test_truncated_suffix_raises_eof(self):
        # Six zeros promise six bits after the 1, but only one is left.
        reader = BitReader(b"\x03")
        with pytest.raises(EOFError):
            read_unsigned_exp_golomb(reader)
        assert reader.bits_remaining == 0


class TestSigned:
    def test_mapping_order(self):
        # H.264 mapping: 0, 1, -1, 2, -2, ...
        writer = BitWriter()
        for value in [0, 1, -1, 2, -2, 7, -7]:
            write_signed_exp_golomb(writer, value)
        reader = BitReader(writer.getvalue())
        for value in [0, 1, -1, 2, -2, 7, -7]:
            assert read_signed_exp_golomb(reader) == value

    def test_roundtrip_range(self):
        writer = BitWriter()
        values = list(range(-150, 151))
        for value in values:
            write_signed_exp_golomb(writer, value)
        reader = BitReader(writer.getvalue())
        for value in values:
            assert read_signed_exp_golomb(reader) == value


class TestEliasGammaCodes:
    @settings(deadline=None)
    @given(
        skip=st.integers(0, 7),
        values=st.lists(
            st.one_of(st.integers(0, 40), st.integers(0, 2 ** 64 - 1)),
            max_size=60,
        ),
    )
    def test_iteration_matches_single_reads(self, skip, values):
        writer = BitWriter()
        writer.write_bits(0, skip)
        for value in values:
            write_unsigned_exp_golomb(writer, value)
        stream = writer.getvalue()
        single, batch = BitReader(stream), BitReader(stream)
        single.read_bits(skip)
        batch.read_bits(skip)
        codes = batch.elias_gamma_codes()
        for value in values:
            assert next(codes) == value + 1
            assert read_unsigned_exp_golomb(single) == value
            assert batch.bits_remaining == single.bits_remaining

    def test_iterator_raises_like_single_reads(self):
        codes = BitReader(b"\x80\x00").elias_gamma_codes()
        assert next(codes) == 1
        with pytest.raises(EOFError):
            next(codes)
        with pytest.raises(ValueError):
            next(BitReader(b"\x00" * 20).elias_gamma_codes())


class TestBlockSerializer:
    @settings(deadline=None)
    @given(
        count=st.integers(0, 6),
        seed=st.integers(0, 2 ** 32 - 1),
        density=st.floats(0.0, 1.0),
        magnitude=st.sampled_from([1, 3, 300, 2 ** 40]),
    )
    def test_roundtrip(self, count, seed, density, magnitude):
        rng = np.random.default_rng(seed)
        values = rng.integers(-magnitude, magnitude + 1, (count, 8, 8))
        levels = np.where(rng.random((count, 8, 8)) < density, values, 0)
        levels = levels.astype(np.float64)
        writer = BitWriter()
        write_blocks(writer, levels)
        reader = BitReader(writer.getvalue())
        assert np.array_equal(read_blocks(reader, count), levels)
        assert reader.bits_remaining < 8

    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0))
    def test_matches_per_symbol_reference(self, seed, density):
        # The reference codes one symbol at a time with the zig-zag and
        # run-length helpers, as both codecs did before sharing a kernel.
        rng = np.random.default_rng(seed)
        values = rng.integers(-40, 41, (5, 8, 8))
        levels = np.where(rng.random((5, 8, 8)) < density, values, 0)
        levels = levels.astype(np.float64)
        expected = BitWriter()
        previous_dc = 0
        for block in levels:
            scanned = zigzag(block).astype(np.int64)
            write_signed_exp_golomb(expected, int(scanned[0]) - previous_dc)
            previous_dc = int(scanned[0])
            for run, value in run_length_encode(scanned[1:]):
                write_unsigned_exp_golomb(expected, run)
                write_signed_exp_golomb(expected, value)
        writer = BitWriter()
        write_blocks(writer, levels)
        assert writer.getvalue() == expected.getvalue()
        decoded = read_blocks(BitReader(writer.getvalue()), len(levels))
        for block, got in zip(levels, decoded):
            vector = np.concatenate(
                ([zigzag(block)[0]], run_length_decode(
                    run_length_encode(zigzag(block)[1:].astype(np.int64)), 63
                ))
            )
            assert np.array_equal(inverse_zigzag(vector), got)

    def test_overlong_run_rejected(self):
        writer = BitWriter()
        write_signed_exp_golomb(writer, 0)  # DC
        write_unsigned_exp_golomb(writer, 63)  # lands past the last AC
        write_signed_exp_golomb(writer, 1)
        with pytest.raises(ValueError, match="exceeds block size"):
            read_blocks(BitReader(writer.getvalue()), 1)

    def test_truncated_stream_raises_eof(self):
        writer = BitWriter()
        write_blocks(writer, np.ones((2, 8, 8)))
        with pytest.raises(EOFError):
            read_blocks(BitReader(writer.getvalue()[:-3]), 2)
