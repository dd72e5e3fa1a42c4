"""Tests for bit-level I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import BitReader, BitWriter


class TestBitWriter:
    def test_single_bits(self):
        writer = BitWriter()
        for bit in [1, 0, 1, 0, 1, 0, 1, 0]:
            writer.write_bit(bit)
        assert writer.getvalue() == bytes([0b10101010])

    def test_partial_byte_padded(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == bytes([0b10100000])

    def test_multi_byte_value(self):
        writer = BitWriter()
        writer.write_bits(0x1234, 16)
        assert writer.getvalue() == bytes([0x12, 0x34])

    def test_bit_length(self):
        writer = BitWriter()
        writer.write_bits(0b111, 3)
        assert writer.bit_length == 3
        writer.write_bits(0, 13)
        assert writer.bit_length == 16

    def test_rejects_negative(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(-1, 4)
        with pytest.raises(ValueError):
            writer.write_bits(1, -1)


class TestBitReader:
    def test_roundtrip(self):
        writer = BitWriter()
        values = [(0b1, 1), (0b1011, 4), (0xABCD, 16), (0, 7)]
        for value, width in values:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_bits(width) == value

    def test_eof(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11


class TestMalformedArguments:
    def test_value_wider_than_count_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(22, 3)
        with pytest.raises(ValueError):
            writer.write_bits(1, 0)
        assert writer.bit_length == 0

    def test_non_binary_bit_rejected(self):
        writer = BitWriter()
        for bad in (2, -1, 3):
            with pytest.raises(ValueError):
                writer.write_bit(bad)
        assert writer.bit_length == 0

    def test_negative_read_count_rejected(self):
        reader = BitReader(b"\xff")
        with pytest.raises(ValueError):
            reader.read_bits(-1)
        assert reader.bits_remaining == 8

    def test_zero_width_reads_and_writes(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.getvalue() == b""
        assert BitReader(b"").read_bits(0) == 0

    def test_read_past_end_raises_eof(self):
        reader = BitReader(b"\xab\xcd")
        reader.read_bits(3)
        with pytest.raises(EOFError):
            reader.read_bits(14)


def _bit_string(ops):
    """The bits a sequence of write operations appends, as ``0``/``1`` text."""
    parts = []
    for op in ops:
        if op[0] == "bit":
            parts.append(str(op[1]))
        elif op[2]:
            parts.append(format(op[1], f"0{op[2]}b"))
    return "".join(parts)


def _write(ops) -> BitWriter:
    writer = BitWriter()
    for op in ops:
        if op[0] == "bit":
            writer.write_bit(op[1])
        else:
            writer.write_bits(op[1], op[2])
    return writer


#: Interleaved ``("bit", b)`` and ``("bits", value, width)`` writes.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("bit"), st.integers(0, 1)),
        st.integers(0, 70).flatmap(
            lambda width: st.tuples(
                st.just("bits"), st.integers(0, (1 << width) - 1),
                st.just(width),
            )
        ),
    ),
    max_size=40,
)


class TestInterleavedRoundTrip:
    @settings(deadline=None)
    @given(ops=_OPS)
    def test_writes_match_bit_string_model(self, ops):
        writer = _write(ops)
        bits = _bit_string(ops)
        assert writer.bit_length == len(bits)
        padded = bits + "0" * (-len(bits) % 8)
        expected = bytes(
            int(padded[i: i + 8], 2) for i in range(0, len(padded), 8)
        )
        assert writer.getvalue() == expected

    @settings(deadline=None)
    @given(ops=_OPS, data=st.data())
    def test_reads_recover_writes_in_any_split(self, ops, data):
        stream = _write(ops).getvalue()
        reader = BitReader(stream)
        for op in ops:
            if op[0] == "bit":
                assert reader.read_bit() == op[1]
            else:
                assert reader.read_bits(op[2]) == op[1]
        # An independent split of the same stream, mixing both readers.
        bits = _bit_string(ops)
        bits += "0" * (-len(bits) % 8)
        reader = BitReader(stream)
        position = 0
        while position < len(bits):
            width = data.draw(st.integers(1, min(70, len(bits) - position)))
            if width == 1 and data.draw(st.booleans()):
                assert reader.read_bit() == int(bits[position])
            else:
                expected = int(bits[position: position + width], 2)
                assert reader.read_bits(width) == expected
            position += width
        assert reader.bits_remaining == 0
        with pytest.raises(EOFError):
            reader.read_bit()


class TestIntegerTypes:
    def test_numpy_integers_accepted(self):
        writer = BitWriter()
        writer.write_bits(np.int64(0x1234), np.int64(16))
        writer.write_bit(np.uint8(1))
        assert writer.getvalue() == bytes([0x12, 0x34, 0x80])

    def test_non_integers_rejected(self):
        with pytest.raises(TypeError):
            BitWriter().write_bits(1.5, 2)
