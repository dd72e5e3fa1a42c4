"""Bit-level reading and writing.

Both the JPEG-style and the H.264-style codecs serialise symbols into a
packed big-endian bitstream; these two classes are the only place bit
twiddling happens.  Both work a word at a time: the writer shifts whole
values into an integer accumulator and flushes complete bytes, the
reader decodes byte windows with :meth:`int.from_bytes` and iterates
Elias-gamma (exp-Golomb) codes out of a buffered integer.
"""

from __future__ import annotations

import operator
from typing import Iterator

#: Longest zero prefix a well-formed exp-Golomb code may have.
MAX_LEADING_ZEROS = 64


class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0  # pending bits, fewer than 8 after each write
        self._filled = 0

    def write_bit(self, bit: int) -> None:
        """Append one bit (0 or 1)."""
        if bit != 0 and bit != 1:
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self.write_bits(bit, 1)

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, MSB first."""
        # Python ints from here on (numpy integers would overflow).
        value, count = operator.index(value), operator.index(count)
        if count < 0:
            raise ValueError("bit count must be >= 0")
        if value < 0:
            raise ValueError("value must be non-negative")
        if value >> count:
            raise ValueError(f"value {value} does not fit in {count} bits")
        current = (self._current << count) | value
        filled = self._filled + count
        if filled >= 8:
            spare = filled & 7
            self._bytes += (current >> spare).to_bytes(filled >> 3, "big")
            current &= (1 << spare) - 1
            filled = spare
        self._current = current
        self._filled = filled

    def getvalue(self) -> bytes:
        """The padded byte string (trailing zero bits fill the last byte)."""
        result = bytearray(self._bytes)
        if self._filled:
            result.append(self._current << (8 - self._filled))
        return bytes(result)

    @property
    def bit_length(self) -> int:
        """Bits written so far."""
        return len(self._bytes) * 8 + self._filled


class BitReader:
    """Reads bits most-significant-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0

    def read_bit(self) -> int:
        """Read one bit; raises :class:`EOFError` past the end."""
        byte_index, bit_index = divmod(self._position, 8)
        if byte_index >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits as an unsigned integer."""
        if count < 0:
            raise ValueError("bit count must be >= 0")
        start = self._position
        end = start + count
        if end > len(self._data) * 8:
            self._position = len(self._data) * 8
            raise EOFError("bitstream exhausted")
        self._position = end
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[start >> 3: last], "big")
        return (window >> ((last << 3) - end)) & ((1 << count) - 1)

    def elias_gamma_codes(self) -> Iterator[int]:
        """Iterate Elias-gamma codes: ``n`` zero bits, a 1 bit, ``n`` bits.

        Each code is yielded as the ``n + 1``-bit integer that starts at
        its 1 bit (exp-Golomb's ``value + 1``).  Whole bytes are buffered
        in one integer, so a code's zeros are counted with one
        ``bit_length`` and a code costs a few integer operations.  The
        reader's position follows every code yielded, so iteration may
        stop anywhere; do not interleave other reads.  Raises
        :class:`ValueError` once more than :data:`MAX_LEADING_ZEROS`
        zeros are seen (the position then lies just past the first
        ``MAX_LEADING_ZEROS + 1`` of them) and :class:`EOFError` if the
        stream ends inside a code (the position then lies at the end),
        as bit-at-a-time reading would leave it.
        """
        data = self._data
        size = len(data)
        index = self._position >> 3
        filled = 0  # the low ``filled`` bits of ``word`` are unread
        word = 0
        if index < size:
            filled = 8 - (self._position & 7)
            word = data[index] & ((1 << filled) - 1)
            index += 1
        while True:
            length = word.bit_length()
            zeros = filled - length
            if zeros > MAX_LEADING_ZEROS:
                self._position += MAX_LEADING_ZEROS + 1
                raise ValueError(
                    f"more than {MAX_LEADING_ZEROS} leading zero bits"
                )
            if length > zeros:
                filled -= 2 * zeros + 1
                self._position = (index << 3) - filled
                yield word >> filled
                word &= (1 << filled) - 1
            elif index < size:
                chunk = data[index: index + 7]
                index += len(chunk)
                width = len(chunk) << 3
                word = (word << width) | int.from_bytes(chunk, "big")
                filled += width
            else:
                self._position = size << 3
                raise EOFError("bitstream exhausted")

    @property
    def bits_remaining(self) -> int:
        """Bits left in the stream (including padding)."""
        return len(self._data) * 8 - self._position
