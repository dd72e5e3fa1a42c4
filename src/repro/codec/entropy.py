"""Exponential-Golomb entropy coding (as used by H.264's CAVLC headers).

Unsigned exp-Golomb writes ``value + 1`` as ``leading_zeros`` zero bits
followed by the binary representation; signed values are mapped with the
H.264 zig-zag mapping ``v -> 2|v| - (v > 0)``.

:func:`write_blocks` / :func:`read_blocks` are the block serializer both
frame codecs share: per 8x8 block a differential DC level, then
``(zero_run, level)`` pairs of the zig-zag-scanned AC levels, closed by a
``(0, 0)`` end-of-block pair.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import BLOCK
from repro.codec.zigzag import ZIGZAG_ORDER

_COEFFICIENTS = BLOCK * BLOCK


def write_unsigned_exp_golomb(writer: BitWriter, value: int) -> None:
    """Write an unsigned integer (>= 0)."""
    if value < 0:
        raise ValueError("unsigned exp-Golomb needs value >= 0")
    code = value + 1
    # length - 1 zero bits then the length bits of code, in one word.
    writer.write_bits(code, 2 * code.bit_length() - 1)


def read_unsigned_exp_golomb(reader: BitReader) -> int:
    """Read an unsigned integer."""
    return next(reader.elias_gamma_codes()) - 1


def write_signed_exp_golomb(writer: BitWriter, value: int) -> None:
    """Write a signed integer using the H.264 mapping."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    write_unsigned_exp_golomb(writer, mapped)


def read_signed_exp_golomb(reader: BitReader) -> int:
    """Read a signed integer using the H.264 mapping."""
    mapped = read_unsigned_exp_golomb(reader)
    if mapped % 2 == 1:
        return (mapped + 1) // 2
    return -(mapped // 2)


def write_blocks(writer: BitWriter, levels: np.ndarray) -> None:
    """Serialise quantised ``(n, 8, 8)`` blocks.

    Zig-zag scanning and the integer conversion run once for all blocks;
    each block's codes are packed into one integer and written with a
    single :meth:`BitWriter.write_bits` call.
    """
    scanned = levels.reshape(-1, _COEFFICIENTS)[:, ZIGZAG_ORDER]
    scanned = scanned.astype(np.int64)
    # One past the last non-zero AC level of each block (1 when all zero).
    nonzero = scanned[:, :0:-1] != 0
    ends = np.where(
        nonzero.any(axis=1), _COEFFICIENTS - nonzero.argmax(axis=1), 1
    ).tolist()
    write_bits = writer.write_bits
    previous_dc = 0
    for coefficients, end in zip(scanned.tolist(), ends):
        dc = coefficients[0]
        delta = dc - previous_dc
        previous_dc = dc
        # Signed exp-Golomb: code = mapped + 1, sent in 2 * len - 1 bits.
        code = 2 * delta if delta > 0 else 1 - 2 * delta
        word = code
        width = 2 * code.bit_length() - 1
        run = 0
        for value in coefficients[1:end]:
            if value == 0:
                run += 1
                continue
            run_code = run + 1
            run_width = 2 * run_code.bit_length() - 1
            code = 2 * value if value > 0 else 1 - 2 * value
            code_width = 2 * code.bit_length() - 1
            word = (((word << run_width) | run_code) << code_width) | code
            width += run_width + code_width
            run = 0
        # End of block: the (0, 0) pair is the two one-bit codes "1", "1".
        writer.write_bits((word << 2) | 3, width + 2)


def read_blocks(reader: BitReader, count: int) -> np.ndarray:
    """Inverse of :func:`write_blocks`: ``count`` blocks of levels.

    Levels land in a flat ``(count, 64)`` zig-zag buffer that is
    inverse-scanned once at the end.
    """
    gamma = reader.elias_gamma_codes().__next__
    scanned = [0] * (count * _COEFFICIENTS)
    previous_dc = 0
    for base in range(0, count * _COEFFICIENTS, _COEFFICIENTS):
        # Signed codes: code = mapped + 1, odd codes are the non-positives.
        code = gamma()
        previous_dc += -(code >> 1) if code & 1 else code >> 1
        scanned[base] = previous_dc
        position = base + 1
        stop = base + _COEFFICIENTS
        while True:
            run = gamma() - 1
            code = gamma()
            if code == 1 and run == 0:
                break
            position += run
            if position >= stop:
                raise ValueError("run-length data exceeds block size")
            scanned[position] = -(code >> 1) if code & 1 else code >> 1
            position += 1
    zigzagged = np.array(scanned, dtype=np.float64).reshape(-1, _COEFFICIENTS)
    levels = np.empty_like(zigzagged)
    levels[:, ZIGZAG_ORDER] = zigzagged
    return levels.reshape(-1, BLOCK, BLOCK)
