"""A baseline-JPEG-style grayscale frame codec (the MJPEG payload).

Pipeline per 8x8 block: level shift, 2-D DCT, quality-scaled quantisation,
zig-zag scan, run-length coding, exp-Golomb entropy coding; DC
coefficients are differentially coded across blocks.  The format is not
bit-compatible with JFIF (no Huffman tables, no markers) but exercises the
same computational structure, produces realistic compression ratios, and —
what the experiments rely on — is fully deterministic in both directions.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import BLOCK, blocks_to_frame, frame_to_blocks
from repro.codec.dct import dct2, idct2
from repro.codec.entropy import read_blocks, write_blocks
from repro.codec.quant import dequantize, quality_scaled_table, quantize

_HEADER = struct.Struct(">HHB")


class JpegCodec:
    """Encoder/decoder for grayscale uint8 frames."""

    def __init__(self, quality: int = 75) -> None:
        self.quality = quality
        self.table = quality_scaled_table(quality)

    # -- encoding ------------------------------------------------------------

    def encode(self, frame: np.ndarray) -> bytes:
        """Encode a 2-D uint8 frame into a self-contained byte string."""
        if frame.dtype != np.uint8:
            raise ValueError("frame must be uint8")
        height, width = frame.shape
        blocks = frame_to_blocks(frame.astype(np.float64) - 128.0)
        levels = quantize(dct2(blocks), self.table)
        writer = BitWriter()
        write_blocks(writer, levels)
        return _HEADER.pack(height, width, self.quality) + writer.getvalue()

    # -- decoding --------------------------------------------------------------

    def decode(self, data: bytes) -> np.ndarray:
        """Decode a byte string back into a uint8 frame."""
        if len(data) < _HEADER.size:
            raise ValueError(
                f"JPEG stream of {len(data)} bytes is shorter than the "
                f"{_HEADER.size}-byte header"
            )
        height, width, quality = _HEADER.unpack_from(data)
        table = quality_scaled_table(quality)
        reader = BitReader(data[_HEADER.size:])
        padded_h = height + ((-height) % BLOCK)
        padded_w = width + ((-width) % BLOCK)
        block_count = (padded_h // BLOCK) * (padded_w // BLOCK)
        levels = read_blocks(reader, block_count)
        blocks = idct2(dequantize(levels, table))
        frame = blocks_to_frame(blocks, (height, width)) + 128.0
        return np.clip(np.round(frame), 0, 255).astype(np.uint8)
