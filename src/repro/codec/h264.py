"""A simplified H.264-style encoder and decoder (the third application).

The paper's third workload is an H.264 encoder whose results are "similar"
to the other two (Section 4.2, omitted for space).  The encoder here keeps
the essential computational structure of H.264 baseline:

* group-of-pictures with periodic I-frames and motion-compensated
  P-frames (full-search integer motion vectors over 8x8 blocks);
* transform coding of the residual (8x8 DCT, QP-scaled quantisation);
* exp-Golomb entropy coding of motion vectors and coefficients;
* an in-loop reconstruction so encoder and decoder stay in sync
  (closed-loop prediction).

It is not bitstream-compatible with ITU-T H.264, but every stage is the
real algorithm at block granularity, and encode/decode round-trips are
deterministic — the property the fault-tolerance experiments require.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import BLOCK, blocks_to_frame, frame_to_blocks, pad_frame
from repro.codec.dct import dct2, idct2
from repro.codec.entropy import (
    read_blocks,
    read_signed_exp_golomb,
    write_blocks,
    write_signed_exp_golomb,
)
from repro.codec.motion import motion_compensate, motion_search
from repro.codec.quant import dequantize, quality_scaled_table, quantize

_HEADER = struct.Struct(">HHBB")  # height, width, quality, frame type
FRAME_I = 0
FRAME_P = 1


class H264Encoder:
    """A stateful GOP encoder.

    Parameters
    ----------
    width, height:
        Frame geometry (uint8 grayscale).
    quality:
        Quantisation quality (JPEG-style 1..100 scaling of the table).
    gop:
        I-frame period; frame 0 of each group is intra-coded.
    search_range:
        Motion search window in pixels.
    """

    def __init__(
        self,
        width: int,
        height: int,
        quality: int = 70,
        gop: int = 8,
        search_range: int = 4,
    ) -> None:
        if gop < 1:
            raise ValueError("gop must be >= 1")
        self.width = width
        self.height = height
        self.quality = quality
        self.gop = gop
        self.search_range = search_range
        self.table = quality_scaled_table(quality)
        self._frame_index = 0
        self._reference: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Restart the GOP state (e.g. on a scene cut)."""
        self._frame_index = 0
        self._reference = None

    def encode_frame(self, frame: np.ndarray) -> bytes:
        """Encode the next frame of the sequence."""
        if frame.shape != (self.height, self.width):
            raise ValueError(
                f"expected frame shape {(self.height, self.width)}, "
                f"got {frame.shape}"
            )
        if frame.dtype != np.uint8:
            raise ValueError("frame must be uint8")
        intra = (
            self._reference is None or self._frame_index % self.gop == 0
        )
        padded = pad_frame(frame.astype(np.float64))
        if intra:
            payload, reconstruction = self._encode_intra(padded)
            frame_type = FRAME_I
        else:
            payload, reconstruction = self._encode_inter(padded)
            frame_type = FRAME_P
        self._reference = reconstruction
        self._frame_index += 1
        header = _HEADER.pack(self.height, self.width, self.quality, frame_type)
        return header + payload

    # -- intra path -----------------------------------------------------------

    def _encode_intra(self, padded: np.ndarray) -> Tuple[bytes, np.ndarray]:
        blocks = frame_to_blocks(padded - 128.0)
        levels = quantize(dct2(blocks), self.table)
        writer = BitWriter()
        write_blocks(writer, levels)
        reconstruction = blocks_to_frame(
            idct2(dequantize(levels, self.table)), padded.shape
        ) + 128.0
        return writer.getvalue(), np.clip(reconstruction, 0, 255)

    # -- inter path -----------------------------------------------------------

    def _encode_inter(self, padded: np.ndarray) -> Tuple[bytes, np.ndarray]:
        reference = self._reference
        motion = motion_search(padded, reference, self.search_range)
        predicted = motion_compensate(reference, motion)
        writer = BitWriter()
        for dy, dx in motion.reshape(-1, 2).tolist():
            write_signed_exp_golomb(writer, dy)
            write_signed_exp_golomb(writer, dx)
        residual_blocks = frame_to_blocks(padded - predicted)
        levels = quantize(dct2(residual_blocks), self.table)
        write_blocks(writer, levels)
        reconstruction = predicted + blocks_to_frame(
            idct2(dequantize(levels, self.table)), padded.shape
        )
        return writer.getvalue(), np.clip(reconstruction, 0, 255)


class H264Decoder:
    """Decoder mirroring :class:`H264Encoder` (closed-loop identical)."""

    def __init__(self) -> None:
        self._reference: Optional[np.ndarray] = None

    def decode_frame(self, data: bytes) -> np.ndarray:
        """Decode one frame produced by :class:`H264Encoder`."""
        if len(data) < _HEADER.size:
            raise ValueError(
                f"access unit of {len(data)} bytes is shorter than the "
                f"{_HEADER.size}-byte frame header"
            )
        height, width, quality, frame_type = _HEADER.unpack_from(data)
        if frame_type not in (FRAME_I, FRAME_P):
            raise ValueError(f"unknown frame type {frame_type}")
        table = quality_scaled_table(quality)
        reader = BitReader(data[_HEADER.size:])
        padded_h = height + ((-height) % BLOCK)
        padded_w = width + ((-width) % BLOCK)
        rows, cols = padded_h // BLOCK, padded_w // BLOCK
        if frame_type == FRAME_I:
            levels = read_blocks(reader, rows * cols)
            padded = blocks_to_frame(
                idct2(dequantize(levels, table)), (padded_h, padded_w)
            ) + 128.0
        else:
            if self._reference is None:
                raise ValueError("P-frame before any I-frame")
            vectors = [read_signed_exp_golomb(reader)
                       for _ in range(rows * cols * 2)]
            motion = np.array(vectors, dtype=np.int64).reshape(rows, cols, 2)
            predicted = motion_compensate(self._reference, motion)
            levels = read_blocks(reader, rows * cols)
            padded = predicted + blocks_to_frame(
                idct2(dequantize(levels, table)), (padded_h, padded_w)
            )
        padded = np.clip(padded, 0, 255)
        self._reference = padded
        frame = padded[:height, :width]
        return np.round(frame).astype(np.uint8)

