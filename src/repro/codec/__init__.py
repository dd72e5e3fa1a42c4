"""Signal-processing primitives for the three applications.

The paper's workloads are real codecs (an MJPEG decoder, an ADPCM
encoder+decoder, an H.264 encoder).  This package implements working,
deterministic versions of the algorithms those applications are built
from, so the process networks in :mod:`repro.apps` transform real data and
the equivalence checks of Theorem 2 compare meaningful payloads:

* :mod:`~repro.codec.bitstream` — bit-level I/O;
* :mod:`~repro.codec.blocks` — 8x8 block tiling of frames;
* :mod:`~repro.codec.dct` — the 8x8 type-II DCT and its inverse;
* :mod:`~repro.codec.quant` — quantisation tables and (de)quantisation;
* :mod:`~repro.codec.zigzag` — zig-zag scan and run-length coding;
* :mod:`~repro.codec.entropy` — exponential-Golomb entropy coding and
  the block serializer both frame codecs share;
* :mod:`~repro.codec.jpeg` — a baseline-JPEG-style frame codec (MJPEG);
* :mod:`~repro.codec.adpcm` — the IMA ADPCM sample codec;
* :mod:`~repro.codec.motion` — frame-level block motion search;
* :mod:`~repro.codec.h264` — a simplified H.264-style intra/inter encoder.
"""

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import blocks_to_frame, frame_to_blocks, pad_frame
from repro.codec.dct import dct2, idct2
from repro.codec.quant import (
    JPEG_LUMA_QUANT,
    dequantize,
    quality_scaled_table,
    quantize,
)
from repro.codec.zigzag import (
    ZIGZAG_ORDER,
    run_length_decode,
    run_length_encode,
    zigzag,
    inverse_zigzag,
)
from repro.codec.entropy import (
    read_blocks,
    read_signed_exp_golomb,
    read_unsigned_exp_golomb,
    write_blocks,
    write_signed_exp_golomb,
    write_unsigned_exp_golomb,
)
from repro.codec.jpeg import JpegCodec
from repro.codec.adpcm import AdpcmCodec
from repro.codec.motion import (
    motion_compensate,
    motion_estimate,
    motion_search,
)
from repro.codec.h264 import H264Encoder, H264Decoder

__all__ = [
    "BitReader",
    "BitWriter",
    "blocks_to_frame",
    "frame_to_blocks",
    "pad_frame",
    "dct2",
    "idct2",
    "JPEG_LUMA_QUANT",
    "dequantize",
    "quality_scaled_table",
    "quantize",
    "ZIGZAG_ORDER",
    "run_length_decode",
    "run_length_encode",
    "zigzag",
    "inverse_zigzag",
    "read_blocks",
    "read_signed_exp_golomb",
    "read_unsigned_exp_golomb",
    "write_blocks",
    "write_signed_exp_golomb",
    "write_unsigned_exp_golomb",
    "JpegCodec",
    "AdpcmCodec",
    "motion_estimate",
    "motion_compensate",
    "motion_search",
    "H264Encoder",
    "H264Decoder",
]
