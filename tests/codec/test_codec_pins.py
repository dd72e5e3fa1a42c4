"""Byte-exact pin over every codec the applications run.

The process networks compare replica payloads for equivalence
(Theorem 2), so the codecs must stay bit-for-bit deterministic across
refactors and optimisations of their kernels.  This test hashes a fixed
corpus of H.264 access units and decoded frames, JPEG stripes and
decodes, and ADPCM blocks into one SHA-256 digest.  The digest was taken
before the codec kernels were vectorised; a mismatch means a kernel
changed its output.  Never regenerate the digest to make a change pass.
"""

import hashlib

import numpy as np

from repro.apps.sources import SyntheticAudio, SyntheticVideo
from repro.codec.adpcm import AdpcmCodec
from repro.codec.h264 import H264Decoder, H264Encoder
from repro.codec.jpeg import JpegCodec

CODEC_DIGEST = (
    "22f10035826f5743b931051f043d7e49c5b85ac60bbffe483c3bcafb68233c28"
)


def _saturating_block() -> np.ndarray:
    """A block that drives the ADPCM predictor and step index to both rails.

    Silence pins the step index at 0, a full-scale square wave pins it
    at 88 while the predictor clamps at +32767 and -32768 in turn, held
    rails saturate the predictor again as the index decays, and the odd
    length leaves a half-filled final byte.
    """
    return np.array(
        [0] * 40 + [32767, -32768] * 40 + [32767] * 30 + [-32768] * 30
        + [0] * 200 + [4321],
        dtype=np.int16,
    )


def _feed_frame(digest, frame: np.ndarray) -> None:
    digest.update(repr(frame.shape).encode())
    digest.update(np.ascontiguousarray(frame).tobytes())


def codec_digest() -> str:
    digest = hashlib.sha256()

    # H.264: two GOPs of access units and decoded frames per geometry.
    for width, height in ((96, 72), (320, 240)):
        video = SyntheticVideo(width, height, seed=3)
        encoder = H264Encoder(width, height, quality=70, gop=8)
        decoder = H264Decoder()
        for index in range(16):
            unit = encoder.encode_frame(video.frame(index))
            digest.update(unit)
            _feed_frame(digest, decoder.decode_frame(unit))

    # JPEG: three independently coded stripes per frame, odd sizes too.
    for width, height, quality in ((96, 72, 75), (50, 38, 60), (320, 240, 90)):
        video = SyntheticVideo(width, height, seed=5)
        codec = JpegCodec(quality)
        for index in range(3):
            for stripe in np.array_split(video.frame(index), 3, axis=0):
                data = codec.encode(stripe)
                digest.update(data)
                _feed_frame(digest, codec.decode(data))

    # ADPCM: synthetic audio blocks plus the rail-to-rail block.
    audio = SyntheticAudio(seed=11)
    codec = AdpcmCodec()
    blocks = [audio.block(index) for index in range(120)]
    blocks.append(_saturating_block())
    for block in blocks:
        data = codec.encode_block(block)
        digest.update(data)
        _feed_frame(digest, codec.decode_block(data, len(block)))

    return digest.hexdigest()


def test_codec_digest_pinned():
    assert codec_digest() == CODEC_DIGEST
