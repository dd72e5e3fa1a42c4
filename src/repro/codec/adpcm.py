"""The IMA ADPCM codec (4:1 compression of 16-bit PCM).

This is the standard IMA/DVI ADPCM algorithm — the paper's second
application is "the Adaptive Differential Pulse Code Modulation
application (encoder+decoder)" performing "a 4:1 compression, which is
reverted by the decoder" (Section 4.2).  Each 16-bit sample becomes a
4-bit code; the decoder reconstructs an approximation, and — crucially for
the fault-tolerance experiments — both directions are fully deterministic
given the input block and the initial predictor state.
"""

from __future__ import annotations

import numpy as np

#: IMA ADPCM step-size table (89 entries).
STEP_TABLE = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
        34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
        143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
        494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411,
        1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026,
        4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442,
        11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
        27086, 29794, 32767,
    ],
    dtype=np.int32,
)

#: IMA ADPCM index adjustment table for the 3 magnitude bits.
INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)


_STEPS = STEP_TABLE.tolist()


def _update_tables():
    """The predictor update of every ``(step index, code)`` pair.

    Entry ``16 * index + code`` holds the signed predictor change the
    decoder applies and ``16`` times the next step index (clamped to
    the table).  Encoder and decoder share these, so each per-sample
    update is two list lookups.
    """
    last = len(_STEPS) - 1
    adjustments = INDEX_TABLE.tolist()
    changes, successors = [], []
    for index, step in enumerate(_STEPS):
        for code in range(16):
            difference = step >> 3
            if code & 4:
                difference += step
            if code & 2:
                difference += step >> 1
            if code & 1:
                difference += step >> 2
            changes.append(-difference if code & 8 else difference)
            successor = index + adjustments[code & 7]
            successors.append(16 * min(max(successor, 0), last))
    return changes, successors


_CHANGES, _SUCCESSORS = _update_tables()


class AdpcmCodec:
    """Block-oriented IMA ADPCM encoder/decoder.

    ``encode_block`` packs two 4-bit codes per byte; each block is coded
    independently from a zero predictor state so blocks are
    self-contained tokens (the networks pass one block per token).  The
    predictor recurrence is inherently sequential, so both directions are
    one plain loop over Python ints with the state in local variables
    and the update read from :func:`_update_tables`; only the nibble
    packing is vectorised.
    """

    def encode_block(self, samples: np.ndarray) -> bytes:
        """Encode a 1-D int16 array into packed 4-bit codes."""
        samples = np.asarray(samples, dtype=np.int64)
        if samples.ndim != 1:
            raise ValueError(
                f"ADPCM encodes 1-D sample blocks, got shape {samples.shape}"
            )
        if samples.size and (samples.min() < -32768 or samples.max() > 32767):
            raise ValueError("ADPCM samples must lie in the int16 range")
        steps, changes, successors = _STEPS, _CHANGES, _SUCCESSORS
        predictor = 0
        state = 0  # 16 * step index
        codes = []
        for sample in samples.tolist():
            step = steps[state >> 4]
            delta = sample - predictor
            if delta < 0:
                code = 8
                delta = -delta
            else:
                code = 0
            if delta >= step:
                code |= 4
                delta -= step
            if delta >= step >> 1:
                code |= 2
                delta -= step >> 1
            if delta >= step >> 2:
                code |= 1
            # The decoder's update, so both sides track one predictor.
            key = state + code
            predictor += changes[key]
            if predictor > 32767:
                predictor = 32767
            elif predictor < -32768:
                predictor = -32768
            state = successors[key]
            codes.append(code)
        if len(codes) % 2:
            codes.append(0)
        pairs = np.array(codes, dtype=np.uint8).reshape(-1, 2)
        return ((pairs[:, 0] << 4) | pairs[:, 1]).tobytes()

    def decode_block(self, data: bytes, count: int) -> np.ndarray:
        """Decode ``count`` samples from packed codes."""
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        needed = (count + 1) // 2
        if len(data) < needed:
            raise ValueError(
                f"{count} samples need {needed} bytes of codes, "
                f"got {len(data)}"
            )
        packed = np.frombuffer(data, dtype=np.uint8, count=needed)
        codes = np.stack([packed >> 4, packed & 0xF], axis=1).reshape(-1)
        changes, successors = _CHANGES, _SUCCESSORS
        predictor = 0
        state = 0  # 16 * step index
        samples = []
        for code in codes[:count].tolist():
            key = state + code
            predictor += changes[key]
            if predictor > 32767:
                predictor = 32767
            elif predictor < -32768:
                predictor = -32768
            state = successors[key]
            samples.append(predictor)
        return np.array(samples, dtype=np.int16)

    def roundtrip_block(self, samples: np.ndarray) -> np.ndarray:
        """Encode then decode (what the paper's app pipeline computes)."""
        encoded = self.encode_block(samples)
        return self.decode_block(encoded, len(samples))
