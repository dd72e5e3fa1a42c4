"""Block motion estimation and compensation (the H.264 inter path).

The full search runs frame-wide: one vectorised pass per vertical offset
computes the SAD of every block at every horizontal offset.  Each block
then takes the first minimum in ``(|dy| + |dx|, dy, dx)`` candidate order,
which is what visiting the candidates in that order and moving only on a
strictly smaller SAD would pick: the smallest ``(sad, |dy| + |dx|, dy,
dx)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.blocks import BLOCK

_NO_CANDIDATE = np.iinfo(np.int64).max


def _search(
    current: np.ndarray,
    reference: np.ndarray,
    top: int,
    left: int,
    search_range: int,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full search for a grid of blocks.

    ``current`` is an integer ``(rows * block, cols * block)`` array
    whose block ``(r, c)`` sits at ``(top + r * block, left + c * block)``
    of the integer ``reference``.  Returns per-block ``dy``, ``dx`` and
    SAD arrays; a block with no in-frame candidate keeps ``(0, 0)`` and
    a SAD of ``_NO_CANDIDATE``.
    """
    if search_range < 0:
        raise ValueError("search_range must be >= 0")
    height, width = reference.shape
    span_h, span_w = current.shape
    rows, cols = span_h // block, span_w // block
    reach = search_range
    side = 2 * reach + 1
    # Zero margins let every candidate window slice cleanly; the margin
    # pixels never count because out-of-frame candidates are masked.
    padded = np.zeros(
        (max(height, top + span_h) + 2 * reach,
         max(width, left + span_w) + 2 * reach),
        dtype=reference.dtype,
    )
    padded[reach: reach + height, reach: reach + width] = reference
    # sads[dy + reach, dx + reach] is the (rows, cols) SAD grid of one
    # candidate; each pass covers every dx of one dy.
    sads = np.empty((side, side, rows, cols), dtype=np.int64)
    for dy_index in range(side):
        band = padded[top + dy_index: top + dy_index + span_h,
                      left: left + span_w + 2 * reach]
        windows = sliding_window_view(band, span_w, axis=1)
        diff = windows - current[:, None, :]
        np.abs(diff, out=diff)
        # Sum the block's pixel rows first (a contiguous inner axis),
        # then its columns.
        sads[dy_index] = (
            diff.reshape(rows, block, -1).sum(axis=1)
            .reshape(rows, side, cols, block).sum(axis=3)
            .transpose(1, 0, 2)
        )
    offsets = np.arange(-reach, reach + 1)
    tops = top + block * np.arange(rows)
    lefts = left + block * np.arange(cols)
    row_ok = ((tops + offsets[:, None] >= 0)
              & (tops + offsets[:, None] + block <= height))
    col_ok = ((lefts + offsets[:, None] >= 0)
              & (lefts + offsets[:, None] + block <= width))
    in_frame = row_ok[:, None, :, None] & col_ok[None, :, None, :]
    sads[~in_frame] = _NO_CANDIDATE
    # Candidates in tie-break order; argmin keeps the first minimum.
    dys, dxs = np.divmod(np.arange(side * side), side)
    dys -= reach
    dxs -= reach
    order = np.lexsort((dxs, dys, np.abs(dys) + np.abs(dxs)))
    ranked = sads.reshape(side * side, rows, cols)[order]
    best = ranked.argmin(axis=0)
    best_sad = np.take_along_axis(ranked, best[None], axis=0)[0]
    return dys[order][best], dxs[order][best], best_sad


def motion_search(
    current: np.ndarray,
    reference: np.ndarray,
    search_range: int = 4,
) -> np.ndarray:
    """Full-search motion estimation for every block of a frame.

    ``current`` and ``reference`` share one shape that ``BLOCK`` divides.
    Both are truncated to integers (``astype(int64)``) before the SAD.
    Returns the ``(rows, cols, 2)`` grid of ``(dy, dx)`` vectors, each
    minimising the SAD within ``search_range`` with ties resolved to the
    smallest ``(|dy| + |dx|, dy, dx)``; candidates reaching outside the
    frame are skipped.
    """
    if current.ndim != 2 or current.shape != reference.shape:
        raise ValueError("current and reference must be 2-D of one shape")
    if current.shape[0] % BLOCK or current.shape[1] % BLOCK:
        raise ValueError(f"frame shape must be a multiple of {BLOCK}")
    dy, dx, _ = _search(
        current.astype(np.int64), reference.astype(np.int64),
        0, 0, search_range, BLOCK,
    )
    return np.stack([dy, dx], axis=-1)


def motion_estimate(
    current: np.ndarray,
    reference: np.ndarray,
    top: int,
    left: int,
    search_range: int = 4,
    block: int = BLOCK,
) -> Tuple[int, int, float]:
    """Full-search motion estimation for one block.

    Finds the integer motion vector ``(dy, dx)`` within ``search_range``
    minimising the sum of absolute differences between the ``block x
    block`` patch of ``current`` at ``(top, left)`` and the displaced
    patch of ``reference``.  Ties resolve to the smallest ``(|dy| + |dx|,
    dy, dx)`` so the search is deterministic.

    Returns ``(dy, dx, sad)``.
    """
    if top < 0 or left < 0:
        raise ValueError("block origin must be inside the frame")
    patch = current[top: top + block, left: left + block].astype(np.int64)
    if patch.shape != (block, block):
        raise ValueError("block extends past the current frame")
    dy, dx, sad = _search(
        patch, reference.astype(np.int64), top, left, search_range, block
    )
    if sad[0, 0] == _NO_CANDIDATE:
        return (0, 0, float(np.abs(patch).sum()))
    return (int(dy[0, 0]), int(dx[0, 0]), float(sad[0, 0]))


def motion_compensate(
    reference: np.ndarray,
    motion: np.ndarray,
    block: int = BLOCK,
) -> np.ndarray:
    """Build the motion-compensated prediction frame.

    ``motion`` has shape ``(rows, cols, 2)`` holding ``(dy, dx)`` per
    block of the padded frame grid; every displaced block must lie inside
    ``reference``.
    """
    rows, cols, _ = motion.shape
    height, width = rows * block, cols * block
    if reference.shape != (height, width):
        raise ValueError("reference shape does not match the motion grid")
    motion = np.asarray(motion, dtype=np.int64)
    ys = block * np.arange(rows)[:, None] + motion[..., 0]
    xs = block * np.arange(cols)[None, :] + motion[..., 1]
    outside = ((ys < 0) | (ys > height - block)
               | (xs < 0) | (xs > width - block))
    if outside.any():
        raise ValueError("motion vector points outside the reference")
    offsets = np.arange(block)
    patches = reference[
        ys[:, :, None, None] + offsets[:, None],
        xs[:, :, None, None] + offsets[None, :],
    ]
    return patches.swapaxes(1, 2).reshape(height, width)
