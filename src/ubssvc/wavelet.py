"""One-level 2-D Haar transform with orthonormal normalization.

Each 1-D pass maps adjacent pairs (a, b) to ((a+b)/sqrt2, (a-b)/sqrt2); the
rows pass runs first, then the columns pass. The transform is orthonormal
(Parseval holds) and linear, so it commutes with pixelwise frame mixing,
which is what allows source separation to run in the coefficient domain.
Both directions work on the last two axes of an array of any rank, so one
call transforms a whole stack of frames. Odd dimensions are rejected here;
padding policy belongs to the pipeline.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
BANDS = ("ll", "lh", "hl", "hh")


def haar_forward(planes) -> tuple[np.ndarray, ...]:
    """One-level orthonormal Haar decomposition of (..., H, W) planes, H and W even.

    Returns four (..., H/2, W/2) arrays, the bands in :data:`BANDS` order:
    ll is the low-frequency approximation, lh horizontal detail (row-pass
    detail), hl vertical detail (column-pass detail), hh diagonal.
    """
    a = np.asarray(planes, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] % 2 or a.shape[-1] % 2:
        raise ValueError(f"planes must have even height and width, got shape {a.shape}")
    row_lo = np.add(a[..., 0::2], a[..., 1::2])
    row_lo /= _SQRT2
    row_hi = np.subtract(a[..., 0::2], a[..., 1::2])
    row_hi /= _SQRT2
    pairs = ((row_lo, np.add), (row_hi, np.add), (row_lo, np.subtract), (row_hi, np.subtract))
    bands = tuple(op(rows[..., 0::2, :], rows[..., 1::2, :]) for rows, op in pairs)
    for band in bands:
        band /= _SQRT2
    return bands


def haar_inverse(bands, out=None) -> np.ndarray:
    """Exact inverse of :func:`haar_forward`.

    ``bands`` holds the ll, lh, hl and hh planes, (..., h, w) each; the
    result is (..., 2h, 2w), written into ``out`` when given.
    """
    ll, lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in bands)
    if ll.ndim < 2 or not ll.shape == lh.shape == hl.shape == hh.shape:
        raise ValueError("subband planes must share dimensions")
    shape = (*ll.shape[:-2], 2 * ll.shape[-2], 2 * ll.shape[-1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"output shape {out.shape} is not twice the subband shape {ll.shape}")
    # Row parity r: the columns pass gives that row of the rows-pass pair
    # (lo, hi), and the rows pass turns it into the even and odd pixels,
    # computed contiguously and then copied to their strided place once.
    lo, hi, pixels = np.empty(ll.shape), np.empty(ll.shape), np.empty(ll.shape)
    for r, op in enumerate((np.add, np.subtract)):
        op(ll, hl, out=lo)
        lo /= _SQRT2
        op(lh, hh, out=hi)
        hi /= _SQRT2
        for c, pair_op in enumerate((np.add, np.subtract)):
            pair_op(lo, hi, out=pixels)
            pixels /= _SQRT2
            out[..., r::2, c::2] = pixels
    return out
