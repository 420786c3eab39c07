"""One-level 2-D Haar transform with orthonormal normalization.

Each 2x2 cell (a, b / c, d) maps to ll = (a+b+c+d)/2, lh = (a-b+c-d)/2,
hl = (a+b-c-d)/2 and hh = (a-b-c+d)/2: the rows pass pairs adjacent
columns, the columns pass adjacent rows, and the two 1/sqrt2 factors of
the textbook form are one exact multiply by 0.5, so no pass divides. The
transform is orthonormal (Parseval holds) and linear, so it commutes with
pixelwise frame mixing, which is what allows source separation to run in
the coefficient domain. Its round trip is bitwise exact whenever the sums
of a cell are exact in float64, as they are for 8-bit planes and for
float32 planes whose nonzero magnitudes span less than 2**27.
Both directions work on the last two axes of an array of any rank, so one
call transforms a whole stack of frames. Odd dimensions are rejected here;
padding policy belongs to the pipeline.
"""
from __future__ import annotations

import numpy as np

BANDS = ("ll", "lh", "hl", "hh")

# Bytes of one band per slab: both directions walk row slabs of the bands
# so that a slab's pixels, temporaries and bands stay in cache. Measured
# against whole-call passes on a 2-core host (medians of 41 calls): a CIF
# call stayed about 1.2 ms forward (3 planes, 62-row slabs) and fell from
# 2.1 to 1.7 ms inverse (4 planes, 46-row slabs); a 720p call fell from 26
# to 22 ms forward (17-row slabs) and from 33 to 22 ms inverse (12-row
# slabs); a run of eight 64x64 groups stays one slab either way.
# mixcore.all_finite walks row slabs of the same size.
SLAB_BYTES = 1 << 18


def _slabs(band) -> list[slice]:
    """Row slices of ``band`` of about :data:`SLAB_BYTES` each."""
    rows = max(1, SLAB_BYTES // max(1, band[..., :1, :].nbytes))
    return [slice(top, top + rows) for top in range(0, band.shape[-2], rows)]


def haar_forward(planes, convert=None) -> tuple[np.ndarray, ...]:
    """One-level orthonormal Haar decomposition of (..., H, W) planes, H and W even.

    Returns four (..., H/2, W/2) arrays, the bands in :data:`BANDS` order:
    ll is the low-frequency approximation, lh horizontal detail (row-pass
    detail), hl vertical detail (column-pass detail), hh diagonal.
    ``planes`` keeps its dtype; each row slab is turned into float64 as the
    transform reaches it, by ``convert`` (an elementwise function of a
    (..., rows, W) slab) or by a plain cast, so no float64 copy of whole
    integer or float32 planes is built.
    """
    a = np.asarray(planes)
    if a.ndim < 2 or a.shape[-2] % 2 or a.shape[-1] % 2:
        raise ValueError(f"planes must have even height and width, got shape {a.shape}")
    shape = (*a.shape[:-2], a.shape[-2] // 2, a.shape[-1] // 2)
    bands = tuple(np.empty(shape) for _ in BANDS)
    for slab in _slabs(bands[0]):
        pixels = a[..., 2 * slab.start : 2 * slab.stop, :]
        pixels = np.asarray(pixels, dtype=np.float64) if convert is None else convert(pixels)
        _forward_slab(pixels, *(band[..., slab, :] for band in bands))
    return bands


def _forward_slab(a, ll, lh, hl, hh) -> None:
    # rows pass: sums and differences of column pairs; columns pass: sums
    # and differences of their row pairs, halved once into the bands
    row_lo = np.add(a[..., 0::2], a[..., 1::2])
    row_hi = np.subtract(a[..., 0::2], a[..., 1::2])
    pairs = ((row_lo, np.add, ll), (row_hi, np.add, lh), (row_lo, np.subtract, hl), (row_hi, np.subtract, hh))
    for rows, op, band in pairs:
        op(rows[..., 0::2, :], rows[..., 1::2, :], out=band)
        band *= 0.5


def haar_inverse(bands, out=None) -> np.ndarray:
    """Inverse of :func:`haar_forward`.

    ``bands`` holds the ll, lh, hl and hh planes, (..., h, w) each; the
    result is (..., 2h, 2w), written into ``out`` when given. The two
    sums of each row pair are halved before the pixels are added up from
    them, which gives the bits of halving the pixels' full sums whenever
    those halves are normal floats: always for 8-bit and float32-valued
    data.
    """
    ll, lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in bands)
    if ll.ndim < 2 or not ll.shape == lh.shape == hl.shape == hh.shape:
        raise ValueError("subband planes must share dimensions")
    shape = (*ll.shape[:-2], 2 * ll.shape[-2], 2 * ll.shape[-1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"output shape {out.shape} is not twice the subband shape {ll.shape}")
    for slab in _slabs(ll):
        dest = out[..., 2 * slab.start : 2 * slab.stop, :]
        _inverse_slab(*(band[..., slab, :] for band in (ll, lh, hl, hh)), dest)
    return out


def _inverse_slab(ll, lh, hl, hh, out) -> None:
    # Row parity r: the columns pass gives that row of the rows-pass pair
    # (lo, hi), halved once, and the rows pass writes the even and odd
    # pixels, lo + hi and lo - hi, straight into their strided place.
    lo, hi = np.empty(ll.shape), np.empty(ll.shape)
    for r, op in enumerate((np.add, np.subtract)):
        np.multiply(op(ll, hl, out=lo), 0.5, out=lo)
        np.multiply(op(lh, hh, out=hi), 0.5, out=hi)
        np.add(lo, hi, out=out[..., r::2, 0::2])
        np.subtract(lo, hi, out=out[..., r::2, 1::2])
