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
Both directions take one keyword-only flag, ``orthonormal``. Left True
they are the pair above; set False, they drop their halvings and are the
plain sum/difference pair, bands twice the orthonormal ones and an inverse
that takes half-scaled bands, so an unhalved round trip has a gain of 4.
Because the halvings are powers of two, this is exact: the unhalved
forward gives bitwise 2x the orthonormal bands, and the unhalved inverse of
half-scaled bands gives the bits of :func:`haar_inverse`, whenever every
value stays a normal float. That holds for float32-range codes and for
affine codes whose scale is far above 2**-1000.
Both directions work on the last two axes of an array of any rank, so one
call transforms a whole stack of frames. An odd side is transformed as if
its last row or column were repeated once (edge padding), and the inverse
can leave that row or column out of its output.
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
# mixcore.all_finite walks the same row slabs, through _slabs.
SLAB_BYTES = 1 << 18


def _slabs(band) -> list[slice]:
    """Row slices of ``band`` of about :data:`SLAB_BYTES` each."""
    rows = max(1, SLAB_BYTES // max(1, band[..., :1, :].nbytes))
    return [slice(top, top + rows) for top in range(0, band.shape[-2], rows)]


def haar_forward(planes, convert=None, out=None, *, orthonormal=True) -> tuple[np.ndarray, ...]:
    """One-level orthonormal Haar decomposition of (..., H, W) planes.

    Returns four (..., ceil(H/2), ceil(W/2)) arrays, the bands in
    :data:`BANDS` order: ll is the low-frequency approximation, lh
    horizontal detail (row-pass detail), hl vertical detail (column-pass
    detail), hh diagonal. They are written into ``out``, four arrays of that
    shape, when given. An odd side gives the bands of the planes
    edge-padded to even: the last column, then the last row, is repeated.
    ``planes`` keeps its dtype; each row slab, of any dtype, is written into
    a float64 slab buffer as the transform reaches it, by
    ``convert(slab, buffer)`` (an elementwise function that writes the
    values of a (..., rows, W) slab into a float64 buffer of its shape) or
    by a plain cast, so no float64 copy of whole planes is built, and the
    padding is written into that buffer. The slab buffer and one row-pass
    buffer, which holds the column-pair sums and then their differences,
    are allocated once per call and reused by every slab. With
    ``orthonormal=False`` the bands are not halved: each is twice the
    orthonormal band, bit for bit.
    """
    a = np.asarray(planes)
    if a.ndim < 2:
        raise ValueError(f"planes must have a height and a width, got shape {a.shape}")
    height, width = a.shape[-2:]
    shape = (*a.shape[:-2], -(-height // 2), -(-width // 2))
    if out is None:
        out = tuple(np.empty(shape) for _ in BANDS)
    elif len(out) != len(BANDS) or any(band.shape != shape for band in out):
        raise ValueError(f"output bands must be {len(BANDS)} arrays of shape {shape}")
    convert = convert or _cast
    slabs = _slabs(out[0])
    # buffers for the first slab, the largest; a later slab uses their leading rows
    rows = 2 * min(shape[-2], slabs[0].stop) if slabs else 0
    pixels = np.empty((*a.shape[:-2], rows, 2 * shape[-1]))
    row_pass = np.empty((*a.shape[:-2], rows, shape[-1]))
    for slab in slabs:
        source = a[..., 2 * slab.start : 2 * slab.stop, :]
        rows, given = 2 * (min(slab.stop, shape[-2]) - slab.start), source.shape[-2]
        convert(source, pixels[..., :given, :width])
        if width % 2:
            pixels[..., :given, width] = pixels[..., :given, width - 1]
        if given < rows:
            pixels[..., given, :] = pixels[..., given - 1, :]
        cut = np.s_[..., :rows, :]
        _forward_slab(pixels[cut], row_pass[cut], *(band[..., slab, :] for band in out), orthonormal=orthonormal)
    return tuple(out)


def _cast(slab, values) -> None:
    np.copyto(values, slab, casting="unsafe")


def _forward_slab(a, row_pass, ll, lh, hl, hh, *, orthonormal) -> None:
    # rows pass: sums, then differences, of column pairs into row_pass;
    # columns pass: sums and differences of its row pairs into the bands,
    # halved once there when orthonormal
    for row_op, (lo, hi) in ((np.add, (ll, hl)), (np.subtract, (lh, hh))):
        row_op(a[..., 0::2], a[..., 1::2], out=row_pass)
        for op, band in ((np.add, lo), (np.subtract, hi)):
            op(row_pass[..., 0::2, :], row_pass[..., 1::2, :], out=band)
            if orthonormal:
                band *= 0.5


def haar_inverse(bands, out=None, *, orthonormal=True) -> np.ndarray:
    """Inverse of :func:`haar_forward`.

    ``bands`` holds the ll, lh, hl and hh planes, (..., h, w) each; the
    result is (..., 2h, 2w), written into ``out`` when given. An ``out``
    one row and/or one column short of that receives the pixels of an odd
    side, and the edge-padded row or column is left out. The two sums of
    each row pair are halved before the pixels are added up from them,
    which gives the bits of halving the pixels' full sums whenever those
    halves are normal floats: always for 8-bit and float32-valued data.
    With ``orthonormal=False`` nothing is halved, and bands that are half
    the orthonormal ones give the bits of the orthonormal inverse.
    """
    ll, lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in bands)
    if ll.ndim < 2 or not ll.shape == lh.shape == hl.shape == hh.shape:
        raise ValueError("subband planes must share dimensions")
    shape = (*ll.shape[:-2], 2 * ll.shape[-2], 2 * ll.shape[-1])
    if out is None:
        out = np.empty(shape)
    short = [full - side for full, side in zip(shape, out.shape)]
    if out.ndim != len(shape) or any(short[:-2]) or not set(short[-2:]) <= {0, 1}:
        raise ValueError(f"output shape {out.shape} is not twice the subband shape {ll.shape}, or one less")
    for slab in _slabs(ll):
        dest = out[..., 2 * slab.start : 2 * slab.stop, :]
        _inverse_slab(*(band[..., slab, :] for band in (ll, lh, hl, hh)), dest, orthonormal=orthonormal)
    return out


def _inverse_slab(ll, lh, hl, hh, out, *, orthonormal) -> None:
    # Row parity r: the columns pass gives that row of the rows-pass pair
    # (lo, hi), halved once when orthonormal, and the rows pass writes the
    # even and odd pixels, lo + hi and lo - hi, straight into their strided
    # place; an odd side's last row or column has no place there and is not
    # written.
    lo, hi = np.empty(ll.shape), np.empty(ll.shape)
    for r, op in enumerate((np.add, np.subtract)):
        op(ll, hl, out=lo)
        op(lh, hh, out=hi)
        if orthonormal:
            lo *= 0.5
            hi *= 0.5
        for c, pixel in enumerate((np.add, np.subtract)):
            dest = out[..., r::2, c::2]
            cut = np.s_[..., : dest.shape[-2], : dest.shape[-1]]
            pixel(lo[cut], hi[cut], out=dest)
