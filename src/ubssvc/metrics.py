"""Per-frame MSE / PSNR of two frame sequences in the 8-bit display domain.

Both inputs are clamped to [0, 255] and rounded before comparison, matching
the 255^2 peak in the PSNR definition. Identical frames get an infinite
PSNR sentinel (``math.inf``), which compares greater than any finite value.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mixcore import NOT_FINITE, WORKERS, _to_sequence, all_finite

PEAK_SQUARED = 255.0 * 255.0

# Bytes of one frame slab in each of :func:`sequence_report`'s reused buffers.
SLAB_BYTES = 1 << 20


def _squared_error_sums(originals, reconstructions) -> np.ndarray:
    """Sum of squared 8-bit differences of each frame of two (count, H, W) arrays.

    Works through slabs of whole pixel rows, several frames or a band of
    one, which ``WORKERS`` threads share out; each thread has two reused
    buffers (+0.5, floor and clip in place, subtract, then one batched
    matmul for the dot product of each frame) and sums of its own. Snapped
    pixels are integers, so each sum is exact in float64 whatever the
    order of its additions, and so whatever the split. Each slab is
    checked for non-finite pixels while it is in cache, before clipping
    would turn an infinity into 0 or 255.
    """
    count, height, width = originals.shape
    band = max(1, min(height, SLAB_BYTES // (8 * width)))  # rows of one frame per slab
    step = max(1, SLAB_BYTES // (8 * width * band))  # frames per slab
    slabs = [
        np.s_[start : start + step, top : top + band]
        for start in range(0, count, step)
        for top in range(0, height, band)
    ]

    def sums_of(share) -> np.ndarray:
        snapped = np.empty((min(step, count), band, width))
        other = np.empty_like(snapped)
        # each pixel row dotted with zeros: NaN or +-inf make its result NaN
        zeros, dots = np.zeros(width), np.zeros(len(snapped) * band)
        sums = np.zeros(count)
        for piece in share:
            frames, rows = originals[piece].shape[:2]
            a, b = snapped[:frames, :rows], other[:frames, :rows]
            for buf, source in ((a, originals), (b, reconstructions)):
                # floor(clip(x) + 0.5) == clip(floor(x + 0.5)) for finite x
                np.add(source[piece], 0.5, out=buf)
                # a slab is whole frames or rows of one frame, so buf is contiguous
                with np.errstate(invalid="ignore"):
                    np.matmul(buf.reshape(-1, width), zeros, out=dots[: frames * rows])
                if not np.isfinite(dots).all():
                    raise ValueError(NOT_FINITE)
                np.floor(buf, out=buf)
                np.clip(buf, 0.0, 255.0, out=buf)
            a -= b
            sums[piece[0]] += (a.reshape(frames, 1, -1) @ a.reshape(frames, -1, 1)).ravel()
        return sums

    workers = min(WORKERS, len(slabs))
    if workers < 2:
        return sums_of(slabs)
    # contiguous runs of slabs, one per thread
    shares = [slabs[len(slabs) * i // workers : len(slabs) * (i + 1) // workers] for i in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        return sum(pool.map(sums_of, shares))


def _psnr(mse: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(PEAK_SQUARED / mse)


@dataclass(frozen=True)
class QualityReport:
    per_frame_mse: tuple[float, ...]
    per_frame_psnr: tuple[float, ...]
    mean_psnr: float
    infinite_count: int

    def to_table(self) -> str:
        lines = [f"{'frame':>5}  {'mse':>12}  {'psnr_db':>9}"]
        for i, (mse, psnr) in enumerate(zip(self.per_frame_mse, self.per_frame_psnr)):
            psnr_text = "inf" if math.isinf(psnr) else f"{psnr:9.3f}"
            lines.append(f"{i:>5}  {mse:>12.5f}  {psnr_text:>9}")
        mean_text = "inf" if math.isinf(self.mean_psnr) else f"{self.mean_psnr:.3f}"
        lines.append(
            f"mean psnr over finite frames: {mean_text} dB "
            f"({self.infinite_count} identical frame(s))"
        )
        return "\n".join(lines)

    def to_porcelain(self) -> str:
        lines = []
        for i, (mse, psnr) in enumerate(zip(self.per_frame_mse, self.per_frame_psnr)):
            psnr_text = "inf" if math.isinf(psnr) else repr(psnr)
            lines.append(f"frame.{i}.mse={mse!r}")
            lines.append(f"frame.{i}.psnr={psnr_text}")
        mean_text = "inf" if math.isinf(self.mean_psnr) else repr(self.mean_psnr)
        lines.append(f"mean_psnr={mean_text}")
        lines.append(f"infinite_count={self.infinite_count}")
        return "\n".join(lines)


def sequence_report(originals, reconstructions) -> QualityReport:
    """Per-frame metrics plus the mean PSNR over finite entries.

    Both sequences are (count, H, W) arrays or iterables of planes of one
    shape, with finite pixels (for one pair of planes, pass 1-frame
    sequences); each frame's MSE is computed once, in one pass over both
    that checks each slab for non-finite pixels, and its PSNR derived from
    it. The inputs are scanned whole only when a shape check fails, so
    that a non-finite pixel is still the error reported first.
    """
    checked = [_to_sequence(originals)]
    try:
        checked.append(_to_sequence(reconstructions))
        originals, reconstructions = checked
        if len(originals) != len(reconstructions):
            raise ValueError(
                f"sequence lengths differ: {len(originals)} vs {len(reconstructions)}"
            )
        if not len(originals):
            raise ValueError("cannot report on empty sequences")
        if originals.shape != reconstructions.shape:
            raise ValueError(
                f"frame dimensions differ: {originals.shape[1:]} vs {reconstructions.shape[1:]}"
            )
    except ValueError:
        if all(all_finite(arr) for arr in checked):
            raise
        raise ValueError(NOT_FINITE) from None
    plane = originals[0].size
    mses = tuple(float(total / plane) for total in _squared_error_sums(originals, reconstructions))
    psnrs = tuple(_psnr(mse) for mse in mses)
    finite = [p for p in psnrs if math.isfinite(p)]
    mean = sum(finite) / len(finite) if finite else math.inf
    return QualityReport(
        per_frame_mse=mses,
        per_frame_psnr=psnrs,
        mean_psnr=mean,
        infinite_count=len(psnrs) - len(finite),
    )
