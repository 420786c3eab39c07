"""MSE / PSNR in the 8-bit display domain, plus sequence aggregation.

Both inputs are clamped to [0, 255] and rounded before comparison, matching
the 255^2 peak in the PSNR definition. Identical frames get an infinite
PSNR sentinel (``math.inf``), which compares greater than any finite value.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mixcore import WORKERS, as_sequence

PEAK_SQUARED = 255.0 * 255.0

# Bytes of one frame slab in each of :func:`sequence_report`'s reused buffers.
SLAB_BYTES = 1 << 20


def frame_mse(a, b) -> float:
    """Mean squared pixel difference between two (H, W) planes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
    return float(_squared_error_sums(a[None], b[None])[0] / a.size)


def _squared_error_sums(originals, reconstructions) -> np.ndarray:
    """Sum of squared 8-bit differences of each frame of two (count, H, W) arrays.

    Works through slabs of frames, which ``WORKERS`` threads share out;
    each thread has two reused buffers (clip, +0.5 and floor in place,
    subtract, one dot product per frame) and sums of its own. Snapped
    pixels are integers, so each sum is exact in float64 whatever the
    order of its additions, and so whatever the split.
    """
    count = len(originals)
    originals = originals.reshape(count, -1)
    reconstructions = reconstructions.reshape(count, -1)
    plane = originals.shape[1]
    width = max(1, min(plane, SLAB_BYTES // 8))  # pixels of one frame per slab row
    step = max(1, SLAB_BYTES // (8 * width))  # frames per slab
    slabs = [
        np.s_[start : start + step, left : left + width]
        for start in range(0, count, step)
        for left in range(0, plane, width)
    ]

    def sums_of(share) -> np.ndarray:
        snapped = np.empty((min(step, count), width))
        other = np.empty_like(snapped)
        sums = np.zeros(count)
        for piece in share:
            rows, cols = originals[piece].shape
            a, b = snapped[:rows, :cols], other[:rows, :cols]
            for buf, frames in ((a, originals), (b, reconstructions)):
                np.clip(frames[piece], 0.0, 255.0, out=buf)
                buf += 0.5
                np.floor(buf, out=buf)
            a -= b
            sums[piece[0]] += np.einsum("ij,ij->i", a, a)
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


def frame_psnr(a, b) -> float:
    """10 log10(255^2 / MSE) in dB; math.inf when the frames match."""
    return _psnr(frame_mse(a, b))


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

    Both sequences are (count, H, W) arrays or iterables of planes; each
    frame's MSE is computed once, as in :func:`frame_mse`, and its PSNR
    derived from it.
    """
    originals = as_sequence(originals)
    reconstructions = as_sequence(reconstructions)
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
    return _report(originals, reconstructions)


def _report(originals, reconstructions) -> QualityReport:
    """:func:`sequence_report` of two (count, H, W) float64 arrays already checked."""
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
