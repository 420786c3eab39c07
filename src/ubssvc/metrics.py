"""MSE / PSNR in the 8-bit display domain, plus sequence aggregation.

Both inputs are clamped to [0, 255] and rounded before comparison, matching
the 255^2 peak in the PSNR definition. Identical frames get an infinite
PSNR sentinel (``math.inf``), which compares greater than any finite value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixcore import as_sequence, snap_to_8bit

PEAK_SQUARED = 255.0 * 255.0


def frame_mse(a, b) -> float:
    """Mean squared pixel difference between two (H, W) planes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
    diff = snap_to_8bit(a) - snap_to_8bit(b)
    return float((diff * diff).mean())


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
    frame's MSE is computed once and its PSNR derived from it.
    """
    originals = as_sequence(originals)
    reconstructions = as_sequence(reconstructions)
    if len(originals) != len(reconstructions):
        raise ValueError(
            f"sequence lengths differ: {len(originals)} vs {len(reconstructions)}"
        )
    if not len(originals):
        raise ValueError("cannot report on empty sequences")
    mses = tuple(frame_mse(a, b) for a, b in zip(originals, reconstructions))
    psnrs = tuple(_psnr(mse) for mse in mses)
    finite = [p for p in psnrs if math.isfinite(p)]
    mean = sum(finite) / len(finite) if finite else math.inf
    return QualityReport(
        per_frame_mse=mses,
        per_frame_psnr=psnrs,
        mean_psnr=mean,
        infinite_count=len(psnrs) - len(finite),
    )
