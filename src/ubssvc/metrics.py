"""Per-frame MSE / PSNR of two frame sequences in the 8-bit display domain.

Both inputs are clamped to [0, 255] and rounded before comparison, matching
the 255^2 peak in the PSNR definition. Identical frames get an infinite
PSNR sentinel (``math.inf``), which compares greater than any finite value.
:func:`roundtrip_eval` encodes, decodes and scores; the codec imports nothing from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixcore import NOT_FINITE, _to_sequence, all_finite
from .pipeline import CodecConfig, _tasks, decode_sequence, encode_sequence
from .sca import RecoveryStats

PEAK_SQUARED = 255.0 * 255.0


def _squared_error_sums(originals, reconstructions) -> np.ndarray:
    """Sum of squared 8-bit differences of each frame of two (count, H, W) arrays.

    Works through encode's tasks, :func:`ubssvc.pipeline._tasks` of (count,
    1, H, W) views: runs of whole frames, or row tiles of one frame. Two
    buffers sized by the first task are reused (+0.5, floor and clip in
    place, subtract, then one batched matmul for the dot product of each
    frame). Snapped pixels are integers, so each sum is exact in float64
    whatever the order of its additions, and so whatever the tasks. Each
    task is checked for non-finite pixels while it is in cache, before
    clipping would turn an infinity into 0 or 255. A thread pool does not
    pay: on 2 CPUs it spent 11-33% more CPU time, for wall times from 2%
    shorter to 16% longer (medians of 100 in-process alternations).
    """
    count, height, width = originals.shape
    pair = originals[:, None], reconstructions[:, None]
    tasks, _ = _tasks(count, height, width)
    snapped = np.empty(pair[0][tasks[0]].shape)  # the first task is the largest
    other = np.empty_like(snapped)
    # each pixel row dotted with zeros: NaN or +-inf make its result NaN
    zeros, dots = np.zeros(width), np.zeros(snapped.size // width)
    sums = np.zeros(count)
    for task in tasks:
        frames, _, rows, _ = pair[0][task].shape
        a, b = snapped[:frames, :, :rows], other[:frames, :, :rows]
        for buf, source in zip((a, b), pair):
            # floor(clip(x) + 0.5) == clip(floor(x + 0.5)) for finite x
            np.add(source[task], 0.5, out=buf)
            # a task is whole frames or rows of one frame, so buf is contiguous
            with np.errstate(invalid="ignore"):
                np.matmul(buf.reshape(-1, width), zeros, out=dots[: frames * rows])
            if not np.isfinite(dots).all():
                raise ValueError(NOT_FINITE)
            np.floor(buf, out=buf)
            np.clip(buf, 0.0, 255.0, out=buf)
        a -= b
        sums[task[0]] += (a.reshape(frames, 1, -1) @ a.reshape(frames, -1, 1)).ravel()
    return sums


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
    that checks each task for non-finite pixels, and its PSNR derived from
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


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    quality: QualityReport
    recovery: RecoveryStats
    source_count: int
    mixed_count: int
    tail_count: int


def roundtrip_eval(frames, cfg: CodecConfig) -> RoundtripReport:
    """Encode, decode and score in memory; encode scans the source's tail, the score each task."""
    frames = _to_sequence(frames)
    enc = encode_sequence(frames, cfg)
    decoded, stats = decode_sequence(enc, cfg)
    return RoundtripReport(
        quality=sequence_report(frames, decoded),
        recovery=stats,
        source_count=len(frames),
        mixed_count=len(enc.mixed_codes),
        tail_count=len(enc.tail_codes),
    )
