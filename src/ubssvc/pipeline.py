"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. Encoding partitions
it into consecutive groups of n frames and mixes every group down to m
frames in the pixel domain with one batched product; leftover frames (count
mod n) pass through unmixed as the tail. Decoding walks the groups in
chunks: one Haar transform of the chunk's mixed frames, recovery of the
three sparse detail subbands by subspace classification (one stacked call
per band, each group with its own zero threshold), the low-frequency
subband by the generalized inverse, and one inverse transform written
straight into the output array.

Mixed pixel values are snapped to their storage grid at encode time
(float32 in float-container mode, the 8-bit affine grid in affine-8bit
mode) so that writing a container and reading it back is lossless and the
file path reproduces the in-memory path bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import QualityReport, sequence_report
from .mixcore import (
    MixingMatrix,
    _freeze,
    _read_only,
    as_sequence,
    default_mixing_matrix,
    generalized_inverse,
    mix_block,
    snap_to_8bit,
)
from .sca import RecoveryStats, build_hyperplanes, check_tau, recover_block, recover_dense
from .wavelet import haar_forward, haar_inverse

PAD_REJECT = "reject"
PAD_EDGE = "edge-replicate"
TAIL_PASSTHROUGH = "passthrough"
QUANT_FLOAT = "float-container"
QUANT_AFFINE = "affine-8bit"

# Relative-residual tolerance suited to real wavelet coefficients; exact
# synthetic data can use something as tight as 1e-8.
DEFAULT_TAU = 0.05

# Subband columns per recovery call: a decode chunk holds max(1, BUDGET // T)
# groups for subband planes of T columns. Whole-sequence calls let the
# temporaries fall out of cache (CIF decode ran about 40% slower).
BUDGET = 8192


@dataclass(frozen=True, eq=False)
class CodecConfig:
    """Pipeline parameters; defaults to the built-in 3x4 matrix.

    ``n`` and ``m`` are redundant with the matrix shape and validated
    against it when given explicitly.
    """

    matrix: MixingMatrix | None = None
    n: int | None = None
    m: int | None = None
    tau: float = DEFAULT_TAU
    pad_policy: str = PAD_EDGE
    tail_policy: str = TAIL_PASSTHROUGH
    quantization: str = QUANT_FLOAT

    def __post_init__(self):
        matrix = self.matrix if self.matrix is not None else default_mixing_matrix()
        object.__setattr__(self, "matrix", matrix)
        n = matrix.cols if self.n is None else int(self.n)
        m = matrix.rows if self.m is None else int(self.m)
        if n != matrix.cols or m != matrix.rows:
            raise ValueError(
                f"declared n = {n}, m = {m} disagree with matrix shape {matrix.rows}x{matrix.cols}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        check_tau(self.tau)
        if self.pad_policy not in (PAD_REJECT, PAD_EDGE):
            raise ValueError(f"unknown pad policy {self.pad_policy!r}")
        if self.tail_policy != TAIL_PASSTHROUGH:
            raise ValueError(f"unknown tail policy {self.tail_policy!r}")
        if self.quantization not in (QUANT_FLOAT, QUANT_AFFINE):
            raise ValueError(f"unknown quantization mode {self.quantization!r}")


def default_config(**overrides) -> CodecConfig:
    return CodecConfig(**overrides)


@dataclass(frozen=True, eq=False)
class EncodedSequence:
    """Mixed frames plus tail and the metadata the decoder needs.

    ``mixed_frames`` and ``tail_frames`` are read-only (count, height,
    width) float64 arrays. Mixed pixel values already sit on the storage
    grid of ``quantization``; ``scale``/``offset`` are the affine map
    parameters (zero in float mode). Tail frames are 8-bit integral.
    """

    matrix: MixingMatrix
    width: int
    height: int
    quantization: str
    scale: float
    offset: float
    mixed_frames: np.ndarray
    tail_frames: np.ndarray

    def __post_init__(self):
        if self.quantization not in (QUANT_FLOAT, QUANT_AFFINE):
            raise ValueError(f"unknown quantization mode {self.quantization!r}")
        if not math.isfinite(self.scale) or not math.isfinite(self.offset):
            raise ValueError("quantization parameters must be finite")
        m, n = self.matrix.rows, self.matrix.cols
        for name in ("mixed_frames", "tail_frames"):
            frames = as_sequence(getattr(self, name))
            if frames.shape[1:] != (self.height, self.width):
                raise ValueError("frame dimensions disagree with header")
            object.__setattr__(self, name, _freeze(frames) if frames.flags.writeable else frames)
        mixed_count = len(self.mixed_frames)
        if not mixed_count or mixed_count % m:
            raise ValueError(
                f"mixed frame count {mixed_count} must be a positive multiple of m = {m}"
            )
        if len(self.tail_frames) >= n:
            raise ValueError(f"tail holds {len(self.tail_frames)} frames, must be < n = {n}")

    @property
    def block_count(self) -> int:
        return len(self.mixed_frames) // self.matrix.rows

    @property
    def source_count(self) -> int:
        return self.block_count * self.matrix.cols + len(self.tail_frames)


def encode_sequence(frames, cfg: CodecConfig) -> EncodedSequence:
    """Group, mix, and snap a (count, H, W) source sequence onto its storage grid."""
    src = as_sequence(frames)
    count, height, width = src.shape
    n = cfg.n
    if count < n:
        raise ValueError(f"need at least n = {n} frames, got {count}")
    if cfg.pad_policy == PAD_REJECT and (width % 2 or height % 2):
        raise ValueError(
            f"odd frame dimensions {width}x{height} rejected; use the edge-replicate pad policy"
        )
    blocks = count // n
    mixed = mix_block(cfg.matrix, src[: blocks * n].reshape(blocks, n, height, width))
    mixed = mixed.reshape(blocks * cfg.m, height, width)

    if cfg.quantization == QUANT_FLOAT:
        scale = offset = 0.0
        np.copyto(mixed, mixed.astype(np.float32))
    else:
        lo, hi = float(mixed.min()), float(mixed.max())
        scale = (hi - lo) / 255.0 if hi > lo else 1.0
        offset = lo
        # offset + scale * floor((x - offset) / scale + 0.5), in place
        mixed -= offset
        mixed /= scale
        mixed += 0.5
        np.floor(mixed, out=mixed)
        mixed *= scale
        mixed += offset

    return EncodedSequence(
        matrix=cfg.matrix,
        width=width,
        height=height,
        quantization=cfg.quantization,
        scale=scale,
        offset=offset,
        mixed_frames=_read_only(mixed),
        tail_frames=_read_only(snap_to_8bit(src[blocks * n :])),
    )


def decode_sequence(enc: EncodedSequence, cfg: CodecConfig) -> tuple[np.ndarray, RecoveryStats]:
    """Recover the full (count, H, W) source sequence from an encoded one.

    Total on every valid input: columns outside tolerance degrade quality
    (counted in the stats) but never fail the decode.
    """
    if not np.array_equal(enc.matrix.entries, cfg.matrix.entries):
        raise ValueError("encoded stream was produced with a different mixing matrix")
    height, width = enc.height, enc.width
    if cfg.pad_policy == PAD_REJECT and (width % 2 or height % 2):
        raise ValueError("odd frame dimensions rejected by pad policy")

    m, n = cfg.m, cfg.n
    pinv = generalized_inverse(cfg.matrix)
    planes = build_hyperplanes(cfg.matrix)
    blocks = enc.block_count
    mixed = enc.mixed_frames.reshape(blocks, m, height, width)
    out = np.empty((enc.source_count, height, width))
    stats_parts: list[RecoveryStats] = []
    chunk = max(1, BUDGET // (((height + 1) // 2) * ((width + 1) // 2)))
    for start in range(0, blocks, chunk):
        stop = min(start + chunk, blocks)
        dest = out[start * n : stop * n].reshape(stop - start, n, height, width)
        stats_parts += _decode_chunk(mixed[start:stop], dest, planes, pinv, cfg.tau)
    out[blocks * n :] = enc.tail_frames
    return _read_only(out), RecoveryStats.merged(stats_parts)


def _decode_chunk(group, dest, planes, pinv, tau) -> list[RecoveryStats]:
    """Decode (k, m, H, W) mixed groups into the (k, n, H, W) array ``dest``.

    A function of its own, so that one chunk's temporaries are freed before
    the next chunk allocates its own.
    """
    k, m, height, width = group.shape
    odd = (height % 2, width % 2)
    if any(odd):
        group = np.pad(group, ((0, 0), (0, 0), (0, odd[0]), (0, odd[1])), mode="edge")
    # each band is popped into its recovery call, so its memory is freed once used
    bands = [band.reshape(k, m, -1) for band in haar_forward(group)]
    recovered = [recover_dense(pinv, bands.pop(0))]
    stats = []
    while bands:
        sources, band_stats = recover_block(planes, bands.pop(0), tau)
        recovered.append(sources)
        stats.append(band_stats)
    half = (group.shape[2] // 2, group.shape[3] // 2)
    recovered = [r.reshape(k, -1, *half) for r in recovered]
    if any(odd):
        dest[...] = haar_inverse(recovered)[..., :height, :width]
    else:
        haar_inverse(recovered, out=dest)
    return stats


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    quality: QualityReport
    recovery: RecoveryStats
    source_count: int
    mixed_count: int
    tail_count: int

    @property
    def decoded_count(self) -> int:
        return self.source_count


def roundtrip_eval(frames, cfg: CodecConfig) -> RoundtripReport:
    """Encode then decode in memory and score the reconstruction."""
    frames = as_sequence(frames)
    enc = encode_sequence(frames, cfg)
    decoded, stats = decode_sequence(enc, cfg)
    quality = sequence_report(frames, decoded)
    return RoundtripReport(
        quality=quality,
        recovery=stats,
        source_count=len(frames),
        mixed_count=len(enc.mixed_frames),
        tail_count=len(enc.tail_frames),
    )


def parse_config(path) -> dict:
    """Parse a key-value config file into raw values.

    Recognized keys: ``n``, ``m``, ``matrix`` (row-major whitespace-separated
    floats, returned as an uninterpreted (m, n) array), ``tau``,
    ``pad_policy``, ``tail_policy``, ``quantization``. ``#`` starts a
    comment. Only the keys present in the file appear in the result.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

    known = {"n", "m", "matrix", "tau", "pad_policy", "tail_policy", "quantization"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")

    parsed = {}
    if "n" in values:
        parsed["n"] = int(values["n"])
    if "m" in values:
        parsed["m"] = int(values["m"])
    if "matrix" in values:
        if "n" not in parsed or "m" not in parsed:
            raise ValueError(f"{path}: matrix requires explicit n and m")
        entries = np.array([float(v) for v in values["matrix"].split()])
        if entries.size != parsed["m"] * parsed["n"]:
            raise ValueError(
                f"{path}: matrix has {entries.size} entries, "
                f"expected m*n = {parsed['m'] * parsed['n']}"
            )
        parsed["matrix"] = entries.reshape(parsed["m"], parsed["n"])
    if "tau" in values:
        parsed["tau"] = float(values["tau"])
    for key in ("pad_policy", "tail_policy", "quantization"):
        if key in values:
            parsed[key] = values[key]
    return parsed


def load_config(path) -> CodecConfig:
    """Build a :class:`CodecConfig` from a config file; missing keys keep defaults."""
    parsed = parse_config(path)
    if "matrix" in parsed:
        parsed["matrix"] = MixingMatrix(parsed["matrix"])
    return CodecConfig(**parsed)
