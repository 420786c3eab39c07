"""Encode/decode orchestration.

Encoding partitions the sequence into consecutive groups of n frames and
mixes each group down to m frames in the pixel domain; leftover frames
(count mod n) pass through unmixed as the tail. Decoding transforms each
mixed frame once with the Haar transform, recovers the three sparse detail
subbands by subspace classification, recovers the low-frequency subband
with the generalized inverse, and inverse-transforms the n reconstructed
coefficient sets back to frames.

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
    Frame,
    FrameBlock,
    MixingMatrix,
    default_mixing_matrix,
    generalized_inverse,
    mix_block,
    snap_to_8bit,
)
from .sca import RecoveryStats, build_hyperplanes, check_tau, recover_block, recover_dense
from .wavelet import SubbandImage, haar_forward, haar_inverse

PAD_REJECT = "reject"
PAD_EDGE = "edge-replicate"
TAIL_PASSTHROUGH = "passthrough"
QUANT_FLOAT = "float-container"
QUANT_AFFINE = "affine-8bit"

# Relative-residual tolerance suited to real wavelet coefficients; exact
# synthetic data can use something as tight as 1e-8.
DEFAULT_TAU = 0.05


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

    Mixed pixel values already sit on the storage grid of ``quantization``;
    ``scale``/``offset`` are the affine map parameters (zero in float mode).
    Tail frames are 8-bit integral.
    """

    matrix: MixingMatrix
    width: int
    height: int
    quantization: str
    scale: float
    offset: float
    mixed_frames: tuple[Frame, ...]
    tail_frames: tuple[Frame, ...]

    def __post_init__(self):
        if self.quantization not in (QUANT_FLOAT, QUANT_AFFINE):
            raise ValueError(f"unknown quantization mode {self.quantization!r}")
        if not math.isfinite(self.scale) or not math.isfinite(self.offset):
            raise ValueError("quantization parameters must be finite")
        mixed = tuple(self.mixed_frames)
        tail = tuple(self.tail_frames)
        m, n = self.matrix.rows, self.matrix.cols
        if not mixed or len(mixed) % m:
            raise ValueError(
                f"mixed frame count {len(mixed)} must be a positive multiple of m = {m}"
            )
        if len(tail) >= n:
            raise ValueError(f"tail holds {len(tail)} frames, must be < n = {n}")
        for f in mixed + tail:
            if f.width != self.width or f.height != self.height:
                raise ValueError("frame dimensions disagree with header")
        object.__setattr__(self, "mixed_frames", mixed)
        object.__setattr__(self, "tail_frames", tail)

    @property
    def block_count(self) -> int:
        return len(self.mixed_frames) // self.matrix.rows

    @property
    def source_count(self) -> int:
        return self.block_count * self.matrix.cols + len(self.tail_frames)


def _check_dimensions(frames, cfg: CodecConfig) -> tuple[int, int]:
    w, h = frames[0].width, frames[0].height
    for f in frames[1:]:
        if f.width != w or f.height != h:
            raise ValueError("all frames in a sequence must share dimensions")
    if cfg.pad_policy == PAD_REJECT and (w % 2 or h % 2):
        raise ValueError(
            f"odd frame dimensions {w}x{h} rejected; use the edge-replicate pad policy"
        )
    return w, h


def encode_sequence(frames, cfg: CodecConfig) -> EncodedSequence:
    """Group, mix, and snap a source sequence onto its storage grid."""
    frames = list(frames)
    n = cfg.n
    if len(frames) < n:
        raise ValueError(f"need at least n = {n} frames, got {len(frames)}")
    width, height = _check_dimensions(frames, cfg)
    blocks = len(frames) // n

    mixed_planes = []
    for b in range(blocks):
        block = FrameBlock(tuple(frames[b * n : (b + 1) * n]))
        mixed_planes.extend(f.pixels for f in mix_block(cfg.matrix, block).frames)

    if cfg.quantization == QUANT_FLOAT:
        scale = offset = 0.0
        mixed = tuple(Frame(p.astype(np.float32).astype(np.float64)) for p in mixed_planes)
    else:
        lo = min(float(p.min()) for p in mixed_planes)
        hi = max(float(p.max()) for p in mixed_planes)
        scale = (hi - lo) / 255.0 if hi > lo else 1.0
        offset = lo
        mixed = tuple(
            Frame(offset + scale * np.floor((p - offset) / scale + 0.5))
            for p in mixed_planes
        )

    tail = tuple(Frame(snap_to_8bit(f.pixels)) for f in frames[blocks * n :])
    return EncodedSequence(
        matrix=cfg.matrix,
        width=width,
        height=height,
        quantization=cfg.quantization,
        scale=scale,
        offset=offset,
        mixed_frames=mixed,
        tail_frames=tail,
    )


def _pad_even(plane: np.ndarray) -> np.ndarray:
    pad_h = plane.shape[0] % 2
    pad_w = plane.shape[1] % 2
    if not pad_h and not pad_w:
        return plane
    return np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")


def decode_sequence(enc: EncodedSequence, cfg: CodecConfig) -> tuple[list[Frame], RecoveryStats]:
    """Recover the full source sequence from an encoded one.

    Total on every valid input: columns outside tolerance degrade quality
    (counted in the stats) but never fail the decode.
    """
    if not np.array_equal(enc.matrix.entries, cfg.matrix.entries):
        raise ValueError("encoded stream was produced with a different mixing matrix")
    if cfg.pad_policy == PAD_REJECT and (enc.width % 2 or enc.height % 2):
        raise ValueError("odd frame dimensions rejected by pad policy")

    m, n = cfg.m, cfg.n
    pinv = generalized_inverse(cfg.matrix)
    planes = build_hyperplanes(cfg.matrix)
    out: list[Frame] = []
    stats_parts: list[RecoveryStats] = []

    for b in range(enc.block_count):
        group = enc.mixed_frames[b * m : (b + 1) * m]
        subbands = [haar_forward(Frame(_pad_even(f.pixels))) for f in group]
        half_shape = subbands[0].ll.shape

        rec_planes = {}
        for band in ("lh", "hl", "hh"):
            observed = np.stack([getattr(sb, band).ravel() for sb in subbands])
            recovered, stats = recover_block(planes, observed, cfg.tau)
            rec_planes[band] = recovered
            stats_parts.append(stats)
        observed_ll = np.stack([sb.ll.ravel() for sb in subbands])
        rec_planes["ll"] = recover_dense(pinv, observed_ll)

        for j in range(n):
            sb = SubbandImage(
                ll=rec_planes["ll"][j].reshape(half_shape),
                lh=rec_planes["lh"][j].reshape(half_shape),
                hl=rec_planes["hl"][j].reshape(half_shape),
                hh=rec_planes["hh"][j].reshape(half_shape),
                original_width=2 * half_shape[1],
                original_height=2 * half_shape[0],
            )
            pixels = haar_inverse(sb).pixels[: enc.height, : enc.width]
            out.append(Frame(pixels))

    out.extend(enc.tail_frames)
    return out, RecoveryStats.merged(stats_parts)


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
    frames = list(frames)
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
