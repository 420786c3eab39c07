"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. Encoding partitions
it into consecutive groups of n frames and mixes every group down to m
frames in the pixel domain with one batched product; leftover frames (count
mod n) pass through unmixed as the tail. Decoding walks the groups in
chunks: one Haar transform of the chunk's mixed frames, recovery of the
three sparse detail subbands by subspace classification (one stacked call
per band, each group with its own zero threshold), the low-frequency
subband by the generalized inverse, and one inverse transform written
straight into the output array. A group too large for one chunk (more
than ``TILE`` subband columns) is decoded the same way in row tiles,
which a thread pool shares out over the usable CPUs; the group's peak
column norms, found in a first pass over its tiles, keep every tile on
the whole group's zero threshold, so tiles change no bit of the result.

The encoder keeps the mixed frames in their stored form, the codes a
container holds and a downstream codec sees: float32 in float-container
mode, uint8 on an affine grid (value = offset + scale * code) in
affine-8bit mode. Tail frames are uint8. So writing a container and reading
it back is lossless, and the file path reproduces the in-memory path bit
for bit. The affine map is applied in one place each way: quantization in
:func:`encode_sequence`, dequantization of one decode chunk at a time.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import QualityReport, sequence_report
from .mixcore import (
    MixingMatrix,
    _read_only,
    as_sequence,
    default_mixing_matrix,
    generalized_inverse,
    mix_block,
    snap_to_8bit,
)
from .sca import (
    RecoveryStats,
    build_hyperplanes,
    check_tau,
    column_peaks,
    recover_block,
    recover_dense,
)
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

# Subband columns per tile: a group with more columns than this per band is
# decoded in row tiles of about TILE columns, shared out on WORKERS threads.
# Tiles of 12288 or 16384 columns made CIF-size groups slower (the tiles'
# extra pass for the group's peak norms), so those stay whole.
TILE = 32768

# Threads that decode the tiles of one group: the CPUs this process may use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Storage dtype of the mixed codes per quantization mode, and of the tail.
CODE_DTYPES = {QUANT_FLOAT: np.dtype("<f4"), QUANT_AFFINE: np.dtype(np.uint8)}
TAIL_DTYPE = np.dtype(np.uint8)
_F32_MAX = float(np.finfo(np.float32).max)


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
    """Mixed frames plus tail, as stored, and the metadata the decoder needs.

    ``mixed_codes`` and ``tail_codes`` are read-only, C-contiguous (count,
    height, width) arrays in their storage dtype: mixed codes are
    little-endian float32 in float mode and uint8 in affine mode, where a
    code c stands for ``offset + scale * c``; tail codes are uint8 pixels.
    ``scale``/``offset`` are zero in float mode. Every stored value must
    dequantize to a finite float32-range number.
    """

    matrix: MixingMatrix
    width: int
    height: int
    quantization: str
    scale: float
    offset: float
    mixed_codes: np.ndarray
    tail_codes: np.ndarray

    def __post_init__(self):
        if self.quantization not in CODE_DTYPES:
            raise ValueError(f"unknown quantization mode {self.quantization!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions {self.width}x{self.height} must be positive")
        if not math.isfinite(self.scale) or not math.isfinite(self.offset):
            raise ValueError("quantization parameters must be finite")
        # codes 0 and 255 bound the affine values; the decoder's column norms
        # square them, which overflows far beyond float32 range
        top = self.offset + 255.0 * self.scale
        if self.quantization == QUANT_AFFINE and max(abs(self.offset), abs(top)) > _F32_MAX:
            raise ValueError("affine quantization parameters must map codes into float32 range")
        m, n = self.matrix.rows, self.matrix.cols
        dtypes = {"mixed_codes": CODE_DTYPES[self.quantization], "tail_codes": TAIL_DTYPE}
        for name, dtype in dtypes.items():
            codes = getattr(self, name)
            if not isinstance(codes, np.ndarray) or codes.dtype != dtype:
                raise ValueError(f"{name} must be a {dtype} array")
            if codes.shape[1:] != (self.height, self.width):
                raise ValueError(f"{name} shape {codes.shape} disagrees with header")
            if codes.flags.writeable or not codes.flags.c_contiguous:
                object.__setattr__(self, name, _read_only(np.array(codes, order="C")))
        if self.quantization == QUANT_FLOAT and not np.isfinite(self.mixed_codes).all():
            raise ValueError("mixed frame values must be finite")
        mixed_count = len(self.mixed_codes)
        if not mixed_count or mixed_count % m:
            raise ValueError(
                f"mixed frame count {mixed_count} must be a positive multiple of m = {m}"
            )
        if len(self.tail_codes) >= n:
            raise ValueError(f"tail holds {len(self.tail_codes)} frames, must be < n = {n}")

    @property
    def block_count(self) -> int:
        return len(self.mixed_codes) // self.matrix.rows

    @property
    def source_count(self) -> int:
        return self.block_count * self.matrix.cols + len(self.tail_codes)


def encode_sequence(frames, cfg: CodecConfig) -> EncodedSequence:
    """Group and mix a (count, H, W) source sequence into its storage codes."""
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
    else:
        lo, hi = float(mixed.min()), float(mixed.max())
        scale = (hi - lo) / 255.0 if hi > lo else 1.0
        offset = lo
        # code = floor((x - offset) / scale + 0.5), in place
        mixed -= offset
        mixed /= scale
        mixed += 0.5
        np.clip(np.floor(mixed, out=mixed), 0, 255, out=mixed)

    return EncodedSequence(
        matrix=cfg.matrix,
        width=width,
        height=height,
        quantization=cfg.quantization,
        scale=scale,
        offset=offset,
        mixed_codes=_read_only(mixed.astype(CODE_DTYPES[cfg.quantization])),
        tail_codes=_read_only(snap_to_8bit(src[blocks * n :]).astype(TAIL_DTYPE)),
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
    codes = enc.mixed_codes.reshape(blocks, m, height, width)
    affine = (enc.scale, enc.offset) if enc.quantization == QUANT_AFFINE else None
    out = np.empty((enc.source_count, height, width))
    stats_parts: list[RecoveryStats] = []
    half_h, half_w = (height + 1) // 2, (width + 1) // 2
    columns = half_h * half_w
    # a group of more than TILE columns per band is decoded alone, in row
    # tiles of about TILE columns, as even as whole subband rows allow
    rows = -(-half_h // -(-columns // TILE))  # ceil(half_h / ceil(columns / TILE))
    tiles = [slice(2 * top, 2 * (top + rows)) for top in range(0, half_h, rows)]
    chunk = 1 if len(tiles) > 1 else max(1, BUDGET // columns)
    # the pool starts its threads at the first tile, so small groups never pay for them
    with ThreadPoolExecutor(WORKERS) as pool:
        for start in range(0, blocks, chunk):
            stop = min(start + chunk, blocks)
            group = codes[start:stop]
            dest = out[start * n : stop * n].reshape(stop - start, n, height, width)
            if len(tiles) > 1:
                stats_parts += _decode_tiles(group, affine, dest, tiles, pool, planes, pinv, cfg.tau)
            else:
                stats_parts += _decode_chunk(group, affine, dest, planes, pinv, cfg.tau)
    out[blocks * n :] = enc.tail_codes
    return _read_only(out), RecoveryStats.merged(stats_parts)


def _decode_tiles(codes, affine, dest, tiles, pool, planes, pinv, tau) -> list[RecoveryStats]:
    """Decode one (1, m, H, W) group tile by tile, the tiles shared out on ``pool``.

    ``tiles`` are slices of pixel rows, each an even number but the last.
    A first pass finds each detail band's peak column norm over the whole
    group, so every tile zeroes the columns the whole group would; the
    second decodes each tile into its rows of ``dest``. Stats come back
    band by band, the tiles in row order, as one whole-group call gives them.
    """
    detail = list(pool.map(lambda rows: _detail_peaks(codes[..., rows, :], affine), tiles))
    peaks = np.max(detail, axis=0)
    parts = pool.map(
        lambda rows: _decode_chunk(
            codes[..., rows, :], affine, dest[..., rows, :], planes, pinv, tau, peaks
        ),
        tiles,
    )
    return [RecoveryStats.merged(band) for band in zip(*parts)]


def _detail_peaks(codes, affine) -> np.ndarray:
    """(3, k) peak column norms of the detail bands of (k, m, h, W) codes."""
    bands = haar_forward(_dequantize(codes, affine))[1:]
    return np.stack([column_peaks(band.reshape(*band.shape[:2], -1)) for band in bands])


def _dequantize(codes, affine) -> np.ndarray:
    """Float64 values of (k, m, h, w) codes, edge-padded to even h and w.

    ``affine`` is the (scale, offset) of affine-8bit codes, None for float
    codes.
    """
    odd = (codes.shape[2] % 2, codes.shape[3] % 2)
    if any(odd):
        codes = np.pad(codes, ((0, 0), (0, 0), (0, odd[0]), (0, odd[1])), mode="edge")
    if affine is None:
        return codes.astype(np.float64)
    # offset + scale * code: cast and scale in one pass, then shift in place
    values = np.multiply(codes, affine[0], dtype=np.float64)
    values += affine[1]
    return values


def _decode_chunk(codes, affine, dest, planes, pinv, tau, peaks=None) -> list[RecoveryStats]:
    """Decode (k, m, h, W) mixed codes into the (k, n, h, W) array ``dest``.

    ``peaks`` holds the (3, k) peak column norms of the detail bands when
    the codes are a tile of their groups. A function of its own, so that
    one chunk's temporaries are freed before the next chunk allocates its
    own.
    """
    k, m, height, width = codes.shape
    group = _dequantize(codes, affine)
    # each band is popped into its recovery call, so its memory is freed once used
    bands = [band.reshape(k, m, -1) for band in haar_forward(group)]
    recovered = [recover_dense(pinv, bands.pop(0))]
    stats = []
    for band_peaks in [None] * 3 if peaks is None else peaks:
        sources, band_stats = recover_block(planes, bands.pop(0), tau, band_peaks)
        recovered.append(sources)
        stats.append(band_stats)
    half = (group.shape[2] // 2, group.shape[3] // 2)
    recovered = [r.reshape(k, -1, *half) for r in recovered]
    if group.shape[2:] != (height, width):
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
        mixed_count=len(enc.mixed_codes),
        tail_count=len(enc.tail_codes),
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
