"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. A
:class:`CodecConfig` is the mixing matrix, whose columns and rows are the
group sizes n and m, and three settings. Encoding partitions the sequence
into consecutive groups of n frames and mixes every group down to m frames
in the pixel domain, a group of more than ``TILE`` pixels in row tiles on
a thread pool, smaller ones in runs of whole groups; leftover frames
(count mod n) pass through unmixed as the tail. Decoding walks the groups in
chunks: one Haar transform of the chunk's mixed frames, recovery of the
three sparse detail subbands by subspace classification (one stacked call
per band, each group with its own zero threshold), the low-frequency
subband by the generalized inverse, and one inverse transform written
straight into the output array. A group too large for one chunk (more
than ``TILE`` subband columns) is decoded the same way in row tiles,
which a thread pool shares out over the usable CPUs. Each tile decodes
once on its own zero threshold; a tile that held a column the whole
group's threshold would zero is decoded again on the group's peak column
norms, so tiles change no bit of the result.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import QualityReport, _report
from .mixcore import (
    DEFAULT_MATRIX_ENTRIES,
    DEFAULT_ZERO_EPS,
    WORKERS,
    MixingMatrix,
    _read_only,
    all_finite,
    as_sequence,
    default_mixing_matrix,
    generalized_inverse,
    snap_to_8bit,
)
from .sca import (
    RecoveryStats,
    _gemm,
    build_hyperplanes,
    check_tau,
    recover_block,
    recover_dense,
)
from .wavelet import haar_forward, haar_inverse

PAD_REJECT = "reject"
PAD_EDGE = "edge-replicate"
QUANT_FLOAT = "float-container"
QUANT_AFFINE = "affine-8bit"

# Relative-residual tolerance suited to real wavelet coefficients; exact
# synthetic data can use something as tight as 1e-8.
DEFAULT_TAU = 0.05

# Subband columns per recovery call: a decode chunk holds max(1, BUDGET // T)
# groups for subband planes of T columns. Whole-sequence calls let the
# temporaries fall out of cache (CIF decode ran about 40% slower).
BUDGET = 8192

# Columns per tile: a group with more subband columns than this per band is
# decoded in row tiles of about TILE columns, shared out on WORKERS threads.
# CIF-size groups stay whole: on a 2-CPU host a 40-frame CIF decode took
# 92 ms in tiles of 16384 columns and 104 ms in tiles of 12288, against
# 90 ms whole. Encode cuts a group of more than TILE pixels the same way.
TILE = 32768

# Storage dtype of the mixed codes per quantization mode, and of the tail.
CODE_DTYPES = {QUANT_FLOAT: np.dtype("<f4"), QUANT_AFFINE: np.dtype(np.uint8)}
TAIL_DTYPE = np.dtype(np.uint8)
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True, eq=False)
class CodecConfig:
    """Pipeline parameters; defaults to the built-in 3x4 matrix.

    The group sizes n and m are the matrix's columns and rows.
    """

    matrix: MixingMatrix | None = None
    tau: float = DEFAULT_TAU
    pad_policy: str = PAD_EDGE
    quantization: str = QUANT_FLOAT

    def __post_init__(self):
        if self.matrix is None:
            object.__setattr__(self, "matrix", default_mixing_matrix())
        check_tau(self.tau)
        if self.pad_policy not in (PAD_REJECT, PAD_EDGE):
            raise ValueError(f"unknown pad policy {self.pad_policy!r}")
        if self.quantization not in (QUANT_FLOAT, QUANT_AFFINE):
            raise ValueError(f"unknown quantization mode {self.quantization!r}")


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
        if self.quantization == QUANT_FLOAT and not all_finite(self.mixed_codes):
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
    return _encode(as_sequence(frames), cfg)


def _encode(src, cfg: CodecConfig) -> EncodedSequence:
    """:func:`encode_sequence` of a (count, H, W) float64 array already checked.

    The groups are mixed task by task, each task writing the codes of its
    pixels, so the mixed values never exist as one whole-sequence array. A
    group of more than ``TILE`` pixels is cut into row tiles of about
    ``TILE`` pixels, which a pool of ``WORKERS`` threads shares out; smaller
    groups are mixed inline, in runs of whole groups of about ``TILE``
    pixels. Affine codes take two passes over the tasks: the first finds
    the range of the mixed values, the second mixes again and quantizes.
    Every task gives the bits of the whole-group product, so the codes do
    not depend on ``TILE`` or ``WORKERS``.
    """
    count, height, width = src.shape
    m, n = cfg.matrix.rows, cfg.matrix.cols
    if count < n:
        raise ValueError(f"need at least n = {n} frames, got {count}")
    if cfg.pad_policy == PAD_REJECT and (width % 2 or height % 2):
        raise ValueError(
            f"odd frame dimensions {width}x{height} rejected; use the edge-replicate pad policy"
        )
    blocks = count // n
    sources = src[: blocks * n].reshape(blocks, n, height, width)
    codes = np.empty((blocks, m, height, width), dtype=CODE_DTYPES[cfg.quantization])
    tiles = _row_tiles(height, width)
    run = 1 if len(tiles) > 1 else max(1, TILE // (height * width))
    tasks = [np.s_[start : start + run, :, rows] for start in range(0, blocks, run) for rows in tiles]
    # matmul hands a one-column product to gemv, whose bits differ from gemm's:
    # a tile goes through gemm always, a whole group as the matmul it always was
    product = _gemm if len(tiles) > 1 else np.matmul

    def mix(task) -> np.ndarray:
        """The float64 mixed values of one task, shaped like its codes."""
        piece = sources[task]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the range check
            mixed = product(cfg.matrix.entries, piece.reshape(*piece.shape[:2], -1))
        return mixed.reshape(codes[task].shape)

    def mixed_range(mixed) -> tuple[float, float]:
        lo, hi = float(mixed.min()), float(mixed.max())
        if not -_F32_MAX <= lo <= hi <= _F32_MAX:  # NaN fails too
            raise ValueError("mixed frame values must lie in float32 range")
        return lo, hi

    def store_float(task) -> None:
        mixed = mix(task)
        mixed_range(mixed)
        codes[task] = mixed

    def quantize(task) -> None:
        # code = floor((x - offset) / scale + 0.5), in place
        mixed = mix(task)
        mixed -= offset
        mixed /= scale
        mixed += 0.5
        codes[task] = np.clip(np.floor(mixed, out=mixed), 0, 255, out=mixed)

    scale = offset = 0.0
    with ThreadPoolExecutor(WORKERS) as pool:
        # as in decode, only tiles start threads: on 64x64 groups the pool
        # made encode slower (3.4 -> 4.1 ms for 400 frames on 2 CPUs)
        each = pool.map if len(tiles) > 1 else map
        if cfg.quantization == QUANT_FLOAT:
            list(each(store_float, tasks))
        else:
            ranges = list(each(lambda task: mixed_range(mix(task)), tasks))
            lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
            scale = (hi - lo) / 255.0 if hi > lo else 1.0
            offset = lo
            list(each(quantize, tasks))

    return EncodedSequence(
        matrix=cfg.matrix,
        width=width,
        height=height,
        quantization=cfg.quantization,
        scale=scale,
        offset=offset,
        mixed_codes=_read_only(codes.reshape(blocks * m, height, width)),
        tail_codes=_read_only(snap_to_8bit(src[blocks * n :]).astype(TAIL_DTYPE)),
    )


def _row_tiles(rows: int, width: int) -> list[slice]:
    """Cut ``rows`` rows of ``width`` columns into slices of about ``TILE`` columns.

    The slices are as even as whole rows allow; rows that fit in one tile
    stay one slice.
    """
    step = -(-rows // -(-rows * width // TILE))  # ceil(rows / ceil(rows * width / TILE))
    return [slice(top, top + step) for top in range(0, rows, step)]


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

    m, n = cfg.matrix.rows, cfg.matrix.cols
    pinv = generalized_inverse(cfg.matrix)
    planes = build_hyperplanes(cfg.matrix)
    blocks = enc.block_count
    codes = enc.mixed_codes.reshape(blocks, m, height, width)
    affine = (enc.scale, enc.offset) if enc.quantization == QUANT_AFFINE else None
    out = np.empty((enc.source_count, height, width))
    stats_parts: list[RecoveryStats] = []
    half_h, half_w = (height + 1) // 2, (width + 1) // 2
    # a group of more than TILE columns per band is decoded alone, in row
    # tiles of about TILE columns
    tiles = [slice(2 * t.start, 2 * t.stop) for t in _row_tiles(half_h, half_w)]
    chunk = 1 if len(tiles) > 1 else max(1, BUDGET // (half_h * half_w))
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
    Each tile decodes into its rows of ``dest`` on its own zero threshold.
    The group's threshold is never lower, and it zeroes a column the tile
    kept only if the tile's smallest kept norm is at or under it; the rare
    tile where that happens is decoded again on the group's peak column
    norms. So every tile zeroes the columns the whole group would. Stats
    come back band by band, the tiles in row order, as one whole-group call
    gives them.
    """

    def decode(rows, peaks=None):
        return _decode_chunk(codes[..., rows, :], affine, dest[..., rows, :], planes, pinv, tau, peaks)

    parts = list(pool.map(decode, tiles))
    peaks = np.max([[stats.peak for stats in part] for part in parts], axis=0)
    for i, rows in enumerate(tiles):
        if any(stats.floor <= DEFAULT_ZERO_EPS * peak for stats, peak in zip(parts[i], peaks)):
            parts[i] = decode(rows, peaks[:, None])
    return [RecoveryStats.merged(band) for band in zip(*parts)]


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


def roundtrip_eval(frames, cfg: CodecConfig) -> RoundtripReport:
    """Encode then decode in memory and score the reconstruction."""
    frames = as_sequence(frames)
    enc = _encode(frames, cfg)
    decoded, stats = decode_sequence(enc, cfg)
    quality = _report(frames, decoded)
    return RoundtripReport(
        quality=quality,
        recovery=stats,
        source_count=len(frames),
        mixed_count=len(enc.mixed_codes),
        tail_count=len(enc.tail_codes),
    )


def parse_config(path) -> dict:
    """Parse a key-value config file into raw :class:`CodecConfig` values.

    Recognized keys: ``matrix`` (row-major whitespace-separated floats,
    returned as an uninterpreted (m, n) array), ``n`` and ``m`` (the
    matrix's shape, required with ``matrix``; without it, checked against
    the built-in matrix), ``tau``, ``pad_policy``, ``quantization``. ``#``
    starts a comment. Only the keys present in the file appear in the
    result, and never ``n`` or ``m``.
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

    known = {"n", "m", "matrix", "tau", "pad_policy", "quantization"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")

    parsed = {}
    if "matrix" in values:
        if "n" not in values or "m" not in values:
            raise ValueError(f"{path}: matrix requires explicit n and m")
        m, n = int(values["m"]), int(values["n"])
        entries = np.array([float(v) for v in values["matrix"].split()])
        if entries.size != m * n:
            raise ValueError(f"{path}: matrix has {entries.size} entries, expected m*n = {m * n}")
        parsed["matrix"] = entries.reshape(m, n)
    else:
        rows, cols = np.shape(DEFAULT_MATRIX_ENTRIES)
        m, n = int(values.get("m", rows)), int(values.get("n", cols))
        if (m, n) != (rows, cols):
            raise ValueError(
                f"{path}: declared n = {n}, m = {m} disagree with the built-in {rows}x{cols} matrix"
            )
    if "tau" in values:
        parsed["tau"] = float(values["tau"])
    for key in ("pad_policy", "quantization"):
        if key in values:
            parsed[key] = values[key]
    return parsed


def load_config(path) -> CodecConfig:
    """Build a :class:`CodecConfig` from a config file; missing keys keep defaults."""
    parsed = parse_config(path)
    if "matrix" in parsed:
        parsed["matrix"] = MixingMatrix(parsed["matrix"])
    return CodecConfig(**parsed)
