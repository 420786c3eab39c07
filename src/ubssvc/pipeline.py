"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. A
:class:`CodecConfig` is the mixing matrix, whose columns and rows are the
group sizes n and m, and three settings. Encoding partitions the sequence
into consecutive groups of n frames and mixes every group down to m frames
in the pixel domain; leftover frames (count mod n) pass through unmixed as
the tail. Decoding recovers the sources task by task: one Haar transform
of the task's mixed frames, recovery of the three sparse detail subbands
by subspace classification (one stacked call per band, each group with its
own zero threshold), the low-frequency subband by the generalized inverse,
and one inverse transform written straight into the output array.

Both directions cut their work the same way, by :func:`_tasks`: a group of
more than ``TILE`` cells (pixels to encode, subband columns to decode) is
cut into row tiles, which a thread pool shares out over the usable CPUs;
smaller groups run inline, in runs of whole groups of about ``TILE``
pixels. Each decode tile decodes once on its own zero threshold; a tile
that held a column the whole group's threshold would zero is decoded again
on the group's peak column norms, so tiles change no bit of the result.

The encoder keeps the mixed frames in their stored form, the codes a
container holds and a downstream codec sees: float32 in float-container
mode, uint8 on an affine grid (value = offset + scale * code) in
affine-8bit mode. Tail frames are uint8. So writing a container and reading
it back is lossless, and the file path reproduces the in-memory path bit
for bit. The affine map is applied in one place each way: quantization in
:func:`encode_sequence`, dequantization of one row slab at a time inside
each decode task's Haar transform.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .metrics import QualityReport, _report
from .mixcore import (
    DEFAULT_MATRIX_ENTRIES,
    DEFAULT_ZERO_EPS,
    NOT_FINITE,
    WORKERS,
    MixingMatrix,
    _read_only,
    _to_sequence,
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

QUANT_FLOAT = "float-container"
QUANT_AFFINE = "affine-8bit"

# Relative-residual tolerance suited to real wavelet coefficients; exact
# synthetic data can use something as tight as 1e-8.
DEFAULT_TAU = 0.05

# Cells per task. A group of more than TILE pixels is encoded, and one of
# more than TILE subband columns per band decoded, in row tiles of about
# TILE cells, shared out on WORKERS threads. CIF-size groups decode whole:
# on a 2-CPU host a 40-frame CIF decode took 92 ms in tiles of 16384
# columns and 104 ms in tiles of 12288, against 90 ms whole. Smaller groups
# run in runs of whole groups of about TILE pixels; whole-sequence calls
# let the temporaries fall out of cache (CIF decode ran about 40% slower).
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
    quantization: str = QUANT_FLOAT

    def __post_init__(self):
        if self.matrix is None:
            object.__setattr__(self, "matrix", default_mixing_matrix())
        elif not isinstance(self.matrix, MixingMatrix):
            raise TypeError(f"matrix must be a MixingMatrix, got {type(self.matrix).__name__}")
        check_tau(self.tau)
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
            raise ValueError("mixed frame values must be finite and lie in float32 range")
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
    """Group and mix a (count, H, W) source sequence into its storage codes.

    Every pixel must be finite, but only the tail frames, which are never
    mixed, are scanned for it up front. A NaN or infinite source pixel
    makes at least one mixed value of its pixel NaN or infinite, as no
    column of the matrix is all zero, and the range check of the codes
    rejects that; only then are the sources scanned, so that the error
    names the pixels, as :func:`as_sequence` does.
    """
    src = _to_sequence(frames)
    if not all_finite(src[len(src) - len(src) % cfg.matrix.cols :]):
        raise ValueError(NOT_FINITE)
    try:
        return _encode(src, cfg)
    except ValueError:
        if all_finite(src):
            raise
        raise ValueError(NOT_FINITE) from None


def _encode(src, cfg: CodecConfig) -> EncodedSequence:
    """:func:`encode_sequence` of a (count, H, W) float64 array whose shape is checked.

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
    blocks = count // n
    sources = src[: blocks * n].reshape(blocks, n, height, width)
    codes = np.empty((blocks, m, height, width), dtype=CODE_DTYPES[cfg.quantization])
    tasks, tiles = _tasks(blocks, height, width)
    # matmul hands a one-column product to gemv, whose bits differ from gemm's:
    # a tile goes through gemm always, a whole group as the matmul it always was
    product = _gemm if tiles > 1 else np.matmul

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
        # a value past float32 range casts to inf, which EncodedSequence rejects
        with np.errstate(over="ignore"):
            codes[task] = mix(task)

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
        each = pool.map if tiles > 1 else map
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
        tail_codes=_read_only(snap_to_8bit(src[blocks * n :])),
    )


def _tasks(blocks: int, height: int, width: int, cell: int = 1) -> tuple[list[tuple], int]:
    """Cut ``blocks`` groups of height x width pixels into tasks, and count the tiles per group.

    A task indexes the (blocks, k, height, width) arrays of a pass. A group
    is seen as cells of ``cell`` x ``cell`` pixels (a cell cut by an odd
    edge counts whole), and one of more than ``TILE`` cells is cut into row
    tiles of about ``TILE`` cells, as even as whole rows of cells allow,
    each an exact number of cell rows but the last. Groups of one tile run
    in runs of about ``TILE`` pixels, so a task is one tile of one group or
    a run of whole groups, never both; the tasks of a group follow each
    other in row order.
    """
    rows, cols = -(-height // cell), -(-width // cell)
    step = cell * -(-rows // -(-rows * cols // TILE))  # cell * ceil(rows / ceil(rows * cols / TILE))
    tiles = -(-height // step)
    run = 1 if tiles > 1 else max(1, TILE // (height * width))
    tops = range(0, height, step)
    return [np.s_[start : start + run, :, top : top + step] for start in range(0, blocks, run) for top in tops], tiles


def decode_sequence(enc: EncodedSequence, cfg: CodecConfig) -> tuple[np.ndarray, RecoveryStats]:
    """Recover the full (count, H, W) source sequence from an encoded one.

    Total on every valid input: columns outside tolerance degrade quality
    (counted in the stats) but never fail the decode. The census lists its
    residuals in (group, band, column) order and counts them per (group,
    band) in ``group_residuals``.
    """
    if not np.array_equal(enc.matrix.entries, cfg.matrix.entries):
        raise ValueError("encoded stream was produced with a different mixing matrix")
    height, width = enc.height, enc.width
    m, n = cfg.matrix.rows, cfg.matrix.cols
    pinv = generalized_inverse(cfg.matrix)
    planes = build_hyperplanes(cfg.matrix)
    blocks = enc.block_count
    codes = enc.mixed_codes.reshape(blocks, m, height, width)
    affine = (enc.scale, enc.offset) if enc.quantization == QUANT_AFFINE else None
    out = np.empty((enc.source_count, height, width))
    dest = out[: blocks * n].reshape(blocks, n, height, width)
    tasks, tiles = _tasks(blocks, height, width, cell=2)

    def decode(task, peaks=None) -> list[RecoveryStats]:
        return _decode_chunk(codes[task], affine, dest[task], planes, pinv, cfg.tau, peaks)

    with ThreadPoolExecutor(WORKERS) as pool:
        # as in encode, only tiles start threads: runs of whole groups on the
        # pool made cif and tiny decode 5-7% slower
        parts = list((pool.map if tiles > 1 else map)(decode, tasks))
    stats: list[RecoveryStats] = []
    for start in range(0, len(tasks), tiles):
        group = parts[start : start + tiles]
        if tiles > 1:
            # Each tile was decoded on its own zero threshold. The group's is
            # never lower, and zeroes a column the tile kept only if the
            # tile's smallest kept norm is at or under it; the rare tile where
            # that happens is decoded again on the group's peak column norms.
            peaks = np.max([[band.peak for band in part] for part in group], axis=0)[:, None]
            for i, part in enumerate(group):
                if any(band.floor <= DEFAULT_ZERO_EPS * peak for band, peak in zip(part, peaks)):
                    group[i] = decode(tasks[start + i], peaks)
        # band by band, the tiles in row order, as one whole-group call gives them
        stats += [tile for band in zip(*group) for tile in band]
    out[blocks * n :] = enc.tail_codes
    census = RecoveryStats.merged(stats)
    # a tile counts its residuals on its own; add up each (group, band)'s tiles
    return _read_only(out), replace(census, group_residuals=census.group_residuals.reshape(-1, tiles).sum(axis=1))


def _dequantize(codes, affine) -> np.ndarray:
    """Float64 values of an array of codes, of any shape.

    ``affine`` is the (scale, offset) of affine-8bit codes, None for float
    codes. Each value depends on its code alone, so :func:`haar_forward`
    calls this on one row slab at a time and the values of a whole task
    never exist at once.
    """
    if affine is None:
        return codes.astype(np.float64)
    # offset + scale * code: cast and scale in one pass, then shift in place
    values = np.multiply(codes, affine[0], dtype=np.float64)
    values += affine[1]
    return values


def _decode_chunk(codes, affine, dest, planes, pinv, tau, peaks=None) -> list[RecoveryStats]:
    """Decode (k, m, h, W) mixed codes into the (k, n, h, W) array ``dest``.

    ``peaks`` holds the (3, k) peak column norms of the detail bands when
    the codes are a tile of their groups. Returns the census of each band,
    or for a run of several groups one census with the residuals in
    (group, band, column) order. A function of its own, so that one task's
    temporaries are freed before the next task allocates its own.
    """
    k, m, height, width = codes.shape
    if height % 2 or width % 2:
        # edge-padded to even h and W in the code dtype, dequantized by slab below
        codes = np.pad(codes, ((0, 0), (0, 0), (0, height % 2), (0, width % 2)), mode="edge")
    bands = haar_forward(codes, lambda slab: _dequantize(slab, affine))
    half = bands[0].shape[2:]
    # each band is popped into its recovery call, so its memory is freed once used
    bands = [band.reshape(k, m, -1) for band in bands]
    recovered = [recover_dense(pinv, bands.pop(0))]
    stats = []
    for band_peaks in [None] * 3 if peaks is None else peaks:
        sources, band_stats = recover_block(planes, bands.pop(0), tau, band_peaks)
        recovered.append(sources)
        stats.append(band_stats)
    recovered = [r.reshape(k, -1, *half) for r in recovered]
    if codes.shape[2:] != (height, width):
        dest[...] = haar_inverse(recovered)[..., :height, :width]
    else:
        haar_inverse(recovered, out=dest)
    # a run of groups reports group by group, as one call per (group, band) would
    return [RecoveryStats.merged(stats, by_group=True)] if k > 1 else stats


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
    the built-in matrix), ``tau``, ``quantization``. ``#``
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

    known = {"n", "m", "matrix", "tau", "quantization"}
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
    if "quantization" in values:
        parsed["quantization"] = values["quantization"]
    return parsed


def load_config(path) -> CodecConfig:
    """Build a :class:`CodecConfig` from a config file; missing keys keep defaults."""
    parsed = parse_config(path)
    if "matrix" in parsed:
        parsed["matrix"] = MixingMatrix(parsed["matrix"])
    return CodecConfig(**parsed)
