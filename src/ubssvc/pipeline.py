"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. A
:class:`CodecConfig` is the mixing matrix, whose columns and rows are the
group sizes n and m, tau and the quantization. Encoding partitions the
sequence into consecutive groups of n frames and mixes every group down to
m frames in the pixel domain; leftover frames (count mod n) pass through
unmixed as the tail. Decoding takes the matrix and quantization from the
encoded sequence and tau from the config, and recovers the sources task by
task: one Haar transform of the task's mixed frames, one
:func:`ubssvc.sca.recover_cells` call that recovers the three sparse
detail subbands by subspace classification and the low-frequency subband
by the generalized inverse, and one inverse transform written straight
into the output array. The transforms are the plain sum/difference Haar
pair, without their halvings, and ``A+`` and the coefficient maps are
scaled by 1/4 once per decode instead: powers of two commute with
rounding, so this gives the bits of the orthonormal pair.

Both directions, and the score in :mod:`ubssvc.metrics`, cut their work
the same way, by :func:`_tasks`: a group of more than ``TILE`` cells
(pixels to encode or score, subband columns to decode) is cut into row
tiles, and groups of at most ``TILE`` pixels run in runs of whole groups of
about ``TILE`` pixels. Encode mixes every task on the calling thread.
Decode shares a pass of two or more such tasks, runs of small groups too,
out on a thread pool when there are two or more usable CPUs, and runs a
lone task inline; it keeps whole the groups of at most ``TILE`` pixels,
and on the pool those of at most ``TILE`` columns, and cuts every other
group into row tiles of about ``TILE // 2`` columns, which change no bit
of the result.

The encoder keeps the mixed frames in their stored form, the codes a
container holds and a downstream codec sees: float32 in float-container
mode, uint8 on an affine grid (value = offset + scale * code) that the
matrix fixes for sources in [0, 255], so each task quantizes alone, in
affine-8bit mode. Tail frames are uint8. So writing a container and reading
it back is lossless, and the file path reproduces the in-memory path bit
for bit. The affine map is applied in one place each way: quantization in
:func:`encode_sequence`, dequantization of one row slab at a time inside
each decode task's Haar transform.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .mixcore import (
    NOT_FINITE,
    MixingMatrix,
    _read_only,
    _to_sequence,
    all_finite,
    default_mixing_matrix,
    generalized_inverse,
    snap_to_8bit,
)
from .sca import RecoveryStats, _gemm, build_hyperplanes, check_tau, recover_cells
from .wavelet import haar_forward, haar_inverse

QUANT_FLOAT = "float-container"
QUANT_AFFINE = "affine-8bit"

# Relative-residual tolerance suited to real wavelet coefficients; exact
# synthetic data can use something as tight as 1e-8.
DEFAULT_TAU = 0.05

# Cells per task. A group (a frame, to score) of more than TILE pixels is
# encoded or scored in row tiles of about TILE cells (decode_sequence gives
# decode's rule). Pooled CIF groups decode whole: on 2 CPUs a 40-frame CIF
# decode took 92 ms in tiles of 16384 columns and 104 ms in tiles of 12288,
# against 90 ms whole. Smaller ones run in runs of whole ones of about TILE
# pixels; whole-sequence calls let the temporaries fall out of cache (CIF
# decode ran about 40% slower). Decode shares the runs out on WORKERS
# threads too: on 2 CPUs, 400 64x64 frames decoded in 6.1-7.5 ms in runs of
# 8 groups against 7.5-7.7 ms inline, in 8.8-9.4 ms in runs of 4 (the GIL
# and BLAS contend on small operations), and in 5.5-8.0 ms in runs of 16,
# whose traced peak was 3.5 MB higher (medians of 100 in-process runs).
TILE = 32768

# Threads of the decode pool: the CPUs this process may use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

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
    fails the affine check of the sources, or in float mode makes at least
    one mixed value of its pixel NaN or infinite, as no column of the
    matrix is all zero, which the float32 check of the codes rejects; only
    then are the sources scanned, so that the error names the pixels, as
    :func:`as_sequence` does.
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

    The tasks of :func:`_tasks`, row tiles of groups of more than ``TILE``
    pixels and runs of smaller groups, are mixed in turn on the calling
    thread, each writing the codes of its pixels, so the mixed values never
    exist as one whole-sequence array. A thread pool does not pay here: on
    2 CPUs it spent 16-165% more CPU time, and its wall time moved with what
    ran before it (CIF x 40 2.3-3.1 ms pooled against 1.7-1.9 inline, 720p
    x 8 4.4-6.3 against 5.5-5.9; medians of 100 in-process alternations).
    Affine codes sit on a grid the matrix fixes, which holds the mixed
    values of every source in [0, 255], so each task mixes once and
    quantizes its own values. Every task gives the bits of the whole-group
    product, so the codes do not depend on ``TILE``.
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

    scale = offset = 0.0
    affine = cfg.quantization == QUANT_AFFINE
    if affine:
        # for sources in [0, 255], row r of A s lies in [255 sum neg_r, 255 sum pos_r]
        rows = cfg.matrix.entries.tolist()
        offset = 255.0 * min(math.fsum(min(a, 0.0) for a in row) for row in rows)
        scale = (255.0 * max(math.fsum(max(a, 0.0) for a in row) for row in rows) - offset) / 255.0
    # a float value past float32 range casts to inf, which EncodedSequence rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for task in tasks:
            piece = sources[task]
            if affine and not (piece.min() >= 0.0 and piece.max() <= 255.0):  # NaN fails too
                raise ValueError("affine-8bit sources must lie in [0, 255]")
            mixed = product(cfg.matrix.entries, piece.reshape(*piece.shape[:2], -1)).reshape(codes[task].shape)
            if affine:
                # code = floor((x - offset) / scale + 0.5), in place; the grid
                # holds the mixed values of sources in [0, 255], so the codes lie
                # in [0, 256), where the cast to uint8 truncates, which is floor
                mixed -= offset
                mixed /= scale
                mixed += 0.5
            codes[task] = mixed

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


def _tasks(blocks: int, height: int, width: int, cell: int = 1, tile: int | None = None) -> tuple[list[tuple], int]:
    """Cut ``blocks`` groups of height x width pixels into tasks, and count the tiles per group.

    A task indexes the (blocks, k, height, width) arrays of a pass. A group
    is seen as cells of ``cell`` x ``cell`` pixels (a cell cut by an odd
    edge counts whole), and one of more than ``tile`` (default ``TILE``)
    cells is cut into row tiles of about ``tile`` cells, as even as whole
    rows of cells allow, each an exact number of cell rows but the last.
    Groups of one tile run in runs of about ``tile`` pixels, so a task is
    one tile of one group or a run of whole groups, never both; the tasks
    of a group follow each other in row order.
    """
    tile = tile or TILE
    rows, cols = -(-height // cell), -(-width // cell)
    step = cell * -(-rows // -(-rows * cols // tile))  # cell * ceil(rows / ceil(rows * cols / tile))
    tiles = -(-height // step)
    run = 1 if tiles > 1 else max(1, tile // (height * width))
    tops = range(0, height, step)
    return [np.s_[start : start + run, :, top : top + step] for start in range(0, blocks, run) for top in tops], tiles


def decode_sequence(enc: EncodedSequence, cfg: CodecConfig) -> tuple[np.ndarray, RecoveryStats]:
    """Recover the full (count, H, W) source sequence from an encoded one.

    ``enc`` carries everything the stream fixes: the matrix, and so n, m,
    ``A+`` and the hyperplanes, and the quantization. ``cfg`` gives only
    the decoder's tolerance ``tau``; its matrix and quantization are not
    read. Total on every valid input: columns outside tolerance degrade
    quality (counted in the stats) but never fail the decode. The census
    holds the residuals in a fixed histogram, whose quantiles are
    bin-accurate and whose size does not grow with the sequence, and
    counts them per (group, band) in ``group_residuals``.

    The tasks transform without halving (``orthonormal=False``), so their
    bands are twice the orthonormal ones, and recover with ``A+`` and the
    coefficient maps scaled by 1/4, so the recovered bands are half the
    orthonormal ones, which the unhalved inverse takes: each halving is
    folded into a product made once per decode instead of an element pass
    per slab. Residuals and zero tests are ratios of norms and do not
    change. Every step scales by a power of two, so frames and census are
    bit for bit those of the orthonormal pair while every value stays a
    normal float (see :mod:`ubssvc.wavelet`). Each task decodes once, and
    its output is final when it returns.

    A pass that :func:`_tasks` cuts into two or more tasks, row tiles,
    whole groups or runs of small groups, shares a pool of ``WORKERS``
    threads when there are two or more; a lone task, and every task on one
    usable CPU, runs inline. A pooled decode needs a free second CPU to
    gain: 400 64x64 frames decode on the pool in about 46 ms of CPU time,
    against 38 ms inline. With one usable CPU a one-thread pool only adds
    cost (a 40-frame CIF decode took 108 ms inline against 125 ms pooled).
    Groups of at most ``TILE`` pixels decode whole, and so do groups of at
    most ``TILE`` columns a band on the pool. Every other group decodes in
    row tiles of about ``TILE // 2`` columns, on the pool or inline as the
    pass of ``TILE`` would: the tiles of a lone CIF group run inline, those
    of a lone 720p group on the pool. Every task recovers its three detail
    bands in one call: on the pool each numpy call costs about 10 us more
    while the interpreter lock changes hands. Half tiles hold less than one
    call a band did in tiles of ``TILE`` or whole (a lone CIF group 1.78 ->
    1.25 times the 8 bytes a code, a 720p group 0.22 -> 0.17 on one worker
    and 0.44 -> 0.33 on two) and cost no time (2 CPUs, medians of
    in-process alternations: pooled 720p x 8 2-3% faster, one-worker
    decodes and a lone CIF group within 3% of CPU time); tiles of ``TILE //
    3`` made pooled 720p x 8 6% slower.
    """
    height, width = enc.height, enc.width
    m, n = enc.matrix.rows, enc.matrix.cols
    # a quarter of A+ and of the coefficient maps takes the unhalved bands to half the sources
    pinv = generalized_inverse(enc.matrix) * 0.25
    planes = build_hyperplanes(enc.matrix)
    planes = replace(planes, coefficient_maps=_read_only(planes.coefficient_maps * 0.25))
    blocks = enc.block_count
    codes = enc.mixed_codes.reshape(blocks, m, height, width)
    affine = (enc.scale, enc.offset) if enc.quantization == QUANT_AFFINE else None
    out = np.empty((enc.source_count, height, width))
    dest = out[: blocks * n].reshape(blocks, n, height, width)
    tasks, tiles = _tasks(blocks, height, width, cell=2)
    pooled = WORKERS > 1 and len(tasks) > 1
    if tiles > 1 or not pooled and height * width > TILE:
        # the groups that do not decode whole go in half tiles (see the docstring)
        tasks, tiles = _tasks(blocks, height, width, cell=2, tile=-(-TILE // 2))

    def decode(task) -> RecoveryStats:
        return _decode_chunk(codes[task], affine, dest[task], planes, pinv, cfg.tau)

    with ThreadPoolExecutor(WORKERS) as pool:
        # merged in task order as the tasks finish, so the censuses are not all held at once
        census = RecoveryStats.merged((pool.map if pooled else map)(decode, tasks))
    out[blocks * n :] = enc.tail_codes
    # the tasks count their residuals per (group, tile, band); add up the tiles
    counts = census.group_residuals.reshape(-1, tiles, 3).sum(axis=1)
    return _read_only(out), replace(census, group_residuals=counts.ravel())


def _dequantize(codes, affine, out) -> None:
    """Write the float64 values of affine-8bit codes with (scale, offset) ``affine`` into ``out``.

    :func:`haar_forward` calls this on one row slab at a time, so the
    values of a whole task never exist at once; it casts float codes itself.
    """
    # offset + scale * code: cast and scale in one pass, then shift in place
    np.multiply(codes, affine[0], out=out, dtype=np.float64)
    out += affine[1]


def _decode_chunk(codes, affine, dest, planes, pinv, tau) -> RecoveryStats:
    """Decode (k, m, h, W) mixed codes into the (k, n, h, W) array ``dest``.

    ``pinv`` and ``planes`` carry the ``A+`` and coefficient maps scaled
    by 1/4 that :func:`decode_sequence` pairs with the unhalved transforms.
    The three detail bands are held in one (m, k, 3, h/2, w/2) buffer, whose
    (k, 3, m, T) view :func:`ubssvc.sca.recover_cells` recovers without a
    copy; each band buffer goes into that call as the only reference to it.
    A function of its own, so that one task's temporaries are freed before
    the next task allocates its own.

    Odd sides decode as if edge-padded to even: the transforms pad the
    codes and crop ``dest`` themselves, so each is called once.
    """
    k, m, height, width = codes.shape
    half = (-(-height // 2), -(-width // 2))
    ll, details = [np.empty((k, m, *half))], [np.empty((m, k, 3, *half))]
    convert = None if affine is None else lambda slab, values: _dequantize(slab, affine, values)
    haar_forward(codes, convert, [*ll, *details[0].transpose(2, 1, 0, 3, 4)], orthonormal=False)
    ll[0] = ll[0].reshape(k, m, -1)
    details[0] = details[0].reshape(m, k, 3, -1).transpose(1, 2, 0, 3)
    low, high, census = recover_cells(planes, pinv, ll.pop(), details.pop(), tau)
    haar_inverse([r.reshape(k, -1, *half) for r in (low, *high.swapaxes(0, 1))], out=dest, orthonormal=False)
    return census


def parse_config(path) -> dict:
    """Parse a key-value config file into raw :class:`CodecConfig` values.

    Recognized keys: ``matrix`` (row-major whitespace-separated floats,
    returned as an uninterpreted (m, n) array), ``n`` and ``m`` (the
    matrix's shape, required with ``matrix``; without it, checked against
    the built-in matrix), ``tau``, ``quantization``. ``#`` starts a comment.
    Only the keys present in the file appear in the result, never ``n`` or
    ``m``. A key may be given once. Errors name the file, a bad value its line.
    """
    values, linenos = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in linenos:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice, on lines {linenos[key]} and {lineno}")
        values[key], linenos[key] = value.strip(), lineno

    known = {"n", "m", "matrix", "tau", "quantization"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")

    def read(key, convert, expected):
        """``convert`` of the value of ``key``; a value it refuses names the file, line and key."""
        try:
            return convert(values[key])
        except ValueError:
            raise ValueError(f"{path}:{linenos[key]}: {key} must be {expected}, got {values[key]!r}") from None

    shape = {key: read(key, int, "a whole number") for key in ("m", "n") if key in values}
    for key, size in shape.items():
        if size < 0:  # 0 is a shape, which the matrix check refuses with its reason
            raise ValueError(f"{path}:{linenos[key]}: {key} must not be negative, got {size}")
    parsed = {}
    if "matrix" in values:
        if len(shape) < 2:
            raise ValueError(f"{path}: matrix requires explicit n and m")
        m, n = shape["m"], shape["n"]
        entries = read("matrix", lambda text: np.array([float(v) for v in text.split()]), "numbers")
        if entries.size != m * n:
            raise ValueError(f"{path}:{linenos['matrix']}: matrix has {entries.size} entries, expected m*n = {m * n}")
        parsed["matrix"] = entries.reshape(m, n)
    else:
        rows, cols = default_mixing_matrix().entries.shape
        m, n = shape.get("m", rows), shape.get("n", cols)
        if (m, n) != (rows, cols):
            raise ValueError(
                f"{path}: declared n = {n}, m = {m} disagree with the built-in {rows}x{cols} matrix"
            )
    if "tau" in values:
        parsed["tau"] = read("tau", float, "a number")
    if "quantization" in values:
        parsed["quantization"] = values["quantization"]
    return parsed


def load_config(path) -> CodecConfig:
    """Build a :class:`CodecConfig` from a config file; missing keys keep defaults."""
    parsed = parse_config(path)
    try:
        if "matrix" in parsed:
            parsed["matrix"] = MixingMatrix(parsed["matrix"])
        return CodecConfig(**parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
