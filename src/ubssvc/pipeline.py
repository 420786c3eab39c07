"""Encode/decode orchestration.

A sequence travels as one (count, H, W) float64 array. A
:class:`CodecConfig` is the mixing matrix, whose columns and rows are the
group sizes n and m, tau and the quantization. Encoding partitions the
sequence into consecutive groups of n frames and mixes every group down to
m frames in the pixel domain; leftover frames (count mod n) pass through
unmixed as the tail. Decoding takes the matrix and quantization from the
encoded sequence and tau from the config, and recovers the sources task by
task: one Haar transform of the task's mixed frames, recovery of the three
sparse detail subbands by subspace classification, the low-frequency
subband by the generalized inverse, and one inverse transform written
straight into the output array. A detail column is zero when its norm is
at most ``DEFAULT_ZERO_EPS`` times the norm of the mixed LL column of its
own 2x2 cell, so every task holds its zero test and decodes once. A task
of whole groups recovers its three detail bands in one call when its
groups are of at most ``TILE`` pixels or the pass runs on the thread pool;
a row tile, and a whole larger group decoded inline, makes one call per
band, which holds less memory at once. The transforms are the plain
sum/difference Haar pair, without their halvings, and ``A+`` and the
coefficient maps are scaled by 1/4 once per decode instead: powers of two
commute with rounding, so this gives the bits of the orthonormal pair.

Both directions cut their work the same way, by :func:`_tasks`: a group of
more than ``TILE`` cells (pixels to encode, subband columns to decode) is
cut into row tiles, and groups of at most ``TILE`` pixels run in runs of
whole groups of about ``TILE`` pixels. When there are two or more usable
CPUs, tasks share a thread pool over them, by one rule each way: encode
pools the tasks of groups of more than ``TILE`` pixels (:func:`_pooled`)
and mixes runs of smaller groups inline; decode pools every pass of two
or more tasks, runs of small groups too, and runs a lone task inline.
A tile, like a whole group, decodes once: the zero test of a cell needs
nothing outside it, so tiles change no bit of the result.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .metrics import QualityReport, sequence_report
from .mixcore import (
    DEFAULT_ZERO_EPS,
    NOT_FINITE,
    WORKERS,
    MixingMatrix,
    _read_only,
    _to_sequence,
    all_finite,
    default_mixing_matrix,
    generalized_inverse,
    snap_to_8bit,
)
from .sca import (
    RecoveryStats,
    _gemm,
    _norms,
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
# TILE cells. CIF-size groups decode whole: on a 2-CPU host a 40-frame CIF
# decode took 92 ms in tiles of 16384 columns and 104 ms in tiles of 12288,
# against 90 ms whole. Smaller groups run in runs of whole groups of about
# TILE pixels; whole-sequence calls let the temporaries fall out of cache
# (CIF decode ran about 40% slower). Decode shares the runs out on WORKERS
# threads too: on 2 CPUs, 400 64x64 frames decoded in 28 ms in runs of 8
# groups against 38 ms inline (medians of 40 in-process alternations), in
# 44 ms in runs of 4 (the GIL and BLAS contend on small operations), and in
# 27 ms in runs of 16, whose traced peak was 3.7 MB higher (22.1 MB).
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

    The groups are mixed task by task, each task writing the codes of its
    pixels, so the mixed values never exist as one whole-sequence array. A
    group of more than ``TILE`` pixels is cut into row tiles of about
    ``TILE`` pixels (one a pixel high stays whole), and its tasks go to a
    pool of ``WORKERS`` threads (:func:`_pooled`); smaller groups are mixed
    inline, in runs of whole groups of about ``TILE`` pixels. Affine codes
    sit on a grid the matrix fixes, which holds the mixed values of every
    source in [0, 255], so each task mixes once and quantizes its own values.
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
        mixed = product(cfg.matrix.entries, piece.reshape(*piece.shape[:2], -1))
        return mixed.reshape(codes[task].shape)

    def store_float(task) -> None:
        # a value past float32 range casts to inf, which EncodedSequence rejects
        with np.errstate(over="ignore", invalid="ignore"):
            codes[task] = mix(task)

    def quantize(task) -> None:
        # code = floor((x - offset) / scale + 0.5), in place; the grid holds
        # the mixed values of sources in [0, 255], so the codes lie in
        # [0, 256), where the cast to uint8 truncates, which is floor
        piece = sources[task]
        if not (piece.min() >= 0.0 and piece.max() <= 255.0):  # NaN fails too
            raise ValueError("affine-8bit sources must lie in [0, 255]")
        mixed = mix(task)
        mixed -= offset
        mixed /= scale
        mixed += 0.5
        codes[task] = mixed

    store, scale, offset = store_float, 0.0, 0.0
    if cfg.quantization == QUANT_AFFINE:
        # for sources in [0, 255], row r of A s lies in [255 sum neg_r, 255 sum pos_r]
        rows = cfg.matrix.entries.tolist()
        offset = 255.0 * min(math.fsum(min(a, 0.0) for a in row) for row in rows)
        scale = (255.0 * max(math.fsum(max(a, 0.0) for a in row) for row in rows) - offset) / 255.0
        store = quantize
    with ThreadPoolExecutor(WORKERS) as pool:
        list((pool.map if _pooled(height, width) else map)(store, tasks))

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


def _pooled(height: int, width: int) -> bool:
    """Whether encode mixes the tasks of height x width groups on the thread pool.

    A group of more than ``TILE`` pixels goes to the pool of ``WORKERS``
    threads, cut into row tiles; smaller groups are mixed inline, in runs.
    On 2 CPUs the pool made runs of 64x64 groups slower (400 frames: 2.8
    -> 3.4 ms, medians of 60 in-process alternations). With one usable CPU
    every task runs inline.
    Decode pools by a rule of its own, in :func:`decode_sequence`.
    """
    return height * width > TILE and WORKERS > 1


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

    A pass of two or more tasks, row tiles, whole groups or runs of small
    groups, shares a pool of ``WORKERS`` threads when there are two or
    more; a lone task, and every task on one usable CPU, runs inline. A
    pooled decode needs a free second CPU to gain: 400 64x64 frames decode
    on the pool in about 46 ms of CPU time, against 38 ms inline. With
    one usable CPU a one-thread pool only adds cost (a 40-frame CIF decode
    took 108 ms inline against 125 ms pooled). A task of whole groups of
    at most ``TILE`` pixels, and on the pool any task of whole groups,
    recovers its three detail bands in one call: on the pool each numpy
    call costs about 10 us more while the interpreter lock changes hands,
    and one call for three bands makes a third of the calls. A row tile,
    and a whole group of more than ``TILE`` pixels decoded inline, makes
    one call per band, for memory, not time: three bands in one call hold
    about 40% more temporaries (a lone CIF group 1.78 -> 2.48 times the 8
    bytes a code, 720p x 8 tiles 0.11 -> 0.16 on one worker and 0.22 ->
    0.30 on two; traced hd decode peak 68.7 -> 72.2 MB), and would be
    faster (a 40-frame CIF decode on one CPU 18.0 -> 17.1 ms, a pooled
    720p x 8 decode 23.9 -> 21.7 ms; medians of in-process alternations).
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
    # three bands in one call cost memory: row tiles and inline groups of
    # more than TILE pixels recover one band a call (see the docstring)
    stack = tiles == 1 and (pooled or height * width <= TILE)

    def decode(task) -> RecoveryStats:
        return _decode_chunk(codes[task], affine, dest[task], planes, pinv, cfg.tau, stack)

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


def _decode_chunk(codes, affine, dest, planes, pinv, tau, stack) -> RecoveryStats:
    """Decode (k, m, h, W) mixed codes into the (k, n, h, W) array ``dest``.

    ``pinv`` and ``planes`` carry the ``A+`` and coefficient maps scaled
    by 1/4 that :func:`decode_sequence` pairs with the unhalved transforms.
    A detail column is zero when its norm is at most ``DEFAULT_ZERO_EPS``
    times its cell's mixed LL norm: one (k, T) floor, made once per task.

    The three detail bands are held in 3 // c buffers of shape (m, k, c,
    h/2, w/2), c = 3 with ``stack`` (whole groups, of at most ``TILE``
    pixels or pooled) and 1 otherwise. Each buffer is recovered in one
    call on its (k, c, m, T) view, whose columns that call reads without a
    copy, beside the floor as (k, 1, T), and goes into that call as the
    only reference to it, so that the call frees it once it has gathered
    the columns it keeps. The returned census counts the residuals per
    (group, band). A function of its own, so that one task's temporaries
    are freed before the next task allocates its own.

    Odd sides decode as if edge-padded to even: the transforms pad the
    codes and crop ``dest`` themselves, so each is called once.
    """
    k, m, height, width = codes.shape
    half = (-(-height // 2), -(-width // 2))
    c = 3 if stack else 1
    ll = np.empty((k, m, *half))
    details = [np.empty((m, k, c, *half)) for _ in range(3 // c)]
    bands = [ll, *(band for d in details for band in d.transpose(2, 1, 0, 3, 4))]
    convert = None if affine is None else lambda slab, values: _dequantize(slab, affine, values)
    haar_forward(codes, convert, bands, orthonormal=False)
    del bands  # its views would keep the detail buffers past their hand-over
    # each call's groups are the (group, band) planes in turn
    details = [d.reshape(m, k, c, -1).transpose(1, 2, 0, 3) for d in details]
    ll = ll.reshape(k, m, -1)
    recovered = [recover_dense(pinv, ll)]
    floor = _norms(ll)[:, None]
    floor *= DEFAULT_ZERO_EPS
    del ll
    stats = []
    while details:
        sources, census = recover_block(planes, details.pop(0), tau, floor)
        recovered.extend(sources.swapaxes(0, 1))
        stats.append(census)
    haar_inverse([r.reshape(k, -1, *half) for r in recovered], out=dest, orthonormal=False)
    # a lone census as it is: merging it would only copy it, in numpy calls
    # that wait for the interpreter lock on the pool (tiny decode 1-4% slower)
    return stats[0] if len(stats) == 1 else RecoveryStats.merged(stats)


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    quality: QualityReport
    recovery: RecoveryStats
    source_count: int
    mixed_count: int
    tail_count: int


def roundtrip_eval(frames, cfg: CodecConfig) -> RoundtripReport:
    """Encode, decode and score in memory; encode scans the source's tail, the score each slab."""
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


def parse_config(path) -> dict:
    """Parse a key-value config file into raw :class:`CodecConfig` values.

    Recognized keys: ``matrix`` (row-major whitespace-separated floats,
    returned as an uninterpreted (m, n) array), ``n`` and ``m`` (the
    matrix's shape, required with ``matrix``; without it, checked against
    the built-in matrix), ``tau``, ``quantization``. ``#``
    starts a comment. Only the keys present in the file appear in the
    result, and never ``n`` or ``m``. A key may be given once.
    """
    values, linenos = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
        rows, cols = default_mixing_matrix().entries.shape
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
