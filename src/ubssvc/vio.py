"""Frame and container I/O.

Frames travel as binary 8-bit PGM (``P5``, maxval 255) or headerless
raw-planar dumps. Encoded streams persist in a little-endian container:

    bytes 0-3    magic ``UBSS``
    byte  4      version (1)
    byte  5      quantization mode (0 float, 1 affine-8bit)
    bytes 6-7    m (u16)
    bytes 8-9    n (u16)
    bytes 10-13  width (u32)
    bytes 14-17  height (u32)
    bytes 18-21  mixed frame count (u32)
    byte  22     tail frame count (u8)
    bytes 23-38  scale, offset (two f64; zeros in float mode)
    ...          m*n matrix entries (f64, row-major)
    ...          mixed frames (f32 planes, or u8 in affine mode)
    ...          tail frames (u8 planes)

Writing then reading a container reproduces every field exactly, because
the encoder already snapped mixed values onto the storage grid. Sequences
are read into, and written from, one (count, height, width) float64 array.
"""
from __future__ import annotations

import glob
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .mixcore import MixingMatrix, _read_only, as_sequence, snap_to_8bit
from .pipeline import QUANT_AFFINE, QUANT_FLOAT, EncodedSequence

MAGIC = b"UBSS"
VERSION = 1
MAX_TAIL = 255  # the tail count is a u8 header field
_HEADER = struct.Struct("<4sBBHHIIIBdd")
_QUANT_CODE = {QUANT_FLOAT: 0, QUANT_AFFINE: 1}
_QUANT_NAME = {code: name for name, code in _QUANT_CODE.items()}

# One header token after any whitespace and "#" comments (a comment runs
# to the end of its line, as netpbm allows).
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")

PGM_SEQUENCE = "pgm-sequence"
RAW_PLANAR = "raw-planar"


class ContainerError(ValueError):
    """Malformed or inconsistent container bytes."""


@dataclass(frozen=True, eq=False)
class SequenceSource:
    """A loaded sequence: read-only (count, height, width) frames and their format."""

    frames: np.ndarray
    origin: str

    @property
    def count(self) -> int:
        return len(self.frames)


def _read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    tokens = []
    while len(tokens) < 4:
        match = _PGM_TOKEN.match(data, pos)
        if not match.group(1):
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(match.group(1))
        pos = match.end()
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (expected P5)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval 255, got {maxval})")
    if not data[pos : pos + 1].isspace():
        raise ValueError(f"{path}: malformed PGM header (maxval must end with one whitespace byte)")
    pos += 1
    payload = data[pos : pos + width * height]
    if len(payload) != width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM dimensions must be positive")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def _write_pgm(plane: np.ndarray, path) -> None:
    height, width = plane.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(snap_to_8bit(plane).astype(np.uint8).tobytes())


def _format_pattern(pattern: str, i: int) -> str:
    """Substitute frame index ``i`` into a ``{i}`` path pattern."""
    try:
        return pattern.format(i=i)
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(
            f"bad frame pattern {pattern!r} ({type(exc).__name__}: {exc}); "
            "use a single {i} field such as {i:04d}"
        ) from exc


def _expand_pattern(pattern: str) -> list[str]:
    if "{" in pattern:
        paths = []
        i = 0
        while True:
            candidate = _format_pattern(pattern, i)
            if not os.path.exists(candidate):
                break
            paths.append(candidate)
            i += 1
        return paths
    if any(ch in pattern for ch in "*?["):
        return sorted(glob.glob(pattern))
    if os.path.isdir(pattern):
        return sorted(
            os.path.join(pattern, name)
            for name in os.listdir(pattern)
            if name.lower().endswith(".pgm")
        )
    return [pattern] if os.path.exists(pattern) else []


def read_sequence(path_or_pattern, *, width=None, height=None, count=None) -> SequenceSource:
    """Load a frame sequence.

    With ``width`` and ``height`` given, the path is one raw-planar file of
    8-bit planes (``count`` inferred from the size when omitted). Otherwise
    the argument is a PGM file, a glob/``{i}`` pattern, or a directory.
    """
    if (width is None) != (height is None):
        raise ValueError("raw input needs both width and height")
    if width is not None:
        if width < 1 or height < 1:
            raise ValueError("raw dimensions must be positive")
        with open(path_or_pattern, "rb") as fh:
            data = fh.read()
        plane_size = width * height
        if count is None:
            if len(data) % plane_size:
                raise ValueError(
                    f"{path_or_pattern}: size {len(data)} is not a multiple of {plane_size}"
                )
            count = len(data) // plane_size
        if len(data) < count * plane_size:
            raise ValueError(f"{path_or_pattern}: truncated raw payload")
        if not count:
            raise ValueError(f"{path_or_pattern}: no frames")
        codes = np.frombuffer(data, dtype=np.uint8, count=count * plane_size)
        frames = codes.reshape(count, height, width).astype(np.float64)
        return SequenceSource(frames=_read_only(frames), origin=RAW_PLANAR)

    paths = _expand_pattern(str(path_or_pattern))
    if not paths:
        raise ValueError(f"no frames match {path_or_pattern!r}")
    planes = [_read_pgm(p) for p in paths]
    h, w = planes[0].shape
    for p, plane in zip(paths, planes):
        if plane.shape != (h, w):
            raise ValueError(f"{p}: dimensions {plane.shape[1]}x{plane.shape[0]} drift from {w}x{h}")
    frames = np.stack(planes).astype(np.float64)
    return SequenceSource(frames=_read_only(frames), origin=PGM_SEQUENCE)


def write_sequence(frames, pattern: str) -> list[str]:
    """Write frames as 8-bit PGM files; returns the paths written.

    Values are clamped to [0, 255] and rounded half away from zero. The
    pattern may contain an ``{i}`` format field; otherwise an index suffix
    is inserted before the extension.
    """
    frames = as_sequence(frames)
    if "{" not in pattern:
        stem, ext = os.path.splitext(pattern)
        pattern = stem + "-{i:04d}" + (ext or ".pgm")
    paths = []
    for i, plane in enumerate(frames):
        path = _format_pattern(pattern, i)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        _write_pgm(plane, path)
        paths.append(path)
    return paths


def sequence_stream_bytes(frames) -> bytes:
    """Concatenated 8-bit planes (frame-major, row-major) of a sequence."""
    return b"".join(snap_to_8bit(plane).astype(np.uint8) for plane in as_sequence(frames))


def mixed_stream_bytes(enc: EncodedSequence) -> bytes:
    """The raw payload the downstream codec sees: mixed frames plus tail.

    Affine mode yields one byte per pixel; float mode four (f32).
    """
    if enc.quantization == QUANT_AFFINE:
        codes = enc.mixed_frames - enc.offset
        codes /= enc.scale
        codes += 0.5
        mixed = np.clip(np.floor(codes, out=codes), 0, 255, out=codes).astype(np.uint8)
    else:
        mixed = enc.mixed_frames.astype("<f4")
    # join copies each array's buffer once; tobytes and + would copy twice
    return b"".join((mixed, snap_to_8bit(enc.tail_frames).astype(np.uint8)))


def write_container(enc: EncodedSequence, path) -> None:
    """Serialize an encoded sequence; exact inverse of :func:`read_container`.

    Raises :class:`ContainerError` before the file is opened when the
    sequence does not fit the header fields.
    """
    if len(enc.tail_frames) > MAX_TAIL:
        raise ContainerError(
            f"{path}: a tail of {len(enc.tail_frames)} frames does not fit the "
            f"container's u8 tail count (at most {MAX_TAIL})"
        )
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _QUANT_CODE[enc.quantization],
        enc.matrix.rows,
        enc.matrix.cols,
        enc.width,
        enc.height,
        len(enc.mixed_frames),
        len(enc.tail_frames),
        enc.scale,
        enc.offset,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(enc.matrix.entries.astype("<f8").tobytes())
        fh.write(mixed_stream_bytes(enc))


def read_container(path) -> EncodedSequence:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ContainerError(f"{path}: shorter than the fixed header")
    magic, version, quant_code, m, n, width, height, mixed_count, tail_count, scale, offset = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ContainerError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"{path}: unsupported version {version}")
    if quant_code not in _QUANT_NAME:
        raise ContainerError(f"{path}: unknown quantization code {quant_code}")
    quantization = _QUANT_NAME[quant_code]
    if mixed_count == 0 or (m and mixed_count % m):
        raise ContainerError(
            f"{path}: mixed count {mixed_count} is not a positive multiple of m = {m}"
        )
    if tail_count >= n:
        raise ContainerError(f"{path}: tail count {tail_count} not below n = {n}")

    plane_size = width * height
    mixed_item = 1 if quantization == QUANT_AFFINE else 4
    expected = (
        _HEADER.size
        + m * n * 8
        + mixed_count * plane_size * mixed_item
        + tail_count * plane_size
    )
    if len(data) != expected:
        raise ContainerError(f"{path}: size mismatch (expected {expected} bytes, got {len(data)})")

    pos = _HEADER.size
    entries = np.frombuffer(data, dtype="<f8", count=m * n, offset=pos).reshape(m, n)
    pos += m * n * 8
    try:
        matrix = MixingMatrix(entries)
    except ValueError as exc:
        raise ContainerError(f"{path}: stored mixing matrix is invalid: {exc}") from exc

    mixed_dtype = np.uint8 if quantization == QUANT_AFFINE else "<f4"
    mixed = np.frombuffer(data, dtype=mixed_dtype, count=mixed_count * plane_size, offset=pos)
    mixed = mixed.astype(np.float64).reshape(mixed_count, height, width)
    if quantization == QUANT_AFFINE:
        mixed *= scale  # offset + scale * code, in place
        mixed += offset
    pos += mixed_count * plane_size * mixed_item
    tail = np.frombuffer(data, dtype=np.uint8, count=tail_count * plane_size, offset=pos)
    try:
        return EncodedSequence(
            matrix=matrix,
            width=width,
            height=height,
            quantization=quantization,
            scale=scale,
            offset=offset,
            mixed_frames=_read_only(mixed),
            tail_frames=_read_only(tail.astype(np.float64).reshape(tail_count, height, width)),
        )
    except ValueError as exc:
        raise ContainerError(f"{path}: inconsistent container: {exc}") from exc
