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
    ...          mixed frames (f32 planes, or u8 codes in affine mode)
    ...          tail frames (u8 planes)

An :class:`~ubssvc.pipeline.EncodedSequence` holds its mixed and tail
frames as these stored codes, so writing a container copies the two code
arrays out as they are, and reading one returns read-only views over the
bytes read: the file reproduces every field exactly, and nothing is
dequantized here. A sequence of frames is read into, and written from, one
(count, height, width) float64 array; read ones are read-only.
"""
from __future__ import annotations

import glob
import os
import re
import struct

import numpy as np

from .mixcore import MixingMatrix, _read_only, as_sequence, snap_to_8bit
from .pipeline import CODE_DTYPES, QUANT_AFFINE, QUANT_FLOAT, TAIL_DTYPE, EncodedSequence

MAGIC = b"UBSS"
VERSION = 1
MAX_TAIL = 255  # the tail count is a u8 header field
_HEADER = struct.Struct("<4sBBHHIIIBdd")
_QUANT_CODE = {QUANT_FLOAT: 0, QUANT_AFFINE: 1}
_QUANT_NAME = {code: name for name, code in _QUANT_CODE.items()}

# One header token after any whitespace and "#" comments (a comment runs
# to the end of its line, as netpbm allows).
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


class ContainerError(ValueError):
    """Malformed or inconsistent container bytes."""


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
        fh.write(snap_to_8bit(plane).tobytes())


def _format_pattern(pattern: str, i: int) -> str:
    """Substitute frame index ``i`` into a ``{i}`` path pattern."""
    try:
        return pattern.format(i=i)
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(
            f"bad frame pattern {pattern!r} ({type(exc).__name__}: {exc}); "
            "use a single {i} field such as {i:04d}"
        ) from exc


def _frame_path(paths: dict, pattern: str, i: int) -> str:
    """Frame ``i``'s path; a ValueError when ``paths`` (path -> index) holds it for an earlier frame."""
    path = _format_pattern(pattern, i)
    if path in paths:
        raise ValueError(f"frame pattern {pattern!r} gives frames {paths[path]} and {i} the same path {path!r}")
    return path


def _expand_pattern(pattern: str) -> list[str]:
    if "{" in pattern:
        paths: dict[str, int] = {}
        while os.path.exists(path := _frame_path(paths, pattern, len(paths))):
            paths[path] = len(paths)
        return list(paths)
    if any(ch in pattern for ch in "*?["):
        return sorted(glob.glob(pattern))
    if os.path.isdir(pattern):
        return sorted(
            os.path.join(pattern, name)
            for name in os.listdir(pattern)
            if name.lower().endswith(".pgm")
        )
    return [pattern] if os.path.exists(pattern) else []


def read_sequence(path_or_pattern, *, width=None, height=None, count=None) -> np.ndarray:
    """Load a frame sequence as a read-only (count, height, width) float64 array.

    With ``width`` and ``height`` given, the path is one raw-planar file of
    8-bit planes (``count``, at least 1, inferred from the size when
    omitted). Otherwise the argument is a PGM file, a glob/``{i}`` pattern,
    or a directory.
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
        if count < 1:
            raise ValueError(f"{path_or_pattern}: no frames (frame count {count})")
        if len(data) < count * plane_size:
            raise ValueError(f"{path_or_pattern}: truncated raw payload")
        codes = np.frombuffer(data, dtype=np.uint8, count=count * plane_size)
        return _read_only(codes.reshape(count, height, width).astype(np.float64))

    paths = _expand_pattern(str(path_or_pattern))
    if not paths:
        raise ValueError(f"no frames match {path_or_pattern!r}")
    planes = [_read_pgm(p) for p in paths]
    h, w = planes[0].shape
    for p, plane in zip(paths, planes):
        if plane.shape != (h, w):
            raise ValueError(f"{p}: dimensions {plane.shape[1]}x{plane.shape[0]} drift from {w}x{h}")
    return _read_only(np.stack(planes).astype(np.float64))


def write_sequence(frames, pattern: str) -> list[str]:
    """Write frames as 8-bit PGM files; returns the paths written.

    Values are clamped to [0, 255] and rounded half away from zero. The
    pattern may contain an ``{i}`` format field, which must give each frame
    its own path; otherwise an index suffix is inserted before the extension.
    """
    frames = as_sequence(frames)
    if "{" not in pattern:
        stem, ext = os.path.splitext(pattern)
        pattern = stem + "-{i:04d}" + (ext or ".pgm")
    # every path is checked before the first file is written
    paths: dict[str, int] = {}
    for i in range(len(frames)):
        paths[_frame_path(paths, pattern, i)] = i
    for plane, path in zip(frames, paths):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        _write_pgm(plane, path)
    return list(paths)


def sequence_stream_bytes(frames) -> bytes:
    """Concatenated 8-bit planes (frame-major, row-major) of a sequence."""
    return b"".join(snap_to_8bit(plane) for plane in as_sequence(frames))


def mixed_stream_bytes(enc: EncodedSequence) -> bytes:
    """The raw payload the downstream codec sees: mixed codes plus tail.

    Affine mode yields one byte per pixel; float mode four (f32).
    """
    # join copies each array's buffer once; tobytes and + would copy twice
    return b"".join((enc.mixed_codes, enc.tail_codes))


def write_container(enc: EncodedSequence, path) -> None:
    """Serialize an encoded sequence; exact inverse of :func:`read_container`.

    Raises :class:`ContainerError` before the file is opened when the
    sequence does not fit the header fields.
    """
    if len(enc.tail_codes) > MAX_TAIL:
        raise ContainerError(
            f"{path}: a tail of {len(enc.tail_codes)} frames does not fit the "
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
        len(enc.mixed_codes),
        len(enc.tail_codes),
        enc.scale,
        enc.offset,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(enc.matrix.entries.astype("<f8").tobytes())
        fh.write(enc.mixed_codes)
        fh.write(enc.tail_codes)


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
    mixed_dtype = CODE_DTYPES[quantization]
    mixed_bytes = mixed_count * plane_size * mixed_dtype.itemsize
    expected = _HEADER.size + m * n * 8 + mixed_bytes + tail_count * plane_size
    if len(data) != expected:
        raise ContainerError(f"{path}: size mismatch (expected {expected} bytes, got {len(data)})")

    pos = _HEADER.size
    entries = np.frombuffer(data, dtype="<f8", count=m * n, offset=pos).reshape(m, n)
    pos += m * n * 8
    try:
        matrix = MixingMatrix(entries)
    except ValueError as exc:
        raise ContainerError(f"{path}: stored mixing matrix is invalid: {exc}") from exc

    mixed = np.frombuffer(data, dtype=mixed_dtype, count=mixed_count * plane_size, offset=pos)
    pos += mixed_bytes
    tail = np.frombuffer(data, dtype=TAIL_DTYPE, count=tail_count * plane_size, offset=pos)
    try:
        return EncodedSequence(
            matrix=matrix,
            width=width,
            height=height,
            quantization=quantization,
            scale=scale,
            offset=offset,
            mixed_codes=mixed.reshape(mixed_count, height, width),
            tail_codes=tail.reshape(tail_count, height, width),
        )
    except ValueError as exc:
        raise ContainerError(f"{path}: inconsistent container: {exc}") from exc
