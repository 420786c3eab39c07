"""Core data model: frame sequences and the mixing matrix.

A sequence of frames is one (count, height, width) float64 array of finite
pixels, checked where it enters the codec: by :func:`as_sequence`, or, in
encode and score, which read each input once, by a shape check up front
and checks the pixels pass anyway. 8-bit integers appear only at the I/O
boundary. Mixed frames routinely exceed the [0, 255] source range (the
reference matrix has row sums up to 1.75), so nothing in here clamps.

A mixing matrix must be underdetermined (fewer rows than columns) and every
square submatrix of it must be nonsingular. That second condition is what
guarantees that any subset of its columns spans a full-rank subspace, which
the recovery stage in :mod:`ubssvc.sca` depends on. Construction also
bounds the condition number of the Gram matrix A A^T, which the decoder's
dense solve inverts, so a matrix that constructs is one the decoder can
use. :class:`MixingMatrix` construction is the one verdict on a matrix;
:func:`mixing_evidence` lists the numbers it is made from.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .wavelet import SLAB_BYTES

DEFAULT_ZERO_EPS = 1e-12
# Smallest |det| an m x m submatrix of a mixing matrix may have.
DET_FLOOR = 1e-9
# Largest condition number of the Gram matrix A A^T a mixing matrix may have.
GRAM_COND_BOUND = 1e12

# The error every entry point raises for a NaN or infinite pixel.
NOT_FINITE = "frame pixels must be finite"

# Threads that share out the tiles of an encode, a decode or a score: the
# CPUs this process may use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Reference 3x4 mixing matrix used as the default codec configuration.
# Row weights are deliberately spread out so each mixed frame blends the
# four sources differently.
DEFAULT_MATRIX_ENTRIES = (
    (0.50, 0.75, 0.25, 0.15),
    (0.40, 0.25, 0.10, 1.00),
    (0.45, 0.10, 0.85, 0.25),
)


def _freeze(values, dtype=np.float64) -> np.ndarray:
    return _read_only(np.array(values, dtype=dtype))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, without a copy."""
    arr.setflags(write=False)
    return arr


def snap_to_8bit(values) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero.

    Returns the uint8 codes. This is the definition of the 8-bit display
    domain used by serialization and tail-frame passthrough;
    :mod:`ubssvc.metrics` applies the same steps in place, in reused
    buffers.
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.floor(np.clip(arr, 0.0, 255.0) + 0.5).astype(np.uint8)


def all_finite(values: np.ndarray) -> bool:
    """Whether every value of a float array is finite, with no full-size temporary.

    Walks row slabs of about :data:`~ubssvc.wavelet.SLAB_BYTES`, in each
    one matrix-vector product that dots each row of the last axis with
    zeros: a finite value adds 0 to its row's result, NaN or +-inf make it
    NaN. So 1e308 passes, where a sum would overflow; the temporaries are
    one value per row, and numpy's aligned copy of a slab when ``values``
    is an unaligned view, such as a container's codes.
    """
    rows = values.reshape(-1, values.shape[-1])
    zeros = np.zeros(rows.shape[1], dtype=values.dtype)
    step = max(1, SLAB_BYTES // max(1, rows[:1].nbytes))
    # zeroed, because BLAS may scale the output buffer by beta = 0 and keep a NaN
    out = np.zeros(len(rows), dtype=values.dtype)
    with np.errstate(invalid="ignore"):
        for top in range(0, len(rows), step):
            np.matmul(rows[top : top + step], zeros, out=out[top : top + step])
    return bool(np.isfinite(out).all())


def as_sequence(frames) -> np.ndarray:
    """Check a frame sequence once and return it as a (count, H, W) float64 array.

    ``frames`` is a 3-D array or an iterable of equally sized 2-D planes. A
    C-contiguous float64 array passes through without a copy; every pixel
    must be finite.
    """
    arr = _to_sequence(frames)
    if not all_finite(arr):
        raise ValueError(NOT_FINITE)
    return arr


def _to_sequence(frames) -> np.ndarray:
    """:func:`as_sequence` without the finiteness scan: conversion and shape only."""
    if isinstance(frames, np.ndarray):
        arr = np.ascontiguousarray(frames, dtype=np.float64)
    else:
        planes = [np.asarray(p, dtype=np.float64) for p in frames]
        if not planes:
            raise ValueError("empty frame sequence")
        if len({p.shape for p in planes}) > 1:
            raise ValueError("all frames in a sequence must share dimensions")
        arr = np.stack(planes)
    if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError(
            f"a frame sequence must be a (count, height, width) array with positive "
            f"plane dimensions, got shape {arr.shape}"
        )
    return arr


def mixing_evidence(entries) -> tuple[list[tuple[tuple[int, ...], float]], float]:
    """What :class:`MixingMatrix` judges an (m, n) array by.

    Returns |det| of every m x m column submatrix, as (0-based column
    subset, magnitude) pairs in lexicographic subset order, and the
    condition number of the Gram matrix A A^T, infinite when A A^T is
    empty (m = 0) or overflows.
    """
    m, n = entries.shape
    with np.errstate(invalid="ignore"):  # non-finite entries give NaN, reported as is
        dets = [
            (cols, float(abs(np.linalg.det(entries[:, cols]))))
            for cols in itertools.combinations(range(n), m)
        ]
    gram = entries @ entries.T
    return dets, float(np.linalg.cond(gram)) if gram.size and np.isfinite(gram).all() else math.inf


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """The m x n mixing matrix, validated at construction.

    Construction fails unless 2 <= m < n, all entries are finite, every
    m x m submatrix has |det| above :data:`DET_FLOOR`, and the Gram matrix
    A A^T has a condition number of at most :data:`GRAM_COND_BOUND`, so
    that :func:`generalized_inverse` can solve with it.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("mixing matrix must be 2-D")
        m, n = arr.shape
        if m >= n:
            raise ValueError(f"matrix must be underdetermined: rows ({m}) must be < columns ({n})")
        if m < 2:
            raise ValueError("mixing matrix needs at least 2 rows")
        if not np.isfinite(arr).all():
            raise ValueError("mixing matrix entries must be finite")
        dets, gram_cond = mixing_evidence(arr)
        worst = min(dets, key=lambda item: item[1])
        if not worst[1] > DET_FLOOR:
            raise ValueError(
                f"mixing matrix has a near-singular square submatrix: columns {worst[0]} "
                f"give |det| = {worst[1]:.3e} (floor {DET_FLOOR:g})"
            )
        # the decoder's LL solve inverts the Gram matrix
        if not gram_cond <= GRAM_COND_BOUND:
            raise ValueError("mixing matrix rows are numerically dependent")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def default_mixing_matrix() -> MixingMatrix:
    """The built-in 3x4 reference matrix (mixes 4 source frames into 3)."""
    return MixingMatrix(DEFAULT_MATRIX_ENTRIES)


def generalized_inverse(matrix: MixingMatrix) -> np.ndarray:
    """Minimum-norm right inverse A+ = A^T (A A^T)^-1, as an (n, m) array.

    Computed by normal equations on the m x m Gram matrix; m is tiny here
    and the construction-time validation bounds the Gram matrix's condition
    number. Satisfies A @ A+ = I to machine precision.
    """
    gram = matrix.entries @ matrix.entries.T
    return np.linalg.solve(gram, matrix.entries).T
