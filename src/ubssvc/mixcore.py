"""Core data model: frame sequences and the mixing matrix.

A sequence of frames is one (count, height, width) float64 array of finite
pixels, checked where it enters the codec: by :func:`as_sequence`, or, in
encode and score, which read each input once, by a shape check up front
and checks the pixels pass anyway. 8-bit integers appear only at the I/O
boundary. Mixed frames routinely exceed the [0, 255] source range (the
reference matrix has row sums up to 1.75), so nothing in here clamps.

A mixing matrix must be underdetermined (fewer rows m than columns n) and
each of its m x m submatrices must be nonsingular; smaller ones may be
singular, as a zero entry is. That second condition is what guarantees
that any m or fewer of its columns span a full-rank subspace, which the
recovery stage in :mod:`ubssvc.sca` depends on. Construction also
bounds the condition number of the Gram matrix A A^T, which the decoder's
dense solve inverts, so a matrix that constructs is one the decoder can
use. :func:`mixing_fault` is the one verdict on a matrix, which construction
raises; :func:`mixing_evidence` lists the numbers it is made from.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .wavelet import _slabs

# Smallest |det| an m x m submatrix of a mixing matrix may have.
DET_FLOOR = 1e-9
# Largest condition number of the Gram matrix A A^T a mixing matrix may have.
GRAM_COND_BOUND = 1e12
# Most float64s the C(n, m) m x m submatrices of an m x n mixing matrix, or
# the decoder's C(n, m-1) m x (m-1) hyperplane bases, may take. Checked
# before either is enumerated, so a container header cannot ask for hours
# of determinants or gigabytes of bases; 2x362 and 4x26 are the widest
# 2- and 4-row shapes that pass.
SUBSET_BOUND = 1 << 18

# The error every entry point raises for a NaN or infinite pixel.
NOT_FINITE = "frame pixels must be finite"

# Reference 3x4 mixing matrix used as the default codec configuration.
# Row weights are deliberately spread out so each mixed frame blends the
# four sources differently.
DEFAULT_MATRIX_ENTRIES = (
    (0.50, 0.75, 0.25, 0.15),
    (0.40, 0.25, 0.10, 1.00),
    (0.45, 0.10, 0.85, 0.25),
)


def _freeze(values) -> np.ndarray:
    return _read_only(np.array(values, dtype=np.float64))


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

    Walks the Haar transform's row slabs (:func:`~ubssvc.wavelet._slabs`),
    in each one matrix-vector product that dots each row of the last axis with
    zeros: a finite value adds 0 to its row's result, NaN or +-inf make it
    NaN. So 1e308 passes, where a sum would overflow; the temporaries are
    one value per row, and numpy's aligned copy of a slab when ``values``
    is an unaligned view, such as a container's codes.
    """
    rows = values.reshape(-1, values.shape[-1])
    zeros = np.zeros(rows.shape[1], dtype=values.dtype)
    # zeroed, because BLAS may scale the output buffer by beta = 0 and keep a NaN
    out = np.zeros(len(rows), dtype=values.dtype)
    with np.errstate(invalid="ignore"):
        for slab in _slabs(rows):
            np.matmul(rows[slab], zeros, out=out[slab])
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


def column_subsets(n: int, k: int) -> np.ndarray:
    """Every k-column subset of n columns: a read-only (C(n, k), k) ``intp`` array in lexicographic order."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return _read_only(np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k))


def mixing_evidence(entries) -> tuple[np.ndarray, np.ndarray, float]:
    """What :func:`mixing_fault` judges an (m, n) array by.

    Returns the :func:`column_subsets` of its m x m submatrices, the |det|
    of each from one stacked call (NaN for non-finite entries), and the
    condition number of A A^T, infinite when that is empty (m = 0) or
    overflows. Raises ``ValueError``, before it enumerates anything, when
    the subsets or the decoder's hyperplane bases would hold more than
    :data:`SUBSET_BOUND` float64s.
    """
    m, n = entries.shape
    bases = math.comb(n, m - 1) * m * (m - 1) if m else 0
    if max(math.comb(n, m) * m * m, bases) > SUBSET_BOUND:
        raise ValueError(f"a {m}x{n} mixing matrix has too many column subsets to check (bound {SUBSET_BOUND})")
    subsets = column_subsets(n, m)
    with np.errstate(invalid="ignore"):  # non-finite entries give NaN, reported as is
        magnitudes = np.abs(np.linalg.det(entries[:, subsets].transpose(1, 0, 2)))
    gram = entries @ entries.T
    return subsets, magnitudes, float(np.linalg.cond(gram)) if gram.size and np.isfinite(gram).all() else math.inf


def mixing_fault(entries: np.ndarray, evidence=None) -> str | None:
    """Why :class:`MixingMatrix` refuses a float64 array, or ``None`` if it accepts it.

    ``evidence`` is :func:`mixing_evidence` of the same array, when the caller has it.
    """
    if entries.ndim != 2:
        return "mixing matrix must be 2-D"
    m, n = entries.shape
    if m >= n:
        return f"matrix must be underdetermined: rows ({m}) must be < columns ({n})"
    if m < 2:
        return "mixing matrix needs at least 2 rows"
    if not np.isfinite(entries).all():
        return "mixing matrix entries must be finite"
    subsets, magnitudes, gram_cond = mixing_evidence(entries) if evidence is None else evidence
    # the first smallest |det| by Python's min, to which a NaN is least only in first place
    worst = 0 if math.isnan(magnitudes[0]) else int(np.nanargmin(magnitudes))
    if not magnitudes[worst] > DET_FLOOR:
        return (
            f"mixing matrix has a near-singular square submatrix: columns {tuple(subsets[worst].tolist())} "
            f"give |det| = {float(magnitudes[worst]):.3e} (floor {DET_FLOOR:g})"
        )
    # the decoder's LL solve inverts the Gram matrix
    if not gram_cond <= GRAM_COND_BOUND:
        return "mixing matrix rows are numerically dependent"
    return None


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """The m x n mixing matrix; construction raises ``ValueError`` with :func:`mixing_fault`'s reason."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if fault := mixing_fault(arr):
            raise ValueError(fault)
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@functools.cache
def default_mixing_matrix() -> MixingMatrix:
    """The built-in 3x4 reference matrix (mixes 4 source frames into 3), built and validated once."""
    return MixingMatrix(DEFAULT_MATRIX_ENTRIES)


def generalized_inverse(matrix: MixingMatrix) -> np.ndarray:
    """Minimum-norm right inverse A+ = A^T (A A^T)^-1, as an (n, m) array.

    Computed by normal equations on the m x m Gram matrix; m is tiny here
    and the construction-time validation bounds the Gram matrix's condition
    number. Satisfies A @ A+ = I to machine precision.
    """
    gram = matrix.entries @ matrix.entries.T
    return np.linalg.solve(gram, matrix.entries).T
