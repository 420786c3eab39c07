"""Sparse-recovery decoder core.

When at most m-1 of the n sources are active at a sample, the observed
m-vector for that sample lies in the hyperplane of R^m spanned by the
corresponding m-1 columns of the mixing matrix. There are C(n, m-1) such
hyperplanes and the matrix is known, so recovery is: find the hyperplane
nearest to each observed column, solve for the coefficients on its
spanning columns, and place them at the matching source indices (zeros
elsewhere). Each hyperplane is held as its unit normal, so one matrix
product measures every column against every plane (the hyperplane
clustering view of sparse component analysis; Georgiev, Theis & Cichocki,
IEEE TNN 2005).

Real coefficients are only approximately sparse, so classification works on
the relative residual against a tolerance ``tau``, and columns that miss
every subspace are still assigned to the nearest one, flagged ``forced``.

A column's result does not depend on what else is in the call: stacked
groups keep their own zero thresholds, a piece of a group can be given the
whole group's peak column norms, and every product goes through BLAS gemm
(never gemv), whose bits for a column do not depend on its position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixcore import DEFAULT_ZERO_EPS, MixingMatrix, _freeze, column_subsets

# The percents at which :meth:`RecoveryStats.residual_quantiles` reports.
QUANTILE_PERCENTS = (0, 25, 50, 75, 100)


@dataclass(frozen=True, eq=False)
class HyperplaneSet:
    """All C(n, m-1) candidate hyperplanes of R^m, in lexicographic index order.

    Plane q is spanned by the matrix columns ``index_sets[q]`` (a row of a
    (C, m-1) array). ``normals[q]`` is its unit normal, so the distance from
    a column x to the plane is |normals[q] . x|, and ``coefficient_maps[q]``
    is the (m-1, m) map (B^T B)^-1 B^T that takes an in-plane column to its
    coefficients on the spanning columns B. ``sources`` is n, the length of
    a recovered column.
    """

    index_sets: np.ndarray
    normals: np.ndarray
    coefficient_maps: np.ndarray
    sources: int

    @property
    def count(self) -> int:
        return self.normals.shape[0]

    @property
    def dimension(self) -> int:
        """Ambient dimension m (length of observed columns)."""
        return self.normals.shape[1]

    def classify(self, columns) -> tuple[np.ndarray, np.ndarray]:
        """Nearest plane of each column of an (m, T) array, and its distance.

        Ties break toward the smallest plane index, as with ``argmin``;
        reconstruction does not depend on the choice because tied planes
        contain the column jointly. Labels are one byte (``uint8``) while
        there are at most 256 planes, ``intp`` beyond.
        """
        distances = _gemm(self.normals, columns)
        np.abs(distances, out=distances)
        # A running first minimum over the few planes, every pass into reused
        # buffers: np.argmin along axis 0 walks the (C, T) array column by
        # column and costs several times more.
        labels = np.uint8 if self.count <= 256 else np.intp
        t = distances.shape[1]
        best = np.zeros(t, dtype=labels)
        nearest = distances[0].copy()
        closer = np.empty(t, dtype=bool)
        label = np.empty(t, dtype=labels)
        for q in range(1, self.count):
            np.less(distances[q], nearest, out=closer)  # strict: the earlier plane keeps a tie
            # every label so far is below q, so the maximum takes q where closer
            np.maximum(best, np.multiply(closer, q, out=label, dtype=labels), out=best)
            np.minimum(nearest, distances[q], out=nearest)
        return best, nearest


def _gemm(a, b) -> np.ndarray:
    """``a @ b`` for a 2-D ``a`` and an (..., k, T) ``b``, always through BLAS gemm.

    numpy hands a product with one row or one column to BLAS gemv, whose
    last bits differ from gemm's, while gemm gives a column the same bits
    wherever it sits in the product. So a one-row ``a`` or a one-column
    ``b`` is doubled to two and the copy dropped from the result: a column
    recovers to the same bits in a piece of a group as in the whole group.
    """
    rows, cols = a.shape[0], b.shape[-1]
    if rows == 1:
        a = np.concatenate((a, a))
    if cols == 1:
        b = np.concatenate((b, b), axis=-1)
    return (a @ b)[..., :rows, :cols]


def build_hyperplanes(matrix: MixingMatrix) -> HyperplaneSet:
    """Enumerate the hyperplanes spanned by every size-(m-1) column subset.

    Validation makes every m-1 columns independent, so each subset spans a
    hyperplane, and its normal is the left-singular vector of the spanning
    columns that lies outside their range.
    """
    index_sets = column_subsets(matrix.cols, matrix.rows - 1)
    bases = matrix.entries[:, index_sets].transpose(1, 0, 2)  # (C, m, m-1)
    bases_t = bases.transpose(0, 2, 1)
    return HyperplaneSet(
        index_sets=index_sets,
        normals=_freeze(np.linalg.svd(bases)[0][:, :, -1]),
        coefficient_maps=_freeze(np.linalg.solve(bases_t @ bases, bases_t)),
        sources=matrix.cols,
    )


def check_tau(tau: float) -> None:
    """Reject a residual tolerance that is negative, infinite or NaN."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


@dataclass(frozen=True, eq=False)
class RecoveryStats:
    """Column census of a recovery run.

    ``residuals`` holds the relative residual of every non-zero column in
    column order; quantiles are derived from it on demand so that stats
    from several runs can be pooled without losing information.
    ``group_residuals`` counts the residuals of each group in turn (one
    group holding them all when not given), so the residual array can be
    cut per group. ``peak`` is the largest column norm the run saw (0.0
    when it saw none) and ``floor`` the smallest norm among the columns it
    counted non-zero (inf when none), so a caller can tell whether a higher
    zero threshold would have zeroed any of them.
    """

    total_columns: int
    zero_columns: int
    clean_columns: int
    forced_columns: int
    residuals: np.ndarray
    peak: float = 0.0
    floor: float = math.inf
    group_residuals: np.ndarray | None = None

    def __post_init__(self):
        if self.group_residuals is None:
            object.__setattr__(self, "group_residuals", np.array([self.residuals.size]))

    def residual_quantiles(self) -> tuple[float, ...]:
        """The residuals at each percent of :data:`QUANTILE_PERCENTS`; empty when there are none."""
        if self.residuals.size == 0:
            return ()
        return tuple(float(v) for v in np.quantile(self.residuals, np.divide(QUANTILE_PERCENTS, 100)))

    @classmethod
    def merged(cls, parts) -> "RecoveryStats":
        """One census of several, their residuals and per-group counts part after part."""
        parts = list(parts)
        if not parts:
            return cls(0, 0, 0, 0, np.empty(0), group_residuals=np.empty(0, dtype=np.intp))
        return cls(
            total_columns=sum(p.total_columns for p in parts),
            zero_columns=sum(p.zero_columns for p in parts),
            clean_columns=sum(p.clean_columns for p in parts),
            forced_columns=sum(p.forced_columns for p in parts),
            residuals=np.concatenate([p.residuals for p in parts]),
            peak=max(p.peak for p in parts),
            floor=min(p.floor for p in parts),
            group_residuals=np.concatenate([p.group_residuals for p in parts]),
        )


def _columns(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, norms and group peaks of an (m, T) or stacked (G, m, T) input.

    The columns come as one (m, G*T) array, group after group, their norms
    as (G, T) and each group's largest norm as (G,). The columns are a view
    of a 2-D input and of a stacked one laid out as (m, G, T) in memory
    (``x.transpose(1, 0, 2)`` C-contiguous), else a copy. Rejects non-finite
    observations, which the peaks reveal.
    """
    groups = x.shape[0] if x.ndim == 3 else 1
    columns = x if x.ndim == 2 else x.transpose(1, 0, 2).reshape(x.shape[1], -1)
    # Squares added row by row, then the root, in one buffer: the bits of
    # linalg.norm(axis=0) on C-ordered columns, without its (m, G*T)
    # temporary of squares. For m >= 8 numpy's pairwise sum gives a
    # one-column or Fortran-ordered input other bits; this sum does not
    # depend on the layout.
    norms = np.multiply(columns[0], columns[0])
    square = np.empty_like(norms)
    for row in columns[1:]:
        norms += np.multiply(row, row, out=square)
    norms = np.sqrt(norms, out=norms).reshape(groups, x.shape[-1])
    peaks = norms.max(axis=1, initial=0.0)
    if not np.isfinite(peaks).all():
        raise ValueError("mixed coefficients must be finite")
    return columns, norms, peaks


def recover_block(planes: HyperplaneSet, mixed, tau: float, peaks=None) -> tuple[np.ndarray, RecoveryStats]:
    """Recover an (n, T) sparse source matrix from (m, T) observations.

    ``planes`` is the :class:`HyperplaneSet` of the mixing matrix. Columns
    are classified independently (vectorized over T); columns whose norm is
    at most 1e-12 times the largest in their group short-circuit to zero.
    Always returns an assignment for every column; tolerance misses only
    raise the ``forced`` count.

    A stacked (G, m, T) input is G independent groups, each with its own
    zero threshold, and gives a (G, n, T) result and one census over all
    groups (residuals in group order, ``group_residuals`` of them per
    group): the same bits as G separate calls. ``peaks`` gives the largest
    column norm of each whole group when the call sees only a piece of its
    groups (a (G,) array, (1,) for 2-D input); the pieces of a group then
    recover to the bits of one call on the whole. Observations must be
    finite.

    The observations are not read once the kept columns are gathered, and
    the call drops its references to them there: when the caller handed
    over its only reference, their memory is freed before the recovery's
    own temporaries are made (on CPython 3.11 and later; 3.10 keeps a
    call's arguments alive until it returns).
    """
    check_tau(tau)
    x = np.asarray(mixed, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("mixed coefficients must be (m, T) or stacked (G, m, T)")
    if x.shape[-2] != planes.dimension:
        raise ValueError(f"mixed matrix has {x.shape[-2]} rows, matrix expects {planes.dimension}")
    columns, norms, own = _columns(x)
    if peaks is None:
        peaks = own
    else:
        peaks = np.asarray(peaks, dtype=np.float64)
        if peaks.shape != own.shape or not np.isfinite(peaks).all() or not (peaks >= own).all():
            raise ValueError(f"peaks must be {len(own)} finite norms, each at least its group's own")
    groups, t = norms.shape
    active_cols = np.flatnonzero(norms > DEFAULT_ZERO_EPS * peaks[:, None])
    # take gathers along the column axis several times faster than boolean
    # indexing or compress do
    norms = norms.take(active_cols)  # only the kept columns' norms are used again
    xa = columns.take(active_cols, axis=1)
    stacked = x.ndim == 3
    del columns, x, mixed  # see the docstring; a copy of stacked input not laid out (m, G, T)
    best, relative = planes.classify(xa)
    relative /= norms
    forced = int(np.count_nonzero(relative > tau))

    recovered = np.zeros((planes.sources, groups * t))
    mine = np.empty(best.shape, dtype=bool)
    for q in range(planes.count):
        sel = np.flatnonzero(np.equal(best, q, out=mine))
        if sel.size:
            recovered[planes.index_sets[q][:, None], active_cols.take(sel)] = _gemm(
                planes.coefficient_maps[q], xa.take(sel, axis=1)
            )
    if stacked:
        recovered = recovered.reshape(planes.sources, groups, t).transpose(1, 0, 2)

    stats = RecoveryStats(
        total_columns=groups * t,
        zero_columns=groups * t - active_cols.size,
        clean_columns=active_cols.size - forced,
        forced_columns=forced,
        residuals=relative,
        peak=float(own.max(initial=0.0)),
        floor=float(norms.min(initial=math.inf)),
        group_residuals=np.diff(np.searchsorted(active_cols, np.arange(groups + 1) * t)),
    )
    return recovered, stats


def recover_dense(pseudo_inverse, mixed) -> np.ndarray:
    """Minimum-norm dense recovery y = A+ x, used for the non-sparse band.

    ``mixed`` is (m, T) or a stack (..., m, T) of independent groups.
    """
    pinv = np.asarray(pseudo_inverse, dtype=np.float64)
    x = np.asarray(mixed, dtype=np.float64)
    if pinv.ndim != 2 or x.ndim < 2 or pinv.shape[1] != x.shape[-2]:
        raise ValueError(
            f"shape mismatch: pseudo-inverse {pinv.shape} against observations {x.shape}"
        )
    return _gemm(pinv, x)
