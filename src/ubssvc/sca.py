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

A column's result does not depend on what else is in the call: its zero
test is its own norm against its own floor, and every product goes through
BLAS gemm (never gemv), whose bits for a column do not depend on its
position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixcore import MixingMatrix, _freeze, column_subsets

# The percents at which :meth:`RecoveryStats.residual_quantiles` reports,
# from 0 to 100.
QUANTILE_PERCENTS = (0, 25, 50, 75, 100)

# Residual histogram bins: eight per octave from 2^-64 to 2, and the bit
# pattern of 2^-64 shifted right by 49 (the biased exponent times 8).
RESIDUAL_BINS = 65 * 8
_LOWEST_KEY = (1023 - 64) << 3
# The first key of each bin, for np.add.reduceat over the counts of every
# key: bin 0 starts at key 0 and the last bin runs to the end.
_BIN_STARTS = np.r_[0, _LOWEST_KEY + 1 : _LOWEST_KEY + RESIDUAL_BINS]


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


def _norms(x) -> np.ndarray:
    """The Euclidean norms of the columns of an (..., m, T) array, as (..., T).

    Squares added row by row, then the root, in one buffer: the bits of
    ``linalg.norm(axis=-2)`` on C-ordered columns, without its temporary of
    every square. For m >= 8 numpy's pairwise sum gives a one-column or
    Fortran-ordered input other bits; this sum does not depend on the
    layout. Both sides of the decoder's zero rule, a detail column's norm
    and its cell's LL norm, come from here, so their bits agree.
    """
    norms = np.multiply(x[..., 0, :], x[..., 0, :])
    square = np.empty_like(norms)
    for i in range(1, x.shape[-2]):
        norms += np.multiply(x[..., i, :], x[..., i, :], out=square)
    return np.sqrt(norms, out=norms)


def check_tau(tau: float) -> None:
    """Reject a residual tolerance that is negative, infinite or NaN."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")


@dataclass(frozen=True, eq=False)
class RecoveryStats:
    """Column census of a recovery run, in memory that does not grow with it.

    ``histogram`` counts the relative residuals of the non-zero columns in
    ``RESIDUAL_BINS`` bins, eight per octave from 2^-64 to 2, each octave
    cut at the float's top three mantissa bits: bin ``b`` holds the values
    from 2^(b//8 - 64) * (1 + (b%8)/8) up to the next bin's edge. Bin 0 also
    holds everything below 2^-64, exact zeros included, and the last bin
    everything from 2 up. ``lowest`` and ``highest`` are the exact smallest
    and largest residual (inf and -inf when there are none). Censuses of
    several runs pool by adding their histograms, so the quantiles that
    :meth:`residual_quantiles` reads are bin-accurate, while the exact
    extremes stay exact.
    ``group_residuals`` counts the residuals of each group in turn (one
    group holding them all when not given).
    """

    total_columns: int
    zero_columns: int
    clean_columns: int
    forced_columns: int
    histogram: np.ndarray
    lowest: float
    highest: float
    group_residuals: np.ndarray | None = None

    def __post_init__(self):
        if self.group_residuals is None:
            object.__setattr__(self, "group_residuals", np.array([self.histogram.sum()]))

    def residual_quantiles(self) -> tuple[float, ...]:
        """The residuals at each percent of :data:`QUANTILE_PERCENTS`; empty when there are none.

        The first and last, at 0 and 100%, are the exact ``lowest`` and
        ``highest``. Each other percent p reads the bin of the order
        statistic of rank floor(p (N-1) / 100) among the N residuals, and
        gives the bin's lower edge, or ``lowest`` where that is larger: a
        value in the same bin as that order statistic.
        """
        below = np.cumsum(self.histogram)
        count = int(below[-1])
        if not count:
            return ()
        ranks = [p * (count - 1) // 100 for p in QUANTILE_PERCENTS[1:-1]]
        edges = (max(self.lowest, _bin_edge(int(b))) for b in np.searchsorted(below, ranks, side="right"))
        return (self.lowest, *edges, self.highest)

    @classmethod
    def merged(cls, parts) -> "RecoveryStats":
        """One census of several: counts and histograms added, extremes pooled, per-group counts part after part.

        ``parts`` is read once, one part at a time, so a generator of
        censuses merges without holding them all.
        """
        total = zero = clean = forced = 0
        histogram = np.zeros(RESIDUAL_BINS, dtype=np.intp)
        lowest, highest = math.inf, -math.inf
        groups = [np.empty(0, dtype=np.intp)]
        for p in parts:
            total += p.total_columns
            zero += p.zero_columns
            clean += p.clean_columns
            forced += p.forced_columns
            histogram += p.histogram
            lowest, highest = min(lowest, p.lowest), max(highest, p.highest)
            groups.append(p.group_residuals)
        return cls(total, zero, clean, forced, histogram, lowest, highest, np.concatenate(groups))


def _bin_edge(b: int) -> float:
    """The lower edge of residual bin ``b``; 0 for bin 0, which holds everything below 2^-64 too."""
    return math.ldexp(1 + b % 8 / 8, b // 8 - 64) if b else 0.0


def _census(relative) -> dict:
    """The ``histogram``, ``lowest`` and ``highest`` of a float64 array of residuals, >= 0.

    A value's key is its float's exponent and top three mantissa bits, a
    right shift of 49 of its int64 view, so keys rise with the values and
    every key below 2^-64's falls in bin 0 and every key from 2's up in the
    last bin. One ``bincount`` counts each key, with no offset or clip, and
    one ``reduceat`` folds those counts into the bins. The shift works in
    ``relative``'s own buffer, whose values are lost.
    """
    lowest, highest = float(relative.min(initial=math.inf)), float(relative.max(initial=-math.inf))
    keys = relative.view(np.int64)
    keys >>= 49
    counts = np.bincount(keys, minlength=_LOWEST_KEY + RESIDUAL_BINS)
    return {"histogram": np.add.reduceat(counts, _BIN_STARTS), "lowest": lowest, "highest": highest}


def recover_block(planes: HyperplaneSet, mixed, tau: float, floor=0.0) -> tuple[np.ndarray, RecoveryStats]:
    """Recover an (n, T) sparse source matrix from (m, T) observations.

    ``planes`` is the :class:`HyperplaneSet` of the mixing matrix. Columns
    are classified independently (vectorized over T); a column whose norm
    is at most ``floor`` short-circuits to zero. ``floor`` broadcasts to one
    value per column, finite and non-negative; the default 0 zeroes exact
    zeros only. Always returns an assignment for every column; tolerance
    misses only raise the ``forced`` count. One stable sort of the kept
    columns' labels groups them by plane, so each plane's product and
    scatter read a slice of it rather than a pass over every column.

    A stacked (..., m, T) input is that many independent groups and gives
    an (..., n, T) result and one census over all groups, with
    ``group_residuals`` counting the residuals of each group: the same
    bits as one call per group, or per piece of a group given its slice of
    the floor, and the census those calls merge to. The relative residuals
    go into the census's histogram as they are found and are not kept.
    Observations must be finite.

    The observations are not read once the kept columns are gathered, and
    the call drops its references to them there: when the caller handed
    over its only reference, their memory is freed before the recovery's
    own temporaries are made.
    """
    check_tau(tau)
    x = np.asarray(mixed, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("mixed coefficients must be (m, T) or stacked (..., m, T)")
    if x.shape[-2] != planes.dimension:
        raise ValueError(f"mixed matrix has {x.shape[-2]} rows, matrix expects {planes.dimension}")
    floor = np.asarray(floor, dtype=np.float64)
    if not (floor.min(initial=0.0) >= 0 and math.isfinite(floor.max(initial=0.0))):
        raise ValueError("floor must hold finite norms >= 0")
    # The columns group after group, as one (m, G*T) array: a view when the
    # m axis leads in memory, as in a decode run's detail buffer, else a copy
    # (np.moveaxis, without its overhead).
    nd, lead, t = x.ndim, x.shape[:-2], x.shape[-1]
    columns = x.transpose(nd - 2, *range(nd - 2), nd - 1).reshape(x.shape[-2], -1)
    norms = _norms(columns).reshape(*lead, t)
    if not math.isfinite(norms.max(initial=0.0)):
        raise ValueError("mixed coefficients must be finite")
    active = np.greater(norms, floor)  # a ValueError where floor does not broadcast
    if active.shape != norms.shape:
        raise ValueError(f"floor of shape {floor.shape} does not give one value per column of {norms.shape}")
    active_cols = active.reshape(-1).nonzero()[0]
    total = norms.size
    # take gathers along the column axis several times faster than boolean
    # indexing or compress do
    norms = norms.take(active_cols)  # only the kept columns' norms are used again
    xa = columns.take(active_cols, axis=1)
    del columns, x, mixed, active  # see the docstring; a copy of stacked input not laid out (m, ..., T)
    best, relative = planes.classify(xa)
    relative /= norms
    del norms
    forced = int(np.count_nonzero(relative > tau))
    census = _census(relative)  # overwrites relative
    del relative

    kept = best.size
    ends = active_cols.searchsorted(np.arange(math.prod(lead) + 1) * t)
    # each plane's columns in ascending order, gathered once into one run per
    # plane; numpy sorts one-byte labels by radix
    order = best.argsort(kind="stable")
    bounds = best.take(order).searchsorted(np.arange(planes.count + 1)).tolist()
    active_cols = active_cols.take(order)
    xa = xa.take(order, axis=1)
    recovered = np.zeros((planes.sources, total))
    for index_set, coefficients, start, stop in zip(planes.index_sets, planes.coefficient_maps, bounds, bounds[1:]):
        if start < stop:
            cols = active_cols[start:stop]
            # a 1-D scatter per source row takes numpy's one-index fast path,
            # about twice as fast as one (m-1, L) scatter of the plane
            for row, values in zip(index_set, _gemm(coefficients, xa[:, start:stop])):
                recovered[row][cols] = values

    stats = RecoveryStats(
        total_columns=total,
        zero_columns=total - kept,
        clean_columns=kept - forced,
        forced_columns=forced,
        **census,
        group_residuals=ends[1:] - ends[:-1],
    )
    return recovered.reshape(planes.sources, *lead, t).transpose(*range(1, nd - 1), 0, nd - 1), stats


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
