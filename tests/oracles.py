"""Independent reference implementations used as test oracles.

Deliberately written along different routes than the library: cofactor
expansion instead of LU determinants, classic Gram-Schmidt projections
instead of hyperplane normals, an explicit pair-loop transform instead of
the vectorized one, SVD (numpy.linalg.pinv) against the normal-equations
inverse, a per-column search over every subspace instead of the
vectorized recovery kernel, a frame-by-frame, block-by-block decode
instead of the chunked array pipeline, and a quantizer that handles one
Python scalar at a time instead of whole arrays. The exceptions are
:func:`det_magnitudes_loop`, the same LAPACK determinant one column subset
at a time, which the stacked call must match bit for bit, and
:func:`plane_scatter_recovery`, the library's own classification and
products scattered plane by plane, which the recovery kernel's one sort
by plane must match bit for bit.
"""
import itertools
import math
import struct

import numpy as np


def det_cofactor(matrix) -> float:
    """Determinant by direct cofactor expansion along the first row."""
    m = [list(map(float, row)) for row in matrix]
    k = len(m)
    if k == 1:
        return m[0][0]
    total = 0.0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += ((-1.0) ** j) * m[0][j] * det_cofactor(minor)
    return total


def det_magnitudes_loop(entries) -> list[tuple[tuple[int, ...], float]]:
    """|det| of every m x m column submatrix, one ``np.linalg.det`` call per subset.

    Returns (0-based column subset, magnitude) pairs in lexicographic subset
    order.
    """
    m, n = entries.shape
    with np.errstate(invalid="ignore"):
        return [(cols, float(abs(np.linalg.det(entries[:, cols])))) for cols in itertools.combinations(range(n), m)]


def gs_projection(columns, x) -> np.ndarray:
    """Orthogonal projection of x onto span(columns), classic Gram-Schmidt."""
    cols = np.asarray(columns, dtype=float)
    basis = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for u in basis:
            v -= np.dot(u, v) * u
        v /= np.linalg.norm(v)
        basis.append(v)
    x = np.asarray(x, dtype=float)
    proj = np.zeros_like(x)
    for u in basis:
        proj += np.dot(u, x) * u
    return proj


def lstsq_coefficients(columns, x) -> np.ndarray:
    """Least-squares coefficients of x against the given columns (SVD route)."""
    return np.linalg.lstsq(np.asarray(columns, dtype=float), np.asarray(x, dtype=float), rcond=None)[0]


def nearest_subspace_recovery(matrix, x, zero_eps=0.0):
    """Per-column sparse recovery by brute force over every (m-1)-column subset.

    Returns ``(recovered, index_set, relative_residual)``: the n-vector with
    the least-squares coefficients of the nearest subspace (Gram-Schmidt
    distance, first minimum wins) placed at its column indices, that index
    set, and the distance over ||x||. A column with ||x|| <= zero_eps
    recovers to zeros with index set ``None`` and residual 0.
    """
    a = np.asarray(matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    m, n = a.shape
    recovered = np.zeros(n)
    norm = float(np.linalg.norm(x))
    if norm <= zero_eps or norm == 0.0:
        return recovered, None, 0.0
    best_res, best_set = math.inf, None
    for index_set in itertools.combinations(range(n), m - 1):
        res = float(np.linalg.norm(x - gs_projection(a[:, index_set], x)))
        if res < best_res:
            best_res, best_set = res, index_set
    recovered[list(best_set)] = lstsq_coefficients(a[:, best_set], x)
    return recovered, best_set, best_res / norm


def haar2_reference(plane) -> dict:
    """One-level orthonormal 2-D Haar by explicit pair loops.

    Rows pass of sums and differences, then columns pass of those, halved:
    each coefficient is (+-a +-b +-c +-d) / 2, the orthonormal 1/sqrt2 twice.
    """
    a = np.asarray(plane, dtype=float)
    h, w = a.shape
    assert h % 2 == 0 and w % 2 == 0
    row_lo = np.empty((h, w // 2))
    row_hi = np.empty((h, w // 2))
    for r in range(h):
        for c in range(0, w, 2):
            row_lo[r, c // 2] = a[r, c] + a[r, c + 1]
            row_hi[r, c // 2] = a[r, c] - a[r, c + 1]
    out = {
        "ll": np.empty((h // 2, w // 2)),
        "lh": np.empty((h // 2, w // 2)),
        "hl": np.empty((h // 2, w // 2)),
        "hh": np.empty((h // 2, w // 2)),
    }
    for c in range(w // 2):
        for r in range(0, h, 2):
            out["ll"][r // 2, c] = (row_lo[r, c] + row_lo[r + 1, c]) * 0.5
            out["hl"][r // 2, c] = (row_lo[r, c] - row_lo[r + 1, c]) * 0.5
            out["lh"][r // 2, c] = (row_hi[r, c] + row_hi[r + 1, c]) * 0.5
            out["hh"][r // 2, c] = (row_hi[r, c] - row_hi[r + 1, c]) * 0.5
    return out


def haar2_inverse_reference(ll, lh, hl, hh) -> np.ndarray:
    """Inverse of :func:`haar2_reference` by explicit pair loops.

    Same arithmetic per pixel as the library (columns pass of sums and
    differences, then rows pass, halved), so the results agree bit for bit.
    """
    h, w = np.shape(ll)
    row_lo = np.empty((2 * h, w))
    row_hi = np.empty((2 * h, w))
    for r in range(h):
        for c in range(w):
            row_lo[2 * r, c] = ll[r, c] + hl[r, c]
            row_lo[2 * r + 1, c] = ll[r, c] - hl[r, c]
            row_hi[2 * r, c] = lh[r, c] + hh[r, c]
            row_hi[2 * r + 1, c] = lh[r, c] - hh[r, c]
    out = np.empty((2 * h, 2 * w))
    for r in range(2 * h):
        for c in range(w):
            out[r, 2 * c] = (row_lo[r, c] + row_hi[r, c]) * 0.5
            out[r, 2 * c + 1] = (row_lo[r, c] - row_hi[r, c]) * 0.5
    return out


def column_peaks(mixed) -> np.ndarray:
    """Largest column norm of each group of an (m, T) or stacked (G, m, T) input.

    A (G,) array, (1,) for 2-D input. A column at most 1e-12 of its
    (group, band)'s peak is zero under the whole-group rule, which the
    tests hold the decoder's cell-local rule to.
    """
    return np.atleast_1d(np.linalg.norm(mixed, axis=-2).max(axis=-1, initial=0.0))


def residual_bin(value) -> int:
    """The census bin of one residual >= 0, by ``math.frexp``.

    Eight bins per octave from 2^-64 to 2, each octave cut into eighths of
    its width: a value v = f * 2^e with f in [1, 2) lands in bin
    8 (e + 64) + floor(8 (f - 1)). Everything below 2^-64 lands in bin 0
    and everything from 2 up in the last bin, 519.
    """
    if value < 2.0**-64:
        return 0
    if value >= 2.0:
        return 519
    fraction, exponent = math.frexp(value)  # value = fraction * 2**exponent, fraction in [0.5, 1)
    return 8 * (exponent - 1 + 64) + int(8 * (2 * fraction - 1))


def residual_histogram(values) -> np.ndarray:
    """The 520-bin census histogram of residuals, one Python scalar at a time."""
    counts = [0] * 520
    for value in values:
        counts[residual_bin(float(value))] += 1
    return np.array(counts)


def plane_scatter_recovery(planes, mixed, tau, floor=0.0):
    """``recover_block`` with a plane-by-plane scatter and a census binned one scalar at a time.

    Each plane's columns are found by their own ``np.equal`` and
    ``np.flatnonzero`` pass over the labels of every kept column, in
    ascending order, in place of the library's one stable sort. The
    histogram comes from :func:`residual_histogram` and each group's
    residual count from a ``bincount`` of the kept columns' groups. The
    norms, the labels and each plane's coefficient product are the
    library's arithmetic (its squares added row by row, its ``classify``
    and its gemm, given C-ordered columns as the library gives them, for
    a transposed operand can change gemm's bits), so the recovered bits
    must match exactly. Returns the (..., n, T) result and the census as
    :func:`census_fields` gives it.
    """
    from ubssvc.sca import _gemm

    x = np.asarray(mixed, dtype=float)
    lead, (m, t) = x.shape[:-2], x.shape[-2:]
    columns = np.moveaxis(x, -2, 0).reshape(m, -1)
    norms = np.sqrt(sum(row * row for row in columns))
    active_cols = np.flatnonzero(norms > np.broadcast_to(floor, (*lead, t)).reshape(-1))
    xa = columns.take(active_cols, axis=1)
    best, distance = planes.classify(xa)
    relative = distance / norms[active_cols]
    recovered = np.zeros((planes.sources, norms.size))
    mine = np.empty(best.shape, dtype=bool)
    for q in range(planes.count):
        sel = np.flatnonzero(np.equal(best, q, out=mine))
        if sel.size:
            values = _gemm(planes.coefficient_maps[q], xa.take(sel, axis=1))
            recovered[planes.index_sets[q][:, None], active_cols[sel]] = values
    forced = int(np.count_nonzero(relative > tau))
    census = {
        "total": norms.size,
        "zero": norms.size - active_cols.size,
        "clean": active_cols.size - forced,
        "forced": forced,
        "histogram": residual_histogram(relative).tolist(),
        "lowest": float(relative.min(initial=math.inf)),
        "highest": float(relative.max(initial=-math.inf)),
        "group_residuals": np.bincount(active_cols // max(t, 1), minlength=math.prod(lead)).tolist(),
    }
    return np.moveaxis(recovered.reshape(planes.sources, *lead, t), 0, -2), census


def exact_quantiles(values, percents) -> tuple[float, ...]:
    """The order statistic of rank floor(p (N-1) / 100) of N values for each percent p; empty for none.

    Percents 0 and 100 give the exact minimum and maximum.
    """
    ordered = sorted(map(float, values))
    return tuple(ordered[p * (len(ordered) - 1) // 100] for p in percents) if ordered else ()


def census_fields(stats) -> dict:
    """A recovery census as plain values: its counts, histogram, extremes and per-group counts."""
    return {
        "total": stats.total_columns,
        "zero": stats.zero_columns,
        "clean": stats.clean_columns,
        "forced": stats.forced_columns,
        "histogram": stats.histogram.tolist(),
        "lowest": stats.lowest,
        "highest": stats.highest,
        "group_residuals": stats.group_residuals.tolist(),
    }


def mix_reference(entries, frames) -> np.ndarray:
    """Mix a (count, H, W) sequence block by block: one (n, T) product per group of n."""
    a = np.asarray(entries, dtype=float)
    m, n = a.shape
    frames = np.asarray(frames, dtype=float)
    count, h, w = frames.shape
    blocks = [a @ np.stack([f.ravel() for f in frames[b * n : (b + 1) * n]]) for b in range(count // n)]
    return np.concatenate(blocks).reshape(-1, h, w) if blocks else np.empty((0, h, w))


def quantize_reference(mixed, quantization):
    """Storage codes of mixed values, one Python scalar at a time.

    ``float-container``: each value rounded to the nearest float32 through
    ``struct``. ``affine-8bit``: offset = min, scale = (max - min) / 255 (1
    for a flat input), and code = the integer part of (x - offset) / scale
    + 0.5, at most 255. Returns ``(codes, scale, offset)``, the codes shaped
    like ``mixed``.
    """
    values = np.asarray(mixed, dtype=float)
    flat = [float(v) for v in values.ravel()]
    if quantization == "float-container":
        codes = [struct.unpack("<f", struct.pack("<f", v))[0] for v in flat]
        return np.array(codes, dtype=np.float32).reshape(values.shape), 0.0, 0.0
    lo, hi = min(flat), max(flat)
    scale = (hi - lo) / 255.0 if hi > lo else 1.0
    codes = [min(255, int((v - lo) / scale + 0.5)) for v in flat]
    return np.array(codes, dtype=np.uint8).reshape(values.shape), scale, lo


def decode_reference(enc, cfg):
    """Frame-by-frame decode of an ``EncodedSequence``, the per-frame route of old.

    Per block: edge-pad each mixed frame to even size, transform it alone,
    recover each detail band with one 2-D ``recover_block`` call and the ll
    band with one 2-D ``recover_dense`` product, then inverse-transform and crop
    frame by frame. A detail column is zero when its norm is at most 1e-12
    times the ``np.linalg.norm`` of its cell's ll column. Affine codes are
    dequantized frame by frame as ``offset + scale * code``. Returns the
    list of decoded planes and the list of per-call recovery stats.
    """
    from ubssvc import build_hyperplanes, generalized_inverse, recover_block, recover_dense

    m, n = cfg.matrix.rows, cfg.matrix.cols
    planes = build_hyperplanes(cfg.matrix)
    pinv = generalized_inverse(cfg.matrix)
    height, width = enc.height, enc.width
    affine = enc.quantization == "affine-8bit"
    decoded, stats = [], []
    for b in range(len(enc.mixed_codes) // m):
        bands = []
        for codes in enc.mixed_codes[b * m : (b + 1) * m]:
            frame = np.array(codes, dtype=float)
            if affine:
                frame = enc.offset + enc.scale * frame
            padded = np.pad(frame, ((0, height % 2), (0, width % 2)), mode="edge")
            bands.append(haar2_reference(padded))
        ll = np.stack([sb["ll"].ravel() for sb in bands])
        rec = {"ll": recover_dense(pinv, ll)}
        floor = 1e-12 * np.linalg.norm(ll, axis=0)
        for band in ("lh", "hl", "hh"):
            rec[band], part = recover_block(planes, np.stack([sb[band].ravel() for sb in bands]), cfg.tau, floor)
            stats.append(part)
        half = bands[0]["ll"].shape
        for j in range(n):
            pixels = haar2_inverse_reference(*(rec[band][j].reshape(half) for band in ("ll", "lh", "hl", "hh")))
            decoded.append(pixels[:height, :width])
    decoded.extend(np.array(f, dtype=float) for f in enc.tail_codes)
    return decoded, stats


def compression_ratio(original_bytes, compressed_bytes) -> tuple[float, float]:
    """The ratio and the improvement in percent of a codec's output over its input.

    The arithmetic of one ``ubssvc bench`` row, which computes it inline.
    """
    if original_bytes <= 0 or compressed_bytes <= 0:
        raise ValueError("byte counts must be positive")
    ratio = original_bytes / compressed_bytes
    return ratio, (ratio - 1.0) * 100.0


def psnr_reference(a, b) -> float:
    """PSNR straight from its definition on clamped-rounded 8-bit planes."""
    qa = np.floor(np.clip(np.asarray(a, dtype=float), 0, 255) + 0.5)
    qb = np.floor(np.clip(np.asarray(b, dtype=float), 0, 255) + 0.5)
    mse = float(np.mean((qa - qb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def sparsity_census(source, m, zero_eps=1e-12):
    """Nonzero census of an (n, T) source against the m-1 bound, one column at a time.

    Returns ``(counts, histogram, satisfied)``: per column the number of
    entries above ``zero_eps`` in magnitude, as an array; ``histogram[k]``,
    the number of columns with exactly k of them, for k = 0..n; and whether
    every column has at most m-1.
    """
    columns = np.asarray(source, dtype=float).T
    counts = np.array([sum(abs(float(v)) > zero_eps for v in column) for column in columns], dtype=int)
    histogram = tuple(int(np.sum(counts == k)) for k in range(columns.shape[1] + 1))
    return counts, histogram, all(c <= m - 1 for c in counts)


def sparse_source(seed, n=4, t=10000, max_active=2, amplitude=100.0) -> np.ndarray:
    """Ground-truth sparse matrix: <= max_active nonzeros per column.

    The construction itself is the oracle for recovery tests: whatever
    comes back must equal this matrix.
    """
    rng = np.random.default_rng(seed)
    s = np.zeros((n, t))
    count = rng.integers(0, max_active + 1, size=t)
    first = rng.integers(0, n, size=t)
    second = (first + rng.integers(1, n, size=t)) % n
    cols = np.arange(t)
    vals1 = rng.uniform(-amplitude, amplitude, size=t)
    vals2 = rng.uniform(-amplitude, amplitude, size=t)
    s[first[count >= 1], cols[count >= 1]] = vals1[count >= 1]
    s[second[count >= 2], cols[count >= 2]] = vals2[count >= 2]
    return s


def random_sparse_source(seed, n, t, max_active, amplitude=1.0) -> np.ndarray:
    """Ground truth with 0..max_active nonzeros per column, at random rows.

    Like :func:`sparse_source` for any ``max_active`` up to n: a column with
    k actives keeps the rows where a random permutation of 0..n-1 is below k.
    """
    rng = np.random.default_rng(seed)
    count = rng.integers(0, max_active + 1, size=t)
    rank = rng.random((n, t)).argsort(axis=0)
    values = rng.uniform(-amplitude, amplitude, size=(n, t))
    return np.where(rank < count, values, 0.0)
