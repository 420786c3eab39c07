import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    census_fields,
    column_peaks,
    exact_quantiles,
    gs_projection,
    lstsq_coefficients,
    nearest_subspace_recovery,
    plane_scatter_recovery,
    random_sparse_source,
    residual_bin,
    residual_histogram,
    sparse_source,
)
from ubssvc import (
    HyperplaneSet,
    MixingMatrix,
    build_hyperplanes,
    generalized_inverse,
    recover_block,
    recover_dense,
)
from ubssvc.sca import QUANTILE_PERCENTS, RESIDUAL_BINS, ZERO_EPS, RecoveryStats, _census, _norms, recover_cells

# frozen via the Gram-Schmidt projection oracle: distance from column 3 of
# the built-in matrix to the span of columns {0, 1}
A4_PLANE01_RESIDUAL = 0.6763865859599533


def assert_census_within(stats, relative, atol):
    """``stats`` holds the census of residuals each within ``atol`` of the oracle's ``relative``.

    The count, the extremes within ``atol``, and, at every bin edge, a count
    of residuals below it between the counts of the oracle residuals
    shifted up and down by ``atol``, each binned by the oracle.
    """
    below = np.cumsum(stats.histogram)
    assert below[-1] == len(relative)
    assert (np.cumsum(residual_histogram([r + atol for r in relative])) <= below).all()
    assert (below <= np.cumsum(residual_histogram([r - atol for r in relative]))).all()
    if relative:
        assert stats.lowest == pytest.approx(min(relative), abs=atol)
        assert stats.highest == pytest.approx(max(relative), abs=atol)


def census_of(values, zero=0) -> RecoveryStats:
    """A census of the given residuals, all clean, beside ``zero`` zero columns."""
    values = np.array(values, dtype=np.float64)
    return RecoveryStats(len(values) + zero, zero, len(values), 0, **_census(values))


def oracle_residuals(matrix, x) -> np.ndarray:
    """Gram-Schmidt distance from x to every plane, in lexicographic plane order."""
    return np.array([
        np.linalg.norm(x - gs_projection(matrix.entries[:, list(idx)], x))
        for idx in itertools.combinations(range(matrix.cols), matrix.rows - 1)
    ])


class TestBuildHyperplanes:
    def test_default_matrix_has_six_planes(self, matrix):
        hs = build_hyperplanes(matrix)
        assert hs.count == 6
        assert hs.dimension == 3 and hs.sources == 4
        assert hs.index_sets.tolist() == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
        ]
        assert hs.normals.shape == (6, 3)
        assert hs.coefficient_maps.shape == (6, 2, 3)

    def test_three_planes_for_m2_n3(self):
        m = MixingMatrix([[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])
        hs = build_hyperplanes(m)
        assert hs.count == 3
        assert hs.index_sets.shape == (3, 1)
        assert hs.coefficient_maps.shape == (3, 1, 2)

    def test_orthonormality(self, matrix):
        # each normal is unit length and orthogonal to its spanning columns
        hs = build_hyperplanes(matrix)
        assert_allclose(np.linalg.norm(hs.normals, axis=1), 1.0, atol=1e-12)
        for idx, normal in zip(hs.index_sets, hs.normals):
            assert np.abs(normal @ matrix.entries[:, idx]).max() <= 1e-12

    def test_projectors_agree_with_basis(self, matrix):
        # I - n n^T must be the projector onto the raw column span, and the
        # coefficient map must be the basis' left inverse (its pseudo-inverse)
        hs = build_hyperplanes(matrix)
        for idx, normal, cmap in zip(hs.index_sets, hs.normals, hs.coefficient_maps):
            b = matrix.entries[:, idx]
            p_basis = b @ np.linalg.solve(b.T @ b, b.T)
            assert np.abs(np.eye(3) - np.outer(normal, normal) - p_basis).max() <= 1e-10
            assert_allclose(cmap @ b, np.eye(2), atol=1e-12)
            assert_allclose(cmap, np.linalg.pinv(b), atol=1e-12)

    def test_arrays_are_read_only(self, matrix):
        hs = build_hyperplanes(matrix)
        for arr in (hs.index_sets, hs.normals, hs.coefficient_maps):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestColumnResidual:
    # the kernel's plane residual is |normal . x|; the oracle is ||x - P x||
    def test_membership_by_construction(self, matrix):
        hs = build_hyperplanes(matrix)
        x = 2.0 * matrix.entries[:, 0] + 3.0 * matrix.entries[:, 2]
        assert abs(hs.normals[hs.index_sets.tolist().index([0, 2])] @ x) <= 1e-12

    def test_frozen_oracle_value(self, matrix):
        hs = build_hyperplanes(matrix)
        x = matrix.entries[:, 3]
        value = abs(hs.normals[0] @ x)  # index set (0, 1)
        oracle = np.linalg.norm(x - gs_projection(matrix.entries[:, [0, 1]], x))
        assert value == pytest.approx(oracle, abs=1e-14)
        assert value == pytest.approx(A4_PLANE01_RESIDUAL, abs=1e-12)

    def test_every_plane_matches_oracle(self, matrix, rng):
        hs = build_hyperplanes(matrix)
        x = rng.uniform(-50, 50, size=(3, 20))
        best, distance = hs.classify(x)
        for j in range(x.shape[1]):
            oracle = oracle_residuals(matrix, x[:, j])
            assert_allclose(np.abs(hs.normals @ x[:, j]), oracle, atol=1e-12)
            assert distance[j] == pytest.approx(oracle.min(), abs=1e-12)
            assert best[j] == int(np.argmin(oracle))

    def test_zero_vector_in_every_plane(self, matrix):
        hs = build_hyperplanes(matrix)
        assert not (hs.normals @ np.zeros(3)).any()
        best, distance = hs.classify(np.zeros((3, 1)))
        assert best.tolist() == [0] and distance.tolist() == [0.0]

    def test_length_mismatch(self, matrix):
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.zeros((4, 1)), tau=1e-8)


class TestClassifyColumn:
    def test_in_plane_column(self, matrix):
        hs = build_hyperplanes(matrix)
        x = 2.0 * matrix.entries[:, 0] + 3.0 * matrix.entries[:, 2]
        best, _ = hs.classify(x[:, None])
        assert tuple(hs.index_sets[best[0]]) == (0, 2)
        recovered, stats = recover_block(hs, x[:, None], tau=1e-8)
        assert_allclose(recovered[:, 0], [2.0, 0.0, 3.0, 0.0], atol=1e-12)
        assert stats.clean_columns == 1 and stats.forced_columns == 0
        assert stats.zero_columns == 0

    def test_zero_column(self, matrix):
        recovered, stats = recover_block(build_hyperplanes(matrix), np.zeros((3, 1)), tau=1e-8)
        assert recovered.tolist() == [[0.0], [0.0], [0.0], [0.0]]
        assert stats.zero_columns == 1 and stats.histogram.sum() == 0
        # by default only an exact zero is zero; a floor zeroes columns up to it
        x = np.stack([matrix.entries[:, 1], 1e-13 * matrix.entries[:, 1]], axis=1)
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert stats.zero_columns == 0 and stats.histogram.sum() == 2
        assert_allclose(recovered[:, 1], [0.0, 1e-13, 0.0, 0.0], atol=1e-24)
        floor = 1e-12 * np.linalg.norm(matrix.entries[:, 1])
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8, floor=floor)
        assert stats.zero_columns == 1 and stats.histogram.sum() == 1
        assert not recovered[:, 1].any()
        assert_allclose(recovered[:, 0], [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_tie_breaks_to_smallest_plane(self, matrix, rng):
        # exact ties: with every normal equal, every column goes to plane 0
        hs = build_hyperplanes(matrix)
        tied = dataclasses.replace(hs, normals=np.repeat(hs.normals[:1], hs.count, axis=0))
        x = rng.uniform(-10, 10, size=(3, 50))
        best, distance = tied.classify(x)
        assert not best.any()
        assert_allclose(distance, np.abs(hs.normals[0] @ x), atol=1e-12)
        recovered, _ = recover_block(tied, x, tau=1.0)
        assert_allclose(recovered[[0, 1]], hs.coefficient_maps[0] @ x, atol=1e-12)
        assert not recovered[[2, 3]].any()
        # a single active column lies in three planes; any of them rebuilds it
        best, _ = hs.classify(matrix.entries[:, 0][:, None])
        assert 0 in hs.index_sets[best[0]]
        recovered, _ = recover_block(hs, matrix.entries[:, 0][:, None], tau=1e-8)
        oracle = lstsq_coefficients(matrix.entries[:, [0, 1]], matrix.entries[:, 0])
        assert_allclose(oracle, [1.0, 0.0], atol=1e-12)
        assert_allclose(recovered[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_scale_invariance(self, matrix):
        hs = build_hyperplanes(matrix)
        x = (1.5 * matrix.entries[:, 1] - 0.25 * matrix.entries[:, 3])[:, None]
        base_best, _ = hs.classify(x)
        base, base_stats = recover_block(hs, x, tau=1e-8)
        for c in (2.0, -1.0, 1e-6, 1e6):
            best, _ = hs.classify(c * x)
            scaled, stats = recover_block(hs, c * x, tau=1e-8)
            assert best[0] == base_best[0]
            assert stats.histogram.sum() == 1 and stats.lowest == stats.highest
            assert stats.lowest == pytest.approx(base_stats.lowest, abs=1e-9)
            assert_allclose(scaled, c * base, rtol=1e-9, atol=0)

    def test_forced_flag(self, matrix):
        x = np.array([[1.0], [-2.0], [1.5]])  # generic, off every plane
        strict, strict_stats = recover_block(build_hyperplanes(matrix), x, tau=1e-12)
        loose, loose_stats = recover_block(build_hyperplanes(matrix), x, tau=1.0)
        assert strict_stats.forced_columns == 1 and loose_stats.forced_columns == 0
        assert np.array_equal(strict, loose)
        oracle, _, relative = nearest_subspace_recovery(matrix.entries, x[:, 0])
        assert_census_within(strict_stats, [relative], atol=1e-12)
        assert_census_within(loose_stats, [relative], atol=1e-12)
        assert_allclose(strict[:, 0], oracle, atol=1e-9)

    def test_rejects_negative_tau(self, matrix):
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.ones((3, 1)), tau=-1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_tau(self, matrix, tau):
        with pytest.raises(ValueError, match="tau"):
            recover_block(build_hyperplanes(matrix), np.ones((3, 1)), tau=tau)


@st.composite
def label_cases(draw):
    # 3x4: 6 planes and uint8 labels; 5x11: C(11, 4) = 330 planes and intp labels
    return draw(st.sampled_from([(3, 4), (5, 11)])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(label_cases())
def test_classify_is_the_first_argmin(case):
    (m, n), seed = case
    rng = np.random.default_rng(seed)
    try:
        matrix = MixingMatrix(rng.uniform(-1, 1, size=(m, n)))
    except ValueError:
        assume(False)
    hs = build_hyperplanes(matrix)
    # planted exact ties: a third of the planes take another plane's normal or its negation
    normals = hs.normals.copy()
    for q in rng.choice(hs.count, size=hs.count // 3, replace=False):
        normals[q] = rng.choice([-1.0, 1.0]) * normals[rng.integers(hs.count)]
    x = rng.normal(size=(m, 200))
    x[:, rng.random(200) < 0.1] = 0.0  # at distance 0 from every plane
    x[:, :n] = matrix.entries  # each source column lies in several planes
    for planes in (hs, dataclasses.replace(hs, normals=normals)):
        best, distance = planes.classify(x)
        distances = np.abs(planes.normals @ x)
        assert best.dtype == (np.uint8 if hs.count <= 256 else np.intp)
        assert np.array_equal(best, np.argmin(distances, axis=0))
        assert np.array_equal(distance, distances.min(axis=0))


@pytest.mark.parametrize("count, dtype", [(256, np.uint8), (257, np.intp)])
def test_last_plane_label_fits(rng, count, dtype):
    # the largest label, count - 1, must survive the label dtype
    normals = rng.normal(size=(count, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    planes = HyperplaneSet(
        index_sets=np.zeros((count, 2), dtype=np.intp),
        normals=normals,
        coefficient_maps=np.zeros((count, 2, 3)),
        sources=4,
    )
    x = rng.normal(size=(3, 5))
    x -= np.outer(normals[-1], normals[-1] @ x)  # in the last plane only
    best, _ = planes.classify(x)
    assert best.dtype == dtype and best.tolist() == [count - 1] * 5


def test_330_planes_match_per_column_path():
    # a 5x11 matrix: intp labels, checked against the brute-force oracle
    rng = np.random.default_rng(2)
    matrix = MixingMatrix(rng.uniform(-1, 1, size=(5, 11)))
    hs = build_hyperplanes(matrix)
    assert hs.count == 330
    s = random_sparse_source(9, 11, 40, max_active=4)
    s[:, 3] = rng.uniform(-1, 1, size=11)  # dense: off every plane, forced
    s[:, 5] = 0.0
    x = matrix.entries @ s
    zero_eps = 1e-12 * np.linalg.norm(x, axis=0).max()
    recovered, stats = recover_block(hs, x, tau=1e-8, floor=zero_eps)
    relative = []
    for j in range(x.shape[1]):
        oracle, index_set, rel = nearest_subspace_recovery(matrix.entries, x[:, j], zero_eps)
        assert_allclose(recovered[:, j], oracle, atol=1e-9)
        if index_set is not None:
            relative.append(rel)
    assert_census_within(stats, relative, atol=1e-12)
    assert stats.forced_columns == sum(r > 1e-8 for r in relative) == 1
    assert_allclose(np.delete(recovered, 3, axis=1), np.delete(s, 3, axis=1), atol=1e-9)


class TestReconstructColumn:
    # coefficients land on the plane's source rows, exact zeros elsewhere
    def test_places_coefficients(self, matrix):
        hs = build_hyperplanes(matrix)
        for idx in hs.index_sets:
            x = matrix.entries[:, idx] @ np.array([2.0, 3.0])
            recovered, _ = recover_block(hs, x[:, None], tau=1e-8)
            expected = np.zeros(4)
            expected[idx] = [2.0, 3.0]
            assert_allclose(recovered[:, 0], expected, atol=1e-12)
            assert not np.delete(recovered[:, 0], idx).any()

    def test_single_active(self, matrix):
        recovered, _ = recover_block(build_hyperplanes(matrix), matrix.entries.copy(), tau=1e-8)
        assert_allclose(recovered, np.eye(4), atol=1e-12)

    def test_zero_assignment(self, matrix):
        x = np.zeros((3, 6))
        x[:, 2] = matrix.entries[:, 1] + matrix.entries[:, 3]
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert stats.zero_columns == 5
        assert not np.delete(recovered, 2, axis=1).any()

    def test_out_of_range_index(self):
        # every index set names m-1 distinct, increasing, in-range sources
        for entries in (
            [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]],
            np.random.default_rng(5).uniform(-1, 1, size=(4, 7)),
        ):
            matrix = MixingMatrix(entries)
            hs = build_hyperplanes(matrix)
            assert hs.index_sets.min() >= 0 and hs.index_sets.max() < matrix.cols
            assert (np.diff(hs.index_sets, axis=1) > 0).all()


class TestRecoverBlock:
    def test_exact_recovery_of_sparse_source(self, matrix):
        s = sparse_source(seed=42, t=10000)
        recovered, stats = recover_block(build_hyperplanes(matrix), matrix.entries @ s, tau=1e-8)
        assert np.abs(recovered - s).max() <= 1e-6
        assert stats.forced_columns == 0
        assert stats.total_columns == 10000
        assert stats.zero_columns == int((s == 0).all(axis=0).sum())

    def test_zero_input(self, matrix):
        recovered, stats = recover_block(build_hyperplanes(matrix), np.zeros((3, 5)), tau=1e-8)
        assert not recovered.any()
        assert stats.zero_columns == 5
        assert stats.residual_quantiles() == ()

    def test_dense_column_is_forced_others_exact(self, matrix):
        s = sparse_source(seed=7, t=64)
        s[:, 10] = [3.0, -1.0, 2.0, 0.0]  # three active sources
        x = matrix.entries @ s
        min_rel = oracle_residuals(matrix, x[:, 10]).min() / np.linalg.norm(x[:, 10])
        assert min_rel > 1e-8  # genericity: truly off every plane
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert stats.forced_columns == 1
        mask = np.ones(64, dtype=bool)
        mask[10] = False
        assert np.abs(recovered[:, mask] - s[:, mask]).max() <= 1e-6

    def test_matches_per_column_path(self, matrix):
        s = sparse_source(seed=11, t=200)
        x = matrix.entries @ s
        x[:, 5] = [1.0, -2.0, 1.5]
        zero_eps = 1e-12 * np.linalg.norm(x, axis=0).max()
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8, floor=zero_eps)
        relative = []
        for j in range(200):
            oracle, index_set, rel = nearest_subspace_recovery(matrix.entries, x[:, j], zero_eps)
            assert_allclose(recovered[:, j], oracle, atol=1e-9)
            if index_set is not None:
                relative.append(rel)
        assert_census_within(stats, relative, atol=1e-12)
        assert stats.forced_columns == sum(r > 1e-8 for r in relative) == 1

    def test_deterministic(self, matrix):
        s = sparse_source(seed=3, t=500)
        x = matrix.entries @ s
        r1, st1 = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        r2, st2 = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert np.array_equal(r1, r2)
        assert census_fields(st1) == census_fields(st2)

    def test_tie_safety(self, matrix):
        # a column in several planes reconstructs identically from any of them
        x = 4.0 * matrix.entries[:, 2]
        target = np.array([0.0, 0.0, 4.0, 0.0])
        for index_set in ((0, 2), (1, 2), (2, 3)):
            lam = lstsq_coefficients(matrix.entries[:, index_set], x)
            rebuilt = np.zeros(4)
            rebuilt[list(index_set)] = lam
            assert_allclose(rebuilt, target, atol=1e-12)

    def test_runtime_budget(self, matrix):
        s = sparse_source(seed=99, t=10000)
        x = matrix.entries @ s
        start = time.perf_counter()
        recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert time.perf_counter() - start < 1.0

    def test_shape_errors(self, matrix):
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.zeros((4, 5)), tau=1e-8)
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.zeros(5), tau=1e-8)


@st.composite
def shapes_and_seeds(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(m + 1, 8))
    return m, n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(shapes_and_seeds())
def test_exact_recovery_for_any_m_below_n(case):
    # the "any m < n matrix" claim: every valid shape up to 5x8, not only 3x4
    m, n, seed = case
    try:
        matrix = MixingMatrix(np.random.default_rng(seed).uniform(-1, 1, size=(m, n)))
    except ValueError:
        assume(False)  # a near-singular draw is not a valid mixing matrix
    hs = build_hyperplanes(matrix)
    assert hs.count == len(hs.index_sets) and hs.dimension == m and hs.sources == n
    assert_allclose(np.linalg.norm(hs.normals, axis=1), 1.0, atol=1e-12)
    for idx, normal, cmap in zip(hs.index_sets, hs.normals, hs.coefficient_maps):
        b = matrix.entries[:, idx]
        assert np.abs(normal @ b).max() <= 1e-12
        assert_allclose(cmap @ b, np.eye(m - 1), atol=1e-9)
    s = random_sparse_source(seed, n, 300, max_active=m - 1)
    recovered, stats = recover_block(hs, matrix.entries @ s, tau=1e-8)
    assert_allclose(recovered, s, rtol=0, atol=1e-9)
    assert stats.forced_columns == 0
    assert stats.zero_columns == int((s == 0).all(axis=0).sum())


class TestRecoverDense:
    def test_zero(self, matrix):
        pinv = generalized_inverse(matrix)
        assert not recover_dense(pinv, np.zeros((3, 4))).any()

    def test_solves_the_system(self, matrix):
        pinv = generalized_inverse(matrix)
        x = np.array([[1.0], [2.0], [3.0]])
        y = recover_dense(pinv, x)
        assert_allclose(matrix.entries @ y, x, rtol=1e-9)

    def test_constant_frames_hit_the_projector(self, matrix):
        # recovered constants equal (A+ A) v, not v: the low-frequency loss
        pinv = generalized_inverse(matrix)
        projector = pinv @ matrix.entries
        v = np.full((4, 1), 57.0)
        y = recover_dense(pinv, matrix.entries @ v)
        assert_allclose(y, projector @ v, atol=1e-9)
        assert np.abs(y - v).max() > 0.1  # genuinely lossy

    def test_projection_idempotent(self, matrix, rng):
        pinv = generalized_inverse(matrix)
        s = rng.uniform(-100, 100, size=(4, 50))
        once = recover_dense(pinv, matrix.entries @ s)
        twice = recover_dense(pinv, matrix.entries @ once)
        assert np.abs(twice - once).max() <= 1e-9 * max(1.0, np.abs(once).max())

    def test_shape_mismatch(self, matrix):
        with pytest.raises(ValueError):
            recover_dense(generalized_inverse(matrix), np.zeros((4, 2)))


def test_recovery_stats_merge():
    a = RecoveryStats(10, 2, 7, 1, **_census(np.array([0.1, 0.2])))
    b = RecoveryStats(5, 0, 5, 0, **_census(np.array([0.3])))
    merged = RecoveryStats.merged(iter([a, b]))  # read once, part by part
    assert merged.total_columns == 15
    assert merged.zero_columns == 2
    assert merged.clean_columns == 12
    assert merged.forced_columns == 1
    assert np.array_equal(merged.histogram, residual_histogram([0.1, 0.2, 0.3]))
    assert (merged.lowest, merged.highest) == (0.1, 0.3)
    # each census built without per-group counts is one group
    assert merged.group_residuals.tolist() == [2, 1]
    empty = RecoveryStats.merged([])
    assert empty.total_columns == 0 and empty.group_residuals.size == 0
    assert empty.histogram.shape == (RESIDUAL_BINS,) and not empty.histogram.any()
    assert (empty.lowest, empty.highest) == (np.inf, -np.inf) and empty.residual_quantiles() == ()


@pytest.mark.parametrize("m", [2, 3, 9])
def test_column_norms_do_not_depend_on_the_layout(rng, m):
    # both sides of the decoder's zero rule, a cell's (k, m, T) LL band and a
    # recovery call's (m, G*T) columns of a transposed buffer, take their
    # norms from _norms: one column, a Fortran-ordered copy and a transposed
    # view give each column the bits of the C-ordered array, which for m < 8
    # are linalg.norm's
    x = rng.normal(size=(4, m, 50)) * 10.0 ** rng.integers(-30, 30, size=(4, 1, 50))
    norms = _norms(x)
    assert norms.shape == (4, 50)
    for same in (np.asfortranarray(x), np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)):
        assert norms.tobytes() == _norms(same).tobytes()
    assert norms[:, 7:8].tobytes() == _norms(x[:, :, 7:8]).tobytes()
    assert _norms(x[0]).tobytes() == norms[0].tobytes()
    if m < 8:
        assert norms.tobytes() == np.linalg.norm(x, axis=-2).tobytes()


def test_census_bins_from_the_float_bits(rng):
    # the bit-shift binning agrees with the oracle's frexp binning on every
    # bin edge and just below it, below 2^-64, from 2 up, and on exact zeros
    edges = [2.0 ** (b // 8 - 64) * (1 + b % 8 / 8) for b in range(RESIDUAL_BINS)]
    top = float(np.finfo(np.float64).max)
    # every key below 2^-64's, subnormals included, folds into bin 0, and
    # every key from 2's up to the largest float's into the last bin
    folded = [
        0.0, 5e-324, 1e-310, float(np.finfo(np.float64).tiny), 1e-300,
        *np.nextafter(2.0**-64, [0.0, 1.0]), *np.nextafter(2.0, [0.0, 3.0]), 2.0, 3.0, 1e300, top,
    ]
    values = np.concatenate([
        edges, np.nextafter(edges, 0.0), folded, 2.0 ** rng.uniform(-70, 2, 5000), rng.uniform(0.0, 1.0, 5000),
    ])
    census = _census(values.copy())
    assert np.array_equal(census["histogram"], residual_histogram(values))
    assert [residual_bin(e) for e in edges] == list(range(RESIDUAL_BINS))
    assert (census["lowest"], census["highest"]) == (0.0, top)
    for v in folded:
        alone = _census(np.array([v]))
        assert np.array_equal(alone["histogram"], residual_histogram([v]))
        assert alone["lowest"] == alone["highest"] == v


@st.composite
def residual_samples(draw):
    # residuals lie in [0, 1] up to rounding: exact zeros, values near 1,
    # powers of two, and values across the octaves
    value = st.one_of(
        st.just(0.0),
        st.sampled_from([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.875, 0.999]),
        st.floats(0.0, 1.0),
        st.integers(-80, 0).map(lambda e: 2.0**e),
        st.tuples(st.floats(1.0, 2.0, exclude_max=True), st.integers(-70, 0)).map(lambda fe: fe[0] * 2.0 ** fe[1]),
    )
    return draw(st.lists(value, max_size=60))


@settings(max_examples=200, deadline=None)
@given(residual_samples())
@example([])
@example([0.0])
@example([0.0] * 7)
@example([0.3])
@example([1.0, float(np.nextafter(1.0, 0.0))])
@example([0.0, 1e-300, 0.5, 1.0])
def test_quantiles_are_within_one_bin_of_the_order_statistics(values):
    # q0 and q100 are exact; every other quantile lies within one bin of
    # its exact order statistic, on empty, single-value, all-zero and
    # near-1 samples among others
    quantiles = census_of(values).residual_quantiles()
    exact = exact_quantiles(values, QUANTILE_PERCENTS)
    assert len(quantiles) == len(exact) == (len(QUANTILE_PERCENTS) if values else 0)
    if values:
        assert (quantiles[0], quantiles[-1]) == (exact[0], exact[-1]) == (min(values), max(values))
        assert list(quantiles) == sorted(quantiles)
    for got, want in zip(quantiles, exact):
        assert abs(residual_bin(got) - residual_bin(want)) <= 1


def test_merged_parts_equal_one_census(rng):
    # one census of 1000 residuals, and of the same residuals cut into
    # pieces, some empty, and merged: the same histogram, extremes and counts
    values = np.concatenate([2.0 ** rng.uniform(-66, 0.5, 990), np.zeros(10)])
    rng.shuffle(values)
    whole = census_of(values, zero=3)
    cuts = [0, 0, 17, 17, 400, 999, 1000, 1000]
    parts = [census_of(values[a:b], zero=3 if b == 0 else 0) for a, b in zip(cuts, cuts[1:])]
    merged = RecoveryStats.merged(parts)
    fields, expected = census_fields(merged), census_fields(whole)
    assert fields.pop("group_residuals") == [b - a for a, b in zip(cuts, cuts[1:])]
    assert expected.pop("group_residuals") == [1000]
    assert fields == expected
    assert merged.residual_quantiles() == whole.residual_quantiles()


class TestStackedRecovery:
    # a (..., m, T) input is that many independent groups
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, matrix, bad):
        x = matrix.entries @ sparse_source(seed=1, t=5)
        x[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        stacked = np.stack([matrix.entries @ sparse_source(seed=2, t=5), x])
        with pytest.raises(ValueError, match="finite"):
            recover_block(build_hyperplanes(matrix), stacked, tau=1e-8)

    def test_floor_is_per_group(self, matrix):
        # a (G, 1) floor gives each group its own: group 0's small column sits
        # under its floor; group 1 is all small, and the same size is kept there
        big = matrix.entries @ sparse_source(seed=4, t=6)
        big[:, 2] = 1e-13 * matrix.entries[:, 0]
        small = 1e-15 * (matrix.entries @ sparse_source(seed=5, t=6))
        stacked = np.stack([big, small])
        floor = 1e-12 * column_peaks(stacked)[:, None]
        recovered, stats = recover_block(build_hyperplanes(matrix), stacked, 1e-8, floor)
        assert recovered.shape == (2, 4, 6)
        assert not recovered[0, :, 2].any()
        per_group = [recover_block(build_hyperplanes(matrix), g, 1e-8, f) for g, f in zip(stacked, floor)]
        for g, (rec, _) in enumerate(per_group):
            assert np.array_equal(recovered[g], rec)
        assert stats.zero_columns == sum(s.zero_columns for _, s in per_group)
        assert per_group[1][1].zero_columns == int((small == 0).all(axis=0).sum())
        # one 2-D call over both groups on group 0's floor zeroes every column of group 1
        joint = np.concatenate([big, small], axis=1)
        _, joint_stats = recover_block(build_hyperplanes(matrix), joint, 1e-8, floor[0])
        assert joint_stats.zero_columns == per_group[0][1].zero_columns + 6

    def test_handed_over_observations_are_freed_during_the_call(self, matrix):
        # 24 groups laid out (m, G, T), as a decode run's detail buffer is: the
        # call reads their columns without a copy, and once it has gathered the
        # kept ones it frees the buffer, if the caller holds no reference to it
        planes = build_hyperplanes(matrix)
        sources = sparse_source(seed=7, t=24 * 1024)
        observations = (matrix.entries @ sources).reshape(3, 24, 1024)

        def peak(hand_over) -> int:
            tracemalloc.start()
            try:
                held = [observations.copy().transpose(1, 0, 2)]
                recovered, _ = recover_block(planes, held.pop() if hand_over else held[0], 0.05)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.abs(recovered.transpose(1, 0, 2).reshape(4, -1) - sources).max() <= 1e-6
            return top

        assert peak(True) < peak(False) - 0.5 * observations.nbytes

    def test_empty_and_all_zero_groups(self, matrix):
        recovered, stats = recover_block(build_hyperplanes(matrix), np.zeros((0, 3, 4)), tau=0.1)
        assert recovered.shape == (0, 4, 4) and stats.total_columns == 0
        recovered, stats = recover_block(build_hyperplanes(matrix), np.zeros((2, 3, 0)), tau=0.1)
        assert recovered.shape == (2, 4, 0) and stats.total_columns == 0
        recovered, stats = recover_block(build_hyperplanes(matrix), np.zeros((3, 3, 5)), tau=0.1)
        assert not recovered.any() and stats.zero_columns == stats.total_columns == 15
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.zeros((2, 4, 5)), tau=0.1)
        with pytest.raises(ValueError):
            recover_block(build_hyperplanes(matrix), np.zeros((1, 2, 4, 5)), tau=0.1)
        # a (2, 3, m, T) input is six groups in row-major order, each with its
        # own floor; it equals the six 2-D calls, census included
        x = matrix.entries @ np.random.default_rng(8).normal(size=(2, 3, 4, 9))
        x[..., ::4] = 0.0
        x[0, 1, :, 1] *= 1e-13
        floor = 1e-12 * column_peaks(x.reshape(6, 3, 9)).reshape(2, 3, 1)
        recovered, stats = recover_block(build_hyperplanes(matrix), x, 0.1, floor)
        assert recovered.shape == (2, 3, 4, 9)
        per_group = [recover_block(build_hyperplanes(matrix), x[i, j], 0.1, floor[i, j]) for i in range(2) for j in range(3)]
        for (i, j), (rec, _) in zip(np.ndindex(2, 3), per_group):
            assert np.array_equal(recovered[i, j], rec)
        merged = RecoveryStats.merged([part for _, part in per_group])
        assert census_fields(stats) == census_fields(merged)
        assert stats.zero_columns == 6 * 3 + 1


@st.composite
def stacked_cases(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(m + 1, 6))
    groups = draw(st.integers(1, 5))
    t = draw(st.integers(1, 12))
    # per group: 0 all zero, 1 a single active column, 2 sparse, 3 dense (forced columns)
    kinds = draw(st.lists(st.integers(0, 3), min_size=groups, max_size=groups))
    scales = draw(st.lists(st.sampled_from([1e-12, 1.0, 1e6]), min_size=groups, max_size=groups))
    return m, n, t, kinds, scales, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(stacked_cases())
def test_stacked_call_equals_separate_calls(case):
    m, n, t, kinds, scales, seed = case
    rng = np.random.default_rng(seed)
    try:
        matrix = MixingMatrix(rng.uniform(-1, 1, size=(m, n)))
    except ValueError:
        assume(False)
    hs = build_hyperplanes(matrix)
    groups = []
    for kind, scale in zip(kinds, scales):
        s = random_sparse_source(int(rng.integers(2**32)), n, t, max_active=m - 1)
        if kind == 0:
            s[:] = 0.0
        elif kind == 1:
            s[:, 1:] = 0.0
            s[0, 0] = 1.0
        elif kind == 3:
            s = rng.uniform(-1, 1, size=(n, t))
        x = scale * (matrix.entries @ s)
        # a few columns far below the group's largest: under its floor, over a smaller group's
        x[:, rng.random(t) < 0.2] *= 1e-13
        groups.append(x)
    stacked = np.stack(groups)
    floor = 1e-12 * column_peaks(stacked)[:, None]
    recovered, stats = recover_block(hs, stacked, 1e-6, floor)
    separate = [recover_block(hs, x, 1e-6, f) for x, f in zip(groups, floor)]
    assert recovered.shape == (len(groups), n, t)
    for g, (rec, _) in enumerate(separate):
        assert np.array_equal(recovered[g], rec)
    parts = [part for _, part in separate]
    merged = RecoveryStats.merged(parts)
    # counts, histogram, extremes, and each group's residual count
    assert census_fields(stats) == census_fields(merged)
    # groups laid out (m, G, T) in memory, whose columns are read without a copy
    laid_out = np.ascontiguousarray(stacked.transpose(1, 0, 2)).transpose(1, 0, 2)
    viewed, view_stats = recover_block(hs, laid_out, 1e-6, floor)
    assert np.array_equal(viewed, recovered)
    assert census_fields(view_stats) == census_fields(stats)


@st.composite
def split_cases(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(m + 1, 6))
    t = draw(st.integers(1, 30))
    if draw(st.booleans()):  # every piece one column
        cuts = list(range(1, t))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, t - 1)), max_size=6)) - {t})
    kinds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    return m, n, t, cuts, kinds, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(split_cases())
def test_pieces_with_their_floor_equal_whole_call(case):
    # a group cut into column pieces, each call given its slice of a
    # per-column floor, recovers to the bits and census of one call on the
    # whole group
    m, n, t, cuts, kinds, stacked, seed = case
    rng = np.random.default_rng(seed)
    try:
        matrix = MixingMatrix(rng.uniform(-1, 1, size=(m, n)))
    except ValueError:
        assume(False)
    hs = build_hyperplanes(matrix)
    groups = []
    for kind in kinds:  # 0 all zero, 1 one active column, 2 sparse, 3 dense
        s = random_sparse_source(int(rng.integers(2**32)), n, t, max_active=m - 1)
        if kind == 0:
            s[:] = 0.0
        elif kind == 1:
            s[:, 1:] = 0.0
            s[0, 0] = 1.0
        elif kind == 3:
            s = rng.uniform(-1, 1, size=(n, t))
        x = matrix.entries @ s
        x[:, rng.random(t) < 0.2] *= 1e-13  # under the floor
        groups.append(x)
    x = np.stack(groups) if stacked else groups[0]
    floor = 1e-12 * column_peaks(x)[:, None] * rng.uniform(0.5, 2.0, size=(len(groups), t))
    floor = floor if stacked else floor[0]
    whole, stats = recover_block(hs, x, 1e-6, floor)
    bounds = list(zip([0, *cuts], [*cuts, t]))
    pieces = [recover_block(hs, x[..., a:b], 1e-6, floor[..., a:b]) for a, b in bounds]
    assert np.array_equal(np.concatenate([rec for rec, _ in pieces], axis=-1), whole)
    merged = RecoveryStats.merged([part for _, part in pieces])
    # the pieces count their groups' residuals piece by piece; the rest of the census is the whole call's
    fields, whole_fields = census_fields(merged), census_fields(stats)
    piece_groups = np.reshape(fields.pop("group_residuals"), (len(bounds), -1))
    assert np.array_equal(piece_groups.sum(axis=0), whole_fields.pop("group_residuals"))
    assert fields == whole_fields
    assert stats.zero_columns == int((np.linalg.norm(x, axis=-2) <= floor).sum())


class TestFloor:
    # a column whose norm is at most its floor is zero; the floor broadcasts
    # to one value per column

    def test_floor_is_per_column(self, matrix):
        x = matrix.entries @ sparse_source(seed=6, t=8)
        norms = np.linalg.norm(x, axis=0)
        floor = np.zeros(8)
        floor[[1, 4]] = norms[[1, 4]]  # at the norm: zero
        floor[6] = np.nextafter(norms[6], 0.0)  # just under it: kept
        hs = build_hyperplanes(matrix)
        recovered, stats = recover_block(hs, x, 1e-8, floor)
        kept, kept_stats = recover_block(hs, x, 1e-8)
        zero = (norms == 0) | np.isin(np.arange(8), [1, 4])
        assert stats.zero_columns == kept_stats.zero_columns + 2 == int(zero.sum())
        assert not recovered[:, zero].any()
        assert np.array_equal(recovered[:, ~zero], kept[:, ~zero])

    def test_bad_floor_rejected(self, matrix, rng):
        hs = build_hyperplanes(matrix)
        x = rng.normal(size=(2, 3, 7))
        recover_block(hs, x, 0.1, np.full((2, 1), 1e9))  # a floor over every norm is legal
        for bad in (np.nan, np.inf, -1e-300, np.array([[0.0], [np.nan]]), np.array([0.0, -1.0, *[0.0] * 5])):
            with pytest.raises(ValueError, match="floor"):
                recover_block(hs, x, 0.1, bad)
        for shape in ((8,), (3, 1), (2, 2, 7), (1, 2, 7)):
            with pytest.raises(ValueError):
                recover_block(hs, x, 0.1, np.zeros(shape))

    def test_larger_floor_zeroes_more_columns(self, matrix):
        x = matrix.entries @ sparse_source(seed=6, t=8)
        x[:, 3] *= 1e-9
        hs = build_hyperplanes(matrix)
        floor = 1e-12 * column_peaks(x)[0]
        _, low = recover_block(hs, x, 1e-8, floor)
        _, high = recover_block(hs, x, 1e-8, floor * 1e4)
        assert high.zero_columns == low.zero_columns + 1

    def test_non_finite_observations_rejected_with_any_floor(self, matrix):
        for floor in (0.0, 1e300):
            with pytest.raises(ValueError, match="finite"):
                recover_block(build_hyperplanes(matrix), np.full((3, 2), np.nan), 0.1, floor)
        assert column_peaks(np.zeros((3, 4))).shape == (1,)
        assert np.array_equal(column_peaks(np.zeros((2, 3, 0))), [0.0, 0.0])


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("t", [1, 37])  # one cell a group takes _gemm's doubling past gemv
@pytest.mark.parametrize("edge", ["zero LL", "just under the floor"])
def test_recover_cells_is_the_dense_product_beside_one_floored_call(matrix, rng, k, t, edge):
    # a task's cells: A+ on its LL band, and one recover_block call on its
    # (k, 3, m, T) detail view beside a floor of ZERO_EPS times each cell's
    # LL norm; the last cell's LL is exactly 0, or one of its detail columns
    # lies just under its floor
    planes, pinv = build_hyperplanes(matrix), generalized_inverse(matrix)
    ll = rng.normal(size=(k, matrix.rows, t))
    s = random_sparse_source(int(rng.integers(1 << 30)), matrix.cols, k * 3 * t, max_active=2)
    details = (matrix.entries @ s).reshape(matrix.rows, k, 3, t).transpose(1, 2, 0, 3)
    details[-1, :, :, -1] = matrix.entries[:, :3].T  # the last cell's columns are not zero
    if edge == "zero LL":
        ll[-1, :, -1] = 0.0
    else:
        details[-1, 1, :, -1] = 0.0
        # one entry of x: its norm is exactly x, one float under the floor
        details[-1, 1, 0, -1] = np.nextafter(ZERO_EPS * _norms(ll)[-1, -1], 0.0)
    dense = recover_dense(pinv, ll)
    block, stats = recover_block(planes, details, 0.05, ZERO_EPS * _norms(ll)[:, None])

    low, high, cell_stats = recover_cells(planes, pinv, ll, details, 0.05)
    assert low.tobytes() == dense.tobytes() and high.tobytes() == block.tobytes()
    assert high.shape == (k, 3, matrix.cols, t)
    assert census_fields(cell_stats) == census_fields(stats)
    # the last cell keeps every non-zero detail column, or all but the one under its floor
    kept = high[-1, :, :, -1].any(axis=1).tolist()
    assert kept == ([True] * 3 if edge == "zero LL" else [True, False, True])


def test_recover_cells_frees_the_bands_handed_over(matrix):
    # recover_cells reads the LL band only for A+ and the floor, and hands the
    # detail view on to recover_block as its only reference: each band buffer
    # the caller hands over is freed before the recovery's temporaries are made
    planes, pinv = build_hyperplanes(matrix), generalized_inverse(matrix)
    ll = np.random.default_rng(3).normal(size=(24, 3, 1024))
    details = (matrix.entries @ sparse_source(seed=7, t=24 * 3 * 1024)).reshape(3, 24, 3, 1024)

    def peak(kept=None) -> int:
        held = {"ll": [], "details": []}

        def band(name):
            return held[name][0] if name == kept else held[name].pop()

        tracemalloc.start()
        try:
            held["ll"].append(ll.copy())
            held["details"].append(details.copy().transpose(1, 2, 0, 3))
            _, high, _ = recover_cells(planes, pinv, band("ll"), band("details"), 0.05)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert high.shape == (24, 3, 4, 1024)
        return top

    handed_over = peak()
    assert handed_over < peak("ll") - 0.5 * ll.nbytes
    assert handed_over < peak("details") - 0.5 * details.nbytes


def test_single_columns_and_rows_take_the_gemm_path(matrix, rng):
    # a one-column product or a one-row map gives the bits of the same column
    # inside a wide product, which numpy's gemv route would not promise
    x = rng.normal(size=(3, 500))
    pinv = generalized_inverse(matrix)
    wide = recover_dense(pinv, x)
    for j in range(0, 500, 37):
        assert np.array_equal(recover_dense(pinv, x[:, j : j + 1])[:, 0], wide[:, j])
    two = MixingMatrix([[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])  # m = 2: one-row maps
    y = two.entries @ random_sparse_source(7, 3, 500, max_active=1)
    floor = 1e-12 * np.linalg.norm(y, axis=0)
    whole, _ = recover_block(build_hyperplanes(two), y, 0.05, floor)
    for j in range(0, 500, 37):
        piece, _ = recover_block(build_hyperplanes(two), y[:, j : j + 1], 0.05, floor[j : j + 1])
        assert np.array_equal(piece[:, 0], whole[:, j])


def assert_plane_scatter(planes, x, tau, floor=0.0):
    """``recover_block`` gives the plane-by-plane oracle's bits and census."""
    want, census = plane_scatter_recovery(planes, x, tau, floor)
    recovered, stats = recover_block(planes, x, tau, floor)
    assert recovered.shape == want.shape
    assert np.array_equal(recovered.view(np.int64), want.view(np.int64))
    assert census_fields(stats) == census


def every_plane_columns(matrix, planes, rng, t):
    """(m, t) observations: sparse columns, one on each plane, dense (forced) and zero ones.

    The first ``planes.count`` columns each lie on their own plane, so every
    label, the largest included, is drawn.
    """
    s = random_sparse_source(int(rng.integers(2**32)), matrix.cols, t, max_active=matrix.rows - 1)
    s[:, : planes.count] = 0.0
    for q, index_set in enumerate(planes.index_sets):
        s[index_set, q] = rng.uniform(0.5, 1.5, size=index_set.size)
    rest = s[:, planes.count :]
    dense = rng.random(rest.shape[1]) < 0.1
    rest[:, dense] = rng.uniform(-1, 1, size=(matrix.cols, int(dense.sum())))
    rest[:, rng.random(rest.shape[1]) < 0.05] = 0.0
    return matrix.entries @ s


def seeded_matrix(m, n, seed=0) -> MixingMatrix:
    """The first valid uniform (0, 1) m x n matrix from ``seed`` up."""
    for s in itertools.count(seed):
        try:
            return MixingMatrix(np.random.default_rng(s).uniform(0.0, 1.0, size=(m, n)))
        except ValueError:
            pass


@pytest.mark.parametrize("shape", [(3, 4), (3, 8), (5, 8), (5, 11), (2, 256), (2, 257)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_one_sort_by_plane_equals_the_plane_by_plane_scatter(shape, rng):
    # one-byte labels up to 256 planes (label 255 at 2x256), intp beyond
    # (2x257, and 330 planes at 5x11); forced, zero and sub-floor columns
    matrix = seeded_matrix(*shape)
    planes = build_hyperplanes(matrix)
    x = every_plane_columns(matrix, planes, rng, planes.count + 600)
    x[:, planes.count :][:, rng.random(600) < 0.05] *= 1e-13  # under the floor
    floor = 1e-12 * column_peaks(x)[0]
    best, _ = planes.classify(x[:, : planes.count])
    assert best.dtype == (np.uint8 if planes.count <= 256 else np.intp)
    assert np.array_equal(best, np.arange(planes.count))
    _, stats = recover_block(planes, x, 1e-6, floor)
    assert stats.forced_columns and stats.zero_columns
    assert_plane_scatter(planes, x, 1e-6, floor)
    assert_plane_scatter(planes, x[:, :1], 1e-6)


@pytest.mark.parametrize("shape", [(3, 4), (5, 11), (2, 257)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_stacked_groups_equal_the_plane_by_plane_scatter(shape, rng):
    # a stack of groups: an ordinary one, an all-zero one, one whose every
    # column is under its floor, and a dense one; then empty stacks
    matrix = seeded_matrix(*shape)
    planes = build_hyperplanes(matrix)
    t = planes.count + 100
    groups = np.stack([every_plane_columns(matrix, planes, rng, t) for _ in range(4)])
    groups[1] = 0.0
    groups[3] = matrix.entries @ rng.uniform(-1, 1, size=(matrix.cols, t))
    floor = 1e-12 * column_peaks(groups)[:, None] * np.ones(t)
    floor[2] = np.linalg.norm(groups[2], axis=0)
    assert_plane_scatter(planes, groups, 1e-6, floor)
    # the groups laid out (m, G, T), and (G, 1, m, T)
    assert_plane_scatter(planes, np.ascontiguousarray(groups.transpose(1, 0, 2)).transpose(1, 0, 2), 1e-6, floor)
    assert_plane_scatter(planes, groups[:, None], 1e-6, floor[:, None])
    for empty in ((0, matrix.rows, t), (3, matrix.rows, 0), (matrix.rows, 0)):
        assert_plane_scatter(planes, np.zeros(empty), 1e-6)


def test_ties_go_to_the_smaller_plane_after_the_sort(matrix, rng):
    # planes 1 and 4 given plane 0's normal: every column nearest one of
    # the three is tied between them and goes to plane 0, as with the
    # plane-by-plane scatter
    hs = build_hyperplanes(matrix)
    normals = hs.normals.copy()
    normals[[1, 4]] = normals[0]
    tied = dataclasses.replace(hs, normals=normals)
    x = every_plane_columns(matrix, hs, rng, 500)
    best, _ = tied.classify(x)
    assert 0 in best and not np.isin(best, [1, 4]).any()
    assert_plane_scatter(tied, x, 1e-6)
    # multiples of a matrix column lie on the three planes it spans
    assert_plane_scatter(hs, matrix.entries[:, [0]] * [1.0, -2.0, 1e-3], 1e-6)
