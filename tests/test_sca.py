import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    column_peaks,
    gs_projection,
    lstsq_coefficients,
    nearest_subspace_recovery,
    random_sparse_source,
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
from ubssvc.sca import RecoveryStats

# frozen via the Gram-Schmidt projection oracle: distance from column 3 of
# the built-in matrix to the span of columns {0, 1}
A4_PLANE01_RESIDUAL = 0.6763865859599533


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
        assert stats.zero_columns == 1 and stats.residuals.size == 0
        # the zero threshold is relative: 1e-12 of the largest column norm
        x = np.stack([matrix.entries[:, 1], 1e-13 * matrix.entries[:, 1]], axis=1)
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert stats.zero_columns == 1 and stats.residuals.size == 1
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
            assert stats.residuals[0] == pytest.approx(base_stats.residuals[0], abs=1e-9)
            assert_allclose(scaled, c * base, rtol=1e-9, atol=0)

    def test_forced_flag(self, matrix):
        x = np.array([[1.0], [-2.0], [1.5]])  # generic, off every plane
        strict, strict_stats = recover_block(build_hyperplanes(matrix), x, tau=1e-12)
        loose, loose_stats = recover_block(build_hyperplanes(matrix), x, tau=1.0)
        assert strict_stats.forced_columns == 1 and loose_stats.forced_columns == 0
        assert np.array_equal(strict, loose)
        oracle, _, relative = nearest_subspace_recovery(matrix.entries, x[:, 0])
        assert strict_stats.residuals[0] == pytest.approx(relative, abs=1e-12)
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
    recovered, stats = recover_block(hs, x, tau=1e-8)
    zero_eps = 1e-12 * np.linalg.norm(x, axis=0).max()
    relative = []
    for j in range(x.shape[1]):
        oracle, index_set, rel = nearest_subspace_recovery(matrix.entries, x[:, j], zero_eps)
        assert_allclose(recovered[:, j], oracle, atol=1e-9)
        if index_set is not None:
            relative.append(rel)
    assert_allclose(stats.residuals, relative, atol=1e-12)
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
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        zero_eps = 1e-12 * np.linalg.norm(x, axis=0).max()
        relative = []
        for j in range(200):
            oracle, index_set, rel = nearest_subspace_recovery(matrix.entries, x[:, j], zero_eps)
            assert_allclose(recovered[:, j], oracle, atol=1e-9)
            if index_set is not None:
                relative.append(rel)
        assert_allclose(stats.residuals, relative, atol=1e-12)
        assert stats.forced_columns == sum(r > 1e-8 for r in relative) == 1

    def test_deterministic(self, matrix):
        s = sparse_source(seed=3, t=500)
        x = matrix.entries @ s
        r1, st1 = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        r2, st2 = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        assert np.array_equal(r1, r2)
        assert np.array_equal(st1.residuals, st2.residuals)

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
    a = RecoveryStats(10, 2, 7, 1, np.array([0.1, 0.2]))
    b = RecoveryStats(5, 0, 5, 0, np.array([0.3]))
    merged = RecoveryStats.merged([a, b])
    assert merged.total_columns == 15
    assert merged.zero_columns == 2
    assert merged.clean_columns == 12
    assert merged.forced_columns == 1
    assert merged.residuals.tolist() == [0.1, 0.2, 0.3]
    # each positionally built census is one group
    assert merged.group_residuals.tolist() == [2, 1]
    # positional construction leaves the norm range empty
    assert (merged.peak, merged.floor) == (0.0, np.inf)
    empty = RecoveryStats.merged([])
    assert empty.total_columns == 0 and empty.group_residuals.size == 0
    assert (empty.peak, empty.floor) == (0.0, np.inf)


def test_recovery_stats_merge_norm_range():
    a = RecoveryStats(10, 2, 7, 1, np.array([0.1, 0.2]), peak=4.0, floor=0.5)
    b = RecoveryStats(5, 0, 5, 0, np.array([0.3]), peak=9.0, floor=2.0)
    c = RecoveryStats(3, 3, 0, 0, np.empty(0))  # all zero: no kept column
    merged = RecoveryStats.merged([a, b, c])
    assert (merged.peak, merged.floor) == (9.0, 0.5)


class TestNormRange:
    # peak: the largest column norm of a call; floor: the smallest it kept non-zero

    def test_peak_and_floor(self, matrix):
        x = matrix.entries @ sparse_source(seed=6, t=8)
        x[:, 3] *= 1e-9
        x[:, 5] = 0.0
        norms = np.linalg.norm(x, axis=0)
        _, stats = recover_block(build_hyperplanes(matrix), x, 1e-8)
        assert stats.peak == norms.max() == column_peaks(x)[0]
        assert stats.floor == norms[3]
        # a group's peak zeroes column 3: the floor is the smallest norm left
        _, piece = recover_block(build_hyperplanes(matrix), x, 1e-8, column_peaks(x) * 1e4)
        assert piece.peak == norms.max()
        assert piece.floor == np.delete(norms, [3, 5]).min()

    def test_stacked_groups(self, matrix, rng):
        x = rng.normal(size=(2, 3, 7))
        x[1] *= 10.0
        norms = np.linalg.norm(x, axis=1)
        _, stats = recover_block(build_hyperplanes(matrix), x, 0.1)
        assert stats.peak == norms.max()
        assert stats.floor == norms.min()

    @pytest.mark.parametrize("shape", [(3, 0), (3, 4), (2, 3, 0)])
    def test_nothing_kept(self, matrix, shape):
        _, stats = recover_block(build_hyperplanes(matrix), np.zeros(shape), 0.05)
        assert (stats.peak, stats.floor) == (0.0, np.inf)


class TestStackedRecovery:
    # a (G, m, T) input is G independent groups, each with its own zero threshold
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, matrix, bad):
        x = matrix.entries @ sparse_source(seed=1, t=5)
        x[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        stacked = np.stack([matrix.entries @ sparse_source(seed=2, t=5), x])
        with pytest.raises(ValueError, match="finite"):
            recover_block(build_hyperplanes(matrix), stacked, tau=1e-8)

    def test_threshold_is_per_group(self, matrix):
        # group 0's small column sits under its own threshold; group 1 is all
        # small, so the same size is active there
        big = matrix.entries @ sparse_source(seed=4, t=6)
        big[:, 2] = 1e-13 * matrix.entries[:, 0]
        small = 1e-15 * (matrix.entries @ sparse_source(seed=5, t=6))
        stacked = np.stack([big, small])
        recovered, stats = recover_block(build_hyperplanes(matrix), stacked, tau=1e-8)
        assert recovered.shape == (2, 4, 6)
        assert not recovered[0, :, 2].any()
        per_group = [recover_block(build_hyperplanes(matrix), g, tau=1e-8) for g in stacked]
        for g, (rec, _) in enumerate(per_group):
            assert np.array_equal(recovered[g], rec)
        assert stats.zero_columns == sum(s.zero_columns for _, s in per_group)
        assert per_group[1][1].zero_columns == int((small == 0).all(axis=0).sum())
        # one 2-D call over both groups would zero every column of group 1
        _, joint = recover_block(build_hyperplanes(matrix), np.concatenate([big, small], axis=1), tau=1e-8)
        assert joint.zero_columns == per_group[0][1].zero_columns + 6

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
            recover_block(build_hyperplanes(matrix), np.zeros((1, 2, 3, 5)), tau=0.1)


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
        # a few columns far below the group's largest: zero here, active in a smaller group
        x[:, rng.random(t) < 0.2] *= 1e-13
        groups.append(x)
    stacked = np.stack(groups)
    recovered, stats = recover_block(hs, stacked, tau=1e-6)
    separate = [recover_block(hs, x, tau=1e-6) for x in groups]
    assert recovered.shape == (len(groups), n, t)
    for g, (rec, _) in enumerate(separate):
        assert np.array_equal(recovered[g], rec)
    parts = [part for _, part in separate]
    merged = RecoveryStats.merged(parts)
    for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
        assert getattr(stats, field) == getattr(merged, field)
    assert np.array_equal(stats.residuals, merged.residuals)
    # each group's residual count, so the residuals can be cut per group
    assert np.array_equal(stats.group_residuals, merged.group_residuals)


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
def test_pieces_with_group_peaks_equal_whole_call(case):
    # a group cut into column pieces, each call given the whole group's peaks,
    # recovers to the bits and census of one call on the whole group
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
        x[:, rng.random(t) < 0.2] *= 1e-13  # under the group's threshold, maybe not a piece's
        groups.append(x)
    x = np.stack(groups) if stacked else groups[0]
    whole, stats = recover_block(hs, x, tau=1e-6)
    peaks = column_peaks(x)
    bounds = list(zip([0, *cuts], [*cuts, t]))
    pieces = [recover_block(hs, x[..., a:b], 1e-6, peaks) for a, b in bounds]
    assert np.array_equal(np.concatenate([rec for rec, _ in pieces], axis=-1), whole)
    merged = RecoveryStats.merged([part for _, part in pieces])
    for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
        assert getattr(merged, field) == getattr(stats, field)
    if stacked:  # pieces pool their groups' residuals piece by piece
        assert np.array_equal(np.sort(merged.residuals), np.sort(stats.residuals))
    else:
        assert np.array_equal(merged.residuals, stats.residuals)
    assert np.array_equal(np.max([column_peaks(x[..., a:b]) for a, b in bounds], axis=0), peaks)


class TestGroupPeaks:
    def test_peaks_are_the_largest_column_norms(self, matrix, rng):
        # the oracle's peaks carry the bits of each group's own call
        x = rng.normal(size=(2, 3, 7))
        assert [recover_block(build_hyperplanes(matrix), group, 0.1)[1].peak for group in x] == column_peaks(x).tolist()
        assert column_peaks(x[0]).shape == (1,)
        assert np.array_equal(column_peaks(np.zeros((2, 3, 0))), [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            recover_block(build_hyperplanes(matrix), np.full((3, 2), np.nan), 0.1)

    def test_bad_peaks_rejected(self, matrix, rng):
        x = rng.normal(size=(2, 3, 7))
        own = column_peaks(x)
        recover_block(build_hyperplanes(matrix), x, 0.1, own * 2)  # larger peaks are a larger group's
        for bad in (own[:1], own / 2, np.array([np.nan, 1e9]), np.array([np.inf, 1e9])):
            with pytest.raises(ValueError, match="peaks"):
                recover_block(build_hyperplanes(matrix), x, 0.1, bad)

    def test_larger_peaks_zero_more_columns(self, matrix):
        x = matrix.entries @ sparse_source(seed=6, t=8)
        x[:, 3] *= 1e-9
        _, alone = recover_block(build_hyperplanes(matrix), x, 1e-8)
        _, piece = recover_block(build_hyperplanes(matrix), x, 1e-8, column_peaks(x) * 1e4)
        assert piece.zero_columns == alone.zero_columns + 1


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
    whole, _ = recover_block(build_hyperplanes(two), y, 0.05)
    for j in range(0, 500, 37):
        assert np.array_equal(recover_block(build_hyperplanes(two), y[:, j : j + 1], 0.05, column_peaks(y))[0][:, 0], whole[:, j])
