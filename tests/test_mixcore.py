import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import det_cofactor, mix_reference
from ubssvc import (
    MixingMatrix,
    as_sequence,
    check_sparsity,
    generalized_inverse,
    mix_block,
    snap_to_8bit,
    validate_mixing_matrix,
)
from ubssvc.mixcore import GRAM_COND_BOUND

# frozen via the cofactor oracle on the built-in matrix
DEFAULT_DET_MAGNITUDES = {
    (0, 1, 2): 0.138125,
    (0, 1, 3): 0.232875,
    (0, 2, 3): 0.28075,
    (1, 2, 3): 0.579,
}


class TestFrame:
    # a sequence is one (count, H, W) float64 array, checked once by as_sequence
    def test_dimensions(self):
        seq = as_sequence(np.zeros((2, 3, 5)))
        assert seq.shape == (2, 3, 5) and seq.dtype == np.float64
        assert as_sequence([np.zeros((3, 5))] * 4).shape == (4, 3, 5)

    def test_vector_is_row_major(self):
        seq = as_sequence([np.array([[1.0, 2.0], [3.0, 4.0]])])
        assert seq.reshape(1, -1).tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_rejects_non_plane(self):
        for bad in (np.zeros(6), np.zeros((2, 3)), np.zeros((1, 0, 4)), np.zeros((2, 2, 2, 2))):
            with pytest.raises(ValueError):
                as_sequence(bad)
        with pytest.raises(ValueError):
            as_sequence([])

    def test_rejects_non_finite(self):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                as_sequence(np.array([[[1.0, value]]]))
            with pytest.raises(ValueError, match="finite"):
                as_sequence([np.array([[1.0, value]])])

    def test_pixels_immutable(self):
        from ubssvc import default_config, encode_sequence, synth

        frames = synth.generate("sparse-detail", 5, 4, 4, seed=1)
        enc = encode_sequence(frames, default_config())
        for arr in (frames, enc.mixed_codes, enc.tail_codes):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0
        # a float64 array passes through without a copy
        raw = np.zeros((1, 2, 2))
        assert as_sequence(raw) is raw


class TestBlocks:
    def test_matrix_layout(self):
        # group b of a (B*n, H, W) sequence is the (n, H*W) matrix, one row per frame
        frames = np.arange(16.0).reshape(4, 2, 2)
        blocks = frames.reshape(2, 2, 4)
        assert blocks[0].tolist() == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]
        assert blocks[1].tolist() == [[8.0, 9.0, 10.0, 11.0], [12.0, 13.0, 14.0, 15.0]]

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="share dimensions"):
            as_sequence([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_rejects_single_frame(self, matrix):
        with pytest.raises(ValueError):
            mix_block(matrix, np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            mix_block(matrix, np.zeros((2, 2)))


class TestValidateMixingMatrix:
    def test_default_matrix_passes_with_oracle_determinants(self, matrix):
        report = validate_mixing_matrix(matrix, det_floor=1e-9)
        assert report.passed
        assert len(report.submatrix_results) == 4
        for cols, magnitude in report.submatrix_results:
            expected = abs(det_cofactor(matrix.entries[:, cols]))
            assert magnitude == pytest.approx(expected, abs=1e-12)
            assert magnitude == pytest.approx(DEFAULT_DET_MAGNITUDES[cols], abs=1e-12)
        assert report.min_abs_determinant == pytest.approx(0.138125, abs=1e-12)

    def test_duplicated_column_fails(self):
        raw = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        report = validate_mixing_matrix(raw)
        assert not report.passed
        results = dict(report.submatrix_results)
        assert results[(0, 2)] == pytest.approx(0.0, abs=1e-15)

    def test_hand_oracle_2x3(self):
        raw = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        report = validate_mixing_matrix(raw)
        assert report.passed
        assert [m for _, m in report.submatrix_results] == pytest.approx([1.0, 1.0, 1.0])

    def test_rejects_square_or_tall(self):
        with pytest.raises(ValueError):
            validate_mixing_matrix(np.eye(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            validate_mixing_matrix([[1.0, np.inf, 0.0], [0.0, 1.0, 1.0]])

    def test_rejects_bad_floor(self, matrix):
        with pytest.raises(ValueError):
            validate_mixing_matrix(matrix, det_floor=0.0)

    def test_column_permutations_pass(self, matrix):
        import itertools

        for perm in itertools.permutations(range(4)):
            assert validate_mixing_matrix(matrix.entries[:, perm]).passed


class TestMixingMatrixConstruction:
    def test_zero_column_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MixingMatrix([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            MixingMatrix(np.eye(3))

    def test_entries_immutable(self, matrix):
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 9.9

    def test_ill_conditioned_gram_rejected_at_construction(self):
        # every 2x2 submatrix passes the determinant floor, but A A^T has a
        # condition number near 1e16, which the decoder's dense solve cannot use
        entries = [[1e8, 0.5, 0.25], [0.5, 1.0, -0.75]]
        assert validate_mixing_matrix(entries).passed
        with pytest.raises(ValueError, match="numerically dependent"):
            MixingMatrix(entries)
        gram = np.array(entries) @ np.array(entries).T
        assert np.linalg.cond(gram) > GRAM_COND_BOUND
        MixingMatrix([[1e3, 0.5, 0.25], [0.5, 1.0, -0.75]])  # cond near 1e6 passes

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_rejected_at_construction(self):
        with pytest.raises(ValueError, match="numerically dependent"):
            MixingMatrix([[1e200, 0.5, 0.25], [0.5, 1.0, -0.75]])


class TestMixBlock:
    def test_zero_sources_give_zero_mix(self, matrix):
        mixed = mix_block(matrix, np.zeros((4, 4, 6)))
        assert mixed.shape == (3, 4, 6)
        assert not mixed.any()

    def test_constant_sources_scale_row_sums(self, matrix):
        mixed = mix_block(matrix, np.full((4, 8, 8), 100.0))
        assert mixed[:, 0, 0].tolist() == pytest.approx([165.0, 175.0, 165.0])
        for plane in mixed:
            assert np.ptp(plane) == 0.0

    def test_basis_sources_copy_matrix_rows(self, matrix):
        # pixel t of frame j is 1 iff t == j, over 4-pixel frames
        mixed = mix_block(matrix, np.eye(4).reshape(4, 2, 2))
        for i, plane in enumerate(mixed):
            assert_allclose(plane.ravel(), matrix.entries[i])

    def test_frame_count_mismatch(self, matrix):
        with pytest.raises(ValueError):
            mix_block(matrix, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            mix_block(matrix, np.zeros((2, 3, 2, 2)))

    def test_linearity(self, matrix, rng):
        a = rng.uniform(0, 255, size=(4, 4, 4))
        b = rng.uniform(0, 255, size=(4, 4, 4))
        alpha, beta = 0.7, -1.3
        combined = mix_block(matrix, alpha * a + beta * b)
        separate = alpha * mix_block(matrix, a) + beta * mix_block(matrix, b)
        assert_allclose(combined, separate, rtol=1e-9)

    def test_stacked_groups_match_block_by_block(self, matrix, rng):
        # one batched product over every group gives the bits of mixing each alone
        frames = rng.uniform(0, 255, size=(20, 6, 10))
        stacked = mix_block(matrix, frames.reshape(5, 4, 6, 10)).reshape(15, 6, 10)
        assert np.array_equal(stacked, mix_reference(matrix.entries, frames))


class TestGeneralizedInverse:
    def test_orthonormal_rows_give_transpose(self):
        # rows (1,2,2)/3 and (2,1,-2)/3 are orthonormal and every square
        # submatrix is nonsingular
        m = MixingMatrix(np.array([[1.0, 2.0, 2.0], [2.0, 1.0, -2.0]]) / 3.0)
        assert_allclose(generalized_inverse(m), m.entries.T, atol=1e-14)

    def test_identity_property(self, matrix):
        pinv = generalized_inverse(matrix)
        assert pinv.shape == (4, 3)
        assert np.abs(matrix.entries @ pinv - np.eye(3)).max() <= 1e-12

    def test_matches_svd_oracle(self, matrix):
        assert_allclose(generalized_inverse(matrix), np.linalg.pinv(matrix.entries), atol=1e-12)

    def test_minimum_norm_solution(self, matrix, rng):
        pinv = generalized_inverse(matrix)
        for _ in range(20):
            x = rng.uniform(-500, 500, size=3)
            y = pinv @ x
            assert_allclose(matrix.entries @ y, x, rtol=1e-9)


class TestCheckSparsity:
    def test_column_within_bound(self):
        col = np.array([[5.0], [0.0], [-2.0], [0.0]])
        report = check_sparsity(col, m=3)
        assert report.satisfied and report.max_nonzeros == 2

    def test_column_violates_bound(self):
        col = np.array([[1.0], [1.0], [1.0], [0.0]])
        report = check_sparsity(col, m=3)
        assert not report.satisfied
        assert report.max_nonzeros == 3
        assert report.fraction_ok == 0.0

    def test_zero_matrix_satisfied(self):
        report = check_sparsity(np.zeros((4, 7)), m=3)
        assert report.satisfied
        assert report.fraction_ok == 1.0
        assert report.histogram == (7, 0, 0, 0, 0)

    def test_accepts_frame_block(self, matrix):
        # a group of frames enters as its (n, H*W) matrix
        block = np.zeros((4, 2, 2))
        assert check_sparsity(block.reshape(4, -1), m=3).satisfied

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            check_sparsity(np.zeros((4, 2)), m=5)


def test_snap_to_8bit_rules():
    values = np.array([255.7, -3.2, 100.5, 99.4, 0.0])
    assert snap_to_8bit(values).tolist() == [255.0, 0.0, 101.0, 99.0, 0.0]
