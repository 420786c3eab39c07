import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import det_cofactor, mix_reference, sparsity_census
from ubssvc import MixingMatrix, as_sequence, generalized_inverse, snap_to_8bit
from ubssvc import cli, mixcore
from ubssvc.mixcore import DET_FLOOR, GRAM_COND_BOUND, all_finite, mixing_evidence

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value, finite", [(np.nan, False), (np.inf, False), (-np.inf, False), (1e308, True)])
    def test_finiteness_anywhere(self, value, finite):
        # 1e308 * 0 is 0, so the zero-dot scan accepts it where a sum would overflow
        for index in ((0, 0, 0), (1, 2, 3), (2, 4, 6)):
            arr = np.ones((3, 5, 7))
            arr[index] = value
            assert all_finite(arr) is finite
            if finite:
                assert as_sequence(arr) is arr
            else:
                with pytest.raises(ValueError, match="finite"):
                    as_sequence(arr)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value, finite", [(np.nan, False), (np.inf, False), (-np.inf, False), (1e38, True)])
    def test_finiteness_of_unaligned_float32_in_slabs(self, value, finite):
        # a container's float32 codes start at an odd byte offset; 4000 rows of
        # 1000 bytes are 16 slabs of 262 rows
        codes = np.frombuffer(bytearray(3 + 4 * 40 * 100 * 250), dtype=np.float32, offset=3).reshape(40, 100, 250)
        assert not codes.flags.aligned and mixcore.SLAB_BYTES // 1000 == 262
        for index in ((0, 0, 0), (20, 50, 125), (39, 99, 249)):  # first, middle and last slab
            codes[index] = value
            tracemalloc.start()
            try:
                assert all_finite(codes) is finite
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            codes[index] = 0.0
            # one slab's aligned copy, never the whole 4 MB array's
            assert peak < 2 * mixcore.SLAB_BYTES

    def test_pixels_immutable(self):
        from ubssvc import CodecConfig, encode_sequence, synth

        frames = synth.generate("sparse-detail", 5, 4, 4, seed=1)
        enc = encode_sequence(frames, CodecConfig())
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

    def test_rejects_single_frame(self):
        from ubssvc import CodecConfig, encode_sequence

        with pytest.raises(ValueError):
            encode_sequence(np.zeros((1, 2, 2)), CodecConfig())
        with pytest.raises(ValueError):
            encode_sequence(np.zeros((2, 2)), CodecConfig())


class TestValidateMixingMatrix:
    def test_default_matrix_passes_with_oracle_determinants(self, matrix):
        dets, gram_cond = mixing_evidence(matrix.entries)
        assert len(dets) == 4
        for cols, magnitude in dets:
            expected = abs(det_cofactor(matrix.entries[:, cols]))
            assert magnitude == pytest.approx(expected, abs=1e-12)
            assert magnitude == pytest.approx(DEFAULT_DET_MAGNITUDES[cols], abs=1e-12)
        assert min(mag for _, mag in dets) == pytest.approx(0.138125, abs=1e-12)
        assert gram_cond == pytest.approx(np.linalg.cond(matrix.entries @ matrix.entries.T))
        assert gram_cond <= GRAM_COND_BOUND

    def test_duplicated_column_fails(self):
        raw = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"near-singular square submatrix: columns \(0, 2\)"):
            MixingMatrix(raw)
        results = dict(mixing_evidence(raw)[0])
        assert results[(0, 2)] == pytest.approx(0.0, abs=1e-15)

    def test_hand_oracle_2x3(self):
        raw = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        MixingMatrix(raw)
        assert [m for _, m in mixing_evidence(raw)[0]] == pytest.approx([1.0, 1.0, 1.0])

    def test_det_floor_is_the_verdict(self):
        # columns (0, 2) have |det| = x; the Gram matrix stays well conditioned
        def with_det(x):
            return [[1.0, 0.0, 1.0], [0.0, 1.0, x]]

        MixingMatrix(with_det(2 * DET_FLOOR))
        with pytest.raises(ValueError, match="near-singular"):
            MixingMatrix(with_det(DET_FLOOR / 2))

    def test_rejects_square_or_tall(self):
        for shape in ((3, 3), (4, 3), (1, 1)):
            with pytest.raises(ValueError, match="underdetermined"):
                MixingMatrix(np.ones(shape))
        with pytest.raises(ValueError, match="2-D"):
            MixingMatrix(np.ones(4))

    def test_rejects_non_finite(self):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                MixingMatrix([[1.0, value, 0.0], [0.0, 1.0, 1.0]])

    def test_column_permutations_pass(self, matrix):
        import itertools

        for perm in itertools.permutations(range(4)):
            MixingMatrix(matrix.entries[:, perm])


class TestMixingMatrixConstruction:
    def test_zero_column_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MixingMatrix([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            MixingMatrix(np.eye(3))
        with pytest.raises(ValueError, match="at least 2 rows"):
            MixingMatrix([[1.0, 2.0]])

    def test_entries_immutable(self, matrix):
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 9.9

    def test_ill_conditioned_gram_rejected_at_construction(self, tmp_path, capsys):
        # every 2x2 submatrix passes the determinant floor, but A A^T has a
        # condition number near 1e16, which the decoder's dense solve cannot use
        entries = [[1e8, 0.5, 0.25], [0.5, 1.0, -0.75]]
        dets, gram_cond = mixing_evidence(np.array(entries))
        assert min(mag for _, mag in dets) > DET_FLOOR and gram_cond > GRAM_COND_BOUND
        with pytest.raises(ValueError, match="numerically dependent"):
            MixingMatrix(entries)
        # validate-matrix gives the same verdict
        path = tmp_path / "gram.cfg"
        path.write_text("n = 3\nm = 2\nmatrix = 1e8 0.5 0.25  0.5 1.0 -0.75\n")
        assert cli.main(["validate-matrix", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "numerically dependent" in out
        gram = np.array(entries) @ np.array(entries).T
        assert np.linalg.cond(gram) > GRAM_COND_BOUND
        MixingMatrix([[1e3, 0.5, 0.25], [0.5, 1.0, -0.75]])  # cond near 1e6 passes

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_rejected_at_construction(self):
        with pytest.raises(ValueError, match="numerically dependent"):
            MixingMatrix([[1e200, 0.5, 0.25], [0.5, 1.0, -0.75]])
        assert mixing_evidence(np.array([[1e200, 0.5, 0.25], [0.5, 1.0, -0.75]]))[1] == np.inf

    def test_empty_matrix_has_infinite_gram_cond(self):
        for shape in ((0, 3), (0, 0)):
            with pytest.raises(ValueError):
                MixingMatrix(np.zeros(shape))
            assert mixing_evidence(np.zeros(shape))[1] == np.inf


class TestMixBlock:
    # pixelwise x = A s over one group, through the oracle that encode's
    # codes are checked against bit for bit in test_pipeline
    def test_zero_sources_give_zero_mix(self, matrix):
        mixed = mix_reference(matrix.entries, np.zeros((4, 4, 6)))
        assert mixed.shape == (3, 4, 6)
        assert not mixed.any()

    def test_constant_sources_scale_row_sums(self, matrix):
        mixed = mix_reference(matrix.entries, np.full((4, 8, 8), 100.0))
        assert mixed[:, 0, 0].tolist() == pytest.approx([165.0, 175.0, 165.0])
        for plane in mixed:
            assert np.ptp(plane) == 0.0

    def test_basis_sources_copy_matrix_rows(self, matrix):
        # pixel t of frame j is 1 iff t == j, over 4-pixel frames
        mixed = mix_reference(matrix.entries, np.eye(4).reshape(4, 2, 2))
        for i, plane in enumerate(mixed):
            assert_allclose(plane.ravel(), matrix.entries[i])

    def test_linearity(self, matrix, rng):
        a = rng.uniform(0, 255, size=(4, 4, 4))
        b = rng.uniform(0, 255, size=(4, 4, 4))
        alpha, beta = 0.7, -1.3
        combined = mix_reference(matrix.entries, alpha * a + beta * b)
        separate = alpha * mix_reference(matrix.entries, a) + beta * mix_reference(matrix.entries, b)
        assert_allclose(combined, separate, rtol=1e-9)


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
        counts, _, satisfied = sparsity_census(col, m=3)
        assert satisfied and counts.max() == 2

    def test_column_violates_bound(self):
        col = np.array([[1.0], [1.0], [1.0], [0.0]])
        counts, _, satisfied = sparsity_census(col, m=3)
        assert not satisfied
        assert counts.max() == 3
        assert np.mean(counts <= 2) == 0.0

    def test_zero_matrix_satisfied(self):
        counts, histogram, satisfied = sparsity_census(np.zeros((4, 7)), m=3)
        assert satisfied
        assert np.mean(counts <= 2) == 1.0
        assert histogram == (7, 0, 0, 0, 0)

    def test_accepts_frame_block(self, matrix):
        # a group of frames enters as its (n, H*W) matrix
        block = np.zeros((4, 2, 2))
        assert sparsity_census(block.reshape(4, -1), m=3)[2]


def test_snap_to_8bit_rules():
    values = np.array([255.7, -3.2, 100.5, 99.4, 0.0])
    codes = snap_to_8bit(values)
    assert codes.dtype == np.uint8
    assert codes.tolist() == [255, 0, 101, 99, 0]
