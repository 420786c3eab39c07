import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import haar2_inverse_reference, haar2_reference
from ubssvc import BANDS, haar_forward, haar_inverse, mix_block


def bands_of(plane) -> dict:
    return dict(zip(BANDS, haar_forward(plane)))


class TestForward:
    def test_constant_block_has_zero_detail(self):
        ll, lh, hl, hh = haar_forward(np.full((2, 2), 4.0))
        assert ll[0, 0] == pytest.approx(8.0)
        assert lh[0, 0] == hl[0, 0] == hh[0, 0] == 0.0

    def test_hand_worked_2x2(self):
        ll, lh, hl, hh = haar_forward(np.array([[1.0, 3.0], [5.0, 7.0]]))
        assert ll[0, 0] == pytest.approx(8.0)
        assert lh[0, 0] == pytest.approx(-2.0)
        assert hl[0, 0] == pytest.approx(-4.0)
        assert hh[0, 0] == pytest.approx(0.0)

    def test_zero_frame(self):
        for plane in haar_forward(np.zeros((6, 4))):
            assert plane.shape == (3, 2) and not plane.any()

    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValueError):
            haar_forward(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            haar_forward(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            haar_forward(np.zeros(4))

    def test_matches_pair_loop_oracle(self, rng):
        for _ in range(5):
            plane = rng.uniform(0, 255, size=(8, 12))
            sb = bands_of(plane)
            ref = haar2_reference(plane)
            for band in BANDS:
                # same arithmetic per coefficient, so the same bits
                assert np.array_equal(sb[band], ref[band])

    def test_stack_transforms_plane_by_plane(self, rng):
        # the last two axes are the plane; any leading axes are a stack
        stack = rng.uniform(0, 255, size=(2, 3, 6, 8))
        bands = haar_forward(stack)
        for i in range(2):
            for j in range(3):
                for got, want in zip(bands, haar_forward(stack[i, j])):
                    assert np.array_equal(got[i, j], want)


class TestInverse:
    def test_constant_subbands(self):
        bands = (np.array([[8.0]]), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert_allclose(haar_inverse(bands), np.full((2, 2), 4.0), atol=1e-12)

    def test_inverse_of_hand_example(self):
        plane = np.array([[1.0, 3.0], [5.0, 7.0]])
        assert_allclose(haar_inverse(haar_forward(plane)), plane, atol=1e-12)

    def test_roundtrip_random_8x8(self, rng):
        plane = rng.uniform(0, 255, size=(8, 8))
        back = haar_inverse(haar_forward(plane))
        assert np.abs(back - plane).max() <= 1e-12
        assert np.array_equal(back, haar2_inverse_reference(*haar2_reference(plane).values()))

    def test_rejects_mismatched_subbands(self):
        with pytest.raises(ValueError):
            haar_inverse((np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2))))

    def test_rejects_wrong_original_dims(self):
        bands = [np.zeros((2, 2))] * 4
        with pytest.raises(ValueError):
            haar_inverse(bands, out=np.empty((4, 5)))
        out = np.empty((4, 4))
        assert haar_inverse(bands, out=out) is out


class TestProperties:
    def test_perfect_reconstruction_many_shapes(self, rng):
        for _ in range(50):
            h = 2 * int(rng.integers(1, 17))
            w = 2 * int(rng.integers(1, 17))
            plane = rng.uniform(0, 255, size=(h, w))
            back = haar_inverse(haar_forward(plane))
            assert np.abs(back - plane).max() <= 1e-12

    def test_parseval(self, rng):
        for _ in range(20):
            plane = rng.uniform(-100, 355, size=(16, 10))
            source_energy = (plane**2).sum()
            band_energy = sum((band**2).sum() for band in haar_forward(plane))
            assert abs(band_energy - source_energy) <= 1e-9 * source_energy

    def test_transform_commutes_with_mixing(self, matrix, rng):
        planes = rng.uniform(0, 255, size=(4, 8, 8))
        mixed = mix_block(matrix, planes)
        for source_band, mixed_band in zip(haar_forward(planes), haar_forward(mixed)):
            expected = matrix.entries @ source_band.reshape(4, -1)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(mixed_band.reshape(3, -1) - expected).max() <= 1e-9 * scale
