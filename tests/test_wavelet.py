import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import haar2_inverse_reference, haar2_reference, mix_reference
from ubssvc import BANDS, haar_forward, haar_inverse
from ubssvc import wavelet
from ubssvc.pipeline import _dequantize


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


class TestSlabs:
    @pytest.mark.parametrize("slab_rows", [1, 2, 3, 5, 7, 100])
    def test_slabs_give_whole_call_bits(self, rng, monkeypatch, slab_rows):
        stack = rng.uniform(-300, 300, size=(2, 3, 14, 10))
        bands = haar_forward(stack)
        whole = haar_inverse(bands)
        # one subband row of the stack is 2 * 3 * 5 float64s
        monkeypatch.setattr(wavelet, "SLAB_BYTES", slab_rows * 2 * 3 * 5 * 8)
        out = np.full(stack.shape, np.nan)
        assert haar_inverse(bands, out=out) is out
        assert np.array_equal(out, whole)
        reference = haar2_inverse_reference(*(band[1, 2] for band in bands))
        assert np.array_equal(out[1, 2], reference)

    @pytest.mark.parametrize(
        "shape, slabs",
        [
            ((8, 4, 32, 32), 1),  # a 64x64 decode chunk: 256 KiB per band, one slab
            ((1, 4, 144, 176), 4),  # CIF: 46-row slabs
            ((1, 4, 360, 640), 30),  # 720p: 12-row slabs
        ],
    )
    def test_slab_count(self, monkeypatch, shape, slabs):
        calls = []
        inner = wavelet._inverse_slab
        monkeypatch.setattr(wavelet, "_inverse_slab", lambda *args: calls.append(inner(*args)))
        haar_inverse([np.zeros(shape)] * 4)
        assert len(calls) == slabs

    def test_empty_stack(self):
        bands = [np.zeros((0, 3, 2))] * 4
        assert haar_inverse(bands).shape == (0, 6, 4)


class TestForwardSlabs:
    @pytest.mark.parametrize("slab_rows", [1, 2, 3, 5, 7, 100])
    def test_slabs_give_whole_call_bits(self, rng, monkeypatch, slab_rows):
        stack = rng.uniform(-300, 300, size=(2, 3, 14, 10))
        whole = haar_forward(stack)
        # one subband row of the stack is 2 * 3 * 5 float64s
        monkeypatch.setattr(wavelet, "SLAB_BYTES", slab_rows * 2 * 3 * 5 * 8)
        bands = haar_forward(stack)
        for got, want in zip(bands, whole):
            assert np.array_equal(got, want)
        reference = haar2_reference(stack[1, 2])
        for name, got in zip(BANDS, bands):
            assert np.array_equal(got[1, 2], reference[name])

    @pytest.mark.parametrize("slab_rows", [1, 2, 3, 5, 7, 100])
    @pytest.mark.parametrize("shape", [(2, 3, 14, 10), (2, 3, 13, 9)])
    def test_converted_slabs_give_whole_array_bits(self, rng, monkeypatch, slab_rows, shape):
        # the decoder's codes, edge-padded to even sides in their own dtype as
        # the pipeline pads them, dequantized slab by slab inside the transform
        pad = ((0, 0), (0, 0), (0, shape[2] % 2), (0, shape[3] % 2))
        cases = [
            (rng.integers(0, 256, size=shape).astype(np.uint8), (0.7131, -41.25)),
            (rng.uniform(-300, 300, size=shape).astype(np.float32), None),
        ]
        for codes, affine in cases:
            codes = np.pad(codes, pad, mode="edge")
            whole = haar_forward(_dequantize(codes, affine))
            # one subband row of the stack is 2 * 3 * 5 float64s
            monkeypatch.setattr(wavelet, "SLAB_BYTES", slab_rows * 2 * 3 * 5 * 8)
            bands = haar_forward(codes, lambda slab: _dequantize(slab, affine))
            monkeypatch.undo()
            for got, want in zip(bands, whole):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shape, slabs",
        [
            ((8, 3, 64, 64), 1),  # a run of eight 64x64 groups: 192 KiB per band, one slab
            ((1, 3, 288, 352), 3),  # CIF: 62-row slabs
            ((1, 3, 720, 1280), 22),  # 720p: 17-row slabs
        ],
    )
    def test_slab_count(self, monkeypatch, shape, slabs):
        calls = []
        inner = wavelet._forward_slab
        monkeypatch.setattr(wavelet, "_forward_slab", lambda *args: calls.append(inner(*args)))
        haar_forward(np.zeros(shape))
        assert len(calls) == slabs

    def test_empty_stack(self):
        bands = haar_forward(np.zeros((0, 6, 4)))
        assert [band.shape for band in bands] == [(0, 3, 2)] * 4


class TestProperties:
    def test_perfect_reconstruction_many_shapes(self, rng):
        for _ in range(50):
            h = 2 * int(rng.integers(1, 17))
            w = 2 * int(rng.integers(1, 17))
            plane = rng.uniform(0, 255, size=(h, w))
            back = haar_inverse(haar_forward(plane))
            assert np.abs(back - plane).max() <= 1e-12

    @pytest.mark.parametrize("slab_bytes", [8, 100, 1 << 10, wavelet.SLAB_BYTES])
    def test_round_trip_is_bitwise_on_8bit_and_float32_planes(self, rng, monkeypatch, slab_bytes):
        # each coefficient is (+-a +-b +-c +-d) / 2, exact in float64 for
        # such values, and so is every step back
        monkeypatch.setattr(wavelet, "SLAB_BYTES", slab_bytes)
        for _ in range(40):
            lead = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(0, 3))))
            shape = (*lead, 2 * int(rng.integers(1, 20)), 2 * int(rng.integers(1, 20)))
            pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
            codes = rng.uniform(-300, 300, size=shape).astype(np.float32)
            for plane in (pixels, codes):
                back = haar_inverse(haar_forward(plane))
                assert np.array_equal(back, plane)

    def test_parseval(self, rng):
        for _ in range(20):
            plane = rng.uniform(-100, 355, size=(16, 10))
            source_energy = (plane**2).sum()
            band_energy = sum((band**2).sum() for band in haar_forward(plane))
            assert abs(band_energy - source_energy) <= 1e-9 * source_energy

    def test_transform_commutes_with_mixing(self, matrix, rng):
        planes = rng.uniform(0, 255, size=(4, 8, 8))
        mixed = mix_reference(matrix.entries, planes)
        for source_band, mixed_band in zip(haar_forward(planes), haar_forward(mixed)):
            expected = matrix.entries @ source_band.reshape(4, -1)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(mixed_band.reshape(3, -1) - expected).max() <= 1e-9 * scale
