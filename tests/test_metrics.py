import math

import numpy as np
import pytest

from oracles import psnr_reference, squared_error_sums_reference
from ubssvc import metrics as metrics_module
from ubssvc import mixcore, pipeline, sequence_report

# frozen: 10*log10(255^2 / 16^2) and 20*log10(2)
PSNR_DIFF16 = 24.04840395556061
DOUBLING_DROP = 6.020599913279624


def _const(value, shape=(4, 4)):
    return np.full(shape, float(value))


def frame_mse(a, b) -> float:
    """The MSE of one pair of (H, W) planes, scored as 1-frame sequences."""
    return sequence_report([a], [b]).per_frame_mse[0]


def frame_psnr(a, b) -> float:
    """The PSNR of one pair of (H, W) planes, scored as 1-frame sequences."""
    return sequence_report([a], [b]).per_frame_psnr[0]


class TestFrameMse:
    def test_identical(self):
        assert frame_mse(_const(7), _const(7)) == 0.0

    def test_full_range(self):
        assert frame_mse(_const(255), _const(0)) == 65025.0

    def test_uniform_difference_16(self):
        assert frame_mse(_const(100), _const(116)) == 256.0

    def test_symmetry(self, rng):
        a = rng.uniform(0, 255, size=(6, 6))
        b = rng.uniform(0, 255, size=(6, 6))
        assert frame_mse(a, b) == frame_mse(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_mse(_const(0, (2, 2)), _const(0, (2, 3)))

    def test_compares_in_8bit_domain(self):
        # sub-rounding differences vanish, out-of-range values clamp
        assert frame_mse(_const(100.2), _const(100.4)) == 0.0
        assert frame_mse(_const(300), _const(255)) == 0.0


class TestFramePsnr:
    def test_full_range_is_zero_db(self):
        assert frame_psnr(_const(255), _const(0)) == 0.0

    def test_identical_is_infinite(self):
        value = frame_psnr(_const(42), _const(42))
        assert math.isinf(value) and value > 0

    def test_uniform_difference_16(self):
        assert frame_psnr(_const(10), _const(26)) == pytest.approx(PSNR_DIFF16, abs=0.01)

    def test_doubling_error_drops_six_db(self):
        p16 = frame_psnr(_const(50), _const(66))
        p32 = frame_psnr(_const(50), _const(82))
        assert p16 - p32 == pytest.approx(DOUBLING_DROP, abs=0.01)

    def test_monotone_in_mse(self):
        values = [frame_psnr(_const(0), _const(d)) for d in (4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_reference_formula(self, rng):
        for _ in range(25):
            a = rng.uniform(-10, 265, size=(5, 7))
            b = rng.uniform(-10, 265, size=(5, 7))
            got = frame_psnr(a, b)
            want = psnr_reference(a, b)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)


class TestSequenceReport:
    def test_identical_sequences(self):
        frames = [_const(9)] * 3
        report = sequence_report(frames, frames)
        assert report.infinite_count == 3
        assert math.isinf(report.mean_psnr)
        assert all(math.isinf(p) for p in report.per_frame_psnr)

    def test_single_differing_frame(self):
        ref = [_const(10), _const(20), _const(30)]
        test = [_const(10), _const(36), _const(30)]
        report = sequence_report(ref, test)
        assert report.infinite_count == 2
        assert report.mean_psnr == pytest.approx(PSNR_DIFF16, abs=0.01)

    def test_psnr_mse_relation_holds(self, rng):
        ref = rng.uniform(0, 255, size=(5, 4, 4))
        test = rng.uniform(0, 255, size=(5, 4, 4))
        report = sequence_report(ref, test)
        for mse, psnr in zip(report.per_frame_mse, report.per_frame_psnr):
            if mse > 0:
                assert psnr == pytest.approx(10 * math.log10(65025.0 / mse), abs=1e-12)

    def test_empty_sequences_rejected(self):
        with pytest.raises(ValueError):
            sequence_report([], [])
        # two (0, H, W) arrays pass the shape checks and fail the count check
        with pytest.raises(ValueError, match="cannot report on empty sequences"):
            sequence_report(np.zeros((0, 4, 4)), np.zeros((0, 4, 4)))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sequence_report([_const(1)], [_const(1), _const(2)])
        with pytest.raises(ValueError):
            sequence_report(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))

    def test_array_report_matches_frame_by_frame(self, rng, monkeypatch):
        # one MSE per frame, and the same bits as scoring each frame alone
        import ubssvc.metrics as metrics_module

        ref = rng.uniform(-10, 265, size=(6, 5, 7))
        test = ref.copy()
        test[1:] += rng.normal(0, 4, size=(5, 5, 7))
        calls = []
        sums = metrics_module._squared_error_sums
        counting = lambda a, b: calls.append(len(a)) or sums(a, b)  # noqa: E731
        monkeypatch.setattr(metrics_module, "_squared_error_sums", counting)
        report = sequence_report(ref, test)
        assert calls == [6]  # one pass over the sequence, one sum per frame
        assert report.per_frame_mse == tuple(frame_mse(a, b) for a, b in zip(ref, test))
        assert report.per_frame_psnr == tuple(frame_psnr(a, b) for a, b in zip(ref, test))
        assert report.infinite_count == 1
        finite = [frame_psnr(a, b) for a, b in zip(ref[1:], test[1:])]
        assert report.mean_psnr == sum(finite) / len(finite)
        with pytest.raises(ValueError, match="finite"):
            sequence_report(ref, np.full_like(test, np.nan))

    @pytest.mark.parametrize("tile", [1, 7, 35, 36, 32768])
    def test_slabs_give_exact_sums(self, rng, monkeypatch, tile):
        # tasks of one row of a frame, one frame, or all frames give the exact integer sums
        ref = rng.uniform(-10, 265, size=(7, 5, 7))
        test = ref + rng.normal(0, 30, size=ref.shape)
        monkeypatch.setattr(pipeline, "TILE", tile)
        report = sequence_report(ref, test)
        snap = lambda v: np.floor(np.clip(v, 0, 255) + 0.5).astype(np.int64)  # noqa: E731
        exact = ((snap(ref) - snap(test)) ** 2).reshape(7, -1).sum(axis=1)
        assert report.per_frame_mse == tuple(float(e) / 35 for e in exact)
        assert report.per_frame_mse == tuple(frame_mse(a, b) for a, b in zip(ref, test))

    @pytest.mark.parametrize("tile", [1, 7, 32768])
    def test_odd_shapes_give_exact_sums(self, rng, monkeypatch, tile):
        # frames of odd height and width, cut into rows, row tiles or runs of
        # frames, give the exact integer sums of each frame
        monkeypatch.setattr(pipeline, "TILE", tile)
        snap = lambda v: np.floor(np.clip(v, 0, 255) + 0.5).astype(np.int64)  # noqa: E731
        for shape in ((9, 17, 33), (9, 287, 353)):
            ref = rng.uniform(-10, 265, size=shape)
            test = ref + rng.normal(0, 30, size=shape)
            exact = ((snap(ref) - snap(test)) ** 2).reshape(shape[0], -1).sum(axis=1)
            pixels = shape[1] * shape[2]
            assert sequence_report(ref, test).per_frame_mse == tuple(float(e) / pixels for e in exact)

    @pytest.mark.parametrize("tile", [9, 18, 32768])
    def test_per_frame_mse_equals_integer_sums(self, rng, monkeypatch, tile):
        # a task of one row of one frame, so that each frame's rows are spread
        # over six tasks, of two rows, or one of all five frames: each frame's
        # batched dot products give the Python-int sum
        ref = rng.uniform(-10, 265, size=(5, 6, 9))
        test = rng.uniform(-10, 265, size=ref.shape)
        monkeypatch.setattr(pipeline, "TILE", tile)
        report = sequence_report(ref, test)
        assert report.per_frame_mse == tuple(total / 54 for total in squared_error_sums_reference(ref, test))

    def test_score_starts_no_thread(self, rng, monkeypatch, no_threads):
        # tasks of one row, five to a frame, are summed on the calling thread
        monkeypatch.setattr(pipeline, "TILE", 7)
        ref = rng.uniform(-10, 265, size=(7, 5, 7))
        test = ref + rng.normal(0, 30, size=ref.shape)
        report = sequence_report(ref, test)
        assert report.per_frame_mse == tuple(total / 35 for total in squared_error_sums_reference(ref, test))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tile", [7, 35 * 2, 32768])
    def test_non_finite_pixel_in_any_slab_raises(self, rng, monkeypatch, tile):
        # each task, of one row, two frames or all, is checked: a bad pixel in
        # the first or last task of either argument fails the report
        monkeypatch.setattr(pipeline, "TILE", tile)
        ref = rng.uniform(-10, 265, size=(7, 5, 7))
        for value in (np.nan, np.inf, -np.inf):
            for where in ((0, 0, 0), (-1, -1, -1)):
                for side in range(2):
                    pair = [ref.copy(), ref.copy()]
                    pair[side][where] = value
                    with pytest.raises(ValueError, match="frame pixels must be finite"):
                        sequence_report(*pair)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pixel_is_reported_before_a_shape_error(self, value):
        # as when each input was scanned whole before the shapes were compared
        good, bad = np.zeros((3, 4, 4)), np.zeros((3, 4, 4))
        bad[1, 2, 3] = value
        for pair in ((bad, np.zeros((2, 4, 4))), (good[:2], bad), (bad, np.zeros((3, 4, 5))), (bad, [])):
            with pytest.raises(ValueError, match="frame pixels must be finite"):
                sequence_report(*pair)
        with pytest.raises(ValueError, match="a frame sequence must be"):
            sequence_report(good, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="sequence lengths differ"):
            sequence_report(good, good[:2])

    def test_no_whole_array_scan(self, rng, monkeypatch):
        # the slabs are the only check: all_finite is never called on success
        scans = []
        for module in (mixcore, pipeline, metrics_module):
            scan = module.all_finite
            monkeypatch.setattr(module, "all_finite", lambda arr, scan=scan: scans.append(arr) or scan(arr))
        ref = rng.uniform(0, 250, size=(5, 6, 7))
        report = sequence_report(ref, ref + 1.0)
        assert scans == [] and report.per_frame_mse == (1.0,) * 5

    def test_serializations(self):
        report = sequence_report([_const(0), _const(5)], [_const(16), _const(5)])
        table = report.to_table()
        assert "mean psnr" in table and "inf" in table
        # an infinite PSNR takes the width of a finite one
        assert table.splitlines()[1:3] == ["    0     256.00000     24.048", "    1       0.00000        inf"]
        identical = sequence_report([_const(5)], [_const(5)]).to_table()
        assert identical.endswith("mean psnr over finite frames: inf dB (1 identical frame(s))")
        porcelain = report.to_porcelain()
        assert "frame.0.mse=256.0" in porcelain
        assert "frame.1.psnr=inf" in porcelain
        assert "infinite_count=1" in porcelain
