import math
import os
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import decode_reference, mix_reference, quantize_reference
from ubssvc import (
    BANDS,
    CodecConfig,
    EncodedSequence,
    MixingMatrix,
    RecoveryStats,
    build_hyperplanes,
    decode_sequence,
    encode_sequence,
    generalized_inverse,
    load_config,
    read_container,
    roundtrip_eval,
    sequence_report,
    write_container,
)
from ubssvc import pipeline as pipeline_module
from ubssvc import synth
from ubssvc.pipeline import parse_config
from ubssvc.wavelet import haar_forward


def _zeros(count, shape=(8, 8)):
    return np.zeros((count, *shape))


def _band_columns(frames, band) -> np.ndarray:
    """(count, T) coefficients of one band, one row per frame."""
    return dict(zip(BANDS, haar_forward(frames)))[band].reshape(len(frames), -1)


class TestEncodeAccounting:
    def test_40_frames_give_30_mixed(self):
        frames = synth.generate("sparse-detail", 40, 16, 16, seed=1)
        enc = encode_sequence(frames, CodecConfig())
        assert len(enc.mixed_codes) == 30
        assert len(enc.tail_codes) == 0
        assert enc.block_count == 10

    def test_41_frames_give_30_mixed_plus_tail(self):
        frames = synth.generate("sparse-detail", 41, 16, 16, seed=1)
        enc = encode_sequence(frames, CodecConfig())
        assert len(enc.mixed_codes) == 30
        assert len(enc.tail_codes) == 1
        decoded, _ = decode_sequence(enc, CodecConfig())
        assert decoded.shape == (41, 16, 16)
        # tail passes through untouched (sources are 8-bit integral)
        assert np.array_equal(decoded[-1], frames[-1])

    def test_zero_block(self):
        enc = encode_sequence(_zeros(4), CodecConfig())
        assert enc.mixed_codes.shape == (3, 8, 8)
        assert enc.tail_codes.shape == (0, 8, 8)
        assert not enc.mixed_codes.any()

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least"):
            encode_sequence(_zeros(3), CodecConfig())

    def test_dimension_mismatch(self):
        frames = list(_zeros(3)) + [np.zeros((8, 10))]
        with pytest.raises(ValueError, match="share dimensions"):
            encode_sequence(frames, CodecConfig())
        with pytest.raises(ValueError, match="finite"):
            encode_sequence(np.full((5, 8, 8), np.inf), CodecConfig())

    def test_mixed_values_sit_on_f32_grid(self):
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=2)
        enc = encode_sequence(frames, CodecConfig())
        assert enc.mixed_codes.dtype == np.float32
        mixed = mix_reference(enc.matrix.entries, frames)
        expected, _, _ = quantize_reference(mixed, "float-container")
        assert np.array_equal(enc.mixed_codes, expected)
        assert (enc.scale, enc.offset) == (0.0, 0.0)
        assert enc.tail_codes.dtype == np.uint8
        assert np.array_equal(enc.tail_codes, frames[8:])

    def test_affine_values_sit_on_8bit_grid(self):
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=2)
        enc = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
        assert enc.mixed_codes.dtype == enc.tail_codes.dtype == np.uint8
        mixed = mix_reference(enc.matrix.entries, frames)
        codes, scale, offset = quantize_reference(mixed, "affine-8bit")
        assert enc.scale == scale > 0 and enc.offset == offset
        assert np.array_equal(enc.mixed_codes, codes)
        # the grid spans the mixed range: its ends take the first and last codes
        assert enc.mixed_codes.min() == 0 and enc.mixed_codes.max() == 255
        assert np.array_equal(enc.tail_codes, frames[8:])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("value", [1e308, 1.5e308, -1e308, 1e39])
    def test_mixed_values_beyond_float32_range_raise_cleanly(self, quantization, value):
        # 1e308 mixes past float32 range and 1.5e308 past float64's; either is
        # a ValueError, with no overflow warning before it
        with pytest.raises(ValueError, match="float32 range"):
            encode_sequence(np.full((4, 8, 8), value), CodecConfig(quantization=quantization))

    def test_flat_affine_mix_uses_unit_scale(self):
        enc = encode_sequence(np.zeros((4, 2, 2)), CodecConfig(quantization="affine-8bit"))
        assert enc.scale == 1.0
        assert not enc.mixed_codes.any()


def _encoded_fields(quantization="float-container"):
    frames = synth.generate("sparse-detail", 9, 6, 4, seed=3)  # 2 blocks + 1 tail
    enc = encode_sequence(frames, CodecConfig(quantization=quantization))
    names = ("matrix", "width", "height", "quantization", "scale", "offset", "mixed_codes", "tail_codes")
    return {name: getattr(enc, name) for name in names}


class TestEncodedSequence:
    def test_rejects_float64_codes(self):
        fields = _encoded_fields()
        with pytest.raises(ValueError, match="mixed_codes must be a float32 array"):
            EncodedSequence(**{**fields, "mixed_codes": fields["mixed_codes"].astype(np.float64)})
        with pytest.raises(ValueError, match="tail_codes must be a uint8 array"):
            EncodedSequence(**{**fields, "tail_codes": fields["tail_codes"].astype(np.float64)})
        with pytest.raises(ValueError, match="mixed_codes must be a float32 array"):
            EncodedSequence(**{**fields, "mixed_codes": fields["mixed_codes"].tolist()})
        # float codes are not the storage form of affine mode, nor uint8 codes of float mode
        with pytest.raises(ValueError, match="mixed_codes must be a uint8 array"):
            EncodedSequence(**{**fields, "quantization": "affine-8bit", "scale": 1.0})
        affine = _encoded_fields("affine-8bit")
        with pytest.raises(ValueError, match="mixed_codes must be a float32 array"):
            EncodedSequence(**{**affine, "quantization": "float-container"})

    def test_rejects_wrong_shape_codes(self):
        fields = _encoded_fields()
        mixed = fields["mixed_codes"]
        for bad in (mixed[0], mixed[None], mixed[:, :, :-1], mixed.reshape(6, 6, 4)):
            with pytest.raises(ValueError, match="disagrees with header"):
                EncodedSequence(**{**fields, "mixed_codes": bad})
        with pytest.raises(ValueError, match="tail_codes shape"):
            EncodedSequence(**{**fields, "tail_codes": fields["tail_codes"][0]})
        with pytest.raises(ValueError, match="positive multiple of m"):
            EncodedSequence(**{**fields, "mixed_codes": mixed[:5]})
        with pytest.raises(ValueError, match="tail holds 4 frames"):
            EncodedSequence(**{**fields, "tail_codes": np.zeros((4, 4, 6), np.uint8)})
        with pytest.raises(ValueError, match="must be positive"):
            EncodedSequence(**{**fields, "width": 0, "mixed_codes": mixed[:, :, :0]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_float32_codes(self, value):
        fields = _encoded_fields()
        codes = fields["mixed_codes"].copy()
        codes[5, 3, 2] = value
        with pytest.raises(ValueError, match="finite"):
            EncodedSequence(**{**fields, "mixed_codes": codes})

    def test_affine_parameters_must_map_into_float32_range(self):
        fields = _encoded_fields("affine-8bit")
        for scale, offset in ((np.nan, 0.0), (1.0, np.inf), (1e37, 0.0), (0.0, -1e39), (1e306, 1e307)):
            with pytest.raises(ValueError, match="finite|float32 range"):
                EncodedSequence(**{**fields, "scale": scale, "offset": offset})
        f32_max = float(np.finfo(np.float32).max)
        EncodedSequence(**{**fields, "scale": -f32_max / 255, "offset": 0.0})

    def test_writable_codes_are_copied_and_frozen(self):
        fields = _encoded_fields()
        codes = fields["mixed_codes"].copy()
        enc = EncodedSequence(**{**fields, "mixed_codes": codes})
        codes[0, 0, 0] += 1
        assert enc.mixed_codes is not codes and np.array_equal(enc.mixed_codes, fields["mixed_codes"])
        assert not enc.mixed_codes.flags.writeable and enc.mixed_codes.flags.c_contiguous
        # read-only C-contiguous codes are kept without a copy
        assert EncodedSequence(**fields).mixed_codes is fields["mixed_codes"]


class TestDecode:
    def test_decode_count_always_matches_source(self):
        for count in (4, 9, 11, 40):
            frames = synth.generate("sparse-detail", count, 16, 16, seed=3)
            cfg = CodecConfig()
            decoded, _ = decode_sequence(encode_sequence(frames, cfg), cfg)
            assert len(decoded) == count

    def test_zero_sequence_decodes_to_zero(self):
        cfg = CodecConfig()
        decoded, stats = decode_sequence(encode_sequence(_zeros(8), cfg), cfg)
        assert decoded.shape == (8, 8, 8)
        assert not decoded.any()
        assert stats.zero_columns == stats.total_columns

    def test_detail_subbands_recovered_and_ll_matches_projector(self, matrix):
        # The sparse-detail preset keeps every detail-coefficient column at
        # <= m-1 active sources, so the high-frequency path is exact up to
        # the container grid snap (float32: ~1e-4 on coefficients of ~40).
        # The low-frequency path loses exactly what the projector A+A
        # predicts.
        cfg = CodecConfig()
        pinv = generalized_inverse(matrix)
        projector = pinv @ matrix.entries
        frames = synth.generate("sparse-detail", 8, 32, 32, seed=21)
        decoded, stats = decode_sequence(encode_sequence(frames, cfg), cfg)
        for b in range(2):
            src, got = frames[b * 4 : (b + 1) * 4], decoded[b * 4 : (b + 1) * 4]
            for band in ("lh", "hl", "hh"):
                assert np.abs(_band_columns(src, band) - _band_columns(got, band)).max() <= 1e-3
            source_ll = _band_columns(src, "ll")
            decoded_ll = _band_columns(got, "ll")
            assert np.abs(decoded_ll - projector @ source_ll).max() <= 1e-3

    def test_constant_frames_quantify_mixing_loss(self, matrix):
        cfg = CodecConfig()
        pinv = generalized_inverse(matrix)
        projector = pinv @ matrix.entries
        value = 100.0
        expected = projector @ np.full(4, value)
        frames = np.full((4, 8, 8), value)
        decoded, _ = decode_sequence(encode_sequence(frames, cfg), cfg)
        for j, plane in enumerate(decoded):
            assert np.ptp(plane) <= 1e-3
            assert plane[0, 0] == pytest.approx(expected[j], abs=1e-3)
            assert abs(plane[0, 0] - value) > 0.1  # information loss is real

    def test_odd_dimensions_pad_and_crop(self):
        frames = synth.generate("sparse-detail", 8, 15, 9, seed=4)
        cfg = CodecConfig()
        report = roundtrip_eval(frames, cfg)
        assert report.source_count == 8
        assert report.quality.mean_psnr > 25.0

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_temporaries_of_one_cif_group(self, quantization):
        # a 352x288 group decodes whole, in one task; above its output, the
        # task holds the bands and the recovered sources, but no float64 copy
        # of its codes and no second store of its pixels
        cfg = CodecConfig(quantization=quantization)
        enc = encode_sequence(synth.generate("sparse-detail", 4, 352, 288, seed=1), cfg)
        decode_sequence(enc, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            decoded, _ = decode_sequence(enc, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the four bands of the group hold 8 bytes a code; the temporaries are
        # 2.1 times that, and were 3.1 times it with the copy and the store
        assert peak - base - decoded.nbytes < 2.5 * 8 * enc.mixed_codes.size

    def test_matrix_mismatch_rejected(self):
        frames = synth.generate("sparse-detail", 4, 16, 16, seed=5)
        enc = encode_sequence(frames, CodecConfig())
        other = CodecConfig(matrix=MixingMatrix([[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]]))
        with pytest.raises(ValueError, match="different mixing matrix"):
            decode_sequence(enc, other)

    def test_noise_decodes_totally(self):
        # dense data violates the sparsity premise; decode must still finish
        frames = synth.generate("noise", 4, 16, 16, seed=6)
        cfg = CodecConfig()
        decoded, stats = decode_sequence(encode_sequence(frames, cfg), cfg)
        assert len(decoded) == 4
        assert stats.forced_columns > 0
        assert np.isfinite(decoded).all()


class TestSubbandCommutation:
    def test_transform_of_mix_equals_mix_of_transforms(self, matrix, rng):
        planes = rng.uniform(0, 255, size=(4, 16, 16))
        mixed = mix_reference(matrix.entries, planes)
        for band in BANDS:
            direct = _band_columns(mixed, band)
            via_sources = matrix.entries @ _band_columns(planes, band)
            scale = max(1.0, np.abs(via_sources).max())
            assert np.abs(direct - via_sources).max() <= 1e-9 * scale


class TestRoundtripEval:
    def test_reports_counts_and_finite_psnr(self):
        frames = synth.generate("sparse-detail", 40, 32, 32, seed=7)
        report = roundtrip_eval(frames, CodecConfig())
        assert report.source_count == 40
        assert report.mixed_count == 30
        assert report.tail_count == 0
        assert len(report.quality.per_frame_psnr) == 40
        assert all(math.isfinite(p) or p > 0 for p in report.quality.per_frame_psnr)

    def test_zero_sequence_reports_infinite_psnr(self):
        report = roundtrip_eval(_zeros(4), CodecConfig())
        assert report.quality.infinite_count == 4
        assert math.isinf(report.quality.mean_psnr)

    def test_source_is_scanned_once(self, monkeypatch):
        import ubssvc.mixcore as mixcore_module

        scans = []
        all_finite = mixcore_module.all_finite
        monkeypatch.setattr(mixcore_module, "all_finite", lambda arr: scans.append(arr) or all_finite(arr))
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=8)
        report = roundtrip_eval(frames, CodecConfig())
        assert len(scans) == 1 and scans[0] is frames
        decoded, _ = decode_sequence(encode_sequence(frames, CodecConfig()), CodecConfig())
        assert report.quality == sequence_report(frames, decoded)

    def test_deterministic(self):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=8)
        r1 = roundtrip_eval(frames, CodecConfig())
        r2 = roundtrip_eval(frames, CodecConfig())
        assert r1.quality.per_frame_psnr == r2.quality.per_frame_psnr
        assert np.array_equal(r1.recovery.residuals, r2.recovery.residuals)


def test_decode_builds_plane_set_once(monkeypatch):
    # one plane set serves every band of every block
    import ubssvc.pipeline as pipeline_module

    calls = []

    def counting(matrix):
        calls.append(matrix)
        return build_hyperplanes(matrix)

    monkeypatch.setattr(pipeline_module, "build_hyperplanes", counting)
    frames = synth.generate("sparse-detail", 14, 16, 16, seed=4)
    cfg = CodecConfig()
    decoded, stats = decode_sequence(encode_sequence(frames, cfg), cfg)
    assert len(calls) == 1 and calls[0] is cfg.matrix
    assert len(decoded) == 14
    assert stats.total_columns == 3 * 3 * 8 * 8  # 3 blocks x 3 bands x 8x8


@st.composite
def codec_cases(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(m + 1, 5))
    return (
        m,
        n,
        draw(st.integers(n, 3 * n + n - 1)),  # frame count: 1-3 blocks plus any tail
        draw(st.integers(1, 9)),  # height, odd or even
        draw(st.integers(1, 9)),  # width
        draw(st.sampled_from(["float-container", "affine-8bit"])),
        draw(st.sampled_from([1, 7, 40, pipeline_module.TILE])),  # cells per task
        draw(st.sampled_from([1, 2])),  # tile workers
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(codec_cases())
def test_array_decode_equals_frame_by_frame_decode(case):
    m, n, count, height, width, quantization, tile, workers, seed = case
    rng = np.random.default_rng(seed)
    try:
        matrix = MixingMatrix(rng.uniform(0.1, 1.0, size=(m, n)))
    except ValueError:
        assume(False)
    cfg = CodecConfig(matrix=matrix, tau=0.05, quantization=quantization)
    frames = synth.sparse_detail(count, width, height, seed, group=n, max_active=m - 1)
    sizes = {"TILE": tile, "WORKERS": workers}
    # encode in row tiles or runs of groups gives the one-product-per-group codes
    with mock.patch.multiple(pipeline_module, **sizes):
        enc = encode_sequence(frames, cfg)
    codes, scale, offset = quantize_reference(mix_reference(matrix.entries, frames), quantization)
    assert np.array_equal(enc.mixed_codes, codes) and enc.mixed_codes.dtype == codes.dtype
    assert (enc.scale, enc.offset) == (scale, offset)
    with mock.patch.multiple(pipeline_module, **sizes):
        decoded, stats = decode_sequence(enc, cfg)
    reference, parts = decode_reference(enc, cfg)
    assert decoded.shape == (count, height, width)
    assert np.array_equal(decoded, np.stack(reference))
    merged = type(stats).merged(parts)
    for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
        assert getattr(stats, field) == getattr(merged, field)
    # one call per (block, band) lists the residuals in the decoder's order
    assert np.array_equal(stats.residuals, merged.residuals)
    assert np.array_equal(stats.group_residuals, merged.group_residuals)

    # encode -> write -> read -> decode reproduces the in-memory path bit for bit
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "seq.ubss")
        write_container(enc, path)
        back = read_container(path)
    for name in ("mixed_codes", "tail_codes"):
        stored, kept = getattr(back, name), getattr(enc, name)
        assert stored.dtype == kept.dtype and np.array_equal(stored, kept)
    with mock.patch.multiple(pipeline_module, **sizes):
        file_decoded, file_stats = decode_sequence(back, cfg)
    assert np.array_equal(file_decoded, decoded)
    assert np.array_equal(file_stats.residuals, stats.residuals)
    assert file_stats.forced_columns == stats.forced_columns


def _tie_column(entries, rng) -> np.ndarray:
    """n source values whose first mixed value gemv and gemm cast to different float32 codes.

    The last value is moved so that the mixed value lands on a float32
    rounding tie; there the last bit in which gemv and gemm differ decides
    the code.
    """
    while True:
        column = rng.uniform(0, 255, entries.shape[1])
        value = float(entries[0] @ column)
        code = np.float32(value)
        other = np.nextafter(code, np.float32(np.inf if float(code) <= value else -np.inf))
        column[-1] += ((float(code) + float(other)) / 2 - value) / entries[0, -1]
        piece = column.reshape(1, -1, 1)
        gemv = np.matmul(entries, piece)
        gemm = np.matmul(entries, np.concatenate((piece, piece), axis=-1))[..., :1]
        if not np.array_equal(gemv.astype(np.float32), gemm.astype(np.float32)):
            return column


class TestTiledEncode:
    # groups of more than TILE pixels mix in row tiles on a thread pool

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_last_tile_of_one_column(self, quantization):
        # 13 rows of width 1 in tiles of 4 rows leave a last tile of one pixel,
        # whose product numpy would hand to gemv; its pixel sits on a float32 tie
        rng = np.random.default_rng(5)
        cfg = CodecConfig(quantization=quantization)
        frames = rng.uniform(-20, 300, size=(9, 13, 1))
        frames[:4, -1, 0] = _tie_column(cfg.matrix.entries, rng)
        with mock.patch.multiple(pipeline_module, TILE=4, WORKERS=2):
            tasks, tiles = pipeline_module._tasks(2, 13, 1)
            assert tiles == 4 and tasks[-1] == np.s_[1:2, :, 12:16]
            enc = encode_sequence(frames, cfg)
        codes, scale, offset = quantize_reference(mix_reference(cfg.matrix.entries, frames), quantization)
        assert np.array_equal(enc.mixed_codes, codes)
        assert (enc.scale, enc.offset) == (scale, offset)

    def test_tile_counts(self, monkeypatch):
        # a 720p group mixes in 29 tiles of 25 rows (the last of 20); CIF in 4
        gemm = pipeline_module._gemm
        for shape, rows in (((720, 1280), {25: 28, 20: 1}), ((288, 352), {72: 4})):
            tiles = []
            monkeypatch.setattr(pipeline_module, "_gemm", lambda a, b: tiles.append(b.shape[-1]) or gemm(a, b))
            encode_sequence(np.zeros((4, *shape)), CodecConfig())
            assert {r: tiles.count(r * shape[1]) for r in rows} == rows and len(tiles) == sum(rows.values())

    def test_no_thread_outlives_an_encode(self):
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3)
        before = threading.active_count()
        for quantization in ("float-container", "affine-8bit"):
            with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
                encode_sequence(frames, CodecConfig(quantization=quantization))
            assert threading.active_count() == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("value", [np.nan, 1e39])
    def test_error_in_the_last_tile_reaches_the_caller(self, quantization, value):
        # a non-finite pixel, or one that mixes past float32 range, in the last rows
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3).copy()
        frames[4, -1, -1] = value
        before = threading.active_count()
        with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
            with pytest.raises(ValueError, match="finite|float32 range"):
                encode_sequence(frames, CodecConfig(quantization=quantization))
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("tile", [7, pipeline_module.TILE])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_pixel_anywhere_raises(self, quantization, tile, workers):
        # the sources are not scanned up front; a bad pixel in the first group,
        # in the last row tile or in the tail still names the pixels
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3)
        cfg = CodecConfig(quantization=quantization)
        before = threading.active_count()
        for value in (np.nan, np.inf, -np.inf):
            for where in ((0, 0, 0), (4, -1, -1), (8, 3, 5)):
                bad = frames.copy()
                bad[where] = value
                with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=workers):
                    with pytest.raises(ValueError, match="frame pixels must be finite"):
                        encode_sequence(bad, cfg)
        assert threading.active_count() == before

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_non_finite_pixel_is_reported_before_other_errors(self, quantization):
        # as when the sources were scanned whole before the encode
        cfg = CodecConfig(quantization=quantization)
        frames = np.full((8, 4, 4), 1e308)
        frames[5, 1, 1] = np.nan
        with pytest.raises(ValueError, match="frame pixels must be finite"):
            encode_sequence(frames, cfg)
        with pytest.raises(ValueError, match="frame pixels must be finite"):
            encode_sequence(np.full((3, 4, 4), np.inf), cfg)
        with pytest.raises(ValueError, match="float32 range"):
            encode_sequence(np.full((8, 4, 4), 1e308), cfg)

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("count", [8, 11])
    def test_only_the_tail_is_scanned(self, monkeypatch, quantization, count):
        # mixed sources are checked by the codes' range check, not by a scan
        import ubssvc.metrics as metrics_module
        import ubssvc.mixcore as mixcore_module

        scans = []
        for module in (mixcore_module, pipeline_module, metrics_module):
            scan = module.all_finite
            monkeypatch.setattr(module, "all_finite", lambda arr, scan=scan: scans.append(arr) or scan(arr))
        frames = synth.generate("sparse-detail", count, 30, 21, seed=3)
        with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
            enc = encode_sequence(frames, CodecConfig(quantization=quantization))
        # float codes are scanned as the EncodedSequence check; no float64 array but the tail
        sources = [arr for arr in scans if arr.dtype == np.float64]
        assert len(sources) == 1 and np.array_equal(sources[0], frames[8:])
        assert len(scans) == 1 + (quantization == "float-container")
        assert len(enc.tail_codes) == count % 4

    def test_many_workers_with_fast_switching(self):
        # more threads than cores, switching every microsecond: tiles write
        # disjoint rows of the codes, so none is lost
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for quantization in ("float-container", "affine-8bit"):
                cfg = CodecConfig(quantization=quantization)
                whole = encode_sequence(frames, cfg)
                for _ in range(3):
                    with mock.patch.multiple(pipeline_module, TILE=1, WORKERS=8):
                        tiled = encode_sequence(frames, cfg)
                    assert np.array_equal(tiled.mixed_codes, whole.mixed_codes)
                    assert (tiled.scale, tiled.offset) == (whole.scale, whole.offset)
        finally:
            sys.setswitchinterval(interval)


class TestTiledDecode:
    # groups of more than TILE columns per band decode in row tiles on a thread pool

    def _case(self, seed=3):
        cfg = CodecConfig(quantization="affine-8bit")
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=seed)
        return encode_sequence(frames, cfg), cfg

    @staticmethod
    def _count_chunks(monkeypatch) -> list:
        calls = []
        decode_chunk = pipeline_module._decode_chunk

        def counting(*args):
            calls.append(args[0])
            return decode_chunk(*args)

        monkeypatch.setattr(pipeline_module, "_decode_chunk", counting)
        return calls

    @staticmethod
    def _reference(enc, cfg):
        """Frame-by-frame decode and its stats, one call per block and band."""
        frames, parts = decode_reference(enc, cfg)
        return np.stack(frames), RecoveryStats.merged(parts)

    def test_tiles_equal_whole_groups(self, monkeypatch):
        enc, cfg = self._case()
        whole, whole_stats = self._reference(enc, cfg)
        calls = self._count_chunks(monkeypatch)
        for tile in (1, 7, 16):
            calls.clear()
            with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
                tiled, stats = decode_sequence(enc, cfg)
            assert np.array_equal(tiled, whole)
            # tiles report band by band in row order, so even the residual order agrees
            assert np.array_equal(stats.residuals, whole_stats.residuals)
            assert stats.zero_columns == whole_stats.zero_columns
            # every tile is one of the 11 subband rows and is decoded once
            assert len(calls) == enc.block_count * 11

    def test_tile_under_the_group_threshold_is_decoded_again(self, monkeypatch):
        # three tiles of 6, 6 and 4 rows: the first has details near 1e-7, which
        # the last tile's codes near 1e30 put under the group's zero threshold
        rng = np.random.default_rng(11)
        codes = np.full((3, 16, 4), 5.0, dtype=np.float32)
        codes[:, :6] = 1.0 + rng.integers(0, 3, size=(3, 6, 4)) * np.float32(2.0**-23)
        codes[:, 12:] = rng.uniform(1.0, 2.0, size=(3, 4, 4)) * 1e30
        enc = EncodedSequence(
            matrix=CodecConfig().matrix,
            width=4,
            height=16,
            quantization="float-container",
            scale=0.0,
            offset=0.0,
            mixed_codes=codes,
            tail_codes=np.zeros((0, 16, 4), dtype=np.uint8),
        )
        cfg = CodecConfig()
        whole, whole_stats = self._reference(enc, cfg)
        assert whole_stats.zero_columns >= 3 * 6  # the first tile's details all zero
        calls = self._count_chunks(monkeypatch)
        with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
            tiled, stats = decode_sequence(enc, cfg)
        # each tile once, in any order, then the first tile again
        assert sorted(c.shape[2] for c in calls[:3]) == [4, 6, 6]
        assert len(calls) == 4 and np.array_equal(calls[3][0], codes[:, :6])
        assert np.array_equal(tiled, whole)
        for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
            assert getattr(stats, field) == getattr(whole_stats, field)
        assert np.array_equal(stats.residuals, whole_stats.residuals)

    def test_tile_counts(self, monkeypatch):
        # 720p: 640x360 subband columns in tiles of 45 rows, as even as rows allow
        calls = self._count_chunks(monkeypatch)
        for shape, count, rows in (((720, 1280), 8, 90), ((288, 352), 1, 288), ((64, 64), 1, 64)):
            calls.clear()
            enc = EncodedSequence(
                matrix=CodecConfig().matrix,
                width=shape[1],
                height=shape[0],
                quantization="affine-8bit",
                scale=1.0,
                offset=0.0,
                mixed_codes=np.zeros((3, *shape), dtype=np.uint8),
                tail_codes=np.zeros((0, *shape), dtype=np.uint8),
            )
            decode_sequence(enc, CodecConfig())
            assert len(calls) == count and {c.shape[2] for c in calls} == {rows}

    def test_small_groups_share_one_call(self, monkeypatch):
        # 58 groups of 33x17 pixels make one task of about TILE pixels, in
        # encode and decode alike; a 59th group starts a second one
        assert pipeline_module._tasks(58, 33, 17) == ([np.s_[0:58, :, 0:33]], 1)
        calls = self._count_chunks(monkeypatch)
        for blocks, runs in ((58, [58]), (59, [58, 1])):
            calls.clear()
            frames = synth.generate("sparse-detail", 4 * blocks, 17, 33, seed=2)
            cfg = CodecConfig()
            decode_sequence(encode_sequence(frames, cfg), cfg)
            assert [len(c) for c in calls] == runs

    def test_census_order_is_group_band_column(self):
        # runs of 58 and 2 groups, or row tiles of each group: the residuals
        # come in (group, band, column) order either way, as one call per
        # (group, band) gives them
        frames = synth.generate("sparse-detail", 240, 17, 33, seed=4)
        cfg = CodecConfig(quantization="affine-8bit")
        enc = encode_sequence(frames, cfg)
        whole, whole_stats = self._reference(enc, cfg)
        assert whole_stats.group_residuals.shape == (60 * 3,)
        for tile in (1, 7, pipeline_module.TILE):
            with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
                decoded, stats = decode_sequence(enc, cfg)
            assert np.array_equal(decoded, whole)
            assert np.array_equal(stats.residuals, whole_stats.residuals)
            assert np.array_equal(stats.group_residuals, whole_stats.group_residuals)
            for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
                assert getattr(stats, field) == getattr(whole_stats, field)

    def test_no_thread_outlives_a_decode(self):
        enc, cfg = self._case()
        before = threading.active_count()
        with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
            decode_sequence(enc, cfg)
        assert threading.active_count() == before

    def test_many_workers_with_fast_switching(self):
        # more threads than cores, switching every microsecond: tiles write
        # disjoint rows and return their own stats, so nothing is lost
        enc, cfg = self._case(seed=5)
        whole, whole_stats = self._reference(enc, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                with mock.patch.multiple(pipeline_module, TILE=1, WORKERS=8):
                    tiled, stats = decode_sequence(enc, cfg)
                assert np.array_equal(tiled, whole)
                assert np.array_equal(stats.residuals, whole_stats.residuals)
        finally:
            sys.setswitchinterval(interval)

    def test_tile_errors_reach_the_caller(self, monkeypatch):
        enc, cfg = self._case()
        before = threading.active_count()

        def failing(*args):
            raise RuntimeError("tile failed")

        monkeypatch.setattr(pipeline_module, "_decode_chunk", failing)
        with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
            with pytest.raises(RuntimeError, match="tile failed"):
                decode_sequence(enc, cfg)
        assert threading.active_count() == before


class TestConfig:
    def test_defaults(self):
        cfg = CodecConfig()
        assert cfg.matrix.entries.shape == (3, 4)
        assert cfg.tau == 0.05
        assert cfg.quantization == "float-container"

    def test_declared_counts_validated(self, tmp_path):
        # without a matrix in the file, n and m are checked against the built-in one
        path = tmp_path / "codec.cfg"
        for counts in ("n = 5\nm = 3\n", "n = 3\n", "m = 2\n"):
            path.write_text(counts)
            with pytest.raises(ValueError, match="disagree"):
                parse_config(path)
        path.write_text("n = 4\nm = 3\ntau = 0.2\n")
        assert parse_config(path) == {"tau": 0.2}

    def test_bad_policies(self):
        with pytest.raises(ValueError):
            CodecConfig(quantization="u16")
        with pytest.raises(ValueError):
            CodecConfig(tau=-0.5)

    @pytest.mark.parametrize("matrix", [np.ones((3, 4)), [[1.0, 0.0], [0.0, 1.0]], "default"])
    def test_matrix_must_be_a_mixing_matrix(self, matrix):
        # a bare array is not coerced; without this check it failed later,
        # inside encode_sequence, on a missing ``rows`` attribute
        with pytest.raises(TypeError, match="MixingMatrix"):
            CodecConfig(matrix=matrix)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            CodecConfig(tau=tau)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_tau_in_file_rejected(self, tmp_path, text):
        path = tmp_path / "codec.cfg"
        path.write_text(f"tau = {text}\n")
        with pytest.raises(ValueError, match="tau must be finite"):
            load_config(path)

    def test_load_full_file(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text(
            "# custom 2x3 setup\n"
            "n = 3\n"
            "m = 2\n"
            "matrix = 1.0 0.5 0.25  0.5 1.0 -0.75\n"
            "tau = 0.01\n"
            "quantization = affine-8bit\n"
        )
        cfg = load_config(path)
        assert cfg.matrix.entries.shape == (2, 3)
        assert cfg.tau == 0.01
        assert cfg.quantization == "affine-8bit"
        assert_allclose(cfg.matrix.entries, [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])

    def test_load_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("tau = 0.2\n")
        cfg = load_config(path)
        assert cfg.tau == 0.2
        assert cfg.matrix.entries.shape == (3, 4)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "codec.cfg"
        for text in ("levels = 2\n", "tail_policy = passthrough\n", "pad_policy = reject\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown config keys"):
                parse_config(path)

    def test_matrix_requires_counts(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("matrix = 1 0 0 1\n")
        with pytest.raises(ValueError, match="requires explicit n and m"):
            parse_config(path)

    def test_matrix_entry_count_checked(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("n = 3\nm = 2\nmatrix = 1 2 3 4 5\n")
        with pytest.raises(ValueError, match="expected m\\*n"):
            parse_config(path)

    def test_roundtrip_with_custom_matrix(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("n = 3\nm = 2\nmatrix = 1.0 0.5 0.25  0.5 1.0 -0.75\n")
        cfg = load_config(path)
        frames = synth.generate("sparse-detail", 6, 16, 16, seed=9)
        report = roundtrip_eval(frames, cfg)
        assert report.mixed_count == 4
        assert report.source_count == 6
