import dataclasses
import math
import os
import re
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

from oracles import census_fields, column_peaks, decode_reference, mix_reference, quantize_reference
from ubssvc import (
    BANDS,
    CodecConfig,
    ContainerError,
    EncodedSequence,
    MixingMatrix,
    RecoveryStats,
    build_hyperplanes,
    decode_sequence,
    default_mixing_matrix,
    encode_sequence,
    generalized_inverse,
    load_config,
    read_container,
    roundtrip_eval,
    sequence_report,
    write_container,
)
from ubssvc import pipeline as pipeline_module
from ubssvc import cli, mixcore, sca, synth
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
        expected, _, _ = quantize_reference(mixed, "float-container", enc.matrix.entries)
        assert np.array_equal(enc.mixed_codes, expected)
        assert (enc.scale, enc.offset) == (0.0, 0.0)
        assert enc.tail_codes.dtype == np.uint8
        assert np.array_equal(enc.tail_codes, frames[8:])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_affine_codes_of_non_integer_sources(self, seed):
        # mixed values between the grid points: the cast of the values to
        # uint8 rounds them as the oracle's int() does
        frames = np.random.default_rng(seed).uniform(0.0, 255.0, size=(9, 7, 5))
        enc = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
        codes, scale, offset = quantize_reference(
            mix_reference(enc.matrix.entries, frames), "affine-8bit", enc.matrix.entries
        )
        assert (enc.scale, enc.offset) == (scale, offset)
        assert np.array_equal(enc.mixed_codes, codes)

    def test_affine_values_sit_on_8bit_grid(self):
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=2)
        enc = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
        assert enc.mixed_codes.dtype == enc.tail_codes.dtype == np.uint8
        mixed = mix_reference(enc.matrix.entries, frames)
        codes, scale, offset = quantize_reference(mixed, "affine-8bit", enc.matrix.entries)
        # the default matrix is non-negative with a largest row sum of 1.75
        assert (enc.scale, enc.offset) == (scale, offset) == (1.75, 0.0)
        assert np.array_equal(enc.mixed_codes, codes)
        assert np.array_equal(enc.tail_codes, frames[8:])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("value", [1e308, 1.5e308, -1e308, 1e39])
    def test_mixed_values_beyond_float32_range_raise_cleanly(self, quantization, value):
        # 1e308 mixes past float32 range and 1.5e308 past float64's; either is
        # a ValueError, with no overflow warning before it
        message = "float32 range" if quantization == "float-container" else r"must lie in \[0, 255\]"
        with pytest.raises(ValueError, match=message):
            encode_sequence(np.full((4, 8, 8), value), CodecConfig(quantization=quantization))


class TestAffineGrid:
    # affine codes sit on the grid the matrix fixes for sources in [0, 255]

    AFFINE = CodecConfig(quantization="affine-8bit")

    def _expected(self, cfg, frames):
        return quantize_reference(mix_reference(cfg.matrix.entries, frames), "affine-8bit", cfg.matrix.entries)

    @pytest.mark.parametrize("value, code", [(0.0, 0), (100.0, 100), (255.0, 255)])
    def test_flat_sources_sit_on_the_matrix_grid(self, value, code):
        # a flat input takes the matrix's grid, as any other does
        frames = np.full((4, 3, 5), value)
        enc = encode_sequence(frames, self.AFFINE)
        codes, scale, offset = self._expected(self.AFFINE, frames)
        assert (enc.scale, enc.offset) == (scale, offset) == (1.75, 0.0)
        assert np.array_equal(enc.mixed_codes, codes)
        # the end sources reach the end codes: 0 gives code 0 everywhere, and
        # v gives v in the row of largest sum (the row sums are 1.65, 1.75
        # and 1.65), and no code passes it
        assert (enc.mixed_codes == code).any() and not (enc.mixed_codes > code).any()

    def test_negative_entries_give_a_negative_offset(self):
        cfg = CodecConfig(matrix=MixingMatrix(np.random.default_rng(3).normal(size=(3, 4))), quantization="affine-8bit")
        frames = np.random.default_rng(4).uniform(0.0, 255.0, size=(9, 11, 6))
        enc = encode_sequence(frames, cfg)
        codes, scale, offset = self._expected(cfg, frames)
        assert (enc.scale, enc.offset) == (scale, offset) and offset < 0
        assert np.array_equal(enc.mixed_codes, codes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value, fill", [(-1.0, 0.0), (257.0, 255.0), (300.0, 255.0), (1e39, 0.0)])
    @pytest.mark.parametrize("whole", [True, False])
    def test_source_off_the_grid_raises(self, value, fill, whole):
        # the whole sequence, or one pixel of the last row tile; a lone -1
        # over zeros or 257 over 255s in the group's first frame mixes to
        # values that round onto the grid's end codes, yet it is refused
        frames = np.full((9, 30, 21), fill)
        frames[np.s_[:8] if whole else np.s_[4, -1, -1]] = value
        with mock.patch.object(pipeline_module, "TILE", 7):
            with pytest.raises(ValueError, match=r"affine-8bit sources must lie in \[0, 255\]"):
                encode_sequence(frames, self.AFFINE)

    def test_nan_is_reported_before_an_off_grid_source(self):
        frames = np.full((8, 4, 4), 300.0)
        frames[5, 1, 1] = np.nan
        with pytest.raises(ValueError, match="frame pixels must be finite"):
            encode_sequence(frames, self.AFFINE)

    def test_codes_do_not_depend_on_tile(self):
        frames = np.random.default_rng(6).uniform(0.0, 255.0, size=(10, 30, 21))
        codes, scale, offset = self._expected(self.AFFINE, frames)
        for tile in (1, 7, 40, pipeline_module.TILE):
            with mock.patch.object(pipeline_module, "TILE", tile):
                enc = encode_sequence(frames, self.AFFINE)
            assert (enc.scale, enc.offset) == (scale, offset)
            assert np.array_equal(enc.mixed_codes, codes)


def _encoded_fields(quantization="float-container"):
    frames = synth.generate("sparse-detail", 9, 6, 4, seed=3)  # 2 blocks + 1 tail
    enc = encode_sequence(frames, CodecConfig(quantization=quantization))
    return {name: getattr(enc, name) for name in ("matrix", "mixed_codes", "tail_codes")}


class TestEncodedSequence:
    def test_fields_are_the_matrix_and_codes(self):
        assert [field.name for field in dataclasses.fields(EncodedSequence)] == ["matrix", "mixed_codes", "tail_codes"]
        # the rest is read from them: frame size from the codes' shape, mode from their dtype
        for quantization, grid in (("float-container", (0.0, 0.0)), ("affine-8bit", (1.75, 0.0))):
            enc = EncodedSequence(**_encoded_fields(quantization))
            assert (enc.width, enc.height, enc.quantization) == (6, 4, quantization)
            assert (enc.scale, enc.offset) == grid
            assert (enc.block_count, enc.source_count) == (2, 9)

    def test_rejects_float64_codes(self):
        fields = _encoded_fields()
        with pytest.raises(ValueError, match="mixed_codes must be a float32 or uint8 array"):
            EncodedSequence(**{**fields, "mixed_codes": fields["mixed_codes"].astype(np.float64)})
        with pytest.raises(ValueError, match="tail_codes must be a uint8 array"):
            EncodedSequence(**{**fields, "tail_codes": fields["tail_codes"].astype(np.float64)})
        with pytest.raises(ValueError, match="mixed_codes must be a float32 or uint8 array"):
            EncodedSequence(**{**fields, "mixed_codes": fields["mixed_codes"].tolist()})
        # big-endian float32 is not the stored form
        with pytest.raises(ValueError, match="mixed_codes must be a float32 or uint8 array"):
            EncodedSequence(**{**fields, "mixed_codes": fields["mixed_codes"].astype(">f4")})

    def test_rejects_wrong_shape_codes(self):
        fields = _encoded_fields()
        mixed = fields["mixed_codes"]
        for bad in (mixed[0], mixed[None], mixed[:, :, :-1], mixed.reshape(6, 6, 4)):
            with pytest.raises(ValueError, match="code shapes"):
                EncodedSequence(**{**fields, "mixed_codes": bad})
        with pytest.raises(ValueError, match="code shapes"):
            EncodedSequence(**{**fields, "tail_codes": fields["tail_codes"][0]})
        with pytest.raises(ValueError, match="positive multiple of m"):
            EncodedSequence(**{**fields, "mixed_codes": mixed[:5]})
        with pytest.raises(ValueError, match="tail holds 4 frames"):
            EncodedSequence(**{**fields, "tail_codes": np.zeros((4, 4, 6), np.uint8)})
        with pytest.raises(ValueError, match="positive sides"):
            EncodedSequence(**{**fields, "mixed_codes": mixed[:, :, :0], "tail_codes": fields["tail_codes"][:, :, :0]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_float32_codes(self, value):
        fields = _encoded_fields()
        codes = fields["mixed_codes"].copy()
        codes[5, 3, 2] = value
        with pytest.raises(ValueError, match="finite"):
            EncodedSequence(**{**fields, "mixed_codes": codes})

    def test_affine_grid_must_lie_in_float32_range(self, tmp_path):
        # the default matrix x 1e37 puts code 255 at 4.5e39, past float32 range; x 1e35 at 4.5e37
        frames = synth.generate("sparse-detail", 9, 6, 4, seed=3)
        entries = default_mixing_matrix().entries
        path = tmp_path / "big.ubss"
        enc = encode_sequence(frames, CodecConfig(MixingMatrix(entries * 1e35), quantization="affine-8bit"))
        assert pipeline_module.affine_grid(enc.matrix) == (enc.scale, enc.offset) and enc.scale > 1e35
        write_container(enc, path)
        assert np.array_equal(read_container(path).mixed_codes, enc.mixed_codes)
        big = MixingMatrix(entries * 1e37)
        with pytest.raises(ValueError, match="float32 range"):
            encode_sequence(frames, CodecConfig(big, quantization="affine-8bit"))
        with pytest.raises(ValueError, match="float32 range"):
            EncodedSequence(**{**_encoded_fields("affine-8bit"), "matrix": big})
        # the same container with the big matrix's entries in place of its own
        data = bytearray(path.read_bytes())
        data[39 : 39 + 96] = big.entries.astype("<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="float32 range"):
            read_container(path)

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

    @pytest.mark.parametrize("shape", [(3, 4), (2, 4), (3, 6), (2, 8), (4, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_detail_subbands_recovered_and_ll_matches_projector(self, shape):
        # sparse_detail(group=n, max_active=m-1) keeps every detail-coefficient
        # column at <= m-1 active sources, so the high-frequency path is exact
        # up to the float32 codes. The low-frequency path loses exactly what
        # the projector A+A predicts. 3x4 is the built-in matrix, the others
        # random non-negative ones.
        #
        # The bound: a code is within u|x| of its mixed value x (u = 2^-24,
        # float32 rounding to nearest), and |x| <= 255 times A's largest row
        # sum, as A >= 0 and pixels lie in [0, 255]. A Haar coefficient is
        # (+-a +-b +-c +-d)/2 of four codes, so each of a column's m
        # coefficients is off by at most 2u max|x|, and the column by
        # e = 2u max|x| sqrt(m). The sources' coefficients are multiples of
        # 1/2, which keeps a column nearest a plane q that holds its sources,
        # so its recovered coefficients are off by at most ||C_q||_2 e (C_q
        # the plane's coefficient map), and its ll coefficients by
        # ||A+||_2 e. The float64 arithmetic adds errors near 1e-13.
        m, n = shape
        entries = np.random.default_rng(21).uniform(0.0, 1.0, size=shape)
        matrix = default_mixing_matrix() if shape == (3, 4) else MixingMatrix(entries)
        cfg = CodecConfig(matrix=matrix)
        pinv = generalized_inverse(matrix)
        projector = pinv @ matrix.entries
        column_error = 2 * 2.0**-24 * 255 * matrix.entries.sum(axis=1).max() * math.sqrt(m)
        maps = build_hyperplanes(matrix).coefficient_maps
        detail_bound = max(np.linalg.norm(c, 2) for c in maps) * column_error
        ll_bound = np.linalg.norm(pinv, 2) * column_error
        frames = synth.sparse_detail(2 * n, 32, 32, seed=21, group=n, max_active=m - 1)
        decoded, stats = decode_sequence(encode_sequence(frames, cfg), cfg)
        for b in range(2):
            src, got = frames[b * n : (b + 1) * n], decoded[b * n : (b + 1) * n]
            for band in ("lh", "hl", "hh"):
                assert np.abs(_band_columns(src, band) - _band_columns(got, band)).max() <= detail_bound
            source_ll = _band_columns(src, "ll")
            decoded_ll = _band_columns(got, "ll")
            assert np.abs(decoded_ll - projector @ source_ll).max() <= ll_bound

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
        # a lone 352x288 group decodes inline in two row tiles, each
        # recovering its three detail bands in one call; above its output, a
        # tile holds its bands and recovered sources, but no float64 copy of
        # its codes and no second store of its pixels
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
        # 1.25 times that, were 1.78 times it with the group whole and one
        # recovery call a band, and 3.1 times it with the copy and the store.
        # A task that keeps its LL buffer alive across sca.recover_cells
        # reads 1.37-1.38 in either quantization; the bound lies about 0.06
        # from both
        assert peak - base - decoded.nbytes < 1.31 * 8 * enc.mixed_codes.size

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize(
        "workers, bound",
        [
            # one tile in flight: reads 0.167 times the 8 bytes a code; 0.223
            # in tiles of TILE cells, one recovery call a band
            (1, 0.20),
            # two tiles in flight: reads 0.327-0.331; 0.435-0.446 in tiles of
            # TILE cells, one call a band
            (2, 0.38),
        ],
    )
    def test_temporaries_of_row_tiles(self, quantization, workers, bound):
        # a 1280x720 group decodes in row tiles of about TILE // 2 cells, each
        # recovering its three detail bands in one call, which frees them once
        # it has gathered their columns; above the output, the decode holds
        # the temporaries of the tiles in flight
        cfg = CodecConfig(quantization=quantization)
        enc = encode_sequence(synth.generate("sparse-detail", 4, 1280, 720, seed=1), cfg)
        with mock.patch.object(pipeline_module, "WORKERS", workers):
            decode_sequence(enc, cfg)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                decoded, _ = decode_sequence(enc, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - base - decoded.nbytes < bound * 8 * enc.mixed_codes.size

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize(
        "workers, bound",
        [
            # one run in flight: one run's temporaries, 0.22 times the 8
            # bytes a code of the whole sequence (2.7 times those of the run's
            # own codes), beside a census of a few kilobytes; reads 0.22
            (1, 0.26),
            # two runs in flight: two runs' temporaries, 2 x 0.22; reads 0.42-0.44
            (2, 0.48),
        ],
    )
    def test_temporaries_of_runs_of_small_groups(self, quantization, workers, bound):
        # 100 groups of 64x64 decode in runs of eight, each run's detail bands
        # in one buffer and one recovery call, which frees the buffer once it
        # has gathered its columns; above the output, the decode holds the
        # temporaries of the runs in flight and a census of fixed size
        cfg = CodecConfig(quantization=quantization)
        enc = encode_sequence(synth.generate("sparse-detail", 400, 64, 64, seed=1), cfg)
        with mock.patch.object(pipeline_module, "WORKERS", workers):
            decode_sequence(enc, cfg)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                decoded, _ = decode_sequence(enc, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - base - decoded.nbytes < bound * 8 * enc.mixed_codes.size

    def test_census_does_not_grow_with_the_sequence(self):
        # 10 and 100 groups of 64x64: the census holds the same arrays of the
        # same bytes, its histogram among them; only group_residuals grows,
        # by three counts a group
        sizes = []
        for count in (40, 400):
            cfg = CodecConfig()
            enc = encode_sequence(synth.generate("sparse-detail", count, 64, 64, seed=1), cfg)
            _, stats = decode_sequence(enc, cfg)
            arrays = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
            arrays = {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}
            assert arrays.pop("group_residuals").shape == (count // 4 * 3,)
            assert "histogram" in arrays
            sizes.append({name: value.nbytes for name, value in arrays.items()})
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_temporaries_of_an_odd_group(self, quantization):
        # a 353x287 group is padded inside the transforms' slab buffers, and
        # its output written without the padded row and column, so its
        # temporaries stay those of a 352x288 group, not 1.7 times them with
        # a padded output
        cfg = CodecConfig(quantization=quantization)
        temporaries = []
        for width, height in ((352, 288), (353, 287)):
            enc = encode_sequence(synth.generate("sparse-detail", 4, width, height, seed=1), cfg)
            decode_sequence(enc, cfg)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                decoded, _ = decode_sequence(enc, cfg)
                temporaries.append(tracemalloc.get_traced_memory()[1] - base - decoded.nbytes)
            finally:
                tracemalloc.stop()
        assert temporaries[1] <= 1.1 * temporaries[0]

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_decodes_with_the_containers_matrix(self, quantization):
        # the container fixes matrix and quantization; cfg gives tau alone
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=5)
        cfg = CodecConfig(quantization=quantization, tau=0.1)
        enc = encode_sequence(frames, cfg)
        other = CodecConfig(matrix=MixingMatrix([[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]]), tau=0.1)
        decoded, stats = decode_sequence(enc, cfg)
        other_decoded, other_stats = decode_sequence(enc, other)
        assert np.array_equal(other_decoded, decoded)
        assert census_fields(other_stats) == census_fields(stats)

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

    def test_only_the_tail_of_the_source_is_scanned(self, monkeypatch):
        # encode scans the tail and the score checks each slab; the float
        # codes are scanned as the EncodedSequence check
        import ubssvc.metrics as metrics_module
        import ubssvc.mixcore as mixcore_module

        scans = []
        for module in (mixcore_module, pipeline_module, metrics_module):
            scan = module.all_finite
            monkeypatch.setattr(module, "all_finite", lambda arr, scan=scan: scans.append(arr) or scan(arr))
        frames = synth.generate("sparse-detail", 9, 16, 16, seed=8)
        report = roundtrip_eval(frames, CodecConfig())
        assert len(scans) == 2 and scans[0].dtype == np.float64 and np.array_equal(scans[0], frames[8:])
        assert scans[1].dtype == np.float32 and len(scans[1]) == 6
        decoded, _ = decode_sequence(encode_sequence(frames, CodecConfig()), CodecConfig())
        assert report.quality == sequence_report(frames, decoded)

    def test_deterministic(self):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=8)
        r1 = roundtrip_eval(frames, CodecConfig())
        r2 = roundtrip_eval(frames, CodecConfig())
        assert r1.quality.per_frame_psnr == r2.quality.per_frame_psnr
        assert census_fields(r1.recovery) == census_fields(r2.recovery)


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
    n = draw(st.integers(m + 1, 8))
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
    codes, scale, offset = quantize_reference(mix_reference(matrix.entries, frames), quantization, matrix.entries)
    assert np.array_equal(enc.mixed_codes, codes) and enc.mixed_codes.dtype == codes.dtype
    assert (enc.scale, enc.offset) == (scale, offset)
    with mock.patch.multiple(pipeline_module, **sizes):
        decoded, stats = decode_sequence(enc, cfg)
    reference, parts = decode_reference(enc, cfg)
    assert decoded.shape == (count, height, width)
    assert np.array_equal(decoded, np.stack(reference))
    # one call per (block, band) counts the residuals per (group, band), as the decoder does
    assert census_fields(stats) == census_fields(type(stats).merged(parts))

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
    assert census_fields(file_stats) == census_fields(stats)


def _matrix(name) -> MixingMatrix:
    """The default matrix, or a seeded one: non-negative uniform, or Gaussian ("g" prefix)."""
    if name == "default":
        return default_mixing_matrix()
    m, n = map(int, name.lstrip("g").split("x"))
    rng = np.random.default_rng(m * 10 + n)
    return MixingMatrix(rng.normal(size=(m, n)) if name.startswith("g") else rng.uniform(0.0, 1.0, size=(m, n)))


@pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
@pytest.mark.parametrize("preset", ["sparse-detail", "noise"])
@pytest.mark.parametrize("name, tile", [("default", None), ("2x4", None), ("3x6", None), ("2x8", None), ("g3x4", None), ("default", 7)])
def test_cell_rule_zeroes_the_columns_of_the_group_rule(name, tile, preset, quantization):
    # a detail column is zero when its norm is at most 1e-12 of its own cell's
    # mixed LL norm; that zeroes, per (group, band), exactly the columns that
    # 1e-12 of the (group, band)'s peak column norm zeroes, and the decoder
    # keeps as many columns per (group, band) as that rule does
    matrix = _matrix(name)
    m, n = matrix.rows, matrix.cols
    cfg = CodecConfig(matrix=matrix, quantization=quantization)
    frames = synth.generate(preset, 3 * n + 1, 21, 14, seed=2, group=n, max_active=m - 1)
    enc = encode_sequence(frames, cfg)
    values = enc.mixed_codes.astype(np.float64)
    if quantization == "affine-8bit":
        values = enc.offset + enc.scale * values
    bands = [_band_columns(values, band).reshape(enc.block_count, m, -1) for band in BANDS]
    cell = 1e-12 * np.linalg.norm(bands[0], axis=1)  # (group, T)
    kept = []
    for band in bands[1:]:
        norms = np.linalg.norm(band, axis=1)
        group = norms <= 1e-12 * column_peaks(band)[:, None]
        assert np.array_equal(norms <= cell, group)
        kept.append((~group).sum(axis=1))
    with mock.patch.object(pipeline_module, "TILE", tile or pipeline_module.TILE):
        _, stats = decode_sequence(enc, cfg)
    # group_residuals counts the kept columns of each (group, band)
    assert np.array_equal(stats.group_residuals, np.stack(kept, axis=1).ravel())
    if preset == "sparse-detail":
        assert stats.zero_columns > 0


class TestCellsWithZeroLowBand:
    # a cell whose mixed LL column is exactly 0 has a floor of 0, so it keeps
    # every non-zero detail column, however small, as clean or forced

    @staticmethod
    def _decode(enc, cell) -> list[np.ndarray]:
        """Decode float codes; check that exactly their zero detail columns are zero."""
        decoded, stats = decode_sequence(enc, CodecConfig())
        assert decoded.shape == (enc.source_count, enc.height, enc.width) and np.isfinite(decoded).all()
        values = enc.mixed_codes.astype(np.float64)
        ll, *details = [_band_columns(values, band).reshape(enc.block_count, enc.matrix.rows, -1) for band in BANDS]
        assert not ll[0, :, cell].any()
        nonzero = np.stack([band.any(axis=1) for band in details], axis=1)  # (group, band, T)
        assert nonzero[0, :, cell].any()
        # group_residuals counts the kept columns of each (group, band)
        assert np.array_equal(stats.group_residuals, nonzero.sum(axis=2).ravel())
        assert stats.clean_columns + stats.forced_columns == nonzero.sum()
        return details

    def test_gaussian_matrix(self):
        # a cell's four mixed pixels cancel, as a matrix with negative
        # entries can make them do: here its sources are s and -s on its
        # diagonals, tiny against the rest of the frame, so 1e-12 of the
        # (group, band)'s peak norm would zero them
        cfg = CodecConfig(matrix=_matrix("g3x4"))
        frames = synth.generate("sparse-detail", 8, 6, 4, seed=3).copy()
        s = 1e-20 * np.array([1.0, 0.0, 2.0, 0.0])  # two of four sources active
        frames[:4, 0, 0] = frames[:4, 1, 1] = s
        frames[:4, 0, 1] = frames[:4, 1, 0] = -s
        details = self._decode(encode_sequence(frames, cfg), 0)
        hh = details[2][0]
        assert hh[:, 0].any() and np.linalg.norm(hh[:, 0]) <= 1e-12 * column_peaks(hh)[0]

    def test_hostile_float_container(self):
        # no non-negative matrix mixes pixels to a cell c * (1, -1, -1, 1), but
        # a float container may hold one
        codes = np.full((6, 4, 6), 7.0, dtype=np.float32)
        codes[:, 2:, 2:4] = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float32)
        codes[:, 2:, 2:4] *= np.arange(1, 7, dtype=np.float32)[:, None, None]
        codes[:, 0, :] += np.arange(6, dtype=np.float32)
        enc = EncodedSequence(
            matrix=CodecConfig().matrix,
            mixed_codes=codes,
            tail_codes=np.zeros((1, 4, 6), dtype=np.uint8),
        )
        details = self._decode(enc, 4)  # the cell of rows 2-3, columns 2-3
        assert details[2][:, :, 4].all() and not details[0][:, :, 4].any()


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
    # groups of more than TILE pixels mix in row tiles, on the calling thread

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_last_tile_of_one_column(self, quantization):
        # 13 rows of width 1 in tiles of 4 rows leave a last tile of one pixel,
        # whose product numpy would hand to gemv; its pixel sits on a float32 tie
        rng = np.random.default_rng(5)
        cfg = CodecConfig(quantization=quantization)
        frames = rng.uniform(*((-20, 300) if quantization == "float-container" else (0, 255)), size=(9, 13, 1))
        frames[:4, -1, 0] = _tie_column(cfg.matrix.entries, rng)
        with mock.patch.object(pipeline_module, "TILE", 4):
            tasks, tiles = pipeline_module._tasks(2, 13, 1)
            assert tiles == 4 and tasks[-1] == np.s_[1:2, :, 12:16]
            enc = encode_sequence(frames, cfg)
        codes, scale, offset = quantize_reference(
            mix_reference(cfg.matrix.entries, frames), quantization, cfg.matrix.entries
        )
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

    def test_encode_starts_no_thread(self, no_threads):
        # row tiles of groups of more than TILE pixels mix on the calling
        # thread, whatever WORKERS says
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3)
        for quantization in ("float-container", "affine-8bit"):
            cfg = CodecConfig(quantization=quantization)
            with mock.patch.multiple(pipeline_module, TILE=7, WORKERS=2):
                enc = encode_sequence(frames, cfg)
            codes, _, _ = quantize_reference(mix_reference(cfg.matrix.entries, frames), quantization, cfg.matrix.entries)
            assert np.array_equal(enc.mixed_codes, codes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("value", [np.nan, 1e39])
    def test_error_in_the_last_tile_reaches_the_caller(self, quantization, value):
        # a non-finite pixel, or one that mixes past float32 range, in the last rows
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3).copy()
        frames[4, -1, -1] = value
        with mock.patch.object(pipeline_module, "TILE", 7):
            with pytest.raises(ValueError, match=r"finite|float32 range|must lie in \[0, 255\]"):
                encode_sequence(frames, CodecConfig(quantization=quantization))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("tile", [7, pipeline_module.TILE])
    def test_non_finite_pixel_anywhere_raises(self, quantization, tile):
        # the sources are not scanned up front; a bad pixel in the first group,
        # in the last row tile or in the tail still names the pixels
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=3)
        cfg = CodecConfig(quantization=quantization)
        for value in (np.nan, np.inf, -np.inf):
            for where in ((0, 0, 0), (4, -1, -1), (8, 3, 5)):
                bad = frames.copy()
                bad[where] = value
                with mock.patch.object(pipeline_module, "TILE", tile):
                    with pytest.raises(ValueError, match="frame pixels must be finite"):
                        encode_sequence(bad, cfg)

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
        message = "float32 range" if quantization == "float-container" else r"must lie in \[0, 255\]"
        with pytest.raises(ValueError, match=message):
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
        with mock.patch.object(pipeline_module, "TILE", 7):
            enc = encode_sequence(frames, CodecConfig(quantization=quantization))
        # float codes are scanned as the EncodedSequence check; no float64 array but the tail
        sources = [arr for arr in scans if arr.dtype == np.float64]
        assert len(sources) == 1 and np.array_equal(sources[0], frames[8:])
        assert len(scans) == 1 + (quantization == "float-container")
        assert len(enc.tail_codes) == count % 4

    def test_tile_1_codes_equal_whole_group_codes(self):
        # tiles of one pixel row, each through gemm, give the bits of one
        # product per group
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=5)
        for quantization in ("float-container", "affine-8bit"):
            cfg = CodecConfig(quantization=quantization)
            whole = encode_sequence(frames, cfg)
            with mock.patch.object(pipeline_module, "TILE", 1):
                tiled = encode_sequence(frames, cfg)
            assert np.array_equal(tiled.mixed_codes, whole.mixed_codes)
            assert (tiled.scale, tiled.offset) == (whole.scale, whole.offset)


class TestTiledDecode:
    # groups of at most TILE pixels decode whole, in runs, and so do groups of
    # at most TILE columns per band when the pass pools; every other group
    # decodes in row tiles of about TILE // 2 columns; a pass pools when it
    # makes two or more tasks of TILE columns

    def _case(self, seed=3):
        cfg = CodecConfig(quantization="affine-8bit")
        frames = synth.generate("sparse-detail", 9, 30, 21, seed=seed)
        return encode_sequence(frames, cfg), cfg

    @staticmethod
    def _count_chunks(monkeypatch, threads=None) -> list:
        calls = []
        decode_chunk = pipeline_module._decode_chunk

        def counting(*args):
            calls.append(args[0])
            if threads is not None:
                threads.append(threading.current_thread())
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
            # tiles add up to each (group, band)'s census
            assert census_fields(stats) == census_fields(whole_stats)
            # every tile is one of the 11 subband rows and is decoded once
            assert len(calls) == enc.block_count * 11

    def test_each_tile_decodes_once(self, monkeypatch):
        # three tiles of 6, 6 and 4 rows (of about 14 // 2 cells): the first
        # has details near 1e-7 and the last codes near 1e30, which do not
        # reach the first tile's cells: each cell's zero test is its own, so
        # every tile decodes once
        rng = np.random.default_rng(11)
        codes = np.full((3, 16, 4), 5.0, dtype=np.float32)
        codes[:, :6] = 1.0 + rng.integers(0, 3, size=(3, 6, 4)) * np.float32(2.0**-23)
        codes[:, 12:] = rng.uniform(1.0, 2.0, size=(3, 4, 4)) * 1e30
        enc = EncodedSequence(
            matrix=CodecConfig().matrix,
            mixed_codes=codes,
            tail_codes=np.zeros((0, 16, 4), dtype=np.uint8),
        )
        cfg = CodecConfig()
        whole, whole_stats = self._reference(enc, cfg)
        # only exact zeros are zero: the middle tile's 6 constant cells in
        # every band, and those of the first tile whose codes are all equal;
        # the first tile's other details are kept, where a threshold of the
        # whole group's peak norm zeroed all 3 * 6 of them
        exact = [(_band_columns(codes, band) == 0).all(axis=0) for band in BANDS[1:]]
        assert whole_stats.zero_columns == sum(int(z.sum()) for z in exact)
        assert 3 * 6 <= whole_stats.zero_columns < 2 * 3 * 6
        calls = self._count_chunks(monkeypatch)
        with mock.patch.multiple(pipeline_module, TILE=14, WORKERS=2):
            tiled, stats = decode_sequence(enc, cfg)
        # each tile once, in any order
        assert sorted(c.shape[2] for c in calls) == [4, 6, 6]
        assert np.array_equal(tiled, whole)
        assert census_fields(stats) == census_fields(whole_stats)

    def test_tile_counts(self, monkeypatch):
        # 720p: 640x360 subband columns in tiles of 24 rows, as even as rows
        # allow; a lone CIF group, inline, in two tiles of 72 rows
        calls = self._count_chunks(monkeypatch)
        for shape, count, rows in (((720, 1280), 15, 48), ((288, 352), 2, 144), ((64, 64), 1, 64)):
            calls.clear()
            enc = EncodedSequence(
                matrix=CodecConfig().matrix,
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

    def test_census_counts_residuals_per_group_band(self):
        # runs of whole groups, whole groups one a task or row tiles of each
        # group, one recovery call a task: the census counts the residuals
        # per (group, band) every way, as one call per (group, band) does;
        # in 3x3 and 1x9 groups the subband cells outnumber a quarter of the
        # pixels
        big = pipeline_module.TILE
        cases = [("affine-8bit", 17, 33, (1, 7, big)), ("float-container", 17, 33, (18, big))]
        cases += [(q, w, h, (1, 7, 18, big)) for q in ("float-container", "affine-8bit") for w, h in ((3, 3), (9, 1), (1, 9))]
        for quantization, width, height, tiles in cases:
            cfg = CodecConfig(quantization=quantization)
            enc = encode_sequence(synth.generate("sparse-detail", 240, width, height, seed=4), cfg)
            whole, whole_stats = self._reference(enc, cfg)
            assert whole_stats.group_residuals.shape == (60 * 3,)
            for tile in tiles:
                with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
                    decoded, stats = decode_sequence(enc, cfg)
                case = (quantization, width, height, tile)
                assert np.array_equal(decoded, whole), case
                assert census_fields(stats) == census_fields(whole_stats), case

    @pytest.mark.parametrize("tile", [200, 629])
    def test_whole_groups_of_more_than_tile_pixels_decode_on_the_pool(self, monkeypatch, tile):
        # 30x21 groups hold 630 pixels and 165 columns per band: more than
        # TILE pixels, at most TILE columns, so on the pool each group is one
        # task and one recovery call
        enc, cfg = self._case()
        whole, whole_stats = self._reference(enc, cfg)
        threads = []
        calls = self._count_chunks(monkeypatch, threads)
        with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
            decoded, stats = decode_sequence(enc, cfg)
        assert [c.shape[:3] for c in calls] == [(1, 3, 21)] * enc.block_count
        assert threading.main_thread() not in threads
        assert np.array_equal(decoded, whole)
        assert census_fields(stats) == census_fields(whole_stats)

    @pytest.mark.parametrize("tile, runs", [(630, 2), (pipeline_module.TILE, 1)])
    def test_runs_of_small_groups_decode_on_the_pool(self, monkeypatch, tile, runs):
        # two 30x21 groups of at most TILE pixels: two runs of one group share
        # the pool, and one run of both, a lone task, decodes inline
        enc, cfg = self._case()
        whole, whole_stats = self._reference(enc, cfg)
        threads = []
        calls = self._count_chunks(monkeypatch, threads)
        with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
            decoded, stats = decode_sequence(enc, cfg)
        assert [len(c) for c in calls] == [enc.block_count // runs] * runs
        assert (threading.main_thread() in threads) == (runs == 1)
        assert np.array_equal(decoded, whole)
        assert census_fields(stats) == census_fields(whole_stats)

    def test_pooling_rules_of_encode_and_decode(self, monkeypatch):
        # encode pools nothing; decode pools any pass of two or more tasks of
        # TILE columns, whatever the group size
        pooled, passes = [], []
        tasks = pipeline_module._tasks

        class Recording(pipeline_module.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                pooled.append(True)
                return super().submit(*args, **kwargs)

        def counting(*args, **kwargs):
            result = tasks(*args, **kwargs)
            passes.append(result[0])
            return result

        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(pipeline_module, "_tasks", counting)
        cfg = CodecConfig()
        for height, width in ((1, 1), (1, 9), (2, 3), (5, 1), (4, 4), (7, 5), (21, 30)):
            frames = synth.generate("sparse-detail", 8, width, height, seed=1)
            for tile in (1, 5, 8, 16, 40, 630, pipeline_module.TILE):
                case = (height, width, tile)
                with mock.patch.multiple(pipeline_module, TILE=tile, WORKERS=2):
                    pooled.clear()
                    enc = encode_sequence(frames, cfg)
                    assert not pooled, case
                    pooled.clear()
                    passes.clear()
                    decode_sequence(enc, cfg)
                    assert bool(pooled) == (len(passes[0]) > 1), case

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    @pytest.mark.parametrize("count, height, width", [(400, 64, 64), (36, 64, 64), (241, 17, 33), (9, 288, 352)])
    def test_pooled_runs_decode_the_bits_of_inline_runs(self, monkeypatch, quantization, count, height, width):
        # runs of 8 64x64 groups (13 runs, or two, the second of one group),
        # 60 33x17 groups in runs of 58 and 2 with a tail frame, and two CIF
        # groups, one a task on the pool and in two row tiles inline, on one
        # CPU and on the pool: the same frames and census
        cfg = CodecConfig(quantization=quantization)
        enc = encode_sequence(synth.generate("sparse-detail", count, width, height, seed=6), cfg)
        threads, results = [], []
        self._count_chunks(monkeypatch, threads)
        for workers in (1, 2):
            threads.clear()
            with mock.patch.object(pipeline_module, "WORKERS", workers):
                results.append(decode_sequence(enc, cfg))
            assert len(threads) > 1 and (threading.main_thread() in threads) == (workers == 1)
        (decoded, stats), (pooled, pooled_stats) = results
        assert np.array_equal(pooled, decoded)
        assert census_fields(pooled_stats) == census_fields(stats)

    def test_one_cpu_runs_every_task_inline(self, monkeypatch):
        # with one worker, decode runs groups of more than TILE pixels inline
        # too, to the same frames; encode gives the same codes either way
        pooled = []

        class Recording(pipeline_module.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                pooled.append(True)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", Recording)
        for quantization in ("float-container", "affine-8bit"):
            cfg = CodecConfig(quantization=quantization)
            frames = synth.generate("sparse-detail", 9, 30, 21, seed=3)
            results = {}
            for workers in (1, 2):
                with mock.patch.multiple(pipeline_module, TILE=200, WORKERS=workers):
                    pooled.clear()
                    enc = encode_sequence(frames, cfg)
                    decoded, stats = decode_sequence(enc, cfg)
                results[workers] = enc, decoded, stats, bool(pooled)
            (enc, decoded, stats, on_pool), (pool_enc, pool_decoded, pool_stats, pool_on_pool) = results.values()
            assert not on_pool and pool_on_pool
            assert np.array_equal(enc.mixed_codes, pool_enc.mixed_codes)
            assert (enc.scale, enc.offset) == (pool_enc.scale, pool_enc.offset)
            assert np.array_equal(decoded, pool_decoded)
            assert census_fields(stats) == census_fields(pool_stats)

    def test_recovery_calls_per_task(self, monkeypatch):
        # every task recovers its three detail bands in one call, a (k, 3, m,
        # T) view beside a (k, 1, T) floor: a run of groups of at most TILE
        # pixels, a larger whole group (CIF) on the pool, and a row tile of
        # about TILE // 2 columns, of a CIF group inline or of 720p; the call
        # is made inside sca.recover_cells
        shapes = []
        recover = sca.recover_block

        def counting(planes, x, tau, floor):
            shapes.append((x.shape, floor.shape))
            return recover(planes, x, tau, floor)

        monkeypatch.setattr(sca, "recover_block", counting)
        cases = (
            ((64, 64), 100, 2, [((8, 3, 3, 32 * 32), (8, 1, 32 * 32))] * 12 + [((4, 3, 3, 32 * 32), (4, 1, 32 * 32))]),
            ((288, 352), 10, 2, [((1, 3, 3, 144 * 176), (1, 1, 144 * 176))] * 10),
            ((288, 352), 10, 1, [((1, 3, 3, 72 * 176), (1, 1, 72 * 176))] * 20),
            ((720, 1280), 1, 2, [((1, 3, 3, 24 * 640), (1, 1, 24 * 640))] * 15),
        )
        for (height, width), blocks, workers, calls in cases:
            shapes.clear()
            enc = EncodedSequence(
                matrix=CodecConfig().matrix,
                mixed_codes=np.zeros((3 * blocks, height, width), dtype=np.float32),
                tail_codes=np.zeros((0, height, width), dtype=np.uint8),
            )
            with mock.patch.multiple(pipeline_module, WORKERS=workers):
                decode_sequence(enc, CodecConfig())
            # pooled tasks call in the order their threads run, not task order
            assert sorted(shapes) == sorted(calls), (height, width, workers)

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
                assert census_fields(stats) == census_fields(whole_stats)
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

    def test_built_in_matrix_is_validated_once(self, tmp_path, monkeypatch):
        # every config without a matrix, and parse_config's shape check, share
        # one built-in matrix, whose determinants are enumerated once
        real, calls = mixcore.mixing_evidence, []
        monkeypatch.setattr(mixcore, "mixing_evidence", lambda entries: calls.append(entries.shape) or real(entries))
        mixcore.default_mixing_matrix.cache_clear()
        configs = [CodecConfig() for _ in range(3)]
        path = tmp_path / "codec.cfg"
        path.write_text("n = 4\nm = 3\n")
        configs.append(load_config(path))
        assert calls == [(3, 4)]
        assert all(cfg.matrix is default_mixing_matrix() for cfg in configs)

    def test_declared_counts_validated(self, tmp_path):
        # without a matrix in the file, n and m are checked against the built-in one
        path = tmp_path / "codec.cfg"
        for counts in ("n = 5\nm = 3\n", "n = 3\n", "m = 2\n"):
            path.write_text(counts)
            with pytest.raises(ValueError, match="disagree"):
                parse_config(path)
        path.write_text("n = 4\nm = 3\nquantization = affine-8bit\n")
        assert parse_config(path) == {"quantization": "affine-8bit"}

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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0.05"])
    def test_tau_in_file_rejected(self, tmp_path, text):
        # tau is set only from Python; a file leaves it at DEFAULT_TAU
        path = tmp_path / "codec.cfg"
        path.write_text(f"tau = {text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config keys ['tau']")):
            load_config(path)

    def test_load_full_file(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text(
            "# custom 2x3 setup\n"
            "n = 3\n"
            "m = 2\n"
            "matrix = 1.0 0.5 0.25  0.5 1.0 -0.75\n"
            "quantization = affine-8bit\n"
        )
        cfg = load_config(path)
        assert cfg.matrix.entries.shape == (2, 3)
        assert cfg.tau == 0.05
        assert cfg.quantization == "affine-8bit"
        assert_allclose(cfg.matrix.entries, [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])

    def test_load_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("quantization = affine-8bit\n")
        cfg = load_config(path)
        assert (cfg.tau, cfg.quantization) == (0.05, "affine-8bit")
        assert cfg.matrix is default_mixing_matrix()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "codec.cfg"
        for text in ("levels = 2\n", "tail_policy = passthrough\n", "pad_policy = reject\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown config keys"):
                parse_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("m = 3\n# comment\nm = 2\n")
        with pytest.raises(ValueError, match="key 'm' given twice, on lines 1 and 3"):
            parse_config(path)
        assert cli.main(["validate-matrix", "--config", str(path)]) == 2

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

    @pytest.mark.parametrize(
        "text, where",
        [
            ("n = 4.0\n", "1: n must be a whole number"),
            ("n = x\nm = 3\nmatrix = 1 2\n", "1: n must be a whole number"),
            ("n = -4\nm = -1\nmatrix = 1 2 3 4\n", "2: m must not be negative"),
            ("quantization = affine-8bit\nm = -3\n", "2: m must not be negative"),
            ("n = 2\nm = 1\nmatrix = 1 x\n", "3: matrix must be numbers"),
            ("\nm = 3.5\n", "2: m must be a whole number"),
        ],
    )
    def test_value_errors_name_file_line_and_key(self, tmp_path, text, where):
        path = tmp_path / "codec.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{where}")):
            parse_config(path)

    def test_roundtrip_with_custom_matrix(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("n = 3\nm = 2\nmatrix = 1.0 0.5 0.25  0.5 1.0 -0.75\n")
        cfg = load_config(path)
        frames = synth.generate("sparse-detail", 6, 16, 16, seed=9)
        report = roundtrip_eval(frames, cfg)
        assert report.mixed_count == 4
        assert report.source_count == 6
