import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import decode_reference
from ubssvc import (
    BANDS,
    CodecConfig,
    MixingMatrix,
    build_hyperplanes,
    decode_sequence,
    default_config,
    encode_sequence,
    generalized_inverse,
    load_config,
    mix_block,
    read_container,
    roundtrip_eval,
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
        enc = encode_sequence(frames, default_config())
        assert len(enc.mixed_frames) == 30
        assert len(enc.tail_frames) == 0
        assert enc.block_count == 10

    def test_41_frames_give_30_mixed_plus_tail(self):
        frames = synth.generate("sparse-detail", 41, 16, 16, seed=1)
        enc = encode_sequence(frames, default_config())
        assert len(enc.mixed_frames) == 30
        assert len(enc.tail_frames) == 1
        decoded, _ = decode_sequence(enc, default_config())
        assert decoded.shape == (41, 16, 16)
        # tail passes through untouched (sources are 8-bit integral)
        assert np.array_equal(decoded[-1], frames[-1])

    def test_zero_block(self):
        enc = encode_sequence(_zeros(4), default_config())
        assert enc.mixed_frames.shape == (3, 8, 8)
        assert enc.tail_frames.shape == (0, 8, 8)
        assert not enc.mixed_frames.any()

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least"):
            encode_sequence(_zeros(3), default_config())

    def test_dimension_mismatch(self):
        frames = list(_zeros(3)) + [np.zeros((8, 10))]
        with pytest.raises(ValueError, match="share dimensions"):
            encode_sequence(frames, default_config())
        with pytest.raises(ValueError, match="finite"):
            encode_sequence(np.full((5, 8, 8), np.inf), default_config())

    def test_odd_dimensions_rejected_by_policy(self):
        with pytest.raises(ValueError, match="odd"):
            encode_sequence(_zeros(4, (7, 8)), default_config(pad_policy="reject"))

    def test_mixed_values_sit_on_f32_grid(self):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=2)
        enc = encode_sequence(frames, default_config())
        mixed = enc.mixed_frames
        assert np.array_equal(mixed, mixed.astype(np.float32).astype(np.float64))

    def test_affine_values_sit_on_8bit_grid(self):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=2)
        enc = encode_sequence(frames, default_config(quantization="affine-8bit"))
        assert enc.scale > 0
        codes = (enc.mixed_frames - enc.offset) / enc.scale
        assert np.abs(codes - np.round(codes)).max() < 1e-9
        assert codes.min() >= -0.5 and codes.max() <= 255.5


class TestDecode:
    def test_decode_count_always_matches_source(self):
        for count in (4, 9, 11, 40):
            frames = synth.generate("sparse-detail", count, 16, 16, seed=3)
            cfg = default_config()
            decoded, _ = decode_sequence(encode_sequence(frames, cfg), cfg)
            assert len(decoded) == count

    def test_zero_sequence_decodes_to_zero(self):
        cfg = default_config()
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
        cfg = default_config()
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
        cfg = default_config()
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
        cfg = default_config()  # edge-replicate by default
        report = roundtrip_eval(frames, cfg)
        assert report.decoded_count == 8
        assert report.quality.mean_psnr > 25.0

    def test_matrix_mismatch_rejected(self):
        frames = synth.generate("sparse-detail", 4, 16, 16, seed=5)
        enc = encode_sequence(frames, default_config())
        other = CodecConfig(matrix=MixingMatrix([[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]]))
        with pytest.raises(ValueError, match="different mixing matrix"):
            decode_sequence(enc, other)

    def test_noise_decodes_totally(self):
        # dense data violates the sparsity premise; decode must still finish
        frames = synth.generate("noise", 4, 16, 16, seed=6)
        cfg = default_config()
        decoded, stats = decode_sequence(encode_sequence(frames, cfg), cfg)
        assert len(decoded) == 4
        assert stats.forced_columns > 0
        assert np.isfinite(decoded).all()


class TestSubbandCommutation:
    def test_transform_of_mix_equals_mix_of_transforms(self, matrix, rng):
        planes = rng.uniform(0, 255, size=(4, 16, 16))
        mixed = mix_block(matrix, planes)
        for band in BANDS:
            direct = _band_columns(mixed, band)
            via_sources = matrix.entries @ _band_columns(planes, band)
            scale = max(1.0, np.abs(via_sources).max())
            assert np.abs(direct - via_sources).max() <= 1e-9 * scale


class TestRoundtripEval:
    def test_reports_counts_and_finite_psnr(self):
        frames = synth.generate("sparse-detail", 40, 32, 32, seed=7)
        report = roundtrip_eval(frames, default_config())
        assert report.source_count == report.decoded_count == 40
        assert report.mixed_count == 30
        assert report.tail_count == 0
        assert len(report.quality.per_frame_psnr) == 40
        assert all(math.isfinite(p) or p > 0 for p in report.quality.per_frame_psnr)

    def test_zero_sequence_reports_infinite_psnr(self):
        report = roundtrip_eval(_zeros(4), default_config())
        assert report.quality.infinite_count == 4
        assert math.isinf(report.quality.mean_psnr)

    def test_deterministic(self):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=8)
        r1 = roundtrip_eval(frames, default_config())
        r2 = roundtrip_eval(frames, default_config())
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
    cfg = default_config()
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
        draw(st.sampled_from([1, 7, 40, pipeline_module.BUDGET])),  # columns per recovery call
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(codec_cases())
def test_array_decode_equals_frame_by_frame_decode(case):
    m, n, count, height, width, quantization, budget, seed = case
    rng = np.random.default_rng(seed)
    try:
        matrix = MixingMatrix(rng.uniform(0.1, 1.0, size=(m, n)))
    except ValueError:
        assume(False)
    cfg = CodecConfig(matrix=matrix, tau=0.05, quantization=quantization)
    frames = synth.sparse_detail(count, width, height, seed, group=n, max_active=m - 1)
    enc = encode_sequence(frames, cfg)
    with mock.patch.object(pipeline_module, "BUDGET", budget):
        decoded, stats = decode_sequence(enc, cfg)
    reference, parts = decode_reference(enc, cfg)
    assert decoded.shape == (count, height, width)
    assert np.array_equal(decoded, np.stack(reference))
    merged = type(stats).merged(parts)
    for field in ("total_columns", "zero_columns", "clean_columns", "forced_columns"):
        assert getattr(stats, field) == getattr(merged, field)
    # residuals are pooled in call order, so compare them as a multiset
    assert np.array_equal(np.sort(stats.residuals), np.sort(merged.residuals))

    # encode -> write -> read -> decode reproduces the in-memory path bit for bit
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "seq.ubss")
        write_container(enc, path)
        back = read_container(path)
    assert np.array_equal(back.mixed_frames, enc.mixed_frames)
    assert np.array_equal(back.tail_frames, enc.tail_frames)
    with mock.patch.object(pipeline_module, "BUDGET", budget):
        file_decoded, file_stats = decode_sequence(back, cfg)
    assert np.array_equal(file_decoded, decoded)
    assert np.array_equal(file_stats.residuals, stats.residuals)
    assert file_stats.forced_columns == stats.forced_columns


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert (cfg.n, cfg.m) == (4, 3)
        assert cfg.tau == 0.05
        assert cfg.pad_policy == "edge-replicate"
        assert cfg.quantization == "float-container"

    def test_declared_counts_validated(self, matrix):
        with pytest.raises(ValueError, match="disagree"):
            CodecConfig(matrix=matrix, n=5, m=3)

    def test_bad_policies(self):
        with pytest.raises(ValueError):
            default_config(pad_policy="wrap")
        with pytest.raises(ValueError):
            default_config(quantization="u16")
        with pytest.raises(ValueError):
            default_config(tau=-0.5)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            default_config(tau=tau)

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
            "pad_policy = reject\n"
            "quantization = affine-8bit\n"
        )
        cfg = load_config(path)
        assert (cfg.n, cfg.m) == (3, 2)
        assert cfg.tau == 0.01
        assert cfg.pad_policy == "reject"
        assert cfg.quantization == "affine-8bit"
        assert_allclose(cfg.matrix.entries, [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])

    def test_load_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("tau = 0.2\n")
        cfg = load_config(path)
        assert cfg.tau == 0.2
        assert (cfg.n, cfg.m) == (4, 3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text("levels = 2\n")
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
        assert report.decoded_count == 6
