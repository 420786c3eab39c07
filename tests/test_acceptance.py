"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with plain pytest; the lines bypass output capture.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import sparse_source
from ubssvc import (
    CodecConfig,
    build_hyperplanes,
    compression_ratio,
    decode_sequence,
    encode_sequence,
    generalized_inverse,
    haar_forward,
    haar_inverse,
    mix_block,
    read_container,
    recover_block,
    recover_dense,
    roundtrip_eval,
    sequence_report,
    write_container,
)
from ubssvc import synth
from ubssvc.vio import mixed_stream_bytes, sequence_stream_bytes

# Mean PSNR of the seeded reference roundtrip (sparse-detail, 40 frames,
# 64x64, seed 1234, default config) recorded on the first verified build.
# Later builds may improve it but must never regress by more than 0.1 dB.
BASELINE_MEAN_PSNR = 33.32691641058264
BASELINE_ARGS = ("sparse-detail", 40, 64, 64, 1234)


@pytest.fixture
def announce(capsys):
    def _announce(criterion: str, ok: bool):
        with capsys.disabled():
            print(f"acceptance: {criterion}: {'PASS' if ok else 'FAIL'}")

    return _announce


def test_criterion_1_exact_sparse_recovery(matrix, announce):
    worst_err = 0.0
    worst_time = 0.0
    forced_total = 0
    for seed in range(100):
        s = sparse_source(seed=seed, n=4, t=10000, max_active=2, amplitude=100.0)
        x = matrix.entries @ s
        start = time.perf_counter()
        recovered, stats = recover_block(build_hyperplanes(matrix), x, tau=1e-8)
        elapsed = time.perf_counter() - start
        worst_err = max(worst_err, float(np.abs(recovered - s).max()))
        worst_time = max(worst_time, elapsed)
        forced_total += stats.forced_columns
    ok = worst_err <= 1e-6 and forced_total == 0 and worst_time < 1.0
    announce(
        f"1 exact sparse recovery over 100 seeds "
        f"(max err {worst_err:.2e}, forced {forced_total}, slowest {worst_time * 1000:.0f} ms)",
        ok,
    )
    assert worst_err <= 1e-6
    assert forced_total == 0
    assert worst_time < 1.0


def test_criterion_2_frame_accounting(announce):
    frames = synth.generate("sparse-detail", 40, 32, 32, seed=2)
    cfg = CodecConfig()
    enc = encode_sequence(frames, cfg)
    decoded, _ = decode_sequence(enc, cfg)
    ok = len(enc.mixed_codes) == 30 and len(decoded) == 40
    announce(
        f"2 frame accounting (40 -> {len(enc.mixed_codes)} mixed -> {len(decoded)} decoded)",
        ok,
    )
    assert len(enc.mixed_codes) == 30
    assert len(enc.tail_codes) == 0
    assert len(decoded) == 40


def test_criterion_3_structural_compression_floor(announce):
    frames = synth.generate("sparse-detail", 40, 32, 32, seed=3)
    enc = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
    raw_source = len(sequence_stream_bytes(frames))
    raw_mixed = len(mixed_stream_bytes(enc))
    payload_exact = raw_mixed * 4 == raw_source * 3  # 30/40 frames, same plane size

    proc = subprocess.run(
        [
            sys.executable, "-m", "ubssvc", "bench",
            "--preset", "sparse-detail", "--frames", "40",
            "--width", "32", "--height", "32", "--seed", "3",
            "--codec-cmd", "cp {in} {out}", "--porcelain",
        ],
        capture_output=True,
        text=True,
    )
    values = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    improvement = float(values["improvement_percent"])
    bench_ok = proc.returncode == 0 and abs(improvement - 33.3) <= 0.1

    mpeg2 = compression_ratio(225, 169)
    h264 = compression_ratio(98.2, 7.31)
    arithmetic_ok = abs(mpeg2.ratio - 1.331) <= 5e-4 and abs(h264.ratio - 13.43) <= 5e-3

    ok = payload_exact and bench_ok and arithmetic_ok
    announce(
        f"3 structural compression floor (payload {raw_mixed}/{raw_source}, "
        f"identity-codec improvement {improvement:.2f}%, "
        f"published ratios {mpeg2.ratio:.3f} / {h264.ratio:.2f})",
        ok,
    )
    assert payload_exact
    assert bench_ok
    assert arithmetic_ok


def test_criterion_4_haar_correctness(matrix, announce):
    rng = np.random.default_rng(4)
    worst_roundtrip = 0.0
    worst_parseval = 0.0
    for _ in range(1000):
        h = 2 * int(rng.integers(1, 17))
        w = 2 * int(rng.integers(1, 17))
        plane = rng.uniform(0.0, 255.0, size=(h, w))
        bands = haar_forward(plane)
        back = haar_inverse(bands)
        worst_roundtrip = max(worst_roundtrip, float(np.abs(back - plane).max()))
        energy = float((plane**2).sum())
        band_energy = float(sum((band**2).sum() for band in bands))
        worst_parseval = max(worst_parseval, abs(band_energy - energy) / energy)

    worst_commutation = 0.0
    for _ in range(20):
        planes = rng.uniform(0.0, 255.0, size=(4, 16, 16))
        mixed = mix_block(matrix, planes)
        for source_band, mixed_band in zip(haar_forward(planes), haar_forward(mixed)):
            direct = mixed_band.reshape(3, -1)
            via = matrix.entries @ source_band.reshape(4, -1)
            scale = max(1.0, float(np.abs(via).max()))
            worst_commutation = max(worst_commutation, float(np.abs(direct - via).max()) / scale)

    ok = worst_roundtrip <= 1e-12 and worst_parseval <= 1e-9 and worst_commutation <= 1e-9
    announce(
        f"4 haar correctness (roundtrip {worst_roundtrip:.1e}, parseval {worst_parseval:.1e}, "
        f"commutation {worst_commutation:.1e})",
        ok,
    )
    assert worst_roundtrip <= 1e-12
    assert worst_parseval <= 1e-9
    assert worst_commutation <= 1e-9


def test_criterion_5_psnr_formula(announce):
    def const(v):
        return np.full((8, 8), float(v))

    def frame_psnr(a, b):
        return sequence_report([a], [b]).per_frame_psnr[0]

    zero_db = frame_psnr(const(255), const(0))
    identical = frame_psnr(const(7), const(7))
    diff16 = frame_psnr(const(100), const(116))
    diff32 = frame_psnr(const(100), const(132))
    drop = diff16 - diff32
    ok = (
        zero_db == 0.0
        and math.isinf(identical)
        and abs(diff16 - 24.05) <= 0.01
        and abs(drop - 6.02) <= 0.01
    )
    announce(
        f"5 psnr formula (full-range {zero_db} dB, identical inf, "
        f"diff16 {diff16:.4f} dB, doubling drop {drop:.4f} dB)",
        ok,
    )
    assert zero_db == 0.0
    assert math.isinf(identical) and identical > 0
    assert diff16 == pytest.approx(24.05, abs=0.01)
    assert drop == pytest.approx(6.02, abs=0.01)


def test_criterion_6_pseudo_inverse_identities(matrix, announce):
    pinv = generalized_inverse(matrix)
    identity_err = float(np.abs(matrix.entries @ pinv - np.eye(3)).max())

    rng = np.random.default_rng(6)
    s = rng.uniform(-100.0, 100.0, size=(4, 200))
    once = recover_dense(pinv, matrix.entries @ s)
    projector = pinv @ matrix.entries
    projector_err = float(np.abs(once - projector @ s).max())
    twice = recover_dense(pinv, matrix.entries @ once)
    idempotency_err = float(np.abs(twice - once).max()) / max(1.0, float(np.abs(once).max()))

    ok = identity_err <= 1e-12 and projector_err <= 1e-9 and idempotency_err <= 1e-9
    announce(
        f"6 pseudo-inverse identities (A A+ - I {identity_err:.1e}, "
        f"projector {projector_err:.1e}, idempotency {idempotency_err:.1e})",
        ok,
    )
    assert identity_err <= 1e-12
    assert projector_err <= 1e-9
    assert idempotency_err <= 1e-9


def test_criterion_7_determinism_and_serialization(tmp_path, announce):
    args = [
        sys.executable, "-m", "ubssvc", "roundtrip",
        "--preset", "sparse-detail", "--frames", "12",
        "--width", "16", "--height", "16", "--seed", "7", "--porcelain",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    stdout_identical = first.returncode == 0 and first.stdout == second.stdout

    frames = synth.generate("sparse-detail", 9, 16, 16, seed=7)
    files_identical = True
    containers = []
    for name in ("a.ubss", "b.ubss"):
        enc = encode_sequence(frames, CodecConfig())
        path = tmp_path / name
        write_container(enc, path)
        containers.append(path.read_bytes())
    files_identical = containers[0] == containers[1]

    enc = encode_sequence(frames, CodecConfig())
    path = tmp_path / "c.ubss"
    write_container(enc, path)
    back = read_container(path)
    lossless = (
        np.array_equal(back.matrix.entries, enc.matrix.entries)
        and (back.width, back.height) == (enc.width, enc.height)
        and back.quantization == enc.quantization
        and (back.scale, back.offset) == (enc.scale, enc.offset)
        and np.array_equal(back.mixed_codes, enc.mixed_codes)
        and np.array_equal(back.tail_codes, enc.tail_codes)
    )

    ok = stdout_identical and files_identical and lossless
    announce(
        "7 determinism and serialization (repeat runs bit-identical, "
        "container write/read lossless)",
        ok,
    )
    assert stdout_identical
    assert files_identical
    assert lossless


def test_criterion_8_quality_regression(announce):
    frames = synth.generate(*BASELINE_ARGS)
    report = roundtrip_eval(frames, CodecConfig())
    mean = report.quality.mean_psnr
    ok = mean >= BASELINE_MEAN_PSNR - 0.1
    announce(
        f"8 quality regression (mean PSNR {mean:.4f} dB vs baseline "
        f"{BASELINE_MEAN_PSNR:.4f} dB, floor -0.1 dB)",
        ok,
    )
    assert mean >= BASELINE_MEAN_PSNR - 0.1
