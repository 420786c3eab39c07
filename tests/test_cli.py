import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubssvc import (
    CodecConfig,
    compression_ratio,
    decode_sequence,
    encode_sequence,
    read_container,
    read_sequence,
    snap_to_8bit,
    write_container,
    write_sequence,
)
from ubssvc import MixingMatrix, cli, synth


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ubssvc", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


class TestCompressionRatio:
    def test_published_mpeg2_pair(self):
        result = compression_ratio(225, 169)
        assert result.ratio == pytest.approx(1.331, abs=5e-4)
        assert result.improvement_percent == pytest.approx(33.1, abs=0.05)

    def test_published_h264_pair(self):
        result = compression_ratio(98.2, 7.31)
        assert result.ratio == pytest.approx(13.43, abs=5e-3)

    def test_identity(self):
        result = compression_ratio(1000, 1000)
        assert result.ratio == 1.0
        assert result.improvement_percent == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 5)
        with pytest.raises(ValueError):
            compression_ratio(5, -1)


class TestValidateMatrixCommand:
    def test_default_matrix_passes(self):
        proc = run_cli("validate-matrix")
        assert proc.returncode == 0
        assert proc.stdout.count("columns (") == 4
        assert "PASS" in proc.stdout

    def test_porcelain(self):
        proc = run_cli("validate-matrix", "--porcelain")
        assert proc.returncode == 0
        values = dict(line.split("=", 1) for line in proc.stdout.splitlines())
        assert values["passed"] == "true" and "det.0_1_2" in values
        assert float(values["gram_cond"]) == pytest.approx(5.5781, rel=1e-4)

    def test_failing_matrix_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 3\nm = 2\nmatrix = 1 0 1  0 1 0\n")
        proc = run_cli("validate-matrix", "--config", str(cfg))
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout and "near-singular" in proc.stdout

    @pytest.mark.parametrize(
        "config, reason",
        [
            ("n = 3\nm = 2\nmatrix = 1e8 0.5 0.25  0.5 1.0 -0.75\n", "numerically dependent"),
            ("n = 2\nm = 1\nmatrix = 1 2\n", "at least 2 rows"),
            ("n = 3\nm = 0\nmatrix =\n", "at least 2 rows"),
            ("n = 3\n", "disagree"),
        ],
        ids=["gram-1e8", "one-row", "empty", "n-only"],
    )
    def test_fails_where_mix_fails(self, tmp_path, config, reason):
        path = tmp_path / "codec.cfg"
        path.write_text(config)
        proc = run_cli("validate-matrix", "--config", str(path), "--porcelain")
        assert proc.returncode == 2
        assert reason in proc.stdout + proc.stderr
        assert "passed=true" not in proc.stdout
        write_sequence(synth.generate("noise", 4, 4, 4, seed=1), str(tmp_path / "src" / "f_{i}.pgm"))
        proc = run_cli("mix", str(tmp_path / "src" / "*.pgm"), "--config", str(path),
                       "--out", str(tmp_path / "o.ubss"))
        assert proc.returncode == 2 and reason in proc.stderr


@st.composite
def mixing_matrices(draw):
    kind = draw(st.sampled_from(["random", "duplicate", "scaled-row", "one-row", "tall"]))
    if kind == "one-row":
        m, n = 1, draw(st.integers(2, 5))
    elif kind == "tall":
        n = draw(st.integers(1, 3))
        m = draw(st.integers(n, 4))
    else:
        n = draw(st.integers(3, 5))
        m = draw(st.integers(2, n - 1))
    values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    entries = np.array(draw(st.lists(values, min_size=m * n, max_size=m * n))).reshape(m, n)
    if kind == "duplicate":
        entries[:, 1] = entries[:, 0]
    elif kind == "scaled-row":
        entries[draw(st.integers(0, m - 1))] *= 1e8
    return entries


class TestValidateMatrixAgreesWithConstruction:
    @settings(max_examples=60, deadline=None)
    @given(mixing_matrices())
    def test_exit_code_is_the_construction_verdict(self, entries):
        try:
            MixingMatrix(entries)
            expected = 0
        except ValueError:
            expected = 2
        m, n = entries.shape
        text = f"n = {n}\nm = {m}\nmatrix = " + " ".join(map(repr, entries.ravel().tolist())) + "\n"
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "codec.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["validate-matrix", "--config", path, "--porcelain"])
        assert code == expected, out.getvalue() + err.getvalue()
        assert ("passed=true" in out.getvalue()) == (expected == 0)


class TestGenCommand:
    def test_deterministic_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            proc = run_cli(
                "gen", "--frames", "6", "--width", "16", "--height", "16",
                "--seed", "3", "--out", str(tmp_path / sub / "f_{i:02d}.pgm"),
            )
            assert proc.returncode == 0
        for i in range(6):
            a = (tmp_path / "a" / f"f_{i:02d}.pgm").read_bytes()
            b = (tmp_path / "b" / f"f_{i:02d}.pgm").read_bytes()
            assert a == b

    def test_pattern_giving_two_frames_one_path_exits_2(self, tmp_path):
        proc = run_cli(
            "gen", "--frames", "3", "--width", "8", "--height", "8",
            "--out", str(tmp_path / "f{i!s:.0}.pgm"), "--porcelain",
        )
        assert proc.returncode == 2 and not proc.stdout
        assert "gives frames 0 and 1 the same path" in proc.stderr
        assert not list(tmp_path.iterdir())


class TestMixSeparate:
    @pytest.fixture
    def sequence_dir(self, tmp_path):
        frames = synth.generate("sparse-detail", 8, 16, 16, seed=11)
        from ubssvc import write_sequence

        write_sequence(frames, str(tmp_path / "src" / "f_{i:03d}.pgm"))
        return tmp_path

    def test_file_path_equals_memory_path(self, sequence_dir):
        src_pattern = str(sequence_dir / "src" / "*.pgm")
        container = sequence_dir / "seq.ubss"
        proc = run_cli("mix", src_pattern, "--out", str(container))
        assert proc.returncode == 0, proc.stderr

        frames = read_sequence(src_pattern)
        cfg = CodecConfig()
        enc_memory = encode_sequence(frames, cfg)
        reference = sequence_dir / "ref.ubss"
        write_container(enc_memory, reference)
        assert container.read_bytes() == reference.read_bytes()

        proc = run_cli(
            "separate", str(container), "--out", str(sequence_dir / "rec" / "f_{i:03d}.pgm")
        )
        assert proc.returncode == 0, proc.stderr
        decoded_files = read_sequence(str(sequence_dir / "rec" / "*.pgm"))
        decoded_memory, _ = decode_sequence(enc_memory, cfg)
        assert np.array_equal(decoded_files, snap_to_8bit(decoded_memory))

    def test_mix_twice_is_bit_identical(self, sequence_dir):
        src_pattern = str(sequence_dir / "src" / "*.pgm")
        out1, out2 = sequence_dir / "one.ubss", sequence_dir / "two.ubss"
        assert run_cli("mix", src_pattern, "--out", str(out1)).returncode == 0
        assert run_cli("mix", src_pattern, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_separate_respects_container_matrix(self, sequence_dir):
        src_pattern = str(sequence_dir / "src" / "*.pgm")
        container = sequence_dir / "seq.ubss"
        run_cli("mix", src_pattern, "--out", str(container))
        enc = read_container(container)
        assert enc.quantization == "float-container"

    def test_raw_input(self, tmp_path):
        frames = synth.generate("sparse-detail", 8, 8, 6, seed=12)
        raw = snap_to_8bit(frames).tobytes()
        raw_path = tmp_path / "seq.raw"
        raw_path.write_bytes(raw)
        proc = run_cli(
            "mix", str(raw_path), "--width", "8", "--height", "6",
            "--out", str(tmp_path / "seq.ubss"), "--porcelain",
        )
        assert proc.returncode == 0, proc.stderr
        assert "sources=8" in proc.stdout
        assert "mixed=6" in proc.stdout


class TestConfigOverrides:
    CONFIG = (
        "n = 3\nm = 2\nmatrix = 1.0 0.5 0.25  0.5 1.0 -0.75\n"
        "tau = 0.01\nquantization = float-container\n"
    )

    def test_flags_keep_matrix(self, tmp_path):
        from ubssvc.cli import _build_parser, _load_cfg

        path = tmp_path / "codec.cfg"
        path.write_text(self.CONFIG)
        flags = ["--config", str(path), "--tau", "0.2", "--quant", "affine8"]
        cfg = _load_cfg(_build_parser().parse_args(["roundtrip", "--preset", "noise", *flags]))
        assert (cfg.tau, cfg.quantization) == (0.2, "affine-8bit")
        assert cfg.matrix.entries.shape == (2, 3)
        assert np.array_equal(cfg.matrix.entries, [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])
        no_flags = _load_cfg(_build_parser().parse_args(["roundtrip", "--config", str(path)]))
        assert (no_flags.tau, no_flags.quantization) == (0.01, "float-container")

    def test_mix_with_overrides_writes_config_matrix(self, tmp_path):
        path = tmp_path / "codec.cfg"
        path.write_text(self.CONFIG)
        frames = synth.generate("sparse-detail", 7, 8, 6, seed=13)
        write_sequence(frames, str(tmp_path / "src" / "f_{i}.pgm"))
        container = tmp_path / "seq.ubss"
        pattern = str(tmp_path / "src" / "*.pgm")
        proc = run_cli("mix", pattern, "--config", str(path), "--tau", "0.3", "--quant", "affine8",
                       "--out", str(container))
        assert proc.returncode == 0, proc.stderr
        enc = read_container(container)
        assert enc.quantization == "affine-8bit" and len(enc.mixed_codes) == 4
        assert np.array_equal(enc.matrix.entries, [[1.0, 0.5, 0.25], [0.5, 1.0, -0.75]])
        # odd frame sizes are edge-padded; a pad policy is no longer a config key
        write_sequence(frames[:, :, :7], str(tmp_path / "odd" / "f_{i}.pgm"))
        odd = ("mix", str(tmp_path / "odd" / "*.pgm"), "--config", str(path), "--out", str(tmp_path / "odd.ubss"))
        assert run_cli(*odd).returncode == 0
        path.write_text(self.CONFIG + "pad_policy = reject\n")
        proc = run_cli(*odd)
        assert proc.returncode == 2 and "unknown config keys ['pad_policy']" in proc.stderr


class TestRoundtripCommand:
    def test_counts_and_determinism(self):
        args = (
            "roundtrip", "--preset", "sparse-detail", "--frames", "40",
            "--width", "32", "--height", "32", "--seed", "5", "--porcelain",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert "sources=40" in first.stdout
        assert "mixed=30" in first.stdout
        assert "decoded=40" in first.stdout

    def test_input_pattern_giving_two_frames_one_path_exits_2(self, tmp_path):
        write_sequence(synth.generate("noise", 1, 8, 8, seed=1), str(tmp_path / "frame{i!s:.0}.pgm"))
        proc = run_cli("roundtrip", str(tmp_path / "frame{i!s:.0}.pgm"), timeout=60)
        assert proc.returncode == 2
        assert "gives frames 0 and 1 the same path" in proc.stderr and "Traceback" not in proc.stderr


class TestPsnrCommand:
    def test_identical_sequences(self, tmp_path):
        from ubssvc import write_sequence

        frames = synth.generate("sparse-detail", 4, 8, 8, seed=13)
        write_sequence(frames, str(tmp_path / "x" / "f_{i}.pgm"))
        write_sequence(frames, str(tmp_path / "y" / "f_{i}.pgm"))
        proc = run_cli(
            "psnr", str(tmp_path / "x" / "*.pgm"), str(tmp_path / "y" / "*.pgm"),
            "--porcelain",
        )
        assert proc.returncode == 0
        assert "mean_psnr=inf" in proc.stdout
        assert "infinite_count=4" in proc.stdout


class TestBenchCommand:
    def test_identity_codec_reports_structural_floor(self):
        proc = run_cli(
            "bench", "--preset", "sparse-detail", "--frames", "8",
            "--width", "16", "--height", "16", "--seed", "4",
            "--codec-cmd", "cp {in} {out}", "--porcelain",
        )
        assert proc.returncode == 0, proc.stderr
        values = dict(
            line.split("=", 1) for line in proc.stdout.strip().splitlines()
        )
        assert float(values["ratio_of_ratios"]) == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert float(values["improvement_percent"]) == pytest.approx(100.0 / 3.0, abs=1e-6)
        assert int(values["raw.original_bytes"]) == 8 * 16 * 16
        assert int(values["raw.mixed_bytes"]) == 6 * 16 * 16

    def test_failing_codec_exits_3(self):
        proc = run_cli(
            "bench", "--preset", "sparse-detail", "--frames", "4",
            "--width", "8", "--height", "8",
            "--codec-cmd", "false",
        )
        assert proc.returncode == 3
        assert "codec failure" in proc.stderr

    def test_empty_codec_output_exits_3(self):
        proc = run_cli(
            "bench", "--preset", "sparse-detail", "--frames", "4",
            "--width", "8", "--height", "8",
            "--codec-cmd", "touch {out}",
        )
        assert proc.returncode == 3, proc.stderr
        assert "produced an empty output file" in proc.stderr


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestExitCodes:
    ROUNDTRIP = ["roundtrip", "--preset", "sparse-detail", "--frames", "8", "--width", "16",
                 "--height", "16", "--porcelain"]

    def test_closed_stdout_exits_141_quietly(self, capsys, monkeypatch):
        # a reader that stops early (`| head`) is not a data error
        monkeypatch.setattr(sys, "stdout", _BrokenStdout())
        assert cli.main(self.ROUNDTRIP) == 141
        assert capsys.readouterr().err == ""

    def test_closed_pipe_exits_141_quietly(self):
        # the buffered output meets the closed pipe only at the last flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ubssvc", *self.ROUNDTRIP],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONUNBUFFERED": ""},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_usage_error_is_1(self):
        assert run_cli("no-such-command").returncode == 1
        assert run_cli("gen").returncode == 1  # missing required --out

    def test_data_error_is_2(self, tmp_path):
        proc = run_cli("mix", str(tmp_path / "missing_*.pgm"), "--out", str(tmp_path / "o.ubss"))
        assert proc.returncode == 2
        proc = run_cli("separate", str(tmp_path / "nope.ubss"), "--out", str(tmp_path / "f_{i}.pgm"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_2(self, tmp_path, tau):
        gen = ("--preset", "noise", "--frames", "8", "--width", "16", "--height", "16")
        proc = run_cli("roundtrip", *gen, "--tau", tau, "--porcelain")
        assert proc.returncode == 2
        assert "tau must be finite" in proc.stderr and "columns.forced" not in proc.stdout
        cfg = tmp_path / "codec.cfg"
        cfg.write_text(f"tau = {tau}\n")
        proc = run_cli("roundtrip", *gen, "--config", str(cfg))
        assert proc.returncode == 2 and "tau must be finite" in proc.stderr
        frames = synth.generate("noise", 8, 16, 16, seed=1)
        write_sequence(frames, str(tmp_path / "src" / "f_{i}.pgm"))
        container = tmp_path / "seq.ubss"
        proc = run_cli("mix", str(tmp_path / "src" / "*.pgm"), "--tau", tau, "--out", str(container))
        assert proc.returncode == 2 and not container.exists()
        write_container(encode_sequence(frames, CodecConfig()), container)
        proc = run_cli("separate", str(container), "--tau", tau, "--out", str(tmp_path / "f_{i}.pgm"))
        assert proc.returncode == 2 and "tau must be finite" in proc.stderr

    def test_tail_too_long_for_container_exits_2(self, tmp_path):
        # a 2x257 matrix and 513 frames leave a tail of 256, one more than the u8 field holds
        entries = np.random.default_rng(3).uniform(0.5, 1.5, size=(2, 257))
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("n = 257\nm = 2\nmatrix = " + " ".join(map(str, entries.ravel().tolist())) + "\n")
        raw = tmp_path / "seq.raw"
        raw.write_bytes(bytes(513 * 4))
        out = tmp_path / "o.ubss"
        proc = run_cli(
            "mix", str(raw), "--width", "2", "--height", "2", "--config", str(cfg), "--out", str(out)
        )
        assert proc.returncode == 2
        assert "tail of 256 frames" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_undecodable_matrix_exits_2_without_writing(self, tmp_path):
        # the Gram matrix of this 2x3 matrix is too ill-conditioned to invert
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 3\nm = 2\nmatrix = 1e8 0.5 0.25  0.5 1.0 -0.75\n")
        raw = tmp_path / "seq.raw"
        raw.write_bytes(bytes(6 * 8 * 8))
        out = tmp_path / "o.ubss"
        proc = run_cli(
            "mix", str(raw), "--width", "8", "--height", "8", "--config", str(cfg), "--out", str(out)
        )
        assert proc.returncode == 2
        assert "numerically dependent" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_bad_input_pattern_exits_2(self, tmp_path):
        proc = run_cli("mix", str(tmp_path / "x{j}.pgm"), "--out", str(tmp_path / "o.ubs"))
        assert proc.returncode == 2
        assert "bad frame pattern" in proc.stderr and "x{j}.pgm" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_cli(
            "gen", "--frames", "4", "--width", "8", "--height", "8",
            "--out", str(tmp_path / "f_{k}.pgm"),
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr


GEN = ["--preset", "noise", "--frames", "8", "--width", "8", "--height", "8"]
CFG = ["--config", "{tmp}/codec.cfg"]

# (config file bytes, arguments with {tmp} for the test directory, exit code);
# the directory also holds seq.raw, four 4x4 frames
HOSTILE_INPUTS = {
    "non-utf8-config": (b"tau = 0.1 # \xff\xfe\n", ["roundtrip", *GEN, *CFG], 2),
    "n-not-int": (b"n = x\n", ["roundtrip", *GEN, *CFG], 2),
    "tau-not-float": (b"tau = abc\n", ["roundtrip", *GEN, *CFG], 2),
    "one-row-matrix": (b"n = 2\nm = 1\nmatrix = 1 2\n", ["roundtrip", *GEN, *CFG], 2),
    "negative-raw-frames": (
        b"",
        ["mix", "{tmp}/seq.raw", "--width", "4", "--height", "4", "--frames", "-1",
         "--out", "{tmp}/o.ubss"],
        2,
    ),
    "positional-pattern": (b"", ["gen", "--frames", "4", "--out", "{tmp}/f_{0}.pgm"], 2),
    "unclosed-quote": (b"", ["bench", *GEN, "--codec-cmd", "cp '{in} {out}"], 2),
    "directory-container": (b"", ["separate", "{tmp}", "--out", "{tmp}/f_{i}.pgm"], 2),
    "removed-flag": (b"", ["validate-matrix", "--det-floor", "1e-9"], 1),
    "zero-size-preset": (b"", ["roundtrip", "--preset", "sparse-detail", "--width", "0", "--height", "0"], 2),
}


@pytest.mark.parametrize("name", HOSTILE_INPUTS)
def test_hostile_input_exits_cleanly(tmp_path, name):
    config, args, code = HOSTILE_INPUTS[name]
    (tmp_path / "codec.cfg").write_bytes(config)
    (tmp_path / "seq.raw").write_bytes(bytes(4 * 16))
    proc = run_cli(*(arg.replace("{tmp}", str(tmp_path)) for arg in args))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
