import numpy as np
import pytest

from ubssvc import (
    ContainerError,
    MixingMatrix,
    default_config,
    encode_sequence,
    read_container,
    read_sequence,
    write_container,
    write_sequence,
)
from ubssvc import synth
from ubssvc.vio import mixed_stream_bytes, sequence_stream_bytes


def _sequences_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


class TestPgm:
    def test_reads_minimal_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(range(8)))
        src = read_sequence(str(path))
        assert src.count == 1 and src.origin == "pgm-sequence"
        assert src.frames.shape == (1, 2, 4) and not src.frames.flags.writeable
        assert src.frames.ravel().tolist() == list(range(8))

    def test_reads_commented_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# c\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert read_sequence(str(path)).frames[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # comments may sit between any header tokens and end with CR or LF
        path.write_bytes(b"P5 #a\r2#b c\n 2 # d\n# e\n255\n" + bytes([1, 2, 3, 4]))
        assert read_sequence(str(path)).frames[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # the raster starts one whitespace byte after maxval, so no comment fits there
        path.write_bytes(b"P5\n2 2\n255#x\n" + bytes([1, 2, 3, 4]))
        with pytest.raises(ValueError, match="malformed"):
            read_sequence(str(path))

    def test_commented_header_roundtrip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(3, 5)).astype(float)
        (written,) = write_sequence([frame], str(tmp_path / "w.pgm"))
        data = open(written, "rb").read()
        commented = tmp_path / "c.pgm"
        commented.write_bytes(b"P5\n# written by another tool\n" + data[len(b"P5\n"):])
        back = read_sequence(str(commented)).frames
        assert np.array_equal(back[0], frame)
        write_sequence(back, str(tmp_path / "again.pgm"))
        assert open(tmp_path / "again-0000.pgm", "rb").read() == data

    def test_rejects_16bit(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            read_sequence(str(path))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            read_sequence(str(path))

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_sequence(str(path))

    def test_write_clamps_and_rounds(self, tmp_path):
        frame = np.array([[255.7, -3.2], [100.5, 7.0]])
        paths = write_sequence([frame], str(tmp_path / "w.pgm"))
        back = read_sequence(paths[0]).frames[0]
        assert back.tolist() == [[255.0, 0.0], [101.0, 7.0]]

    def test_roundtrip_lossless_for_integral_values(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(3, 6, 4)).astype(float)
        write_sequence(frames, str(tmp_path / "s_{i}.pgm"))
        back = read_sequence(str(tmp_path / "s_*.pgm"))
        assert _sequences_equal(frames, back.frames)

    def test_pattern_expansion_formats(self, tmp_path):
        frames = np.arange(3.0)[:, None, None] * np.ones((3, 2, 2))
        write_sequence(frames, str(tmp_path / "f_{i:03d}.pgm"))
        by_brace = read_sequence(str(tmp_path / "f_{i:03d}.pgm"))
        by_glob = read_sequence(str(tmp_path / "*.pgm"))
        by_dir = read_sequence(str(tmp_path))
        assert by_brace.count == by_glob.count == by_dir.count == 3
        assert _sequences_equal(by_brace.frames, by_glob.frames)
        assert _sequences_equal(by_dir.frames, frames)

    def test_dimension_drift_rejected(self, tmp_path):
        write_sequence([np.zeros((2, 2))], str(tmp_path / "a_{i}.pgm"))
        write_sequence([np.zeros((2, 4))], str(tmp_path / "b_{i}.pgm"))
        with pytest.raises(ValueError, match="drift"):
            read_sequence(str(tmp_path / "*.pgm"))

    def test_missing_input(self, tmp_path):
        with pytest.raises(ValueError, match="no frames"):
            read_sequence(str(tmp_path / "nothing_*.pgm"))

    @pytest.mark.parametrize("field", ["{j}", "{0}", "{i:q}", "{i.real.x}", "{"])
    def test_bad_pattern_is_value_error(self, tmp_path, field):
        pattern = str(tmp_path / f"x{field}.pgm")
        with pytest.raises(ValueError, match="bad frame pattern"):
            read_sequence(pattern)
        with pytest.raises(ValueError, match="bad frame pattern"):
            write_sequence([np.zeros((2, 2))], pattern)


class TestRawPlanar:
    def test_reads_planes(self, tmp_path):
        w, h, count = 5, 3, 40
        payload = bytes(range(256)) * ((count * w * h) // 256 + 1)
        path = tmp_path / "seq.raw"
        path.write_bytes(payload[: count * w * h])
        src = read_sequence(str(path), width=w, height=h, count=count)
        assert src.count == 40 and src.origin == "raw-planar"
        assert src.frames.shape == (40, 3, 5) and not src.frames.flags.writeable
        assert src.frames.ravel().tolist() == list(payload[: count * w * h])

    def test_infers_count(self, tmp_path):
        path = tmp_path / "seq.raw"
        path.write_bytes(bytes(4 * 6))
        assert read_sequence(str(path), width=2, height=3).count == 4

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "seq.raw"
        path.write_bytes(bytes(10))
        with pytest.raises(ValueError):
            read_sequence(str(path), width=2, height=3, count=4)
        with pytest.raises(ValueError, match="multiple"):
            read_sequence(str(path), width=2, height=3)


@pytest.fixture
def encoded():
    frames = synth.generate("sparse-detail", 9, 16, 12, seed=5)  # 2 blocks + 1 tail
    return frames, encode_sequence(frames, default_config())


class TestContainer:
    def test_roundtrip_field_for_field(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "seq.ubss"
        write_container(enc, path)
        back = read_container(path)
        assert np.array_equal(back.matrix.entries, enc.matrix.entries)
        assert (back.width, back.height) == (enc.width, enc.height)
        assert back.quantization == enc.quantization
        assert (back.scale, back.offset) == (enc.scale, enc.offset)
        assert _sequences_equal(back.mixed_frames, enc.mixed_frames)
        assert _sequences_equal(back.tail_frames, enc.tail_frames)

    def test_roundtrip_affine_mode(self, tmp_path):
        frames = synth.generate("sparse-detail", 8, 16, 12, seed=6)
        enc = encode_sequence(frames, default_config(quantization="affine-8bit"))
        path = tmp_path / "seq8.ubss"
        write_container(enc, path)
        back = read_container(path)
        assert back.quantization == "affine-8bit"
        assert (back.scale, back.offset) == (enc.scale, enc.offset)
        assert _sequences_equal(back.mixed_frames, enc.mixed_frames)

    def test_write_is_byte_deterministic(self, tmp_path, encoded):
        _, enc = encoded
        p1, p2 = tmp_path / "a.ubss", tmp_path / "b.ubss"
        write_container(enc, p1)
        write_container(enc, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "x.ubss"
        write_container(enc, path)
        data = bytearray(path.read_bytes())
        data[0:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="magic"):
            read_container(path)

    def test_bad_version(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "x.ubss"
        write_container(enc, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="version"):
            read_container(path)

    def test_size_mismatch(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "x.ubss"
        write_container(enc, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ContainerError, match="size"):
            read_container(path)

    def test_inconsistent_mixed_count(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "x.ubss"
        write_container(enc, path)
        data = bytearray(path.read_bytes())
        data[18:22] = (0).to_bytes(4, "little")  # mixed_count = 0, payload unchanged
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError):
            read_container(path)

    def test_non_finite_payload(self, tmp_path, encoded):
        _, enc = encoded
        path = tmp_path / "x.ubss"
        write_container(enc, path)
        data = bytearray(path.read_bytes())
        data[39 + 96 : 39 + 100] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="finite"):
            read_container(path)

    def test_tail_too_long_for_header(self, tmp_path, rng):
        # n = 257 leaves a tail of up to 256 frames; the header field holds 255
        matrix = MixingMatrix(rng.uniform(0.5, 1.5, size=(2, 257)))
        enc = encode_sequence(np.zeros((513, 2, 2)), default_config(matrix=matrix))
        assert len(enc.tail_frames) == 256
        path = tmp_path / "x.ubss"
        with pytest.raises(ContainerError, match="tail of 256 frames"):
            write_container(enc, path)
        assert not path.exists()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.ubss"
        path.write_bytes(b"UBSS\x01")
        with pytest.raises(ContainerError, match="header"):
            read_container(path)

    def test_exact_byte_layout(self, tmp_path, encoded):
        # the documented wire format, field by field
        import struct

        _, enc = encoded
        path = tmp_path / "layout.ubss"
        write_container(enc, path)
        data = path.read_bytes()
        assert data[0:4] == b"UBSS"
        assert data[4] == 1  # version
        assert data[5] == 0  # float mode
        assert struct.unpack_from("<H", data, 6)[0] == 3  # m
        assert struct.unpack_from("<H", data, 8)[0] == 4  # n
        assert struct.unpack_from("<I", data, 10)[0] == enc.width
        assert struct.unpack_from("<I", data, 14)[0] == enc.height
        assert struct.unpack_from("<I", data, 18)[0] == 6  # mixed count
        assert data[22] == 1  # tail count
        assert struct.unpack_from("<dd", data, 23) == (0.0, 0.0)  # scale, offset
        matrix = np.frombuffer(data, dtype="<f8", count=12, offset=39).reshape(3, 4)
        assert np.array_equal(matrix, enc.matrix.entries)
        t = enc.width * enc.height
        first_mixed = np.frombuffer(data, dtype="<f4", count=t, offset=39 + 96)
        assert np.array_equal(first_mixed.astype(np.float64), enc.mixed_frames[0].ravel())
        tail_offset = 39 + 96 + 6 * t * 4
        tail = np.frombuffer(data, dtype=np.uint8, count=t, offset=tail_offset)
        assert np.array_equal(tail.astype(np.float64), enc.tail_frames[0].ravel())
        assert len(data) == tail_offset + t


class TestStreams:
    def test_sequence_stream_size(self):
        frames = np.zeros((3, 4, 6))
        assert len(sequence_stream_bytes(frames)) == 3 * 24

    def test_mixed_stream_sizes_by_mode(self, encoded):
        frames, enc = encoded
        t = enc.width * enc.height
        assert len(mixed_stream_bytes(enc)) == 6 * t * 4 + 1 * t  # f32 mixed + u8 tail
        enc8 = encode_sequence(frames, default_config(quantization="affine-8bit"))
        assert len(mixed_stream_bytes(enc8)) == 6 * t + 1 * t
