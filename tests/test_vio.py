import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubssvc import (
    CodecConfig,
    ContainerError,
    MixingMatrix,
    decode_sequence,
    encode_sequence,
    read_container,
    read_sequence,
    write_container,
    write_sequence,
)
from ubssvc import synth, vio
from ubssvc.vio import mixed_stream_bytes, sequence_stream_bytes


def _sequences_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


class TestPgm:
    def test_reads_minimal_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(range(8)))
        frames = read_sequence(str(path))
        assert frames.shape == (1, 2, 4) and frames.dtype == np.float64
        assert not frames.flags.writeable
        assert frames.ravel().tolist() == list(range(8))

    def test_reads_commented_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# c\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert read_sequence(str(path))[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # comments may sit between any header tokens and end with CR or LF
        path.write_bytes(b"P5 #a\r2#b c\n 2 # d\n# e\n255\n" + bytes([1, 2, 3, 4]))
        assert read_sequence(str(path))[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # the raster starts one whitespace byte after maxval, so no comment fits there
        path.write_bytes(b"P5\n2 2\n255#x\n" + bytes([1, 2, 3, 4]))
        with pytest.raises(ValueError, match="malformed"):
            read_sequence(str(path))

    def test_commented_header_roundtrip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(3, 5)).astype(float)
        (written,) = write_sequence([frame], str(tmp_path / "w.pgm"))
        data = Path(written).read_bytes()
        commented = tmp_path / "c.pgm"
        commented.write_bytes(b"P5\n# written by another tool\n" + data[len(b"P5\n"):])
        back = read_sequence(str(commented))
        assert np.array_equal(back[0], frame)
        write_sequence(back, str(tmp_path / "again.pgm"))
        assert (tmp_path / "again-0000.pgm").read_bytes() == data

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
        back = read_sequence(paths[0])[0]
        assert back.tolist() == [[255.0, 0.0], [101.0, 7.0]]

    def test_roundtrip_lossless_for_integral_values(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(3, 6, 4)).astype(float)
        write_sequence(frames, str(tmp_path / "s_{i}.pgm"))
        back = read_sequence(str(tmp_path / "s_*.pgm"))
        assert _sequences_equal(frames, back)

    def test_pattern_expansion_formats(self, tmp_path):
        frames = np.arange(3.0)[:, None, None] * np.ones((3, 2, 2))
        write_sequence(frames, str(tmp_path / "f_{i:03d}.pgm"))
        by_brace = read_sequence(str(tmp_path / "f_{i:03d}.pgm"))
        by_glob = read_sequence(str(tmp_path / "*.pgm"))
        by_dir = read_sequence(str(tmp_path))
        assert len(by_brace) == len(by_glob) == len(by_dir) == 3
        assert _sequences_equal(by_brace, by_glob)
        assert _sequences_equal(by_dir, frames)

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

    def test_pattern_giving_two_frames_one_path_is_value_error(self, tmp_path, monkeypatch):
        (tmp_path / "frame.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        fmt = vio._format_pattern

        def bounded(pattern, i):
            assert i < 100, "the pattern expansion does not stop"
            return fmt(pattern, i)

        monkeypatch.setattr(vio, "_format_pattern", bounded)
        with pytest.raises(ValueError, match="gives frames 0 and 1 the same path"):
            read_sequence(str(tmp_path / "frame{i!s:.0}.pgm"))
        # frames 1 and 10 both give f1.pgm; no file is written
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="gives frames 1 and 10 the same path"):
            write_sequence(np.zeros((11, 2, 2)), str(out / "f{i!s:.1}.pgm"))
        assert not out.exists()
        assert len(write_sequence(np.zeros((10, 2, 2)), str(out / "f{i!s:.1}.pgm"))) == 10


class TestRawPlanar:
    def test_reads_planes(self, tmp_path):
        w, h, count = 5, 3, 40
        payload = bytes(range(256)) * ((count * w * h) // 256 + 1)
        path = tmp_path / "seq.raw"
        path.write_bytes(payload[: count * w * h])
        frames = read_sequence(str(path), width=w, height=h, count=count)
        assert frames.shape == (40, 3, 5) and frames.dtype == np.float64
        assert not frames.flags.writeable
        assert frames.ravel().tolist() == list(payload[: count * w * h])

    def test_infers_count(self, tmp_path):
        path = tmp_path / "seq.raw"
        path.write_bytes(bytes(4 * 6))
        assert len(read_sequence(str(path), width=2, height=3)) == 4

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "seq.raw"
        path.write_bytes(bytes(10))
        with pytest.raises(ValueError):
            read_sequence(str(path), width=2, height=3, count=4)
        with pytest.raises(ValueError, match="multiple"):
            read_sequence(str(path), width=2, height=3)

    @pytest.mark.parametrize("count", [0, -1, -2])
    def test_rejects_non_positive_count(self, tmp_path, count):
        # numpy reads a negative count or reshape length as "all of it"
        path = tmp_path / "seq.raw"
        path.write_bytes(bytes(16))
        with pytest.raises(ValueError, match="no frames"):
            read_sequence(str(path), width=2, height=2, count=count)


@pytest.fixture
def encoded():
    frames = synth.generate("sparse-detail", 9, 16, 12, seed=5)  # 2 blocks + 1 tail
    return frames, encode_sequence(frames, CodecConfig())


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
        assert _sequences_equal(back.mixed_codes, enc.mixed_codes)
        assert _sequences_equal(back.tail_codes, enc.tail_codes)

    def test_roundtrip_affine_mode(self, tmp_path):
        frames = synth.generate("sparse-detail", 8, 16, 12, seed=6)
        enc = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
        path = tmp_path / "seq8.ubss"
        write_container(enc, path)
        back = read_container(path)
        assert back.quantization == "affine-8bit"
        assert (back.scale, back.offset) == (enc.scale, enc.offset)
        assert _sequences_equal(back.mixed_codes, enc.mixed_codes)

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
        enc = encode_sequence(np.zeros((513, 2, 2)), CodecConfig(matrix=matrix))
        assert len(enc.tail_codes) == 256
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
        assert np.array_equal(first_mixed, enc.mixed_codes[0].ravel())
        tail_offset = 39 + 96 + 6 * t * 4
        tail = np.frombuffer(data, dtype=np.uint8, count=t, offset=tail_offset)
        assert np.array_equal(tail, enc.tail_codes[0].ravel())
        assert len(data) == tail_offset + t

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_codes_read_back_as_views(self, tmp_path, quantization):
        frames = synth.generate("sparse-detail", 9, 16, 12, seed=5)
        enc = encode_sequence(frames, CodecConfig(quantization=quantization))
        path = tmp_path / "seq.ubss"
        write_container(enc, path)
        back = read_container(path)
        for name in ("mixed_codes", "tail_codes"):
            stored, kept = getattr(back, name), getattr(enc, name)
            assert _sequences_equal(stored, kept)
            # a read-only view over the bytes read, not a converted copy
            assert not stored.flags.owndata and not stored.flags.writeable
        # the payload after the header and matrix is the codes, as they are
        assert path.read_bytes()[39 + 96 :] == mixed_stream_bytes(enc)


class TestStreams:
    def test_sequence_stream_size(self):
        frames = np.zeros((3, 4, 6))
        assert len(sequence_stream_bytes(frames)) == 3 * 24

    @pytest.mark.parametrize("quantization", ["float-container", "affine-8bit"])
    def test_mixed_stream_is_the_codes(self, quantization):
        frames = synth.generate("sparse-detail", 9, 16, 12, seed=5)
        enc = encode_sequence(frames, CodecConfig(quantization=quantization))
        assert mixed_stream_bytes(enc) == enc.mixed_codes.tobytes() + enc.tail_codes.tobytes()

    def test_mixed_stream_sizes_by_mode(self, encoded):
        frames, enc = encoded
        t = enc.width * enc.height
        assert len(mixed_stream_bytes(enc)) == 6 * t * 4 + 1 * t  # f32 mixed + u8 tail
        enc8 = encode_sequence(frames, CodecConfig(quantization="affine-8bit"))
        assert len(mixed_stream_bytes(enc8)) == 6 * t + 1 * t


# Header fields as (byte offset, struct format); see the vio module docstring.
_HEADER_FIELDS = {
    "version": (4, "<B"),
    "quantization": (5, "<B"),
    "m": (6, "<H"),
    "n": (8, "<H"),
    "width": (10, "<I"),
    "height": (14, "<I"),
    "mixed_count": (18, "<I"),
    "tail_count": (22, "<B"),
    "scale": (23, "<d"),
    "offset": (31, "<d"),
}
_F32_MAX = float(np.finfo(np.float32).max)
_EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, -1.0, 1e38, 1e39, 1.7e308, -1.7e308,
                   np.inf, -np.inf, np.nan, _F32_MAX, -_F32_MAX, _F32_MAX / 255]
_BASES = {}


def _base_container(quantization) -> bytes:
    """A small valid container: 9 frames of 6x4, so 2 blocks and a 1-frame tail."""
    if quantization not in _BASES:
        frames = synth.generate("sparse-detail", 9, 6, 4, seed=11)
        enc = encode_sequence(frames, CodecConfig(quantization=quantization))
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "base.ubss")
            write_container(enc, path)
            with open(path, "rb") as fh:
                _BASES[quantization] = fh.read()
    return _BASES[quantization]


@st.composite
def mutated_containers(draw):
    quantization = draw(st.sampled_from(["float-container", "affine-8bit"]))
    data = bytearray(_base_container(quantization))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "extend", "field", "matrix", "payload"]))
        if kind == "flip" and data:
            pos = draw(st.integers(0, len(data) - 1))
            data[pos] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
        elif kind == "field":
            offset, fmt = _HEADER_FIELDS[draw(st.sampled_from(sorted(_HEADER_FIELDS)))]
            if fmt == "<d":
                value = draw(st.sampled_from(_EXTREME_FLOATS) | st.floats())
            else:
                top = 2 ** (8 * struct.calcsize(fmt)) - 1
                value = draw(st.sampled_from([0, 1, 2, 3, 4, 5, top - 1, top]) | st.integers(0, top))
            if len(data) >= offset + struct.calcsize(fmt):
                struct.pack_into(fmt, data, offset, value)
        elif kind == "matrix":  # one f64 matrix entry
            pos = 39 + 8 * draw(st.integers(0, 11))
            if len(data) >= pos + 8:
                struct.pack_into("<d", data, pos, draw(st.sampled_from(_EXTREME_FLOATS) | st.floats()))
        else:  # one stored mixed value: a float32 in float mode, a code byte in affine mode
            item = 4 if quantization == "float-container" else 1
            pos = 39 + 96 + draw(st.integers(0, 6 * 24 - 1)) * item
            if item == 4 and len(data) >= pos + 4:
                value = draw(st.sampled_from([np.nan, np.inf, -np.inf, _F32_MAX, -_F32_MAX, 1e-45])
                             | st.floats(width=32))
                struct.pack_into("<f", data, pos, value)
            elif len(data) > pos:
                data[pos] = draw(st.integers(0, 255))
    return bytes(data)


# extreme matrix entries overflow the determinant and Gram checks, which then reject them
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(mutated_containers())
def test_mutated_container_decodes_or_raises_container_error(data):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzz.ubss")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            enc = read_container(path)
        except ContainerError:
            return
    decoded, stats = decode_sequence(enc, CodecConfig(matrix=enc.matrix, quantization=enc.quantization))
    assert decoded.shape == (enc.source_count, enc.height, enc.width)
    assert np.isfinite(decoded).all()
    assert stats.total_columns == 3 * enc.block_count * ((enc.height + 1) // 2) * ((enc.width + 1) // 2)
