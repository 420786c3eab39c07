"""Persisting encoded streams and measuring the compression effect.

An encoded sequence holds its mixed frames as the codes the container
stores (uint8 here, in affine-8bit mode; float32 in float mode), and the
decoder dequantizes them one chunk at a time. The container stores the
matrix and those codes bit-exactly, so decoding from a file matches
decoding from memory. The bench harness then runs any
external codec command on the original and the mixed raw streams; with a
copy command as the "codec", the improvement is the structural 4/3 floor.
"""
import os
import subprocess
import sys
import tempfile

import numpy as np

from ubssvc import (
    CodecConfig,
    decode_sequence,
    encode_sequence,
    read_container,
    write_container,
)
from ubssvc import synth

frames = synth.generate("sparse-detail", 12, 32, 32, seed=77)
cfg = CodecConfig(quantization="affine-8bit")
enc = encode_sequence(frames, cfg)
print(f"encoded: {len(enc.mixed_codes)} mixed + {len(enc.tail_codes)} tail, "
      f"quantization {enc.quantization} (scale {enc.scale:.4f}, offset {enc.offset:.2f})")
print(f"stored codes: mixed {enc.mixed_codes.dtype}, tail {enc.tail_codes.dtype}; "
      f"first mixed code {enc.mixed_codes[0, 0, 0]} stands for "
      f"{enc.offset + enc.scale * int(enc.mixed_codes[0, 0, 0]):.3f}")

with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "demo.ubss")
    write_container(enc, path)
    print(f"container: {os.path.getsize(path)} bytes")

    back = read_container(path)
    same = np.array_equal(back.mixed_codes, enc.mixed_codes)
    print("mixed codes identical after write/read:", same and back.mixed_codes.dtype == enc.mixed_codes.dtype)

    decoded_file, _ = decode_sequence(back, cfg)
    decoded_mem, _ = decode_sequence(enc, cfg)
    print("file decode == memory decode:", np.array_equal(decoded_file, decoded_mem))

# Bench through the CLI with a copy command standing in for the codec.
result = subprocess.run(
    [
        sys.executable, "-m", "ubssvc", "bench",
        "--preset", "sparse-detail", "--frames", "40",
        "--width", "32", "--height", "32", "--seed", "77",
        "--codec-cmd", "cp {in} {out}",
    ],
    capture_output=True,
    text=True,
)
print("\n$ ubssvc bench --codec-cmd 'cp {in} {out}' ...")
print(result.stdout.rstrip())
print("\nswap the copy command for a real encoder, e.g.:")
print("  --codec-cmd 'ffmpeg -y -f rawvideo -pix_fmt gray -s 32x32 -i {in} "
      "-c:v libx264 -f h264 {out}'")
