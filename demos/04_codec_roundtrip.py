"""Full codec roundtrip on a synthetic sequence.

40 source frames become 30 mixed frames (a fixed 25% payload cut before
any conventional codec runs). The decoder gets all 40 back; recovery is
essentially exact in the detail bands, and the residual error lives in the
low-frequency band, where the generalized inverse can only project.
"""
import numpy as np

from ubssvc import (
    CodecConfig,
    default_mixing_matrix,
    generalized_inverse,
    haar_forward,
    roundtrip_eval,
)
from ubssvc import synth

frames = synth.generate("sparse-detail", 40, 64, 64, seed=1234)
cfg = CodecConfig()
report = roundtrip_eval(frames, cfg)

print(f"sources {report.source_count} -> mixed {report.mixed_count} "
      f"(+{report.tail_count} tail) -> decoded {report.source_count}")
print(f"mean PSNR over the sequence: {report.quality.mean_psnr:.2f} dB")
stats = report.recovery
print(f"coefficient columns: total={stats.total_columns} zero={stats.zero_columns} "
      f"clean={stats.clean_columns} forced={stats.forced_columns}")

worst = int(np.argmin(report.quality.per_frame_psnr))
best = int(np.argmax(report.quality.per_frame_psnr))
print(f"best frame {best}: {report.quality.per_frame_psnr[best]:.2f} dB, "
      f"worst frame {worst}: {report.quality.per_frame_psnr[worst]:.2f} dB")

# Where does the error live? Compare band energies of the reconstruction
# error for the first block.
matrix = default_mixing_matrix()
projector = generalized_inverse(matrix) @ matrix.entries
from ubssvc import decode_sequence, encode_sequence  # noqa: E402

decoded, _ = decode_sequence(encode_sequence(frames, cfg), cfg)  # (40, 64, 64) array
for band, src, rec in zip(("ll", "lh", "hl", "hh"), haar_forward(frames[:4]), haar_forward(decoded[:4])):
    err = float(np.sum((src - rec) ** 2))
    print(f"error energy in {band}: {err:12.4f}")
print("-> the ll band carries the loss; detail bands are recovered")

# The ll loss is exactly the projector deficit: (A+ A - I) applied to the
# source ll coefficients.
src_ll = haar_forward(frames[:4])[0].reshape(4, -1)
predicted = (projector - np.eye(4)) @ src_ll
print(f"predicted ll error energy: {float(np.sum(predicted**2)):12.4f}")
