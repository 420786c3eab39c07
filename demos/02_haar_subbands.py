"""One-level Haar decomposition: energy split, exactness, and why it is
safe to separate in the coefficient domain.

The decoder never sees source frames, only mixed ones. Because the
transform is linear and mixing is pixelwise, transforming the mixed frames
gives exactly the mixture of the transformed sources, band by band.
"""
import numpy as np

from ubssvc import BANDS, default_mixing_matrix, haar_forward, haar_inverse

rng = np.random.default_rng(2)

# A frame with a flat background and a few busy cells.
plane = np.full((8, 8), 90.0)
plane[2:4, 2:4] += np.array([[30.0, -10.0], [5.0, -25.0]])

bands = haar_forward(plane)  # ll, lh, hl, hh
print("8x8 frame -> four 4x4 subbands")
for name, values in zip(BANDS, bands):
    print(f"  {name}: energy {np.sum(values**2):12.2f}   nonzeros {np.count_nonzero(np.abs(values) > 1e-9)}")
total = sum(np.sum(values**2) for values in bands)
print(f"  energy total {total:.2f} vs source {np.sum(plane**2):.2f} (orthonormal transform)")

back = haar_inverse(bands)
print("perfect reconstruction error:", np.abs(back - plane).max())

# Linearity: transform(mix) == mix(transform), per coefficient. Both calls
# transform a whole (frames, height, width) stack at once.
matrix = default_mixing_matrix()
sources = rng.uniform(0, 255, size=(4, 8, 8))
mixed = (matrix.entries @ sources.reshape(4, -1)).reshape(3, 8, 8)  # pixelwise x = A s
for name, mixed_band, source_band in zip(BANDS, haar_forward(mixed), haar_forward(sources)):
    transform_of_mix = mixed_band.reshape(3, -1)
    mix_of_transform = matrix.entries @ source_band.reshape(4, -1)
    err = np.abs(transform_of_mix - mix_of_transform).max()
    print(f"commutation error in {name}: {err:.2e}")
print("-> separating transformed mixed frames recovers transformed sources")
