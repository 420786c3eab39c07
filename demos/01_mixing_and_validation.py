"""Mixing basics: the matrix, its validation, and the generalized inverse.

Four consecutive frames are treated as one source block and mixed down to
three frames by a fixed 3x4 matrix. The matrix is usable only if every one
of its 3x3 submatrices is far from singular, which MixingMatrix checks
when it is built; this script prints the determinant evidence and shows
what mixing does to simple inputs.
"""
import numpy as np

from ubssvc import default_mixing_matrix, generalized_inverse
from ubssvc.mixcore import mixing_evidence

matrix = default_mixing_matrix()
print("mixing matrix (3 mixed frames from 4 sources):")
print(matrix.entries)

print("\nsubmatrix nonsingularity check:")
subsets, magnitudes, _ = mixing_evidence(matrix.entries)  # one stacked determinant call
for cols, magnitude in zip(subsets.tolist(), magnitudes.tolist()):
    print(f"  columns {tuple(cols)}: |det| = {magnitude:.6f}")
# the matrix constructed, so it passed
print(f"  -> PASS (min {magnitudes.min():.6f})")

# Constant frames make the row sums visible: each mixed frame is just
# (sum of row weights) * 100.
block = np.full((4, 4, 4), 100.0)  # (n, height, width): one group of four frames
mixed = matrix.entries @ block.reshape(4, -1)  # pixelwise x = A s
print("\nfour constant-100 frames mix to constants:")
print("  ", mixed[:, 0].tolist())
print("  (row sums are", matrix.entries.sum(axis=1), "- mixed values exceed 255)")

# The generalized inverse undoes mixing only up to a projection: A+ A is a
# rank-3 projector on the 4-dimensional source space.
pinv = generalized_inverse(matrix)
print("\ngeneralized inverse A+ (4x3):")
print(pinv)
print("A @ A+ = I to", np.abs(matrix.entries @ pinv - np.eye(3)).max())
projector = pinv @ matrix.entries
print("A+ @ A applied to (1,1,1,1):", projector @ np.ones(4))
print("  -> constant sources are NOT recovered exactly; that is the price of mixing")

# Sparsity is what makes exact recovery possible for the detail bands.
rng = np.random.default_rng(0)
sparse = np.zeros((4, 8))
sparse[rng.integers(0, 4, 8), np.arange(8)] = rng.uniform(-50, 50, 8)
nonzeros = np.count_nonzero(np.abs(sparse) > 1e-12, axis=0)
print("\nsparsity census of a 1-active-per-column matrix (bound m-1 = 2):")
print("  columns with k nonzeros, k = 0..4:", np.bincount(nonzeros, minlength=5).tolist())
print("  every column within the bound:", bool((nonzeros <= 2).all()))
