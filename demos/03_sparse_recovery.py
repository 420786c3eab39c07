"""Recovering more sources than observations.

With 3 observations of 4 sources there is no inverse, but if at most 2
sources are active per sample, each observed 3-vector lies in one of the
C(4,2) = 6 planes spanned by pairs of matrix columns. Each plane is held
as its unit normal n, so the distance from a column x to it is |n . x| and
one matrix product measures every column against every plane. Finding the
nearest plane identifies WHICH sources were active; a precomputed 2x3 map
per plane identifies their values.
"""
import time

import numpy as np

from ubssvc import build_hyperplanes, default_mixing_matrix, recover_block

matrix = default_mixing_matrix()
planes = build_hyperplanes(matrix)
print(f"{planes.count} candidate planes:", [tuple(s) for s in planes.index_sets.tolist()])
print("unit normals:\n", planes.normals.round(4))

# One column, by hand: activate sources 0 and 2.
x = 2.0 * matrix.entries[:, 0] + 3.0 * matrix.entries[:, 2]
print("\nobserved column", x)
print("distance to each plane:", np.abs(planes.normals @ x).round(4))
best, distance = planes.classify(x[:, None])
q = int(best[0])
print(f"nearest plane {tuple(planes.index_sets[q].tolist())}, coefficients "
      f"{planes.coefficient_maps[q] @ x}, relative residual {distance[0] / np.linalg.norm(x):.2e}")

# Whole-matrix recovery at video scale: 10000 columns in a few milliseconds.
# The plane set is built once and reused, as the decoder does for every band.
rng = np.random.default_rng(3)
t = 10000
sources = np.zeros((4, t))
first = rng.integers(0, 4, t)
second = (first + rng.integers(1, 4, t)) % 4
sources[first, np.arange(t)] = rng.uniform(-100, 100, t)
sources[second, np.arange(t)] = rng.uniform(-100, 100, t)

observed = matrix.entries @ sources
start = time.perf_counter()
recovered, stats = recover_block(planes, observed, tau=1e-8)
elapsed = time.perf_counter() - start
print(f"\nrecovered 4x{t} from 3x{t} in {elapsed * 1000:.1f} ms")
print(f"max abs error: {np.abs(recovered - sources).max():.2e}")
print(f"columns: zero={stats.zero_columns} clean={stats.clean_columns} forced={stats.forced_columns}")

# Break the sparsity assumption on one column and watch it get flagged.
sources[:, 123] = [10.0, -5.0, 3.0, 0.0]  # three active sources
_, stats = recover_block(planes, matrix.entries @ sources, tau=1e-8)
print(f"\nafter planting a 3-active column: forced={stats.forced_columns}")
print("residual quantiles (0/25/50/75/100%):", stats.residual_quantiles())
