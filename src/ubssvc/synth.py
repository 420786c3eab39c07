"""Deterministic synthetic test sequences.

All randomness comes from integer draws on a seeded generator and maps to
pixel values through fixed arithmetic, so a given (preset, seed, size)
produces identical frames on every platform and run. Every generator
returns a read-only (count, height, width) float64 array.
"""
from __future__ import annotations

import math

import numpy as np

from .mixcore import _read_only


PRESETS = ("sparse-detail", "noise")

_BASE_TILE = 16
_BASE_LO, _BASE_HI = 40, 200  # + detail range stays inside [0, 255]
_DETAIL_AMP = 40


def sparse_detail(count, width, height, seed, group=4, max_active=2) -> np.ndarray:
    """Piecewise-constant frames with sparse per-group detail.

    Frames come in groups of ``group``; each group shares one
    piecewise-constant base plane (constant on aligned 16x16 tiles, hence
    on every 2x2 cell). Per 2x2 cell, ``active`` frames of the group, drawn
    from 0 to ``max_active`` and all distinct, receive an additive
    intra-cell pattern, so after a one-level transform every
    detail-coefficient column has at most ``max_active`` active sources.
    Defaults match the built-in 4-into-3 codec.
    """
    if count < 1 or width < 1 or height < 1:
        raise ValueError("count, width, height must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 1 <= max_active < group:
        raise ValueError("need 1 <= max_active < group")
    rng = np.random.default_rng(seed)
    cells_h = math.ceil(height / 2)
    cells_w = math.ceil(width / 2)
    tiles_h = math.ceil(height / _BASE_TILE)
    tiles_w = math.ceil(width / _BASE_TILE)

    groups = math.ceil(count / group)
    frames = np.empty((groups * group, height, width))
    for g in range(groups):
        tiles = rng.integers(_BASE_LO, _BASE_HI, size=(tiles_h, tiles_w))
        base = np.repeat(np.repeat(tiles, _BASE_TILE, 0), _BASE_TILE, 1)[:height, :width]
        active = rng.integers(0, max_active + 1, size=(cells_h, cells_w))
        first = rng.integers(0, group, size=(cells_h, cells_w))
        second = (first + rng.integers(1, group, size=(cells_h, cells_w))) % group
        chosen = [first, second]
        if max_active > 2:
            # the other frames of each cell in a random order, after first and second
            keys = rng.random((group, cells_h, cells_w))
            members = np.arange(group)[:, None, None]
            keys[(members == first) | (members == second)] = -1.0
            chosen += list(keys.argsort(axis=0)[2:max_active])
        detail = rng.integers(-_DETAIL_AMP, _DETAIL_AMP + 1, size=(group, height, width))
        for j in range(group):
            cell_mask = np.any([(active > i) & (frame == j) for i, frame in enumerate(chosen)], axis=0)
            mask = np.repeat(np.repeat(cell_mask, 2, 0), 2, 1)[:height, :width]
            np.clip(base + detail[j] * mask, 0, 255, out=frames[g * group + j])
    return _read_only(frames[:count])


def noise(count, width, height, seed) -> np.ndarray:
    """Independent uniform 8-bit noise; a worst case for sparse recovery."""
    if count < 1 or width < 1 or height < 1:
        raise ValueError("count, width, height must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    frames = np.empty((count, height, width))  # first, so a count too large fails at once
    for frame in frames:
        # one draw per frame, so the values do not depend on how draws are batched
        frame[...] = rng.integers(0, 256, size=(height, width))
    return _read_only(frames)


def generate(preset, count, width, height, seed, group=4, max_active=2) -> np.ndarray:
    """Frames of a preset; ``group`` and ``max_active`` shape ``sparse-detail`` (see :func:`sparse_detail`)."""
    if preset == "sparse-detail":
        return sparse_detail(count, width, height, seed, group, max_active)
    if preset == "noise":
        return noise(count, width, height, seed)
    raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
