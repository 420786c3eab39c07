import hashlib

import numpy as np
import pytest

from oracles import sparsity_census
from ubssvc import BANDS, haar_forward
from ubssvc.synth import PRESETS, generate, sparse_detail


def _stacks(frames):
    assert frames.ndim == 3 and frames.dtype == np.float64 and not frames.flags.writeable
    return frames


class TestSparseDetail:
    def test_deterministic_per_seed(self):
        a = generate("sparse-detail", 12, 32, 24, seed=5)
        b = generate("sparse-detail", 12, 32, 24, seed=5)
        assert np.array_equal(_stacks(a), _stacks(b))
        c = generate("sparse-detail", 12, 32, 24, seed=6)
        assert not np.array_equal(_stacks(a), _stacks(c))

    def test_values_are_8bit_integral(self):
        frames = _stacks(generate("sparse-detail", 8, 32, 32, seed=1))
        assert frames.min() >= 0 and frames.max() <= 255
        assert np.array_equal(frames, np.round(frames))

    def test_count_and_dimensions(self):
        frames = _stacks(generate("sparse-detail", 6, 20, 14, seed=2))
        assert frames.shape == (6, 14, 20)

    def test_detail_columns_stay_sparse_per_group(self):
        # the whole point of the preset: every detail-coefficient column has
        # at most 2 of the 4 group members active
        frames = generate("sparse-detail", 16, 32, 32, seed=3)
        for g in range(4):
            group = dict(zip(BANDS, haar_forward(frames[g * 4 : (g + 1) * 4])))
            for band in ("lh", "hl", "hh"):
                coeffs = group[band].reshape(4, -1)
                counts, _, satisfied = sparsity_census(coeffs, m=3, zero_eps=1e-9)
                assert satisfied, f"group {g} band {band}: {counts.max()}"

    @pytest.mark.parametrize(
        "group, max_active, digest",
        [
            (4, 2, "dbcf425efa1c12711043407dcdbbc48520e25181ba8de835854488ec890d2ea9"),
            (8, 1, "6d9b22db7331031dedc36ecafdac731308bc8b331c460935947443ccc6a88660"),
            (3, 2, "c5d8ce8a61980fb87e3e3e3304e19bcce1118db9a84cd0f15e8350af639dfa45"),
        ],
    )
    def test_frames_pinned_up_to_two_active(self, group, max_active, digest):
        # the frames of every max_active <= 2 draw, the bench's among them,
        # are pinned to their sha256: more active frames add draws only above 2
        frames = sparse_detail(16, 31, 9, seed=3, group=group, max_active=max_active)
        assert hashlib.sha256(frames.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("group, max_active", [(8, 3), (7, 6)])
    def test_cells_reach_max_active_distinct_sources(self, group, max_active):
        # a cell drawn with k active frames has k distinct ones, so detail
        # columns with exactly max_active active sources occur, and none more
        frames = sparse_detail(2 * group, 32, 32, seed=21, group=group, max_active=max_active)
        for g in range(2):
            bands = haar_forward(frames[g * group : (g + 1) * group])
            for band in bands[1:]:
                active = (np.abs(band.reshape(group, -1)) > 1e-9).sum(axis=0)
                assert active.max() == max_active

    def test_group_parameters_validated(self):
        with pytest.raises(ValueError):
            sparse_detail(4, 16, 16, seed=0, group=4, max_active=4)
        with pytest.raises(ValueError):
            generate("sparse-detail", 0, 16, 16, seed=0)


class TestNoise:
    def test_deterministic_and_in_range(self):
        a = generate("noise", 5, 16, 16, seed=9)
        b = generate("noise", 5, 16, 16, seed=9)
        assert np.array_equal(_stacks(a), _stacks(b))
        assert _stacks(a).min() >= 0 and _stacks(a).max() <= 255

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            generate("noise", 0, 16, 16, seed=0)


@pytest.mark.parametrize("preset", PRESETS)
def test_negative_seed_is_named(preset):
    # numpy's own error does not say which argument it refers to
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        generate(preset, 4, 16, 16, seed=-1)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        generate("checkerboard", 4, 16, 16, seed=0)
