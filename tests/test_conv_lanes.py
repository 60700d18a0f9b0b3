"""Property: `_conv3d` with lanes is bitwise a stack of per-lane calls."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtseg.tensor import _TILE_CHANNELS, _conv3d


@st.composite
def lane_cases(draw):
    """Operands of one conv, and lanes on a non-empty subset of its arguments.

    Channel counts fall on both sides of `_TILE_CHANNELS`, so both the im2col
    tiles and the per-tap loop of `_correlate` run."""
    lanes = draw(st.integers(1, 16))
    channels = draw(st.integers(1, _TILE_CHANNELS + 4))
    out_channels = draw(st.integers(1, 4))
    extents = tuple(draw(st.integers(1, 6)) for _ in range(3))
    kshape = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(3))
    laned = draw(st.sets(st.sampled_from(["input", "kernel", "bias"]), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_array(name, shape):
        shape = (lanes, *shape) if name in laned else shape
        return rng.uniform(-1, 1, shape).astype(np.float32)

    return (draw_array("input", (channels, *extents)),
            draw_array("kernel", (out_channels, channels, *kshape)),
            draw_array("bias", (out_channels,)), lanes, laned)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(lane_cases())
def test_conv3d_lanes_equal_per_lane_calls(case):
    x, kernel, bias, lanes, laned = case
    out = _conv3d(x, kernel, bias)[0]
    for n in range(lanes):
        args = [a[n] if name in laned else a
                for name, a in (("input", x), ("kernel", kernel), ("bias", bias))]
        assert np.array_equal(out[n].view(np.int32), _conv3d(*args)[0].view(np.int32))
