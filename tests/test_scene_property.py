"""Property checks of the scene overlaps against their reference: for any
small LO, mask and weight map (with +0.0, -0.0 and subnormal entries), on
single-pixel and coarse cells (there against the map scaled to a largest LO
entry of 1, as `overlaps` scales it), the moments must agree within rounding
and bit for bit where they are exact, every rejected input must raise the same
SceneError, and scaling a weight map by a power of two that keeps its
entries normal must leave both moments unchanged.

Kept apart from test_scene_reference.py so that module needs only numpy and
pytest."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noiseimaging.scene import overlaps
from test_scene_reference import assert_overlaps_match_reference

_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(min_value=5e-324, max_value=1e6))
_TINY = np.finfo(float).tiny


@st.composite
def _scenes(draw, max_cell_size):
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lo = draw(arrays(bool, (height, width)))
    mask = draw(arrays(bool, (height, width)))
    weights = draw(st.none() | arrays(float, (height, width), elements=_WEIGHTS))
    return lo, mask, draw(st.integers(1, max_cell_size)), weights


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_scenes(max_cell_size=1))
def test_single_pixel_cells_match_the_reference(scene):
    assert_overlaps_match_reference(*scene)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_scenes(max_cell_size=6))
def test_coarse_cells_match_the_reference(scene):
    lo, mask, cell_size, weights = scene
    peak = 0.0 if weights is None else weights.max(where=lo, initial=0.0)
    if peak == 0.0:
        assert_overlaps_match_reference(lo, mask, cell_size, weights)
        return
    # overlaps scales a map to a largest LO entry of 1 before any sum, so
    # subnormal entries lose no digits: the reference sees the scaled map,
    # and the map as drawn gives the same bits
    scaled = weights * lo / peak
    if assert_overlaps_match_reference(lo, mask, cell_size, scaled):
        assert [x.hex() for x in overlaps(lo, mask, cell_size, weights)] == \
            [x.hex() for x in overlaps(lo, mask, cell_size, scaled)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_scenes(max_cell_size=6), st.integers(-900, 900))
def test_power_of_two_weight_scaling_leaves_the_overlaps_unchanged(scene, exponent):
    lo, mask, cell_size, weights = scene
    if weights is None or not np.any(lo & (weights > 0)):
        return
    scaled = np.ldexp(weights, exponent)
    live = weights != 0
    # every entry normal before and after, and no sum of them can overflow
    if np.any(live & ((weights < _TINY) | (scaled < _TINY))) or scaled.max() > 1e300:
        return
    assert [x.hex() for x in overlaps(lo, mask, cell_size, scaled)] == \
        [x.hex() for x in overlaps(lo, mask, cell_size, weights)]
