"""Property check of the single-pixel-cell decomposition against its
reference: for any small LO, mask and weight map (with +0.0 and -0.0
entries), every float must agree, and every rejected input must raise the
same SceneError.

Kept apart from test_scene_reference.py so that module needs only numpy and
pytest."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noiseimaging.scene import Bitmap, SceneError, decompose
from scene_reference import reference_decompose
from test_scene_reference import assert_same_decomposition

_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(min_value=5e-324, max_value=1e6))


@st.composite
def _single_pixel_scenes(draw):
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lo = draw(arrays(bool, (height, width)))
    mask = draw(arrays(bool, (height, width)))
    weights = draw(st.none() | arrays(float, (height, width), elements=_WEIGHTS))
    return Bitmap(lo), Bitmap(mask), weights


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_single_pixel_scenes())
def test_single_pixel_cells_match_the_reference(scene):
    lo, mask, weights = scene
    cell_size = 1
    try:
        want = reference_decompose(lo, mask, cell_size, weights)
    except SceneError as exc:
        with pytest.raises(SceneError) as got:
            decompose(lo, mask, cell_size, weights)
        assert str(got.value) == str(exc)
        return
    assert_same_decomposition(decompose(lo, mask, cell_size, weights), want)
