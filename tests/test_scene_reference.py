"""The cached-polar-grid rasterizer and the LO-pixel decomposition against
their full-grid references: every bit and every float must agree."""

from pathlib import Path

import numpy as np
import pytest

from noiseimaging.config import load_config
from noiseimaging.scene import Bitmap, CoherenceGrid, SceneError, bowtie, decompose
from scene_reference import reference_bowtie, reference_decompose

DESK = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk_sweep.cfg")


def assert_same_bitmap(got, want):
    assert got.bits.shape == want.bits.shape
    assert np.array_equal(got.bits, want.bits)


def assert_same_decomposition(got, want):
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.transmissions.tobytes() == want.transmissions.tobytes()
    assert got.weights.shape == want.weights.shape
    assert got.lo_pixel_count == want.lo_pixel_count
    assert got.overlap.hex() == want.overlap.hex()


def test_desk_sweep_bitmaps_and_decompositions():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    assert_same_bitmap(mask, reference_bowtie(0.0, alpha, radius, n, n))
    grid = CoherenceGrid(cell_size=DESK.cell_size)
    for angle in DESK.angles_deg:
        rotation = np.deg2rad(angle)
        lo = bowtie(rotation, alpha, radius, n, n)
        assert_same_bitmap(lo, reference_bowtie(rotation, alpha, radius, n, n))
        assert_same_decomposition(decompose(lo, mask, grid),
                                  reference_decompose(lo, mask, grid))


def test_random_rotations_on_non_square_grids():
    rng = np.random.default_rng(31)
    for _ in range(600):
        width, height = (int(v) for v in rng.integers(4, 97, size=2))
        radius = float(rng.uniform(0.5, min(width, height) / 2.0))
        alpha = float(rng.uniform(1e-3, np.pi / 2 - 1e-3))
        rotation = float(rng.uniform(-7.0, 7.0))
        assert_same_bitmap(bowtie(rotation, alpha, radius, width, height),
                           reference_bowtie(rotation, alpha, radius, width, height))


@pytest.mark.parametrize("size", [8, 9, 64, 65])
def test_quarter_turn_rotations_on_the_wedge_boundary(size):
    # half-angle pi/4 puts the wedge edges on the grid diagonals, where pixel
    # centers sit exactly on the boundary
    alpha, radius = np.pi / 4, size / 2.0
    rotations = [k * np.pi / 4 for k in range(-12, 13)]
    rotations += [2 * np.pi, 10 * np.pi, -3 * np.pi / 2, -0.0]
    for rotation in rotations:
        assert_same_bitmap(bowtie(rotation, alpha, radius, size, size),
                           reference_bowtie(rotation, alpha, radius, size, size))


def test_random_masks_with_weight_maps_and_offset_cells():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 250:
        width, height = (int(v) for v in rng.integers(3, 48, size=2))
        lo = Bitmap(rng.random((height, width)) < rng.uniform(0.1, 0.9))
        mask = Bitmap(rng.random((height, width)) < rng.uniform(0.1, 0.9))
        weights = rng.uniform(0.0, 3.0, size=(height, width))
        weights[rng.random((height, width)) < 0.1] = 0.0
        weights[rng.random((height, width)) < 0.05] = -0.0
        cs = int(rng.integers(2, 12))
        grid = CoherenceGrid(cell_size=cs, offset_x=int(rng.integers(1, cs)),
                             offset_y=int(rng.integers(0, cs)))
        try:
            want = reference_decompose(lo, mask, grid, weights)
        except SceneError:
            with pytest.raises(SceneError):
                decompose(lo, mask, grid, weights)
            continue
        assert_same_decomposition(decompose(lo, mask, grid, weights), want)
        assert_same_decomposition(decompose(lo, mask, grid), reference_decompose(lo, mask, grid))
        checked += 1


def test_random_masks_without_weight_maps():
    rng = np.random.default_rng(34)
    empty = 0
    for k in range(240):
        width, height = (int(v) for v in rng.integers(1, 48, size=2))
        # every twelfth LO is empty: both sides must reject it
        density = 0.0 if k % 12 == 0 else rng.uniform(0.01, 1.0)
        lo = Bitmap(rng.random((height, width)) < density)
        mask = Bitmap(rng.random((height, width)) < rng.uniform(0.0, 1.0))
        cs = int(rng.integers(1, 12))
        grid = CoherenceGrid(cell_size=cs, offset_x=int(rng.integers(0, cs)),
                             offset_y=int(rng.integers(0, cs)))
        if not lo.bits.any():
            empty += 1
            for fn in (reference_decompose, decompose):
                with pytest.raises(SceneError, match="empty LO"):
                    fn(lo, mask, grid)
            continue
        assert_same_decomposition(decompose(lo, mask, grid), reference_decompose(lo, mask, grid))
    assert 240 - empty >= 200


def test_bowtie_decompositions_on_coarse_offset_cells():
    rng = np.random.default_rng(33)
    alpha = np.pi / 8
    mask = bowtie(0.0, alpha, 60, 128, 128)
    for _ in range(30):
        cs = int(rng.integers(2, 20))
        grid = CoherenceGrid(cell_size=cs, offset_x=int(rng.integers(0, cs)),
                             offset_y=int(rng.integers(1, cs)))
        lo = bowtie(float(rng.uniform(-7.0, 7.0)), alpha, 60, 128, 128)
        weights = rng.uniform(0.1, 2.0, size=(128, 128))
        assert_same_decomposition(decompose(lo, mask, grid, weights),
                                  reference_decompose(lo, mask, grid, weights))
