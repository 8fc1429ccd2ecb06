"""The row-span rasterizer, the LO-pixel overlaps and the byte P1 parser
against their references: every bit must agree, the overlaps must agree with
the reference cells' moments to within rounding and with the reference's
full-grid sums in the runtime's arithmetic bit for bit, the counted bow-tie
overlaps must equal the overlaps of the reference bitmaps bit for bit, and
every rejected input must raise the same SceneError."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noiseimaging.config import load_config
from noiseimaging.scene import (
    SceneError,
    _disk_rows,
    _occupied_cell_sums,
    _wedge_rows,
    bowtie_overlaps,
    bowties,
    load_font,
    load_pbm,
    overlaps,
)
from scene_reference import (
    bowtie,
    cell_moments,
    reference_bowtie,
    reference_decompose,
    reference_load_pbm,
    reference_overlaps,
    save_pbm,
)

DESK = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk_sweep.cfg")


def assert_same_bitmap(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# the runtime divides summed cell powers by the total once, the reference
# sums weight fractions times transmissions; on moments in [0, 1] the two
# roundings differ by a few ulps (the largest difference these tests and
# the property tests meet is 2 eps, on up to 41,680 cells)
MOMENT_TOL = 16 * np.finfo(float).eps


def assert_overlaps_match_reference(lo, mask, cell_size, weights=None):
    """`overlaps` against the moments of `reference_decompose`.

    A rejected pair must raise the same SceneError on both sides.  Otherwise
    both moments agree within MOMENT_TOL, equal `reference_overlaps` bit for
    bit, and three identities hold bit for bit: without a weight map O is the
    correctly rounded pixel-count ratio (Python's int division), and
    O = Q = 1 against the full mask; with single-pixel cells Q == O.  Returns
    whether the pair was accepted.
    """
    try:
        want = cell_moments(*reference_decompose(lo, mask, cell_size, weights))
    except SceneError as exc:
        with pytest.raises(SceneError) as got:
            overlaps(lo, mask, cell_size, weights)
        assert str(got.value) == str(exc)
        return False
    o, q = overlaps(lo, mask, cell_size, weights)
    assert abs(o - want[0]) <= MOMENT_TOL
    assert abs(q - want[1]) <= MOMENT_TOL
    exact = reference_overlaps(lo, mask, cell_size, weights)
    assert [o.hex(), q.hex()] == [x.hex() for x in exact]
    if weights is None:
        assert o.hex() == (int(np.count_nonzero(lo & mask))
                           / int(np.count_nonzero(lo))).hex()
        if mask.all():
            assert (o, q) == (1.0, 1.0)
    if cell_size == 1:
        assert q.hex() == o.hex()
    return True


def test_desk_sweep_bitmaps_and_decompositions():
    # the mask and the 15 LOs on one set of disk rows, as a sweep draws them
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    rotations = np.deg2rad(DESK.angles_deg)
    shapes = bowties([0.0, *rotations], alpha, radius, n, n)
    mask = next(shapes)
    assert_same_bitmap(mask, reference_bowtie(0.0, alpha, radius, n, n))
    cell_size = DESK.cell_size
    drawn = 0
    for rotation, lo in zip(rotations, shapes):
        assert not lo.flags.writeable
        assert_same_bitmap(lo, reference_bowtie(rotation, alpha, radius, n, n))
        assert_overlaps_match_reference(lo, mask, cell_size)
        drawn += 1
    assert drawn == len(DESK.angles_deg)


def _hex_moments(moments):
    return [x.hex() for pair in moments for x in pair]


def _reference_pixel_overlap(rotation, alpha, radius, width, height):
    """overlaps of the reference bitmaps on single-pixel cells, or the
    SceneError it raises."""
    mask = reference_bowtie(0.0, alpha, radius, width, height)
    try:
        return overlaps(reference_bowtie(rotation, alpha, radius, width, height), mask, 1)
    except SceneError as exc:
        return str(exc)


def test_counted_overlaps_match_the_reference_bitmaps():
    # the row-span counts against overlaps of the reference bitmaps, bit for
    # bit, on odd, even and one-pixel-wide grids up to 120, radii below a
    # pixel, half-angles up to a nanoradian short of a quarter turn, and
    # rotations up to 1e300, where the reach covers every angle
    rng = np.random.default_rng(47)
    counted = rejected = k = 0
    while counted < 2000:
        k += 1
        # sizes from 1 to 120, most of them small
        width, height = (1 + int(120 * v * v) for v in rng.random(2))
        if k % 10 == 0:
            width, height = (1, height) if k % 20 else (width, 1)
        limit = min(width, height) / 2.0
        radius = float(rng.uniform(0.01, min(1.0, limit) if k % 8 == 0 else limit))
        alpha = (np.pi / 2 - 1e-9 if k % 50 == 0
                 else float(rng.uniform(1e-6, np.pi / 2 - 1e-9)))
        rotation = float(rng.uniform(-7.0, 7.0) if k % 3 else
                         rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 300.0))
        want = _reference_pixel_overlap(rotation, alpha, radius, width, height)
        if isinstance(want, str):
            with pytest.raises(SceneError) as got:
                list(bowtie_overlaps([rotation], alpha, radius, width, height, 1, None))
            assert str(got.value) == want
            rejected += 1
            continue
        got = list(bowtie_overlaps([rotation], alpha, radius, width, height, 1, None))
        assert _hex_moments(got) == _hex_moments([want]), (rotation, alpha, radius, width, height)
        counted += 1
    # an LO of no pixel, on the small disks, is met too
    assert rejected >= 50


def test_counted_desk_overlaps_match_the_reference_bitmaps():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    rotations = np.deg2rad(DESK.angles_deg)
    want = [_reference_pixel_overlap(rotation, alpha, radius, n, n) for rotation in rotations]
    got = list(bowtie_overlaps(rotations, alpha, radius, n, n, 1, None))
    assert _hex_moments(got) == _hex_moments(want)


@pytest.mark.parametrize("cell_size,weighted", [(8, False), (1, True), (8, True)],
                         ids=["cells-8", "weights", "cells-8-weights"])
def test_overlaps_on_coarse_cells_or_weights_are_those_of_the_bitmaps(cell_size, weighted):
    n, alpha, radius = 128, DESK.bowtie_half_angle(), 57.6
    weights = np.random.default_rng(48).uniform(0.1, 3.0, size=(n, n)) if weighted else None
    rotations = np.deg2rad(DESK.angles_deg)
    mask = reference_bowtie(0.0, alpha, radius, n, n)
    want = [overlaps(reference_bowtie(rotation, alpha, radius, n, n), mask, cell_size, weights)
            for rotation in rotations]
    got = list(bowtie_overlaps(rotations, alpha, radius, n, n, cell_size, weights))
    assert _hex_moments(got) == _hex_moments(want)


def test_no_rotations_build_no_disk_rows(monkeypatch):
    def no_disk(*args):
        raise AssertionError("built the disk rows")

    monkeypatch.setattr("noiseimaging.scene._disk_rows", no_disk)
    assert list(bowties([], np.pi / 8, 30.0, 64, 64)) == []
    # the arguments are still checked
    with pytest.raises(SceneError, match="half-angle"):
        list(bowties([], np.pi / 2, 30.0, 64, 64))


@pytest.mark.parametrize("rotation", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_rotation_fails_at_its_own_element(rotation):
    shapes = bowties([0.3, rotation, 0.6], np.pi / 8, 30.0, 64, 64)
    assert_same_bitmap(next(shapes), reference_bowtie(0.3, np.pi / 8, 30.0, 64, 64))
    with pytest.raises(SceneError, match="rotation must be finite"):
        next(shapes)


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


def test_random_masks_with_weight_maps_and_coarse_cells():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 250:
        width, height = (int(v) for v in rng.integers(3, 48, size=2))
        lo = rng.random((height, width)) < rng.uniform(0.1, 0.9)
        mask = rng.random((height, width)) < rng.uniform(0.1, 0.9)
        weights = rng.uniform(0.0, 3.0, size=(height, width))
        weights[rng.random((height, width)) < 0.1] = 0.0
        weights[rng.random((height, width)) < 0.05] = -0.0
        cell_size = int(rng.integers(2, 12))
        if not assert_overlaps_match_reference(lo, mask, cell_size, weights):
            continue
        assert_overlaps_match_reference(lo, mask, cell_size)
        checked += 1


def test_random_masks_without_weight_maps():
    rng = np.random.default_rng(34)
    empty = 0
    for k in range(240):
        width, height = (int(v) for v in rng.integers(1, 48, size=2))
        # every twelfth LO is empty: both sides must reject it
        density = 0.0 if k % 12 == 0 else rng.uniform(0.01, 1.0)
        lo = rng.random((height, width)) < density
        mask = rng.random((height, width)) < rng.uniform(0.0, 1.0)
        cell_size = int(rng.integers(1, 12))
        if not lo.any():
            empty += 1
            for fn in (reference_decompose, overlaps):
                with pytest.raises(SceneError, match="empty LO"):
                    fn(lo, mask, cell_size)
            continue
        assert_overlaps_match_reference(lo, mask, cell_size)
    assert 240 - empty >= 200


def test_bowtie_decompositions_on_coarse_cells():
    rng = np.random.default_rng(33)
    alpha = np.pi / 8
    mask = bowtie(0.0, alpha, 60, 128, 128)
    for _ in range(30):
        cell_size = int(rng.integers(2, 20))
        lo = bowtie(float(rng.uniform(-7.0, 7.0)), alpha, 60, 128, 128)
        weights = rng.uniform(0.1, 2.0, size=(128, 128))
        assert assert_overlaps_match_reference(lo, mask, cell_size, weights)


def assert_same_bowtie(rotation, alpha, radius, width, height):
    assert_same_bitmap(bowtie(rotation, alpha, radius, width, height),
                       reference_bowtie(rotation, alpha, radius, width, height))


def test_huge_rotations():
    # the rounding of theta - rotation grows with |rotation|: past about 1e14
    # it moves pixels across sector bounds, and past about 1e17 it swallows
    # theta, so every disk pixel folds to the same angle and the candidate
    # windows reach every angle
    rng = np.random.default_rng(35)
    rotations = [sign * 10.0 ** e for e in rng.uniform(3.0, 6.0, size=60) for sign in (1, -1)]
    rotations += [sign * 10.0 ** e for e in rng.uniform(6.0, 19.0, size=120) for sign in (1, -1)]
    rotations += [k * np.pi / 8 for k in (8001, -8002, 2546479, -2546480)]
    rotations += [1e3, 1e6, -1e6, 1e300, -1e300]
    # these fold inside the wedge: the whole disk
    rotations += [1.0000000000000003e20, 1.0000000000000002e300, -9.999999999999998e299]
    for rotation in rotations:
        for width, height, radius in ((64, 64, 30.0), (33, 20, 9.5)):
            assert_same_bowtie(rotation, np.pi / 8, radius, width, height)


@pytest.mark.parametrize("alpha", [np.pi / 2 - 1e-9, np.nextafter(np.pi / 2, 0.0), 1e-6],
                         ids=["quarter-turn-1e-9", "quarter-turn-ulp", "1e-6"])
def test_extreme_half_angles(alpha):
    rng = np.random.default_rng(36)
    rotations = [k * np.pi / 8 for k in range(-9, 10)]
    rotations += [float(v) for v in rng.uniform(-7.0, 7.0, size=40)]
    for rotation in rotations:
        for width, height in ((32, 32), (41, 27)):
            assert_same_bowtie(rotation, alpha, min(width, height) / 2.0, width, height)


def test_radii_below_one_pixel():
    rng = np.random.default_rng(37)
    for _ in range(200):
        width, height = (int(v) for v in rng.integers(2, 8, size=2))
        radius = float(rng.uniform(0.01, 1.0))
        alpha = float(rng.uniform(1e-3, np.pi / 2 - 1e-3))
        assert_same_bowtie(float(rng.uniform(-7.0, 7.0)), alpha, radius, width, height)


def test_one_pixel_wide_grids():
    rng = np.random.default_rng(38)
    for _ in range(200):
        length = int(rng.integers(1, 40))
        width, height = (1, length) if rng.random() < 0.5 else (length, 1)
        radius = float(rng.uniform(0.01, 0.5))
        alpha = float(rng.uniform(1e-3, np.pi / 2 - 1e-3))
        rotation = float(rng.choice([0.0, np.pi / 2, -np.pi, rng.uniform(-7.0, 7.0)]))
        assert_same_bowtie(rotation, alpha, radius, width, height)


def test_window_edges_through_pixel_centers():
    # rotations that put an edge line of the wedge pair through a pixel
    # center, to the float, and an ulp either side, also a few half turns
    # away: the center then lies within rounding of the edge, so it and its
    # neighbors across the row's cut must take the exact test
    rng = np.random.default_rng(46)
    size, radius = 256, 120.0
    checked = 0
    while checked < 144:
        column, row = (int(v) for v in rng.integers(0, size, size=2))
        x, y = column + 0.5 - size / 2.0, row + 0.5 - size / 2.0
        if math.hypot(x, y) > radius:
            continue
        half = float(rng.uniform(0.05, 1.5))
        theta = math.atan2(y, x)
        for edge in (theta - half, theta + half, theta - half + 3 * np.pi,
                     theta + half - 8 * np.pi):
            for rotation in (float(np.nextafter(edge, -np.inf)), edge,
                             float(np.nextafter(edge, np.inf))):
                assert_same_bowtie(rotation, half, radius, size, size)
                checked += 1


def test_desk_bowties_fold_only_their_edge_sectors(monkeypatch):
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    fmod, folded = np.fmod, []

    def counting_fmod(x, *args, **kwargs):
        folded.append(np.size(x))
        return fmod(x, *args, **kwargs)

    monkeypatch.setattr(np, "fmod", counting_fmod)
    for angle in DESK.angles_deg:
        bowtie(np.deg2rad(angle), alpha, radius, n, n)
    # one fold per bow-tie, over 11,686 pixels in all: those within a pixel
    # or two of an edge line's crossing of their row, about 780 a bow-tie.
    # The polar grid's edge sectors folded 39,818, and folding every candidate
    # sector took 645,203
    assert len(folded) == len(DESK.angles_deg)
    assert sum(folded) <= 45_000


def _grid_centers(width, height):
    x = (np.arange(width) + 0.5) - width / 2.0
    y = ((np.arange(height) + 0.5) - height / 2.0)[:, None]
    return x, y


def _disk_pixels(width, height, radius):
    """The flat indices of the disk's pixels by its rows, sorted: each row's
    run of columns inside the edge band, and the band pixels hypot admits."""
    top, y, first, stop, rim = _disk_rows(width, height, radius)
    rows = (top + np.arange(len(y))) * width
    core = [np.arange(row + a, row + b) for row, a, b in zip(rows, first, stop)]
    return np.sort(np.concatenate(core + [rim]))


# the disk as the bow-ties' rows give it
@pytest.mark.parametrize("width,height", [(9, 9), (16, 16), (33, 20), (12, 41), (1, 7)],
                         ids=["odd", "even", "wide", "tall", "one-column"])
def test_disk_rows_match_hypot_at_exact_and_adjacent_radii(width, height):
    # a radius exactly at a pixel center's distance puts that center (and its
    # mirror images) on the disk's edge; one ulp either side moves it out or in
    x, y = _grid_centers(width, height)
    rr = np.hypot(x, y)
    radii = set()
    for r in np.unique(rr):
        radii.update((float(r), float(np.nextafter(r, 0.0)), float(np.nextafter(r, np.inf))))
    checked = 0
    for radius in sorted(radii):
        if radius <= 0.0:
            continue
        want = np.flatnonzero(rr <= radius)
        assert np.array_equal(_disk_pixels(width, height, radius), want), radius
        checked += 1
    assert checked >= 3 * (len(np.unique(rr)) - 1)


def test_disk_rows_on_the_desk_grid_edge():
    # exact radii at distances near the desk radius, on the 512^2 grid
    x, y = _grid_centers(512, 512)
    rr = np.hypot(x, y)
    near = np.unique(rr[np.abs(rr - 230.4) < 0.6])
    assert len(near) >= 20
    for r in near[::4]:
        for radius in (float(r), float(np.nextafter(r, 0.0)), float(np.nextafter(r, np.inf))):
            assert np.array_equal(_disk_pixels(512, 512, radius),
                                  np.flatnonzero(rr <= radius)), radius


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def test_row_spans_build_peak_memory():
    # the desk disk's rows and one bow-tie's spans and band hits: per-row
    # arrays of 464 entries and a band of about 700 pixels, a traced peak of
    # 0.15 MiB on numpy 2.4.  One bow-tie bitmap alone is 0.25 MiB, and the
    # polar grid this replaced peaked at 0.92 MiB; so the bound admits no
    # grid-sized array, and leaves 0.1 MiB for another numpy's temporaries
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    assert _traced_peak_mib(
        lambda: _wedge_rows(_disk_rows(n, n, radius), 0.3, alpha, radius, n, n)) < 0.25


def test_single_pixel_cell_decomposition_peak_memory():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(45.0), alpha, radius, n, n)
    cell_size = 1
    # no full-range per-cell arrays
    assert _traced_peak_mib(lambda: overlaps(lo, mask, cell_size)) < 2.5


def test_weighted_single_pixel_cell_peak_memory():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(45.0), alpha, radius, n, n)
    x, y = _grid_centers(n, n)
    weights = np.exp(-(x * x + y * y) / (2.0 * radius * radius))
    cell_size = 1
    # the scaled LO power is one grid-length float array (2 MiB); two
    # full-range per-cell arrays on top of it peaked at 8.25 MiB
    assert _traced_peak_mib(lambda: overlaps(lo, mask, cell_size, weights)) < 5.0


def _signed_zero_weights(rng, height, width):
    weights = rng.uniform(0.0, 3.0, size=(height, width))
    weights[rng.random((height, width)) < 0.15] = 0.0
    weights[rng.random((height, width)) < 0.15] = -0.0
    return weights


def test_single_pixel_cells_with_weight_maps():
    rng = np.random.default_rng(40)
    cell_size = 1
    rejected = 0
    for k in range(300):
        if k % 3 == 0:
            # 1-pixel-wide grids
            length = int(rng.integers(1, 40))
            width, height = (1, length) if k % 2 else (length, 1)
        else:
            width, height = (int(v) for v in rng.integers(1, 48, size=2))
        lo = rng.random((height, width)) < rng.uniform(0.0, 1.0)
        mask = rng.random((height, width)) < rng.uniform(0.0, 1.0)
        weights = _signed_zero_weights(rng, height, width)
        rejected += not assert_overlaps_match_reference(lo, mask, cell_size, weights)
        assert_overlaps_match_reference(lo, mask, cell_size)
    assert 0 < rejected < 60
    # an empty LO, weighted or not, is rejected with the same message
    for height, width in ((1, 1), (1, 17), (23, 1), (9, 12)):
        lo = np.zeros((height, width), dtype=bool)
        mask = rng.random((height, width)) < 0.5
        for weights in (None, _signed_zero_weights(rng, height, width)):
            assert not assert_overlaps_match_reference(lo, mask, cell_size, weights)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_single_pixel_cells_reject_an_lo_without_weight(zero):
    rng = np.random.default_rng(41)
    lo = rng.random((12, 9)) < 0.5
    mask = rng.random((12, 9)) < 0.5
    # power only off the LO
    weights = np.where(lo, zero, 2.0)
    message = ("LO bitmap carries no power: the weight map is zero on all %d of its pixels"
               % np.count_nonzero(lo))
    for fn in (reference_decompose, overlaps):
        with pytest.raises(SceneError) as got:
            fn(lo, mask, 1, weights)
        assert str(got.value) == message


def test_single_pixel_cells_on_the_desk_bowtie_with_a_weight_map():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    rng = np.random.default_rng(42)
    weights = _signed_zero_weights(rng, n, n)
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(13.5), alpha, radius, n, n)
    cell_size = 1
    assert assert_overlaps_match_reference(lo, mask, cell_size, weights)


def _unclamped_moments(lo, mask, cell_size, weights):
    """overlaps' (O, Q) before it clamps each to at most 1."""
    lo_sums, passed_sums, total = _occupied_cell_sums(lo, mask, cell_size, weights)
    return (float(np.sum(passed_sums)) / total,
            float(np.sum(lo_sums * np.sqrt(passed_sums / lo_sums))) / total)


def test_full_mask_gives_unit_moments_on_every_cell_size():
    rng = np.random.default_rng(43)
    past_one = 0
    for _ in range(60):
        width, height = (int(v) for v in rng.integers(1, 40, size=2))
        lo = rng.random((height, width)) < rng.uniform(0.05, 1.0)
        if not lo.any():
            continue
        full = np.ones((height, width), dtype=bool)
        # finite and non-negative, zero on about a tenth of the pixels
        weights = rng.random((height, width)) * (rng.random((height, width)) > 0.1)
        if not (weights * lo).any():
            continue
        for cell_size in (1, 2, 3, 8, 40):
            assert overlaps(lo, full, cell_size) == (1.0, 1.0)
            # the weighted sums run in another order than the total's, so
            # they round to either side of 1 (by at most ~2 log2(pixels)
            # units of 2^-53), and the clamp brings those past 1 back
            for moment in overlaps(lo, full, cell_size, weights):
                assert 1.0 - 32 * 2.0**-53 <= moment <= 1.0
            past_one += max(_unclamped_moments(lo, full, cell_size, weights)) > 1.0
    assert past_one > 0


def test_power_of_two_weight_scaling_on_the_desk_bowtie():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    rng = np.random.default_rng(44)
    weights = rng.uniform(0.1, 3.0, size=(n, n))
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(9.0), alpha, radius, n, n)
    for cell_size in (1, 8):
        want = [x.hex() for x in overlaps(lo, mask, cell_size, weights)]
        # entries and sums stay normal and finite from 2^-1000 to 2^900
        for exponent in (-1000, -60, 1, 900):
            got = overlaps(lo, mask, cell_size, np.ldexp(weights, exponent))
            assert [x.hex() for x in got] == want


def test_subnormal_uniform_weight_maps_give_the_moments_of_no_map():
    # weights are scaled to a largest LO entry of 1 before any sum, so cell
    # powers of 5e-324 lose no digits of Q on coarse cells
    rng = np.random.default_rng(45)
    cell_size, checked = 2, 0
    while checked < 40:
        lo = rng.random((4, 4)) < 0.7
        mask = rng.random((4, 4)) < 0.5
        if not lo.any():
            continue
        want = [x.hex() for x in overlaps(lo, mask, cell_size)]
        got = overlaps(lo, mask, cell_size, np.full((4, 4), 5e-324))
        assert [x.hex() for x in got] == want
        checked += 1
    # and an all-ones map, on the desk pair, on single-pixel and coarse cells
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(45.0), alpha, radius, n, n)
    for cell_size in (1, 2, 8):
        want = [x.hex() for x in overlaps(lo, mask, cell_size)]
        assert [x.hex() for x in overlaps(lo, mask, cell_size, np.ones((n, n)))] == want


def test_scene_error_messages():
    lo = np.ones((4, 4), dtype=bool)
    cases = [
        ((lo, lo, 0), "cell_size must be >= 1, got 0"),
        ((lo, np.ones((4, 5), dtype=bool), 1), "bitmap dimensions differ: 4x4 vs 5x4"),
        ((np.zeros((4, 4), dtype=bool), lo, 2), "LO bitmap carries no power (empty LO)"),
        ((lo, lo, 1, np.ones((3, 4))), "weight map shape (3, 4) does not match bitmap (4, 4)"),
        ((lo, lo, 1, np.full((4, 4), np.nan)),
         "weight map entries must be finite and non-negative"),
        ((lo, lo, 1, np.zeros((4, 4))),
         "LO bitmap carries no power: the weight map is zero on all 16 of its pixels"),
        ((np.eye(4, dtype=bool), lo, 2, 1.0 - np.eye(4)),
         "LO bitmap carries no power: the weight map is zero on all 4 of its pixels"),
    ]
    for args, message in cases:
        with pytest.raises(SceneError) as got:
            overlaps(*args)
        assert str(got.value) == message


def test_row_spans_keep_per_row_arrays_far_smaller_than_a_bitmap():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    disk = _disk_rows(n, n, radius)
    _, y, first, stop, _ = disk
    # one entry per row that meets the disk, and none for the others
    assert len(y) == len(first) == len(stop) <= 2 * radius + 4
    for rotation in np.deg2rad(DESK.angles_deg):
        _, spans, hits = _wedge_rows(disk, rotation, alpha, radius, n, n)
        assert all(len(a) == len(b) == len(y) for a, b in spans)
        # four span ends per row and a few hundred band hits: 17 KiB, where
        # a bitmap is 256 KiB
        assert sum(a.nbytes + b.nbytes for a, b in spans) + hits.nbytes <= 32 * 2**10


@pytest.mark.parametrize("letter", list("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
def test_bundled_glyphs_parse_like_the_tokenizer(letter, tmp_path):
    # save_pbm writes a glyph as the P1 text of a per-letter font file
    glyph = load_font()[letter]
    path = tmp_path / ("%s.pbm" % letter)
    save_pbm(glyph, path)
    assert_same_bitmap(load_pbm(path), reference_load_pbm(path))
    assert_same_bitmap(load_pbm(path), glyph)


_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f"]
# str.splitlines also ends a line at \x0b, \x0c and \x1c-\x1e
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1d"]


def _random_p1_text(rng):
    """A random P1 file, valid or broken one of several ways, as bytes."""
    width, height = (int(v) for v in rng.integers(1, 9, size=2))
    digits = "".join(rng.choice(["0", "1"], size=width * height))
    fault = int(rng.integers(0, 16))
    magic = {0: "P4", 1: "p1"}.get(fault, "P1")
    header = [str(width), str(height)]
    if fault == 2:
        header[int(rng.integers(0, 2))] = rng.choice(["x", "3.0", ""])
    if fault == 3:
        header = ["-%d" % width, "-%d" % height]
    if fault == 4:
        digits = digits[:-1]
    if fault == 5:
        digits += "1"
    if fault == 6:
        k = int(rng.integers(0, len(digits)))
        digits = digits[:k] + rng.choice(["2", "x", "\x00"]) + digits[k + 1:]
    if fault == 9:
        # a zero width or height, whose zero digits match the count
        header[int(rng.integers(0, 2))] = "0"
        digits = ""
    # digits packed into groups of random length
    groups, k = [], 0
    while k < len(digits):
        step = int(rng.integers(1, 6))
        groups.append(digits[k:k + step])
        k += step
    tokens = [magic] + header + groups
    if fault == 7:
        tokens = tokens[:int(rng.integers(0, 3))]
    text = ""
    for token in tokens:
        text += token
        if rng.random() < 0.2:
            text += " #" + rng.choice(["", " note", " P1 0 1", "#", " \xe9t\xe9"])
            text += rng.choice(_LINE_ENDS)
        else:
            text += rng.choice(_SEPARATORS)
    if fault == 8:
        k = int(rng.integers(0, len(text) + 1))
        text = text[:k] + "\xe9" + text[k:]
    return text.encode("latin-1")


def test_random_p1_texts_parse_like_the_tokenizer(tmp_path):
    rng = np.random.default_rng(39)
    path = tmp_path / "g.pbm"
    outcomes = set()
    for _ in range(1500):
        path.write_bytes(_random_p1_text(rng))
        try:
            want = reference_load_pbm(path)
        except SceneError as exc:
            with pytest.raises(SceneError) as got:
                load_pbm(path)
            assert str(got.value) == str(exc)
            outcomes.add("scene-error")
            continue
        except ValueError:
            # non-ASCII bytes: a traceback before
            with pytest.raises(SceneError):
                load_pbm(path)
            outcomes.add("value-error")
            continue
        assert_same_bitmap(load_pbm(path), want)
        outcomes.add("ok")
    assert outcomes == {"ok", "scene-error", "value-error"}
