"""The candidate-pixel rasterizer, the LO-pixel overlaps and the byte P1
parser against their references: every bit must agree, the overlaps must
agree with the reference cells' moments to within rounding (and bit for bit
where they are exact), and every rejected input must raise the same
SceneError."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noiseimaging
from noiseimaging.config import load_config
from noiseimaging.scene import (
    Bitmap,
    SceneError,
    _polar_grid,
    bowtie,
    load_pbm,
    overlaps,
)
from scene_reference import (
    cell_moments,
    reference_bowtie,
    reference_decompose,
    reference_load_pbm,
)

DESK = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk_sweep.cfg")


def assert_same_bitmap(got, want):
    assert got.bits.shape == want.bits.shape
    assert np.array_equal(got.bits, want.bits)


# the runtime divides summed cell powers by the total once, the reference
# sums weight fractions times transmissions; on moments in [0, 1] the two
# roundings differ by a few ulps (the largest difference these tests and
# the property tests meet is 2 eps, on up to 41,680 cells)
MOMENT_TOL = 16 * np.finfo(float).eps


def assert_overlaps_match_reference(lo, mask, cell_size, weights=None):
    """`overlaps` against the moments of `reference_decompose`.

    A rejected pair must raise the same SceneError on both sides.  Otherwise
    both moments agree within MOMENT_TOL, and three identities hold bit for
    bit: without a weight map O is the correctly rounded pixel-count ratio
    (Python's int division), and O = Q = 1 against the full mask; with
    single-pixel cells Q == O.  Returns whether the pair was accepted.
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
    if weights is None:
        assert o.hex() == (int(np.count_nonzero(lo.bits & mask.bits))
                           / int(np.count_nonzero(lo.bits))).hex()
        if mask.bits.all():
            assert (o, q) == (1.0, 1.0)
    if cell_size == 1:
        assert q.hex() == o.hex()
    return True


def test_desk_sweep_bitmaps_and_decompositions():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    assert_same_bitmap(mask, reference_bowtie(0.0, alpha, radius, n, n))
    cell_size = DESK.cell_size
    for angle in DESK.angles_deg:
        rotation = np.deg2rad(angle)
        lo = bowtie(rotation, alpha, radius, n, n)
        assert_same_bitmap(lo, reference_bowtie(rotation, alpha, radius, n, n))
        assert_overlaps_match_reference(lo, mask, cell_size)


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
        lo = Bitmap(rng.random((height, width)) < rng.uniform(0.1, 0.9))
        mask = Bitmap(rng.random((height, width)) < rng.uniform(0.1, 0.9))
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
        lo = Bitmap(rng.random((height, width)) < density)
        mask = Bitmap(rng.random((height, width)) < rng.uniform(0.0, 1.0))
        cell_size = int(rng.integers(1, 12))
        if not lo.bits.any():
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


def _grid_centers(width, height):
    x = (np.arange(width) + 0.5) - width / 2.0
    y = ((np.arange(height) + 0.5) - height / 2.0)[:, None]
    return x, y


@pytest.mark.parametrize("width,height", [(9, 9), (16, 16), (33, 20), (12, 41), (1, 7)],
                         ids=["odd", "even", "wide", "tall", "one-column"])
def test_polar_grid_disk_matches_hypot_at_exact_and_adjacent_radii(width, height):
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
        pixels, _, _ = _polar_grid(width, height, radius)
        want = np.flatnonzero(rr <= radius)
        assert np.array_equal(np.sort(pixels), want), radius
        checked += 1
    assert checked >= 3 * (len(np.unique(rr)) - 1)


def test_polar_grid_disk_on_the_desk_grid_edge():
    # exact radii at distances near the desk radius, on the 512^2 grid
    x, y = _grid_centers(512, 512)
    rr = np.hypot(x, y)
    near = np.unique(rr[np.abs(rr - 230.4) < 0.6])
    assert len(near) >= 20
    for r in near[::4]:
        for radius in (float(r), float(np.nextafter(r, 0.0)), float(np.nextafter(r, np.inf))):
            pixels, _, _ = _polar_grid(512, 512, radius)
            assert np.array_equal(np.sort(pixels), np.flatnonzero(rr <= radius)), radius


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def test_polar_grid_build_peak_memory():
    _polar_grid.cache_clear()
    # the exact squared radii are freed before the full-grid arctan2: the
    # build peaks at 5.26 MiB on numpy 2.4, and at 7.51 MiB with the 2 MiB
    # squared-radius grid kept alive; the bound sits between the two so a
    # numpy with other temporaries does not trip it
    assert _traced_peak_mib(lambda: _polar_grid(512, 512, 230.4)) <= 6.5


def test_single_pixel_cell_decomposition_peak_memory():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(45.0), alpha, radius, n, n)
    cell_size = 1
    # no full-range per-cell arrays
    assert _traced_peak_mib(lambda: overlaps(lo, mask, cell_size)) < 2.5


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
        lo = Bitmap(rng.random((height, width)) < rng.uniform(0.0, 1.0))
        mask = Bitmap(rng.random((height, width)) < rng.uniform(0.0, 1.0))
        weights = _signed_zero_weights(rng, height, width)
        if not assert_overlaps_match_reference(lo, mask, cell_size, weights):
            rejected += 1
            continue
        assert_overlaps_match_reference(lo, mask, cell_size)
    assert 0 < rejected < 60


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_single_pixel_cells_reject_an_lo_without_weight(zero):
    rng = np.random.default_rng(41)
    lo = Bitmap(rng.random((12, 9)) < 0.5)
    mask = Bitmap(rng.random((12, 9)) < 0.5)
    # power only off the LO
    weights = np.where(lo.bits, zero, 2.0)
    for fn in (reference_decompose, overlaps):
        with pytest.raises(SceneError, match="empty LO"):
            fn(lo, mask, 1, weights)


def test_single_pixel_cells_on_the_desk_bowtie_with_a_weight_map():
    n, alpha, radius = DESK.grid_size, DESK.bowtie_half_angle(), DESK.bowtie_radius()
    rng = np.random.default_rng(42)
    weights = _signed_zero_weights(rng, n, n)
    mask = bowtie(0.0, alpha, radius, n, n)
    lo = bowtie(np.deg2rad(13.5), alpha, radius, n, n)
    cell_size = 1
    assert assert_overlaps_match_reference(lo, mask, cell_size, weights)


def test_full_mask_gives_unit_moments_on_every_cell_size():
    rng = np.random.default_rng(43)
    for _ in range(60):
        width, height = (int(v) for v in rng.integers(1, 40, size=2))
        lo = Bitmap(rng.random((height, width)) < rng.uniform(0.05, 1.0))
        if not lo.bits.any():
            continue
        full = Bitmap(np.ones((height, width), dtype=bool))
        for cell_size in (1, 2, 3, 8, 40):
            assert overlaps(lo, full, cell_size) == (1.0, 1.0)


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


def test_scene_error_messages():
    lo = Bitmap(np.ones((4, 4), dtype=bool))
    cases = [
        ((lo, lo, 0), "cell_size must be >= 1, got 0"),
        ((lo, Bitmap(np.ones((4, 5), dtype=bool)), 1), "bitmap dimensions differ: 4x4 vs 5x4"),
        ((Bitmap(np.zeros((4, 4), dtype=bool)), lo, 2), "LO bitmap carries no power (empty LO)"),
        ((lo, lo, 1, np.ones((3, 4))), "weight map shape (3, 4) does not match bitmap (4, 4)"),
        ((lo, lo, 1, np.full((4, 4), np.nan)),
         "weight map entries must be finite and non-negative"),
        ((lo, lo, 1, np.zeros((4, 4))), "LO bitmap carries no power (empty LO)"),
    ]
    for args, message in cases:
        with pytest.raises(SceneError) as got:
            overlaps(*args)
        assert str(got.value) == message


def test_polar_grid_is_read_only_and_smaller_than_the_full_grid():
    pixels, theta, starts = _polar_grid(512, 512, 230.4)
    assert pixels.dtype == np.int32
    for arr in (pixels, theta, starts):
        assert not arr.flags.writeable
    # no more than a bool disk mask and a float64 angle per grid pixel
    assert pixels.nbytes + theta.nbytes + starts.nbytes <= 512 * 512 * 9


@pytest.mark.parametrize("letter", list("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
def test_bundled_glyphs_parse_like_the_tokenizer(letter):
    path = Path(noiseimaging.__file__).parent / "font" / ("%s.pbm" % letter)
    assert_same_bitmap(load_pbm(path), reference_load_pbm(path))


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
            # non-ASCII bytes or negative dimensions: a traceback before
            with pytest.raises(SceneError):
                load_pbm(path)
            outcomes.add("value-error")
            continue
        assert_same_bitmap(load_pbm(path), want)
        outcomes.add("ok")
    assert outcomes == {"ok", "scene-error", "value-error"}
