"""The candidate-pixel rasterizer, the LO-pixel decomposition and the byte
P1 parser against their references: every bit and every float must agree,
and every rejected input must raise a SceneError."""

from pathlib import Path

import numpy as np
import pytest

import noiseimaging
from noiseimaging.config import load_config
from noiseimaging.scene import (
    Bitmap,
    CoherenceGrid,
    SceneError,
    _polar_grid,
    bowtie,
    decompose,
    load_pbm,
)
from scene_reference import reference_bowtie, reference_decompose, reference_load_pbm

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
