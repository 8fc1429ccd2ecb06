import hashlib

import numpy as np
import pytest

from noiseimaging.scene import (
    LETTERS,
    SceneError,
    font_letter,
    load_font,
    load_pbm,
    overlaps,
)

from scene_reference import bowtie, save_pbm

ALPHA = np.pi / 8

# the bundled font's design bounds: the runner-up to I carries this much more
# ink than I, so a detector floor can separate them, and no other letter
# overlaps Z by more than this, below the alphabet profile's threshold
MIN_COUNT_GAP = 1.15
MAX_Z_OVERLAP = 0.72


def random_bitmap(rng, w, h, fill=0.5):
    return rng.random((h, w)) < fill


def full_bitmap(width, height):
    return np.ones((height, width), dtype=bool)


def overlap(lo, mask, weight_map=None):
    """Scalar LO-mask overlap, on one cell spanning the canvas."""
    return overlaps(lo, mask, max(lo.shape), weight_map)[0]


def _reference_overlap(lo, mask, weight_map=None):
    """Independent reference: sum of weights over lo&mask / sum over lo."""
    w = np.ones(lo.shape) if weight_map is None else np.asarray(weight_map, float)
    return float(w[lo & mask].sum()) / float(w[lo].sum())


class TestBoolArrays:
    def test_all_zero_grid_is_fine(self):
        # a mask that passes nothing passes the input check on every path
        zeros = np.zeros((4, 4), dtype=bool)
        for cell_size, weights in ((1, None), (2, None), (2, np.ones((4, 4)))):
            assert overlaps(full_bitmap(4, 4), zeros, cell_size, weights) == (0.0, 0.0)

    @pytest.mark.parametrize("bits", [
        np.ones((4, 4), dtype=np.uint8),
        np.ones((4, 4)),
        np.ones((1, 4, 4), dtype=bool),
        np.ones(4, dtype=bool),
        np.zeros((0, 4), dtype=bool),
        [[True] * 4] * 4,
    ], ids=["uint8", "float", "3-D", "1-D", "zero-height", "list"])
    def test_rejects_what_is_not_a_2d_bool_array(self, bits):
        good = full_bitmap(4, 4)
        for cell_size, weights in ((1, None), (2, None), (2, np.ones((4, 4)))):
            for pair in ((bits, good), (good, bits)):
                with pytest.raises(SceneError, match="2-D bool array"):
                    overlaps(*pair, cell_size, weights)


class TestArrayOwnership:
    def test_scene_results_are_read_only(self, tmp_path):
        mask = bowtie(0.0, ALPHA, 14, 32, 32)
        lo = bowtie(0.3, ALPHA, 14, 32, 32)
        save_pbm(lo, tmp_path / "lo.pbm")
        for arr in (mask, lo, load_pbm(tmp_path / "lo.pbm"), load_font()["Z"]):
            assert not arr.flags.writeable


class TestPbmIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bm = random_bitmap(rng, 13, 7)
        path = tmp_path / "x.pbm"
        save_pbm(bm, path)
        assert np.array_equal(load_pbm(path), bm)

    def test_reads_comments_and_packed_digits(self, tmp_path):
        path = tmp_path / "y.pbm"
        path.write_text("P1 # magic\n# a comment\n3 2\n101\n0 1 0\n")
        assert load_pbm(path).tolist() == [[True, False, True], [False, True, False]]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "z.pbm"
        path.write_text("P4\n2 2\n0 1 1 0\n")
        with pytest.raises(SceneError):
            load_pbm(path)

    def test_rejects_empty_dims(self, tmp_path):
        path = tmp_path / "e.pbm"
        for size in ("0 3", "3 0", "0 0"):
            path.write_text("P1\n%s\n" % size)
            with pytest.raises(SceneError, match="width and height must be >= 1"):
                load_pbm(path)

    def test_rejects_wrong_token_count(self, tmp_path):
        path = tmp_path / "w.pbm"
        path.write_text("P1\n2 2\n0 1 1\n")
        with pytest.raises(SceneError):
            load_pbm(path)


class TestBowtie:
    def test_point_symmetry_half_turn(self):
        a = bowtie(0.3, ALPHA, 120, 256, 256)
        b = bowtie(0.3 + np.pi, ALPHA, 120, 256, 256)
        assert np.array_equal(a, b)

    def test_rejects_bad_half_angle(self):
        for alpha in (0.0, np.pi / 2, -0.1):
            with pytest.raises(SceneError):
                bowtie(0.0, alpha, 100, 256, 256)

    def test_rejects_non_finite_rotation(self):
        for rotation in (np.inf, -np.inf, np.nan):
            with pytest.raises(SceneError, match="rotation"):
                bowtie(rotation, ALPHA, 100, 256, 256)

    def test_rejects_oversized_radius(self):
        with pytest.raises(SceneError):
            bowtie(0.0, ALPHA, 200, 256, 256)

    @pytest.mark.parametrize("width,height", [(46341, 46341), (2**16, 2**15)],
                             ids=["square", "2-to-the-31"])
    def test_rejects_a_grid_past_int32_indices(self, width, height):
        # the polar grid's int32 indices would wrap: 2**31 reads as -2**31
        with pytest.raises(SceneError, match="int32"):
            bowtie(0.0, ALPHA, 100, width, height)

    def test_area_fraction_of_disk(self):
        # wedge pair covers 2*alpha/pi of the enclosing disk
        bt = bowtie(0.123, ALPHA, 240, 512, 512)
        disk = np.pi * 240**2
        assert np.count_nonzero(bt) / disk == pytest.approx(2 * ALPHA / np.pi, rel=0.01)

    def test_overlap_vs_rotation_matches_wedge_formula(self):
        mask = bowtie(0.0, ALPHA, 240, 512, 512)
        for delta in (0.05, 0.2, 0.4, 0.6):
            lo = bowtie(delta, ALPHA, 240, 512, 512)
            assert overlap(lo, mask) == pytest.approx(1 - delta / (2 * ALPHA), abs=0.01)

    def test_overlap_curve_even_and_monotone(self):
        mask = bowtie(0.0, ALPHA, 120, 256, 256)
        deltas = np.linspace(0.0, 2 * ALPHA, 12)
        ups = [overlap(bowtie(d, ALPHA, 120, 256, 256), mask) for d in deltas]
        downs = [overlap(bowtie(-d, ALPHA, 120, 256, 256), mask) for d in deltas]
        assert np.allclose(ups, downs, atol=5e-3)
        assert all(b <= a + 5e-3 for a, b in zip(ups, ups[1:]))

    def test_rasterization_error_halves_with_resolution(self):
        rng = np.random.default_rng(21)
        deltas = rng.uniform(0.05, 2 * ALPHA - 0.05, size=25)

        def mean_error(n):
            mask = bowtie(0.0, ALPHA, int(0.47 * n), n, n)
            errs = []
            for d in deltas:
                lo = bowtie(d, ALPHA, int(0.47 * n), n, n)
                errs.append(abs(overlap(lo, mask) - (1 - d / (2 * ALPHA))))
            return np.mean(errs)

        e128, e256, e512 = mean_error(128), mean_error(256), mean_error(512)
        assert e256 <= e128 / 2
        assert e512 <= e256 / 2


class TestOverlap:
    def test_full_mask(self):
        rng = np.random.default_rng(1)
        lo = random_bitmap(rng, 16, 16)
        assert overlap(lo, full_bitmap(16, 16)) == 1.0

    def test_empty_mask(self):
        rng = np.random.default_rng(2)
        lo = random_bitmap(rng, 16, 16)
        assert overlap(lo, np.zeros((16, 16), dtype=bool)) == 0.0

    def test_half_planes(self):
        bits_lo = np.zeros((16, 16), dtype=bool)
        bits_lo[:, :8] = True
        bits_mask = np.zeros((16, 16), dtype=bool)
        bits_mask[:8, :] = True
        assert overlap(bits_lo, bits_mask) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(SceneError):
            overlap(full_bitmap(4, 4), full_bitmap(5, 4))

    def test_empty_lo(self):
        with pytest.raises(SceneError):
            overlap(np.zeros((4, 4), dtype=bool), full_bitmap(4, 4))

    def test_monotone_in_mask(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo = random_bitmap(rng, 24, 24, 0.4)
            if not lo.any():
                continue
            mask = random_bitmap(rng, 24, 24, 0.3)
            grown = mask | (rng.random((24, 24)) < 0.2)
            assert overlap(lo, grown) >= overlap(lo, mask)

    def test_weight_map_changes_overlap(self):
        bits_lo = np.zeros((4, 4), dtype=bool)
        bits_lo[0, 0] = bits_lo[3, 3] = True
        bits_mask = np.zeros((4, 4), dtype=bool)
        bits_mask[0, 0] = True
        w = np.ones((4, 4))
        w[0, 0] = 3.0
        assert overlap(bits_lo, bits_mask) == 0.5
        assert overlap(bits_lo, bits_mask, w) == 0.75


class TestDecompose:
    def test_degenerate_single_cell(self):
        # one cell: O is its transmission and Q its square root
        rng = np.random.default_rng(4)
        lo, mask = random_bitmap(rng, 32, 32), random_bitmap(rng, 32, 32)
        o, q = overlaps(lo, mask, 32)
        assert o == pytest.approx(_reference_overlap(lo, mask), abs=1e-12)
        assert q == pytest.approx(np.sqrt(_reference_overlap(lo, mask)), abs=1e-12)

    def test_single_pixel_cells_are_binary(self):
        # binary cells have sqrt(T) = T, so Q == O, the pixel-count ratio
        rng = np.random.default_rng(5)
        lo, mask = random_bitmap(rng, 32, 32), random_bitmap(rng, 32, 32)
        o, q = overlaps(lo, mask, 1)
        assert q == o
        assert o == (lo & mask).sum() / lo.sum()

    def test_bowtie_consistency_over_rotations(self):
        rng = np.random.default_rng(6)
        mask = bowtie(0.0, ALPHA, 120, 256, 256)
        cell_size = 16
        for delta in rng.uniform(0, 2 * ALPHA, size=50):
            lo = bowtie(delta, ALPHA, 120, 256, 256)
            o, q = overlaps(lo, mask, cell_size)
            # sqrt(T) >= T in every cell, and the weights sum to 1
            assert o - 1e-12 <= q <= 1.0
            assert o == pytest.approx(_reference_overlap(lo, mask), abs=1e-9)

    def test_fuzzed_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            w = int(rng.integers(3, 40))
            h = int(rng.integers(3, 40))
            lo = random_bitmap(rng, w, h, 0.5)
            if not lo.any():
                continue
            mask = random_bitmap(rng, w, h, rng.uniform(0.1, 0.9))
            cell_size = int(rng.integers(1, 12))
            o, q = overlaps(lo, mask, cell_size)
            assert 0.0 <= o <= 1.0 and o - 1e-12 <= q <= 1.0
            assert o == pytest.approx(_reference_overlap(lo, mask), abs=1e-9)

    def test_rejects_cell_size_below_one(self):
        lo = full_bitmap(4, 4)
        for cell_size in (0, -1):
            with pytest.raises(SceneError, match="cell_size"):
                overlaps(lo, lo, cell_size)

    def test_cells_without_lo_are_omitted(self):
        # three of the four cells hold no LO: they add nothing and divide
        # nothing by zero
        bits = np.zeros((8, 8), dtype=bool)
        bits[0, 0] = True
        assert overlaps(bits, full_bitmap(8, 8), 4) == (1.0, 1.0)

    def test_weighted_decomposition_matches_weighted_overlap(self):
        rng = np.random.default_rng(8)
        lo, mask = random_bitmap(rng, 24, 24), random_bitmap(rng, 24, 24)
        w = rng.uniform(0.1, 2.0, size=(24, 24))
        assert overlaps(lo, mask, 5, w)[0] == pytest.approx(_reference_overlap(lo, mask, w),
                                                           abs=1e-9)


class TestGlyphs:
    def test_every_letter_loads_with_common_canvas(self):
        font = load_font()
        assert list(font) == list(LETTERS)
        shapes = {g.shape for g in font.values()}
        assert shapes == {(64, 64)}
        # each glyph is an 8x8 grid of 8x8-pixel blocks, so that cells of 8
        # pixels, criterion 4's cell_size, hold all ink or none
        for g in font.values():
            assert np.array_equal(g, g[::8, ::8].repeat(8, axis=0).repeat(8, axis=1))

    def test_self_overlap_is_one(self):
        z = load_font()["Z"]
        assert overlap(z, z) == 1.0

    def test_distinct_letters_overlap_below_one(self):
        # no glyph is a subset of another, so none equals another
        font = load_font()
        for a in LETTERS:
            for b in LETTERS:
                if a != b:
                    assert overlap(font[a], font[b]) < 1.0

    def test_i_has_minimum_pixel_count(self):
        font = load_font()
        counts = {letter: np.count_nonzero(g) for letter, g in font.items()}
        ordered = sorted(counts.items(), key=lambda kv: kv[1])
        assert ordered[0][0] == "I"
        assert ordered[1][1] > counts["I"]
        assert ordered[1][1] >= MIN_COUNT_GAP * counts["I"]

    def test_bundled_glyphs_keep_their_bits(self):
        # the sha256 of the glyphs' packed bits, A to Z: a pixel moved in any
        # glyph moves the alphabet artifacts, and this digest
        font = load_font()
        digest = hashlib.sha256(b"".join(np.packbits(font[letter]).tobytes()
                                         for letter in LETTERS))
        assert digest.hexdigest() == (
            "3f3e1697c5cf24f2b589e2330984662936c8d40f1ff85440245f66fcf16bffe7")

    def test_no_other_letter_overlaps_z_past_the_bound(self):
        font = load_font()
        for letter in LETTERS.replace("Z", ""):
            assert overlap(font[letter], font["Z"]) <= MAX_Z_OVERLAP, letter

    def test_unknown_letter_named_in_error(self):
        with pytest.raises(SceneError, match="'@'"):
            font_letter("@")

    def test_lowercase_accepted(self):
        assert font_letter("q") == font_letter("Q") == "Q"

    # each upper-cases to an ASCII letter, which is not the letter it names
    @pytest.mark.parametrize("letter", ["\u0131", "\u017f"], ids=["dotless-i", "long-s"])
    def test_non_ascii_letter_rejected(self, letter):
        with pytest.raises(SceneError, match="unknown letter %r" % letter):
            font_letter(letter)

    def test_missing_font_dir(self, tmp_path):
        with pytest.raises(SceneError, match="'A'"):
            load_font(tmp_path)
