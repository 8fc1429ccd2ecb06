"""Binary transverse shapes on a pixel grid and their coherence-cell geometry.

Masks and local-oscillator (LO) shapes are bitmaps: 2-D bool arrays of
height x width pixels, read-only when the scene builds them.  The transverse
plane is partitioned into square coherence cells, each with an LO weight
fraction w_i and a mask power transmission T_i.  The noise model is affine
in T_i and in sqrt(T_i), so `overlaps` reduces an (LO, mask) pair to two
moments: the overlap O = sum(w_i T_i) and the root overlap
Q = sum(w_i sqrt(T_i)).

Shapes also load from plain ASCII portable bitmaps (magic "P1").  The
bundled A-Z font ships as one P1 file per letter.
"""

import math
from pathlib import Path

import numpy as np


class SceneError(ValueError):
    """Raised for invalid shapes, grids or file contents."""


# how far past half_angle a folded pixel can still pass the wedge test: the
# difference theta - rotation rounds by half an ulp of pi + |rotation|, and
# arctan2 and the fold's +-pi by a few ulps of pi; 8 eps times
# (pi + |rotation|) covers them with room
_REACH_ULPS = 8.0 * np.finfo(float).eps

# relative half-width of the squared-radius band where the disk test defers to
# hypot: far above the rounding of hypot and of radius**2
_EDGE_BAND = 1e-12


def _centers(pixels, width, height):
    """(x, y) of the centers of flat pixel indices: the full grid's floats."""
    # a floor division and a product, a third of the time of numpy's divmod
    ys = pixels // width
    return (pixels - ys * width + 0.5) - width / 2.0, (ys + 0.5) - height / 2.0


def _wedge_hits(pixels, rotation, half_angle, width, height):
    """The exact bow-tie test of flat pixel indices: an arctan2 of their
    gathered centers, bit for bit the full grid's under numpy's default
    dispatch and with its AVX512 groups off, then the fold."""
    # fold the polar angle onto [0, pi), identical for phi and phi + pi:
    # numpy's `%` is this fmod plus pi where it is negative (fmod may leave
    # -0.0 where `%` gives +0.0, which compares the same)
    psi = np.subtract(np.arctan2(*_centers(pixels, width, height)[::-1]), rotation)
    np.fmod(psi, np.pi, out=psi)
    np.add(psi, np.pi, out=psi, where=psi < 0)
    # inside the wedge pair: |psi| <= half_angle for psi <= pi/2, else
    # |psi - pi| <= half_angle; half_angle < pi/2 keeps each test to its half
    hit = psi <= half_angle
    psi -= np.pi
    return hit | (psi >= -half_angle)


def _ranges(starts, stops):
    """The integers of every range [starts[k], stops[k]), in order."""
    lengths = np.maximum(stops - starts, 0)
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def _disk_rows(width, height, radius):
    """(top, y, first, stop, rim): the rows from top on, their center
    ordinates, their columns inside the disk clear of the edge band, and the
    flat indices of the band's pixels that hypot puts inside."""
    top = max(0, math.floor(height / 2.0 - radius) - 1)
    y = np.arange(top + 0.5, height - top) - height / 2.0
    # the runs of columns inside the band's inner and outer edge, up to rounding
    # far inside the band; the middle column tells an empty run, put at width // 2
    bound = radius * radius * np.array([[1.0 - _EDGE_BAND], [1.0 + _EDGE_BAND]])
    middle = (width - 1) // 2
    first = np.ceil((width / 2.0 - 0.5) - np.sqrt(np.clip(bound - y * y, 0.0, bound)))
    x = (middle + 0.5) - width / 2.0
    found = x * x + y * y <= bound
    first = np.where(found, np.clip(first, 0, middle), width // 2).astype(np.intp)
    stop = np.where(found, width - first, first)
    rows = (top + np.arange(len(y))) * width
    rim = _ranges(np.concatenate([rows + first[1], rows + stop[0]]),
                  np.concatenate([rows + first[0], rows + stop[1]]))
    rim = rim[np.hypot(*_centers(rim, width, height)) <= radius]
    return top, y, first[0], stop[0], rim


def _wedge_rows(disk, rotation, half_angle, radius, width, height):
    """(top, spans, hits): two flat-index spans [a, b) per row from row top
    on, of pixels whose centers lie inside the bow-tie and farther than the
    exact test's rounding reach from both its edge lines; and the band hits,
    the disk's other pixels near an edge line that the exact test passes."""
    top, y, first, stop, rim = disk
    # the reach in angle as a distance from a line through the center,
    # doubled for the rounding here; past |rotation| ~ 3e14 it tops the radius
    reach = 2.0 * _REACH_ULPS * (np.pi + abs(rotation)) * radius
    center = math.fmod(rotation, np.pi)
    cuts, flips = [], 0
    for phi in (center - half_angle, center + half_angle):
        # a line's angle is defined mod pi: each half turn that brings it into
        # (0, pi], where its sine is positive, swaps the line's sides
        while phi <= 0.0:
            phi, flips = phi + np.pi, flips + 1
        while phi > np.pi:
            phi, flips = phi - np.pi, flips + 1
        # x sin(phi) - y cos(phi) is the signed distance from the line: the
        # centers before column lo lie past reach on its negative side, those
        # from hi on on its positive side, with a pixel of slack.  A row
        # through the center, at angles 0 and pi exactly, is all band
        lo, hi = (np.clip((y * math.cos(phi) + d) / math.sin(phi) + (width / 2.0 - 0.5),
                          -2.0, width + 2.0) for d in (-reach, reach))
        cuts += [np.where(y == 0.0, 0, np.clip(np.ceil(lo) - 1.0, 0, width)).astype(np.intp),
                 np.where(y == 0.0, width, np.clip(np.floor(hi) + 2.0, 0, width)).astype(np.intp)]
    lo1, hi1, lo2, hi2 = cuts
    # the spans, where the signed distances from the unturned edge lines differ
    # in sign, then the band's cut ranges, the second less the first
    ranges = ([(0, np.minimum(lo1, lo2)), (np.maximum(hi1, hi2), width)] if flips % 2
              else [(hi2, lo1), (hi1, lo2)])
    ranges += [(lo1, hi1), (lo2, np.minimum(hi2, lo1)), (np.maximum(lo2, hi1), hi2)]
    rows = (top + np.arange(len(y))) * width
    ranges = [(rows + np.clip(a, first, stop), rows + np.clip(np.maximum(a, b), first, stop))
              for a, b in ranges]
    band = np.concatenate([_ranges(*map(np.concatenate, zip(*ranges[2:]))), rim])
    return top, ranges[:2], band[_wedge_hits(band, rotation, half_angle, width, height)]


def _wedges(rotations, half_angle, radius, width, height):
    """_wedge_rows of each rotation, on one _disk_rows."""
    if not 0.0 < half_angle < np.pi / 2:
        raise SceneError("wedge half-angle must lie in (0, pi/2), got %r" % (half_angle,))
    if radius <= 0 or 2.0 * radius > min(width, height):
        raise SceneError("bow-tie radius must be positive and fit inside the grid")
    # every command rejects such a grid before any allocation: a bow-tie
    # bitmap takes a byte per pixel, 2 GiB at this limit
    if width * height > np.iinfo(np.int32).max:
        raise SceneError("a %dx%d grid has more pixels than int32 indices can address"
                         % (width, height))
    disk = None
    for rotation in rotations:
        if not math.isfinite(rotation):
            raise SceneError("bow-tie rotation must be finite, got %r" % (rotation,))
        disk = disk or _disk_rows(width, height, radius)
        yield _wedge_rows(disk, rotation, half_angle, radius, width, height)


def bowties(rotations, half_angle, radius, width, height):
    """One bow-tie bitmap per rotation: two opposing angular wedges of the
    given half-angle about the grid center.  The shape is point-symmetric
    about the center, so rotation and rotation + pi rasterize identically."""
    for _, spans, hits in _wedges(rotations, half_angle, radius, width, height):
        bits = np.zeros(width * height, dtype=bool)
        for a, b in spans:
            bits[_ranges(a, b)] = True
        bits[hits] = True
        bits.setflags(write=False)
        yield bits.reshape(height, width)
        del bits  # not held while the next is drawn


def bowtie_overlaps(rotations, half_angle, radius, width, height, cell_size, weight_map):
    """`overlaps` of the bow-tie LO at each rotation against the bow-tie mask
    at rotation 0, from one LO bitmap at a time; on single-pixel cells without
    a weight map, counted from the spans and band hits with no bitmap."""
    if cell_size != 1 or weight_map is not None:
        shapes = bowties([0.0, *rotations], half_angle, radius, width, height)
        mask = next(shapes)
        # map holds no LO while the next one is drawn
        yield from map(lambda lo: overlaps(lo, mask, cell_size, weight_map), shapes)
        return
    wedges = _wedges([0.0, *rotations], half_angle, radius, width, height)
    _, mask_spans, mask_hits = next(wedges)
    for top, spans, hits in wedges:
        # count(LO) and count(LO and mask) as Python ints: the common span
        # lengths, LO band hits in the mask, and mask band hits in LO spans
        total = sum(int(np.sum(b - a)) for a, b in spans) + len(hits)
        if not total:
            raise SceneError("LO bitmap carries no power (empty LO)")
        rows = mask_hits // width - top
        both = (sum(_common(a, b, c, d) for a, b in spans for c, d in mask_spans)
                + int(np.count_nonzero(_wedge_hits(hits, 0.0, half_angle, width, height)))
                + sum(_common(a[rows], b[rows], mask_hits, mask_hits + 1) for a, b in spans))
        yield both / total, both / total


def _common(a, b, c, d):
    """The summed lengths of the ranges [a, b) & [c, d), elementwise."""
    return int(np.sum(np.maximum(np.minimum(b, d) - np.maximum(a, c), 0)))


def overlaps(lo, mask, cell_size, weight_map=None):
    """(overlap, root overlap) of an LO and a mask, same-shape 2-D bool arrays,
    on square coherence cells of cell_size pixels a side, tiling the plane
    from the top-left corner.

    With l_i and p_i the LO and passed power of cell i, O = sum(p_i) / total
    and Q = sum(l_i sqrt(p_i / l_i)) / total: without a weight map O is the
    correctly rounded pixel-count ratio, single-pixel cells give Q == O, and
    the full mask gives O = Q = 1.  Each drifts past 1 only by rounding.
    Single-pixel cells are summed off the LO's pixels, weighted or not, with
    no grid-length per-cell array.
    """
    if cell_size < 1:
        raise SceneError("cell_size must be >= 1, got %r" % (cell_size,))
    lo_sums, passed_sums, total = _occupied_cell_sums(lo, mask, cell_size, weight_map)
    # fixed-order sums, not thread-dependent BLAS dots; l_i sqrt(p_i / l_i),
    # not sqrt(p_i l_i), which underflows for subnormal cell powers
    overlap = float(np.sum(passed_sums)) / total
    root_overlap = float(np.sum(lo_sums * np.sqrt(passed_sums / lo_sums))) / total
    return min(overlap, 1.0), min(root_overlap, 1.0)


def _occupied_cell_sums(lo, mask, cell_size, weight_map):
    """LO power and passed power of each cell holding LO power, and the total
    LO power.

    A separate function so the full-range per-cell arrays are freed before
    `overlaps` allocates its per-cell temporaries.
    """
    for bits in (lo, mask):
        if getattr(bits, "dtype", None) != bool or bits.ndim != 2 or 0 in bits.shape:
            raise SceneError("bitmap must be a 2-D bool array with width, height >= 1")
    if lo.shape != mask.shape:
        raise SceneError("bitmap dimensions differ: %dx%d vs %dx%d"
                         % (lo.shape[1], lo.shape[0], mask.shape[1], mask.shape[0]))
    # off the LO every term of the per-cell sums is zero, and off the mask
    # every term of the passed sums is; a zero term leaves a partial sum
    # (which starts at +0.0 and so is never -0.0) unchanged, so summing only
    # the other pixels, in pixel order, gives the same sums
    pixels = np.flatnonzero(lo)
    # no map weighs every pixel 1: bool weights sum to exact integers
    lo_power = lo if weight_map is None else _lo_power(lo, weight_map)
    power = lo_power.ravel()[pixels]
    total = float(lo_power.sum())
    if not len(pixels):
        raise SceneError("LO bitmap carries no power (empty LO)")
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power: the weight map is zero on "
                         "all %d of its pixels" % len(pixels))
    passed = mask.ravel()[pixels]
    if cell_size == 1:
        # each LO pixel is its own cell, numbered in pixel order, and a
        # one-term sum is +0.0 plus the term: the cells of zero power drop out
        keep = power > 0
        power = power[keep].astype(float, copy=False)
        return power, np.where(passed[keep], power, 0.0), total
    # cells are numbered row by row, so ids increase with the cell's
    # (row, column) position on the plane
    width = lo.shape[1]
    ys, xs = np.divmod(pixels, width)
    cells = ys // cell_size * ((width - 1) // cell_size + 1) + xs // cell_size
    per_cell_lo = np.bincount(cells, weights=power)
    per_cell_passed = np.bincount(cells[passed], minlength=len(per_cell_lo),
                                  weights=power[passed])
    keep = np.flatnonzero(per_cell_lo > 0)
    return per_cell_lo[keep], per_cell_passed[keep], total


def check_weight_map(weights):
    """Raise a SceneError unless every entry of a float weight map is finite
    and non-negative."""
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise SceneError("weight map entries must be finite and non-negative")


def _lo_power(lo, weight_map):
    w = np.asarray(weight_map, dtype=float)
    if w.shape != lo.shape:
        raise SceneError("weight map shape %s does not match bitmap %s" % (w.shape, lo.shape))
    check_weight_map(w)
    # weights are relative: scaled to a largest LO entry of 1, no sum
    # overflows or loses digits to subnormal cell powers
    power = w * lo
    peak = power.max()
    return np.divide(power, peak, out=power) if peak > 0 else power


# ---------------------------------------------------------------------------
# plain ASCII portable bitmap (P1) input

# str.split() also splits on the ASCII separators 0x1c-0x1f, bytes.split() does not
_TO_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_WHITESPACE = b" \t\n\r\x0b\x0c"


def load_pbm(path):
    """Read a plain P1 portable bitmap file (comments and packed digits allowed)."""
    data = Path(path).read_bytes()
    if not data.isascii():
        raise SceneError("%s: not a plain P1 portable bitmap (non-ASCII bytes)" % (path,))
    if b"#" in data:
        # a comment runs from '#' to the end of its line
        lines = data.decode("ascii").splitlines()
        data = "\n".join(line.split("#", 1)[0] for line in lines).encode("ascii")
    fields = data.translate(_TO_SPACE).split(maxsplit=3)
    if not fields or fields[0] != b"P1":
        raise SceneError("%s: not a plain P1 portable bitmap" % (path,))
    try:
        width, height = int(fields[1]), int(fields[2])
    except (IndexError, ValueError):
        raise SceneError("%s: malformed P1 header" % (path,)) from None
    digits = fields[3].translate(None, _WHITESPACE) if len(fields) > 3 else b""
    if len(digits) != width * height or digits.translate(None, b"01"):
        raise SceneError("%s: expected %d binary digits" % (path, width * height))
    # a zero size, or two negative sizes, can match the digit count
    if width < 1 or height < 1:
        raise SceneError("%s: P1 width and height must be >= 1" % (path,))
    bits = np.frombuffer(digits, dtype=np.uint8) == ord("1")
    bits.setflags(write=False)
    return bits.reshape(height, width)


# ---------------------------------------------------------------------------
# bundled letter font

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FONT_DIR = Path(__file__).with_name("font")


def font_letter(letter):
    """The font letter a name selects: one ASCII letter, in either case.

    Checked before upper-casing, which maps some non-ASCII letters (dotless
    i, long s) to ASCII ones.
    """
    if not (isinstance(letter, str) and len(letter) == 1 and letter.isascii()
            and letter.isalpha()):
        raise SceneError("unknown letter %r: font covers A-Z" % (letter,))
    return letter.upper()


def load_font(font_dir=None):
    """Load the whole A-Z font, {letter: bitmap}, from a directory of
    per-letter P1 files, the bundled one by default.

    All glyphs of a font share one canvas so their boxes exactly overlap.
    """
    base = _FONT_DIR if font_dir is None else Path(font_dir)
    glyphs = {}
    for letter in LETTERS:
        path = base / ("%s.pbm" % letter)
        try:
            g = load_pbm(path)
        except FileNotFoundError:
            raise SceneError("font file for letter %r not found under %s"
                             % (letter, base)) from None
        except OSError as exc:
            raise SceneError("font file for letter %r at %s cannot be read: %s"
                             % (letter, path, exc.strerror)) from None
        if glyphs and g.shape != glyphs["A"].shape:
            raise SceneError(
                "font glyphs do not share a common bounding box: %r is %s, expected %s"
                % (letter, g.shape, glyphs["A"].shape)
            )
        glyphs[letter] = g
    return glyphs
