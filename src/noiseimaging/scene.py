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
import string
from importlib import resources
from pathlib import Path

import numpy as np


class SceneError(ValueError):
    """Raised for invalid shapes, grids or file contents."""


def _check_same_dims(a, b):
    for bits in (a, b):
        if getattr(bits, "dtype", None) != bool or bits.ndim != 2 or 0 in bits.shape:
            raise SceneError("bitmap must be a 2-D bool array with width, height >= 1")
    if a.shape != b.shape:
        raise SceneError("bitmap dimensions differ: %dx%d vs %dx%d"
                         % (a.shape[1], a.shape[0], b.shape[1], b.shape[0]))


# pixel angles are grouped into sectors of 1/40 rad, which the uint8 sector
# key holds: (pi + pi) * 40 < 252
_SECTORS_PER_RADIAN = 40.0
# how far past half_angle a folded pixel can still pass the wedge test: the
# difference theta - rotation rounds by half an ulp of pi + |rotation|, and the
# fold's +-pi and the window ends by a few ulps of pi; 8 eps times
# (pi + |rotation|) covers them with room
_REACH_ULPS = 8.0 * np.finfo(float).eps


# relative half-width of the squared-radius band where the disk test defers to
# hypot: far above the rounding of hypot and of radius**2
_EDGE_BAND = 1e-12
# pixels per row strip of the polar grid, so the build's float temporaries
# stay near 64 KiB whatever the grid size
_STRIP_PIXELS = 1 << 13


def _sector(angle):
    """Sector of an angle in [-pi, pi]: monotone, so it brackets any window."""
    return int((angle + np.pi) * _SECTORS_PER_RADIAN)


def _pixel_angles(pixels, width, height):
    """Polar angles of the centers of the given row-major flat pixel indices.

    A 1-D arctan2 of the gathered coordinates: bit for bit the full-grid
    arctan2 of the broadcast center rows and columns, under numpy's default
    dispatch and with its AVX512 groups off, and it reads only the pixels
    asked for.
    """
    # indices are non-negative: a floor division and a product, about a third
    # of the time of numpy's divmod
    ys = pixels // width
    xs = pixels - ys * width
    return np.arctan2((ys + 0.5) - height / 2.0, (xs + 0.5) - width / 2.0)


def _polar_grid(width, height, radius):
    """The disk's pixels grouped by angle sector, one group per row strip.

    Returns a list with one (pixels, starts) pair per strip of rows: the
    row-major flat indices (int32) of the strip's pixel centers with hypot
    <= radius about the grid center, ordered by sector and within a sector by
    index, and each sector's first position in them (starts[s] ..
    starts[s + 1] is sector s).  Neither depends on the rotation, so a sweep
    of rotations on one grid computes them once.  All are read-only.

    Built and kept in strips, so no full-grid array is ever alive.
    """
    x = (np.arange(width) + 0.5) - width / 2.0
    edge = radius * radius
    rows = max(1, _STRIP_PIXELS // width)
    grid = []
    for top in range(0, height, rows):
        y = ((np.arange(top, min(top + rows, height)) + 0.5) - height / 2.0)[:, None]
        # centers are multiples of 1/2, so their squared radius is exact, and
        # only the centers within rounding of radius**2 need hypot to place them
        r2 = x * x + y * y
        disk = r2 <= edge * (1.0 - _EDGE_BAND)
        band = r2 > edge * (1.0 - _EDGE_BAND)
        band &= r2 <= edge * (1.0 + _EDGE_BAND)
        del r2
        band = np.flatnonzero(band)
        ys, xs = np.divmod(band, width)
        disk.ravel()[band] = np.hypot(x[xs], y[ys, 0]) <= radius
        strip = (np.flatnonzero(disk) + top * width).astype(np.int32)
        # the same arithmetic as _sector, so window bounds bracket pixel sectors
        sector = ((_pixel_angles(strip, width, height) + np.pi)
                  * _SECTORS_PER_RADIAN).astype(np.uint8)
        pixels = strip[np.argsort(sector, kind="stable")]
        starts = np.zeros(_sector(np.pi) + 2, dtype=np.intp)
        np.cumsum(np.bincount(sector, minlength=_sector(np.pi) + 1), out=starts[1:])
        for arr in (pixels, starts):
            arr.setflags(write=False)
        grid.append((pixels, starts))
    return grid


def _sector_spans(rotation, half_angle):
    """(edges, inside): [first, stop) sector ranges holding every pixel within half_angle
    plus the rounding reach of rotation mod pi; `inside` ones pass without folding."""
    err = _REACH_ULPS * (np.pi + abs(rotation))
    reach, inner = half_angle + err, half_angle - err
    if reach >= np.pi / 2:  # windows pi apart: every angle is a candidate
        return [(0, _sector(np.pi) + 1)], []
    # fmod is exact, so the window centres rotation + k pi are exactly
    # center + m pi with center in (-pi, pi), and only |m| <= 2 meet [-pi, pi]
    center = math.fmod(rotation, np.pi)
    edges, inside = [], []
    for m in (-2, -1, 0, 1, 2):
        axis = center + m * np.pi
        if axis + reach < -np.pi or axis - reach > np.pi:
            continue
        first, stop = _sector(max(axis - reach, -np.pi)), _sector(min(axis + reach, np.pi)) + 1
        # _sector is monotone: sectors strictly between those of axis -+ inner lie inside
        in_first = min(max(_sector(axis - inner) + 1, first), stop)
        in_stop = max(min(_sector(axis + inner), stop), in_first)
        inside.append((in_first, in_stop))
        edges += [(first, in_first), (in_stop, stop)]
    return edges, inside


def bowties(rotations, half_angle, radius, width, height):
    """One bow-tie bitmap per rotation: two opposing angular wedges of the
    given half-angle about the grid center.

    A rotation orients the wedge axis; the shape is point-symmetric about the
    center, so rotation and rotation + pi rasterize identically.  The polar
    grid is built at the first rotation and dropped when the iteration ends.
    """
    if not 0.0 < half_angle < np.pi / 2:
        raise SceneError("wedge half-angle must lie in (0, pi/2), got %r" % (half_angle,))
    if radius <= 0 or 2.0 * radius > min(width, height):
        raise SceneError("bow-tie radius must be positive and fit inside the grid")
    # the polar grid holds flat pixel indices as int32, which would wrap past it
    if width * height > np.iinfo(np.int32).max:
        raise SceneError("a %dx%d grid has more pixels than int32 indices can address"
                         % (width, height))
    grid = None
    for rotation in rotations:
        if not math.isfinite(rotation):
            raise SceneError("bow-tie rotation must be finite, got %r" % (rotation,))
        if grid is None:
            grid = _polar_grid(width, height, radius)
        yield _bowtie(grid, rotation, half_angle, width, height)


def _bowtie(grid, rotation, half_angle, width, height):
    bits = np.zeros(width * height, dtype=bool)
    edges, inside = _sector_spans(rotation, half_angle)
    for pixels, starts in grid:
        for first, stop in inside:
            # numpy scatters through an intp index about twice as fast as through int32
            bits[pixels[starts[first]:starts[stop]].astype(np.intp)] = True
    # the edge sectors' pixels of every strip in one array, so the fold runs once
    edge = np.concatenate([pixels[starts[first]:starts[stop]]
                           for pixels, starts in grid for first, stop in edges])
    # fold the polar angle onto [0, pi), identical for phi and phi + pi:
    # numpy's `%` is this fmod plus pi where it is negative (fmod may leave
    # -0.0 where `%` gives +0.0, which compares the same)
    psi = np.subtract(_pixel_angles(edge, width, height), rotation)
    np.fmod(psi, np.pi, out=psi)
    np.add(psi, np.pi, out=psi, where=psi < 0)
    # inside the wedge pair: |psi| <= half_angle for psi <= pi/2, else
    # |psi - pi| <= half_angle; half_angle < pi/2 keeps each test to its half
    hit = psi <= half_angle
    psi -= np.pi
    hit |= psi >= -half_angle
    bits[edge[hit]] = True
    bits.setflags(write=False)
    return bits.reshape(height, width)


def overlaps(lo, mask, cell_size, weight_map=None):
    """(overlap, root overlap) of an LO and a mask, same-shape 2-D bool arrays,
    on square coherence cells of cell_size pixels a side, tiling the plane
    from the top-left corner.

    With l_i and p_i the LO and passed power of cell i, O = sum(p_i) / total
    and Q = sum(l_i sqrt(p_i / l_i)) / total: without a weight map O is the
    correctly rounded pixel-count ratio, single-pixel cells give Q == O, and
    the full mask gives O = Q = 1.  Each drifts past 1 only by rounding.
    """
    if cell_size < 1:
        raise SceneError("cell_size must be >= 1, got %r" % (cell_size,))
    if cell_size == 1 and weight_map is None:
        # unit cells: l_i sqrt(p_i / l_i) = p_i in {0, 1}, so both sums count
        # the LO pixels the mask passes
        _check_same_dims(lo, mask)
        total = np.count_nonzero(lo)
        if not total:
            raise SceneError("LO bitmap carries no power (empty LO)")
        overlap = np.count_nonzero(lo & mask) / total
        return overlap, overlap
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
    _check_same_dims(lo, mask)
    # off the LO every term of the per-cell sums is zero, and off the mask
    # every term of the passed sums is; a zero term leaves a partial sum
    # (which starts at +0.0 and so is never -0.0) unchanged, so summing only
    # the other pixels, in pixel order, gives the same sums
    pixels = np.flatnonzero(lo)
    if weight_map is None:
        power = None
        total = float(len(pixels))
    else:
        lo_power = _lo_power(lo, weight_map)
        power = lo_power.ravel()[pixels]
        total = float(lo_power.sum())
    if not len(pixels):
        raise SceneError("LO bitmap carries no power (empty LO)")
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power: the weight map is zero on "
                         "all %d of its pixels" % len(pixels))
    passed = mask.ravel()[pixels]
    # cells are numbered row by row, so ids increase with the cell's
    # (row, column) position on the plane
    width = lo.shape[1]
    ys, xs = np.divmod(pixels, width)
    cells = ys // cell_size * ((width - 1) // cell_size + 1) + xs // cell_size
    # unit weights: integer counts, which are exact, so they divide to the
    # same floats as float sums
    per_cell_lo = np.bincount(cells, weights=power)
    per_cell_passed = np.bincount(cells[passed], minlength=len(per_cell_lo),
                                  weights=None if power is None else power[passed])
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

LETTERS = string.ascii_uppercase


def _bundled_font_dir():
    return resources.files("noiseimaging") / "font"


def font_letter(letter):
    """The font letter a name selects: one ASCII letter, in either case.

    Checked before upper-casing, which maps some non-ASCII letters (dotless
    i, long s) to ASCII ones.
    """
    if not (isinstance(letter, str) and len(letter) == 1 and letter.isascii()
            and letter.isalpha()):
        raise SceneError("unknown letter %r: font covers A-Z" % (letter,))
    return letter.upper()


def glyph(letter, font_dir=None):
    """Load one letter's bitmap from a font of per-letter P1 files.

    All glyphs of a font share one canvas so their boxes exactly overlap.
    """
    name = font_letter(letter)
    base = Path(font_dir) if font_dir is not None else _bundled_font_dir()
    path = base / ("%s.pbm" % name)
    try:
        return load_pbm(path)
    except FileNotFoundError:
        raise SceneError("font file for letter %r not found under %s" % (name, base)) from None
    except OSError as exc:
        raise SceneError("font file for letter %r at %s cannot be read: %s"
                         % (name, path, exc.strerror)) from None


def load_font(font_dir=None):
    """Load the whole A-Z font, validating the common canvas size."""
    glyphs = {}
    dims = None
    for letter in LETTERS:
        g = glyph(letter, font_dir)
        if dims is None:
            dims = g.shape
        elif g.shape != dims:
            raise SceneError(
                "font glyphs do not share a common bounding box: %r is %s, expected %s"
                % (letter, g.shape, dims)
            )
        glyphs[letter] = g
    return glyphs
