"""Binary transverse shapes on a pixel grid and their coherence-cell geometry.

Masks and local-oscillator (LO) shapes are binary bitmaps.  The transverse
plane is partitioned into square coherence cells, each with an LO weight
fraction w_i and a mask power transmission T_i.  The noise model is affine
in T_i and in sqrt(T_i), so `overlaps` reduces an (LO, mask) pair to two
moments: the overlap O = sum(w_i T_i) and the root overlap
Q = sum(w_i sqrt(T_i)).

Bitmaps load from plain ASCII portable bitmaps (magic "P1").  The
bundled A-Z font ships as one P1 file per letter.
"""

import functools
import math
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


class SceneError(ValueError):
    """Raised for invalid shapes, grids or file contents."""


@dataclass(frozen=True)
class Bitmap:
    """Binary occupancy on a width x height pixel grid (row-major)."""

    bits: np.ndarray

    def __post_init__(self):
        # a copy: the caller keeps its array, writable
        self._own(np.array(self.bits, dtype=bool))

    @classmethod
    def _adopt(cls, bits):
        """Wrap a bool array the scene layer just built, without copying it."""
        self = object.__new__(cls)
        self._own(bits)
        return self

    def _own(self, arr):
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise SceneError("bitmap must be a 2-D array with width, height >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def height(self):
        return self.bits.shape[0]

    @property
    def width(self):
        return self.bits.shape[1]

    @property
    def pixel_count(self):
        return int(self.bits.sum())

    def __eq__(self, other):
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))


def _check_same_dims(a, b):
    if a.bits.shape != b.bits.shape:
        raise SceneError(
            "bitmap dimensions differ: %dx%d vs %dx%d"
            % (a.width, a.height, b.width, b.height)
        )


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


def _sector(angle):
    """Sector of an angle in [-pi, pi]: monotone, so it brackets any window."""
    return int((angle + np.pi) * _SECTORS_PER_RADIAN)


@functools.lru_cache(maxsize=1)
def _polar_grid(width, height, radius):
    """The disk's pixels grouped by angle sector, with their polar angles.

    Returns (pixels, theta, starts): the row-major flat indices (int32) of the
    pixel centers with hypot <= radius about the grid center, their polar
    angles, both ordered by sector, and each sector's first position in them
    (starts[s] .. starts[s + 1] is sector s).  None depends on the rotation,
    so a sweep of rotations on one grid computes them once.  All are
    read-only: every caller shares them.
    """
    x = (np.arange(width) + 0.5) - width / 2.0
    y = ((np.arange(height) + 0.5) - height / 2.0)[:, None]
    # centers are multiples of 1/2, so their squared radius is exact, and only
    # the centers within rounding of radius**2 need hypot to place them
    r2 = x * x + y * y
    edge = radius * radius
    disk = r2 <= edge * (1.0 - _EDGE_BAND)
    band = r2 > edge * (1.0 - _EDGE_BAND)
    band &= r2 <= edge * (1.0 + _EDGE_BAND)
    del r2
    band = np.flatnonzero(band)
    ys, xs = np.divmod(band, width)
    disk.ravel()[band] = np.hypot(x[xs], y[ys, 0]) <= radius
    pixels = np.flatnonzero(disk).astype(np.int32)
    del disk
    # one contiguous full-grid arctan2, then a gather: a gathered arctan2 is slower
    theta = np.arctan2(y, x).ravel()[pixels]
    # the same arithmetic as _sector, so window bounds bracket pixel sectors
    sector = ((theta + np.pi) * _SECTORS_PER_RADIAN).astype(np.uint8)
    order = np.argsort(sector, kind="stable")
    starts = np.zeros(_sector(np.pi) + 2, dtype=np.intp)
    np.cumsum(np.bincount(sector, minlength=len(starts) - 1), out=starts[1:])
    pixels, theta = pixels[order], theta[order]
    for arr in (pixels, theta, starts):
        arr.setflags(write=False)
    return pixels, theta, starts


def _candidate_spans(rotation, half_angle, starts):
    """Disjoint (start, stop) spans of the sector-ordered disk that hold every
    pixel within half_angle (plus the rounding reach) of rotation mod pi."""
    reach = half_angle + _REACH_ULPS * (np.pi + abs(rotation))
    # fmod is exact, so the window centres rotation + k pi are exactly
    # center + m pi with center in (-pi, pi): a reach below pi meets [-pi, pi]
    # only for |m| <= 2, and a larger one covers it with m in -1..1
    center = math.fmod(rotation, np.pi)
    spans = []
    for m in (-2, -1, 0, 1, 2):
        lo = center + m * np.pi - reach
        hi = center + m * np.pi + reach
        if hi < -np.pi or lo > np.pi:
            continue
        start = int(starts[_sector(max(lo, -np.pi))])
        stop = int(starts[_sector(min(hi, np.pi)) + 1])
        if spans and start <= spans[-1][1]:
            spans[-1][1] = max(stop, spans[-1][1])
        else:
            spans.append([start, stop])
    return spans


def bowtie(rotation, half_angle, radius, width, height):
    """Two opposing angular wedges of the given half-angle about the grid center.

    `rotation` orients the wedge axis; the shape is point-symmetric about the
    center, so rotation and rotation + pi rasterize identically.
    """
    if not math.isfinite(rotation):
        raise SceneError("bow-tie rotation must be finite, got %r" % (rotation,))
    if not 0.0 < half_angle < np.pi / 2:
        raise SceneError("wedge half-angle must lie in (0, pi/2), got %r" % (half_angle,))
    if radius <= 0 or 2.0 * radius > min(width, height):
        raise SceneError("bow-tie radius must be positive and fit inside the grid")
    pixels, theta, starts = _polar_grid(width, height, radius)
    bits = np.zeros(width * height, dtype=bool)
    for start, stop in _candidate_spans(rotation, half_angle, starts):
        # fold the polar angle onto [0, pi), identical for phi and phi + pi:
        # numpy's `%` is this fmod plus pi where it is negative (fmod may leave
        # -0.0 where `%` gives +0.0, which compares the same)
        psi = np.subtract(theta[start:stop], rotation)
        np.fmod(psi, np.pi, out=psi)
        np.add(psi, np.pi, out=psi, where=psi < 0)
        # inside the wedge pair: |psi| <= half_angle for psi <= pi/2, else
        # |psi - pi| <= half_angle; half_angle < pi/2 keeps each test to its half
        hit = psi <= half_angle
        psi -= np.pi
        hit |= psi >= -half_angle
        bits[pixels[start:stop][hit]] = True
    return Bitmap._adopt(bits.reshape(height, width))


def overlaps(lo, mask, cell_size, weight_map=None):
    """(overlap, root overlap) of an LO and a mask on square coherence cells
    of cell_size pixels a side, tiling the plane from the top-left corner.

    With l_i and p_i the LO and passed power of cell i, O = sum(p_i) / total
    and Q = sum(l_i sqrt(p_i / l_i)) / total: without a weight map O is the
    correctly rounded pixel-count ratio, single-pixel cells give Q == O, and
    the full mask gives O = Q = 1.  Each drifts past 1 only by rounding.
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
    _check_same_dims(lo, mask)
    # off the LO every term of the per-cell sums is zero, and off the mask
    # every term of the passed sums is; a zero term leaves a partial sum
    # (which starts at +0.0 and so is never -0.0) unchanged, so summing only
    # the other pixels, in pixel order, gives the same sums
    pixels = np.flatnonzero(lo.bits)
    if weight_map is None:
        power = None
        total = float(len(pixels))
    else:
        lo_power = _pixel_weights(lo, weight_map) * lo.bits
        power = lo_power.ravel()[pixels]
        total = float(lo_power.sum())
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power (empty LO)")
    passed = mask.bits.ravel()[pixels]
    if cell_size == 1 and power is None:
        # each LO pixel is its own cell, in ascending order, so a per-cell
        # sum is +0.0 plus the pixel's one unit term
        return np.ones(len(pixels)), passed.astype(float), total
    # cells are numbered row by row, so ids increase with the cell's
    # (row, column) position on the plane
    ys, xs = np.divmod(pixels, lo.width)
    cells = ys // cell_size * ((lo.width - 1) // cell_size + 1) + xs // cell_size
    # unit weights: integer counts, which are exact, so they divide to the
    # same floats as float sums
    per_cell_lo = np.bincount(cells, weights=power)
    per_cell_passed = np.bincount(cells[passed], minlength=len(per_cell_lo),
                                  weights=None if power is None else power[passed])
    keep = np.flatnonzero(per_cell_lo > 0)
    return per_cell_lo[keep], per_cell_passed[keep], total


def _pixel_weights(ref, weight_map):
    w = np.asarray(weight_map, dtype=float)
    if w.shape != ref.bits.shape:
        raise SceneError("weight map shape %s does not match bitmap %s"
                         % (w.shape, ref.bits.shape))
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise SceneError("weight map entries must be finite and non-negative")
    return w


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
    # two negative sizes can match the digit count
    if width < 0 or height < 0:
        raise SceneError("%s: malformed P1 header" % (path,))
    bits = np.frombuffer(digits, dtype=np.uint8) == ord("1")
    return Bitmap._adopt(bits.reshape(height, width))


# ---------------------------------------------------------------------------
# bundled letter font

LETTERS = string.ascii_uppercase


def _bundled_font_dir():
    return resources.files("noiseimaging") / "font"


def glyph(letter, font_dir=None):
    """Load one letter's bitmap from a font of per-letter P1 files.

    All glyphs of a font share one canvas so their boxes exactly overlap.
    """
    name = str(letter).upper()
    if len(name) != 1 or name not in LETTERS:
        raise SceneError("unknown letter %r: font covers A-Z" % (letter,))
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
            dims = g.bits.shape
        elif g.bits.shape != dims:
            raise SceneError(
                "font glyphs do not share a common bounding box: %r is %s, expected %s"
                % (letter, g.bits.shape, dims)
            )
        glyphs[letter] = g
    return glyphs
