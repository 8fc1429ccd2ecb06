"""Binary transverse shapes on a pixel grid and their coherence-cell geometry.

Masks and local-oscillator (LO) shapes are binary bitmaps.  The transverse
plane is partitioned into square coherence cells; `decompose` reduces an
(LO, mask) pair to per-cell LO weight fractions w_i and mask transmissions
T_i with sum(w_i * T_i) equal to the scalar LO-mask overlap.

Bitmaps load and save as plain ASCII portable bitmaps (magic "P1").  The
bundled A-Z font ships as one P1 file per letter.
"""

import string
from dataclasses import dataclass, field
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
        arr = np.array(self.bits, dtype=bool)
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

    def __and__(self, other):
        _check_same_dims(self, other)
        return Bitmap(self.bits & other.bits)

    def inverted(self):
        return Bitmap(~self.bits)


def full_bitmap(width, height, value=True):
    return Bitmap(np.full((height, width), bool(value)))


@dataclass(frozen=True)
class CoherenceGrid:
    """Square partition of the plane into pairwise-correlated cells."""

    cell_size: int
    offset_x: int = 0
    offset_y: int = 0

    def __post_init__(self):
        if self.cell_size < 1:
            raise SceneError("cell_size must be >= 1, got %r" % (self.cell_size,))
        if not (0 <= self.offset_x < self.cell_size and 0 <= self.offset_y < self.cell_size):
            raise SceneError("grid offsets must lie in [0, cell_size)")

    def cell_index_map(self, width, height):
        """Integer cell id for every pixel of a width x height bitmap."""
        xs = (np.arange(width) + self.offset_x) // self.cell_size
        ys = (np.arange(height) + self.offset_y) // self.cell_size
        ncols = int(xs[-1]) + 1
        return ys[:, None] * ncols + xs[None, :]


@dataclass(frozen=True)
class CellDecomposition:
    """Per-cell LO weight fractions and mask power transmissions.

    Only cells containing LO pixels are kept; weights sum to 1 and
    sum(w_i * T_i) equals the scalar LO-mask overlap.
    """

    weights: np.ndarray
    transmissions: np.ndarray
    lo_pixel_count: int
    overlap: float = field(init=False)

    def __post_init__(self):
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        t = np.atleast_1d(np.array(self.transmissions, dtype=float))
        if w.shape != t.shape or w.ndim != 1:
            raise SceneError("weights and transmissions must be 1-D arrays of equal length")
        if np.any(w < 0):
            raise SceneError("cell weights must be non-negative")
        if np.any((t < -1e-12) | (t > 1.0 + 1e-12)):
            raise SceneError("cell transmissions must lie in [0, 1]")
        if self.lo_pixel_count > 0 and abs(w.sum() - 1.0) > 1e-9:
            raise SceneError("cell weights must sum to 1")
        w.setflags(write=False)
        np.clip(t, 0.0, 1.0, out=t)
        t.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "transmissions", t)
        # a fixed-order sum, not a BLAS dot, so the bytes do not depend on the
        # thread count; it can drift past the boundaries by float rounding
        object.__setattr__(self, "overlap", float(np.clip(np.sum(w * t), 0.0, 1.0)))


def single_cell_decomposition(transmission, lo_pixel_count=1):
    """Degenerate one-cell decomposition with the given transmission."""
    return CellDecomposition(np.array([1.0]), np.array([float(transmission)]),
                             lo_pixel_count)


def _check_same_dims(a, b):
    if a.bits.shape != b.bits.shape:
        raise SceneError(
            "bitmap dimensions differ: %dx%d vs %dx%d"
            % (a.width, a.height, b.width, b.height)
        )


def bowtie(rotation, half_angle, radius, width, height):
    """Two opposing angular wedges of the given half-angle about the grid center.

    `rotation` orients the wedge axis; the shape is point-symmetric about the
    center, so rotation and rotation + pi rasterize identically.
    """
    if not 0.0 < half_angle < np.pi / 2:
        raise SceneError("wedge half-angle must lie in (0, pi/2), got %r" % (half_angle,))
    if radius <= 0 or 2.0 * radius > min(width, height):
        raise SceneError("bow-tie radius must be positive and fit inside the grid")
    cx, cy = width / 2.0, height / 2.0
    x = (np.arange(width) + 0.5) - cx
    y = (np.arange(height) + 0.5) - cy
    xx, yy = np.meshgrid(x, y)
    rr = np.hypot(xx, yy)
    # fold the polar angle onto one wedge: identical for phi and phi + pi
    psi = (np.arctan2(yy, xx) - rotation) % np.pi
    psi = np.where(psi > np.pi / 2, psi - np.pi, psi)
    bits = (rr <= radius) & (np.abs(psi) <= half_angle)
    return Bitmap(bits)


def decompose(lo, mask, grid, weight_map=None):
    """Per-cell LO weights and mask transmissions on a coherence grid."""
    _check_same_dims(lo, mask)
    w = _pixel_weights(lo, weight_map)
    lo_power = w * lo.bits
    total = float(lo_power.sum())
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power (empty LO)")
    cells = grid.cell_index_map(lo.width, lo.height)
    ncells = int(cells.max()) + 1
    per_cell_lo = np.bincount(cells.ravel(), weights=lo_power.ravel(), minlength=ncells)
    passed = lo_power * mask.bits
    per_cell_passed = np.bincount(cells.ravel(), weights=passed.ravel(), minlength=ncells)
    keep = per_cell_lo > 0.0
    weights = per_cell_lo[keep] / total
    transmissions = per_cell_passed[keep] / per_cell_lo[keep]
    return CellDecomposition(weights, transmissions, lo.pixel_count)


def _pixel_weights(ref, weight_map):
    if weight_map is None:
        return np.ones(ref.bits.shape)
    w = np.asarray(weight_map, dtype=float)
    if w.shape != ref.bits.shape:
        raise SceneError("weight map shape %s does not match bitmap %s"
                         % (w.shape, ref.bits.shape))
    if np.any(w < 0):
        raise SceneError("weight map entries must be non-negative")
    return w


# ---------------------------------------------------------------------------
# plain ASCII portable bitmap (P1) I/O

def save_pbm(bitmap, path):
    """Write a bitmap as a plain P1 portable bitmap file."""
    lines = ["P1", "%d %d" % (bitmap.width, bitmap.height)]
    for row in bitmap.bits:
        lines.append(" ".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_pbm(path):
    """Read a plain P1 portable bitmap file (comments and packed digits allowed)."""
    text = Path(path).read_text(encoding="ascii")
    tokens = []
    for line in text.splitlines():
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise SceneError("%s: not a plain P1 portable bitmap" % (path,))
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise SceneError("%s: malformed P1 header" % (path,)) from None
    digits = "".join(tokens[3:])
    if len(digits) != width * height or set(digits) - {"0", "1"}:
        raise SceneError("%s: expected %d binary digits" % (path, width * height))
    bits = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    return Bitmap(bits.reshape(height, width).astype(bool))


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
