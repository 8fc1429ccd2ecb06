"""Full-grid reference for the scene layer's fast paths.

`bowtie` draws one bow-tie through the runtime's `scene.bowties`, which
draws a sweep's bow-ties as row spans on one set of disk rows.

`reference_bowtie` rasterizes a bow-tie from a fresh meshgrid with numpy's
`%` and `np.where`, and `reference_decompose` sums every pixel of the grid
into a full-length float `bincount` per cell and returns the per-cell LO
weight fractions and mask transmissions; `cell_moments` turns those into
the overlap and root overlap.  `reference_overlaps` takes the moments from
the same full-grid sums in the runtime's arithmetic.  The runtime folds only
the disk pixels near the wedge's edge lines and sums only LO pixels; the
tests require the same bits, the same moments as `cell_moments` to within
rounding, and those of `reference_overlaps` bit for bit.
`reference_load_pbm` tokenizes a P1 file line by line as text, where the
runtime parses its bytes.
"""

from pathlib import Path

import numpy as np

from noiseimaging import scene
from noiseimaging.scene import SceneError


def bowtie(rotation, half_angle, radius, width, height):
    """The runtime's bow-tie at one rotation, on disk rows of its own."""
    return next(scene.bowties([rotation], half_angle, radius, width, height))


def reference_bowtie(rotation, half_angle, radius, width, height):
    """Two opposing wedges about the grid center, from a fresh meshgrid."""
    if not 0.0 < half_angle < np.pi / 2:
        raise SceneError("wedge half-angle must lie in (0, pi/2), got %r" % (half_angle,))
    if radius <= 0 or 2.0 * radius > min(width, height):
        raise SceneError("bow-tie radius must be positive and fit inside the grid")
    cx, cy = width / 2.0, height / 2.0
    x = (np.arange(width) + 0.5) - cx
    y = (np.arange(height) + 0.5) - cy
    xx, yy = np.meshgrid(x, y)
    rr = np.hypot(xx, yy)
    psi = (np.arctan2(yy, xx) - rotation) % np.pi
    psi = np.where(psi > np.pi / 2, psi - np.pi, psi)
    return (rr <= radius) & (np.abs(psi) <= half_angle)


def _reference_cell_sums(lo, mask, cell_size, lo_power):
    """(LO sums, passed sums, total): the per-cell LO and passed power of
    each cell holding LO power, from full-length `bincount`s over the grid."""
    total = float(lo_power.sum())
    if not lo.any():
        raise SceneError("LO bitmap carries no power (empty LO)")
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power: the weight map is zero on "
                         "all %d of its pixels" % np.count_nonzero(lo))
    ys = np.arange(lo.shape[0]) // cell_size
    xs = np.arange(lo.shape[1]) // cell_size
    cells = ys[:, None] * (int(xs[-1]) + 1) + xs[None, :]
    ncells = int(cells.max()) + 1
    per_cell_lo = np.bincount(cells.ravel(), weights=lo_power.ravel(), minlength=ncells)
    passed = lo_power * mask
    per_cell_passed = np.bincount(cells.ravel(), weights=passed.ravel(), minlength=ncells)
    keep = per_cell_lo > 0.0
    return per_cell_lo[keep], per_cell_passed[keep], total


def reference_decompose(lo, mask, cell_size, weight_map=None):
    """(weights, transmissions): the LO weight fraction and mask power
    transmission of each cell holding LO power, from full-grid sums."""
    w = np.ones(lo.shape) if weight_map is None else np.asarray(weight_map, float)
    lo_sums, passed_sums, total = _reference_cell_sums(lo, mask, cell_size, w * lo)
    return lo_sums / total, passed_sums / lo_sums


def reference_overlaps(lo, mask, cell_size, weight_map=None):
    """(overlap, root overlap) from full-grid sums in the runtime's
    arithmetic: the LO power scaled to a largest entry of 1, then
    O = sum(p_i) / total and Q = sum(l_i sqrt(p_i / l_i)) / total over the
    cells holding LO power, each clamped at 1."""
    w = np.ones(lo.shape) if weight_map is None else np.asarray(weight_map, float)
    lo_power = w * lo
    peak = lo_power.max()
    if peak > 0.0:
        lo_power = lo_power / peak
    lo_sums, passed_sums, total = _reference_cell_sums(lo, mask, cell_size, lo_power)
    return (min(float(np.sum(passed_sums)) / total, 1.0),
            min(float(np.sum(lo_sums * np.sqrt(passed_sums / lo_sums))) / total, 1.0))


def cell_moments(weights, transmissions):
    """(overlap, root overlap) of per-cell LO weight fractions and mask
    transmissions: sum(w T) and sum(w sqrt(T))."""
    w, t = np.asarray(weights, dtype=float), np.asarray(transmissions, dtype=float)
    return float(np.sum(w * t)), float(np.sum(w * np.sqrt(t)))


def reference_load_pbm(path):
    """Read a plain P1 portable bitmap file, one whitespace token at a time."""
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
    if min(width, height) < 1:
        raise SceneError("%s: P1 width and height must be >= 1" % (path,))
    bits = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    return bits.reshape(height, width).astype(bool)


def save_pbm(bits, path):
    """Write a 2-D bool array as a plain P1 portable bitmap file."""
    height, width = bits.shape
    lines = ["P1", "%d %d" % (width, height)]
    for row in bits:
        lines.append(" ".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
