"""Full-grid reference for the scene layer's fast paths.

`reference_bowtie` rasterizes a bow-tie from a fresh meshgrid with numpy's
`%` and `np.where`, and `reference_decompose` sums every pixel of the grid
into a full-length float `bincount` per cell and returns the per-cell LO
weight fractions and mask transmissions; `cell_moments` turns those into
the overlap and root overlap.  The runtime folds only the disk pixels near
the wedge axis and sums only LO pixels; the tests require the same bits, and
the same moments to within rounding.  `reference_load_pbm` tokenizes a P1
file line by line as text, where the runtime parses its bytes.
"""

from pathlib import Path

import numpy as np

from noiseimaging.scene import Bitmap, SceneError


def reference_bowtie(rotation, half_angle, radius, width, height):
    """Two opposing wedges about the grid center, from a fresh polar grid."""
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
    bits = (rr <= radius) & (np.abs(psi) <= half_angle)
    return Bitmap(bits)


def reference_decompose(lo, mask, cell_size, weight_map=None):
    """(weights, transmissions): the LO weight fraction and mask power
    transmission of each cell holding LO power, from full-grid sums."""
    w = np.ones(lo.bits.shape) if weight_map is None else np.asarray(weight_map, float)
    lo_power = w * lo.bits
    total = float(lo_power.sum())
    if total <= 0.0:
        raise SceneError("LO bitmap carries no power (empty LO)")
    xs = np.arange(lo.width) // cell_size
    ys = np.arange(lo.height) // cell_size
    cells = ys[:, None] * (int(xs[-1]) + 1) + xs[None, :]
    ncells = int(cells.max()) + 1
    per_cell_lo = np.bincount(cells.ravel(), weights=lo_power.ravel(), minlength=ncells)
    passed = lo_power * mask.bits
    per_cell_passed = np.bincount(cells.ravel(), weights=passed.ravel(), minlength=ncells)
    keep = per_cell_lo > 0.0
    weights = per_cell_lo[keep] / total
    transmissions = per_cell_passed[keep] / per_cell_lo[keep]
    return weights, transmissions


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
    bits = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    return Bitmap(bits.reshape(height, width).astype(bool))


def save_pbm(bitmap, path):
    """Write a bitmap as a plain P1 portable bitmap file."""
    lines = ["P1", "%d %d" % (bitmap.width, bitmap.height)]
    for row in bitmap.bits:
        lines.append(" ".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
