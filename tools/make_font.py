#!/usr/bin/env python3
"""Generate the bundled A-Z bitmap font (64x64 plain P1 files).

Glyphs are authored on an 8x8 grid with thin horizontal bars and 2-px
vertical stems, then block-upscaled 8x.  The script enforces the properties
the simulator relies on before writing anything:

  * all glyphs share one canvas and are pairwise distinct,
  * no glyph is a subset of another (any LO/mask letter pair has overlap < 1),
  * 'I' has strictly the smallest pixel count (the dim-LO letter), with a
    clear gap to the runner-up so a detector floor can separate them,
  * every non-Z glyph's overlap with Z stays well below the recognition
    threshold used by the alphabet-gun profile.

Run from the repository root:  python tools/make_font.py
"""

import sys
from pathlib import Path

import numpy as np

GLYPHS = {
    "A": [
        "..####..",
        ".##..##.",
        "##....##",
        "##....##",
        "########",
        "##....##",
        "##....##",
        "##....##",
    ],
    "B": [
        "######..",
        "##...##.",
        "##...##.",
        "######..",
        "##...##.",
        "##...##.",
        "##...##.",
        "######..",
    ],
    "C": [
        ".######.",
        "##...##.",
        "##......",
        "##......",
        "##......",
        "##......",
        "##...##.",
        ".######.",
    ],
    "D": [
        "######..",
        "##...##.",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##...##.",
        "######..",
    ],
    "E": [
        "########",
        "##......",
        "##......",
        "#####...",
        "##......",
        "##......",
        "##......",
        "#######.",
    ],
    "F": [
        "########",
        "##......",
        "##......",
        "######..",
        "##......",
        "##......",
        "##......",
        "##......",
    ],
    "G": [
        ".######.",
        "##....##",
        "##......",
        "##......",
        "##..####",
        "##....##",
        "##....##",
        ".######.",
    ],
    "H": [
        "##....##",
        "##....##",
        "##....##",
        "########",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
    ],
    "I": [
        "..####..",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "..####..",
    ],
    "J": [
        "...#####",
        ".....##.",
        ".....##.",
        ".....##.",
        ".....##.",
        "##...##.",
        "##...##.",
        ".#####..",
    ],
    "K": [
        "##...##.",
        "##..##..",
        "##.##...",
        "####....",
        "####....",
        "##.##...",
        "##..##..",
        "##...##.",
    ],
    "L": [
        "##......",
        "##......",
        "##......",
        "##......",
        "##......",
        "##......",
        "########",
        "########",
    ],
    "M": [
        "##....##",
        "###..###",
        "########",
        "##.##.##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
    ],
    "N": [
        "##....##",
        "###...##",
        "###...##",
        "##.##.##",
        "##.##.##",
        "##...###",
        "##...###",
        "##....##",
    ],
    "O": [
        ".######.",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        ".######.",
    ],
    "P": [
        "#######.",
        "##....##",
        "##....##",
        "########",
        "##......",
        "##......",
        "##......",
        "##......",
    ],
    "Q": [
        ".######.",
        "##....##",
        "##....##",
        "##....##",
        "##.##.##",
        "##..####",
        ".######.",
        ".....###",
    ],
    "R": [
        "#######.",
        "##....##",
        "##....##",
        "#######.",
        "##.##...",
        "##..##..",
        "##...##.",
        "##....##",
    ],
    "S": [
        ".######.",
        "##....##",
        "##......",
        ".#####..",
        "......##",
        "......##",
        "##....##",
        ".######.",
    ],
    "T": [
        "########",
        "########",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
    ],
    "U": [
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        ".######.",
    ],
    "V": [
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        ".##..##.",
        ".##..##.",
        "..####..",
        "...##...",
    ],
    "W": [
        "##....##",
        "##....##",
        "##....##",
        "##....##",
        "##.##.##",
        "##.##.##",
        "########",
        ".##..##.",
    ],
    "X": [
        "##....##",
        ".##..##.",
        "..####..",
        "...##...",
        "...##...",
        "..####..",
        ".##..##.",
        "##....##",
    ],
    "Y": [
        "##....##",
        "##....##",
        ".##..##.",
        "..####..",
        "...##...",
        "...##...",
        "...##...",
        "...##...",
    ],
    "Z": [
        "########",
        ".....##.",
        "....##..",
        "...##...",
        "..##....",
        ".##.....",
        "##......",
        "########",
    ],
}

SCALE = 8
MAX_Z_OVERLAP = 0.72
MIN_COUNT_GAP = 1.15


def to_array(rows):
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


def check(arrays):
    errors = []
    counts = {k: int(v.sum()) for k, v in arrays.items()}
    shapes = {v.shape for v in arrays.values()}
    if shapes != {(8, 8)}:
        errors.append("glyphs must all be 8x8, got %s" % shapes)
    letters = sorted(arrays)
    for a in letters:
        for b in letters:
            if a == b:
                continue
            if np.array_equal(arrays[a], arrays[b]):
                errors.append("glyphs %s and %s are identical" % (a, b))
            elif not np.any(arrays[a] & ~arrays[b]):
                errors.append("glyph %s is a subset of %s (overlap would be 1)" % (a, b))
    ordered = sorted(counts.items(), key=lambda kv: kv[1])
    if ordered[0][0] != "I":
        errors.append("least-ink glyph is %s, expected I: %s" % (ordered[0][0], ordered[:4]))
    elif ordered[1][1] < MIN_COUNT_GAP * ordered[0][1]:
        errors.append("ink gap I -> %s too small: %s" % (ordered[1][0], ordered[:3]))
    z = arrays["Z"]
    for a in letters:
        if a == "Z":
            continue
        o = (arrays[a] & z).sum() / counts[a]
        if o > MAX_Z_OVERLAP:
            errors.append("overlap(%s, Z) = %.3f exceeds %.2f" % (a, o, MAX_Z_OVERLAP))
    return errors, counts


def render(arrays):
    """{file name: plain P1 text} of each glyph, block-upscaled SCALE times."""
    files = {}
    for letter, arr in sorted(arrays.items()):
        big = np.kron(arr, np.ones((SCALE, SCALE), dtype=bool))
        lines = ["P1", "%d %d" % (big.shape[1], big.shape[0])]
        lines += [" ".join("1" if v else "0" for v in row) for row in big]
        files["%s.pbm" % letter] = "\n".join(lines) + "\n"
    return files


def main():
    out_dir = Path(__file__).resolve().parents[1] / "src" / "noiseimaging" / "font"
    arrays = {k: to_array(v) for k, v in GLYPHS.items()}
    errors, counts = check(arrays)
    if errors:
        for e in errors:
            print("FONT CHECK FAILED:", e, file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in render(arrays).items():
        (out_dir / name).write_text(text, encoding="ascii")
    z = arrays["Z"]
    for letter, arr in sorted(arrays.items()):
        o = (arr & z).sum() / counts[letter]
        print("%s  ink=%2d (%4d px at 64x64)  overlap_with_Z=%.3f"
              % (letter, counts[letter], counts[letter] * SCALE * SCALE, o))
    print("wrote %d glyphs to %s" % (len(arrays), out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
