"""Interpolate-then-search reference for the angle sensitivity lookup.

`reference_angle_deltas` finds each record's angle by interpolating the
O(angle) table, then the table segment holding that angle, the way the
runtime did before it searched the overlaps once.  The tests require the
same angle uncertainties from both.
"""

import numpy as np

from noiseimaging.estimate import ENHANCEMENT_MIN_OVERLAP, EstimationError


def reference_angle_deltas(angles, overlaps, records):
    """Angle uncertainty of each record at O >= ENHANCEMENT_MIN_OVERLAP."""
    a = np.array(angles, dtype=float)
    o = np.array(overlaps, dtype=float)
    if a.shape != o.shape or a.ndim != 1 or len(a) < 2:
        raise EstimationError("angle calibration needs matching 1-D tables (>= 2 rows)")
    if np.any(np.diff(a) <= 0) or a[0] < 0:
        raise EstimationError("calibration angles must be >= 0 and strictly increasing")
    if np.any(np.diff(o) >= 0):
        raise EstimationError("calibration must be strictly monotone (overlap decreasing)")

    def slope_at(angle):
        k = int(np.searchsorted(a, angle, side="right")) - 1
        k = min(max(k, 0), len(a) - 2)
        return float((o[k + 1] - o[k]) / (a[k + 1] - a[k]))

    return np.array([
        u["delta_o_est"] / abs(slope_at(float(np.interp(u["overlap"], o[::-1], a[::-1]))))
        for u in records if u["overlap"] >= ENHANCEMENT_MIN_OVERLAP
    ])
