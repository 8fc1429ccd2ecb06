"""References for the estimate layer.

`reference_fit` is the two-stage noise-curve fit through LAPACK (`lstsq`
for the coefficients, `pinv` of the Gram for the sandwich covariance) and
BLAS products, the way the runtime fitted before it summed the normal
equations in plain floats.  The tests require the same fit from both, to a
tolerance set by the Gram's condition number.

`reference_angle_deltas` finds each record's angle by interpolating the
O(angle) table, then the table segment holding that angle, the way the
runtime did before it searched the overlaps once.  The tests require the
same angle uncertainties from both.
"""

import numpy as np

from noiseimaging.estimate import (
    ENHANCEMENT_MIN_OVERLAP,
    LINEAR_STAGE_MIN_OVERLAP,
    EstimationError,
)


def reference_lstsq_with_cov(design, y, sigmas):
    """Least-squares coefficients and their sandwich covariance, by LAPACK."""
    design = np.asarray(design, dtype=float)
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    gram_inv = np.linalg.pinv(design.T @ design)
    middle = design.T @ (design * np.asarray(sigmas, dtype=float)[:, None] ** 2)
    return coeffs, gram_inv @ middle @ gram_inv


def reference_fit(points):
    """The fit of distinct overlap points in [0, 1], with at least two above
    LINEAR_STAGE_MIN_OVERLAP, as a dict: the cubic's "design" (synthetic
    point included), "coeffs", "cov" and "residual_rms", the linear stage's
    "linear_design", "linear_coeffs" and "linear_cov", and the
    "synthetic_point"."""
    pts = sorted(points, key=lambda p: p["overlap"])
    o = np.array([p["overlap"] for p in pts])
    y = np.array([p["n"] for p in pts])
    sig = np.array([p["sigma_n"] for p in pts])
    high = o > LINEAR_STAGE_MIN_OVERLAP
    linear_design = np.column_stack([np.ones(high.sum()), o[high]])
    lin, lin_cov = reference_lstsq_with_cov(linear_design, y[high], sig[high])
    n_at_unity = float(lin[0] + lin[1])
    grad = np.array([1.0, 1.0])
    sigma_unity = float(np.sqrt(max(grad @ lin_cov @ grad, 0.0)))
    design = np.vander(np.append(o, 1.0), 4, increasing=True)
    y_aug = np.append(y, n_at_unity)
    coeffs, cov = reference_lstsq_with_cov(design, y_aug, np.append(sig, sigma_unity))
    residuals = y_aug - design @ coeffs
    return {"design": design, "coeffs": coeffs, "cov": cov,
            "residual_rms": float(np.sqrt(np.mean(residuals ** 2))),
            "linear_design": linear_design, "linear_coeffs": lin, "linear_cov": lin_cov,
            "synthetic_point": (1.0, n_at_unity, sigma_unity)}


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
