"""References for the estimate layer.

`reference_fit` is the two-stage noise-curve fit through LAPACK (`lstsq`
for the coefficients, `pinv` of the Gram for the sandwich covariance) and
BLAS products, the way the runtime fitted before it summed the normal
equations in plain floats.  The tests require the same fit from both, to a
tolerance set by the Gram's condition number.

`numpy_snl_crossing` is the SNL crossing as the runtime computed it in
numpy arrays, before it moved it to Python floats.  The tests require the
same bits from both.
"""

import numpy as np

from noiseimaging.estimate import LINEAR_STAGE_MIN_OVERLAP


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


def numpy_snl_crossing(fit):
    """The first SNL crossing of a fitted curve on numpy's 2001-point grid."""
    os = np.linspace(0.0, 1.0, 2001)
    c = fit["cubic_coeffs"]
    vals = c[0] + os * (c[1] + os * (c[2] + os * c[3])) - 1.0
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        return None
    k = sign_change[0]
    o0, o1 = os[k], os[k + 1]
    v0, v1 = vals[k], vals[k + 1]
    return float(o0 - v0 * (o1 - o0) / (v1 - v0))

