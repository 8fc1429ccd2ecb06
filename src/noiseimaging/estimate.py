"""Curve fitting, overlap-uncertainty figures of merit and letter recognition.

The noise-vs-overlap curve is fitted in two stages: a straight line through
the high-overlap points (O > 0.8) is extrapolated to unit overlap, and that
synthetic point joins the data in an unweighted cubic fit.  The estimation
sensitivity at a given overlap is delta_n divided by the magnitude of the
fitted slope; slopes that are too small or statistically unresolved are
flagged insensitive and evaluated at a slope floor instead of silently
diverging.  A point's noise, standard error and delta_n arrive measured:
`traces.measure_series` is the one home of a series' summary.

Results come back in the form their artifact holds them: curve points,
overlap uncertainties and the enhancement as the dicts summary.json writes,
each fitted curve as its fits.json record, each alphabet record as an
alphabet.csv row keyed by column name, and each technique's ranking as its
ranking.json dict.
"""

from math import fsum, log10, nan, sqrt

# scene before numpy: a module compiled after numpy loads raises the peak RSS
from . import scene
import numpy as np

from .noise import (
    TECH_CLASSICAL,
    TECH_QUANTUM,
    TECHNIQUES,
    lo_power_check,
    technique_noise,
)
from .traces import derive_seed, measure_series

CURVE_MIN_POINTS = 5
LINEAR_STAGE_MIN_OVERLAP = 0.8
ENHANCEMENT_MIN_OVERLAP = 0.9
SLOPE_FLOOR = 1e-3
SLOPE_SIGNIFICANCE = 3.0

FLOOR_REASON = "below electronic noise floor"


class EstimationError(ValueError):
    """Raised for degenerate fits or empty estimation subsets."""


def _lstsq_with_cov(design, y, sigmas):
    """Least-squares coefficients of y on the rows of design, and their
    sandwich covariance G^-1 (X^T diag(sigma^2) X) G^-1 with G = X^T X.

    Fixed-order Python-float arithmetic on the normal equations: every sum is
    a correctly rounded math.fsum, so the fit does not depend on a BLAS core.
    The error grows with cond(G) u (Higham 2002, ch. 20), about 2e-12 on a
    desk sweep. A pivot that is not positive, as a rank-deficient design
    gives, raises an EstimationError.
    """
    cols = range(len(design[0]))
    gram = [[fsum(row[i] * row[j] for row in design) for j in cols] for i in cols]
    inv = _spd_inverse(gram)
    xty = [fsum(row[i] * v for row, v in zip(design, y)) for i in cols]
    coeffs = [fsum(inv[i][k] * xty[k] for k in cols) for i in cols]
    middle = [[fsum(row[i] * row[j] * s * s for row, s in zip(design, sigmas))
               for j in cols] for i in cols]
    cov = [[fsum(inv[i][k] * middle[k][m] * inv[m][j] for k in cols for m in cols)
            for j in cols] for i in cols]
    return coeffs, cov


def _spd_inverse(gram):
    """Inverse of a small symmetric positive definite matrix, nested lists, by
    Gauss-Jordan elimination without pivoting.

    Each row is reduced by the unscaled pivot row, so a row equal to an
    earlier one, which two equal design columns give, reduces to an exact
    zero pivot.
    """
    n = len(gram)
    a = [list(row) + [float(i == j) for j in range(n)] for i, row in enumerate(gram)]
    for k in range(n):
        pivot = a[k][k]
        if not pivot > 0.0:
            raise EstimationError("the fit's design is rank deficient (pivot %d is %r)"
                                  % (k, pivot))
        for i in range(n):
            if i != k:
                f = a[i][k] / pivot
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return [[v / a[i][i] for v in a[i][n:]] for i in range(n)]


def _sigma(grad, cov):
    """Standard error of a linear function of fitted coefficients."""
    variance = fsum(g * c * h for g, row in zip(grad, cov) for h, c in zip(grad, row))
    return sqrt(max(variance, 0.0))


def linear_stage(overlaps):
    """Which overlaps the fit's linear stage uses, those above
    LINEAR_STAGE_MIN_OVERLAP, as a list of bools; an EstimationError when
    fewer than 2 are."""
    high = [o > LINEAR_STAGE_MIN_OVERLAP for o in overlaps]
    if sum(high) < 2:
        raise EstimationError(
            "need at least 2 points with overlap > %.1f for the linear stage"
            % LINEAR_STAGE_MIN_OVERLAP
        )
    return high


def fit_noise_curve(points):
    """Two-stage fit: line on O > 0.8 extrapolated to O = 1, then a cubic.

    Each point is a dict {"overlap", "n", "sigma_n", "delta_n"}: the mean
    noise over a repeated series, its standard error, and the typical
    single-measurement standard deviation (the "noise on the noise" entering
    the sensitivity figure of merit); the points come in strictly increasing
    overlap.  Returns (fit, cov): the curve's fits.json record, and the
    cubic's 4x4 coefficient covariance as nested lists.
    """
    if len(points) < CURVE_MIN_POINTS:
        raise EstimationError("need at least %d overlap points, got %d"
                              % (CURVE_MIN_POINTS, len(points)))
    o = [p["overlap"] for p in points]
    if any(b <= a for a, b in zip(o, o[1:])):
        raise EstimationError("overlap values must be strictly increasing")
    if any(v < 0 or v > 1 for v in o):
        raise EstimationError("overlap values must lie in [0, 1]")
    y = [p["n"] for p in points]
    sig = [p["sigma_n"] for p in points]

    high = [k for k, keep in enumerate(linear_stage(o)) if keep]
    lin, lin_cov = _lstsq_with_cov([(1.0, o[k]) for k in high], [y[k] for k in high],
                                   [sig[k] for k in high])
    n_at_unity = lin[0] + lin[1]
    sigma_unity = _sigma((1.0, 1.0), lin_cov)

    y.append(n_at_unity)
    sig.append(sigma_unity)
    design = [(1.0, v, v * v, v * v * v) for v in o + [1.0]]
    coeffs, cov = _lstsq_with_cov(design, y, sig)
    residuals = [v - fsum(x * c for x, c in zip(row, coeffs)) for row, v in zip(design, y)]
    fit = {
        "cubic_coeffs": coeffs,
        "coeff_sigmas": [sqrt(max(row[i], 0.0)) for i, row in enumerate(cov)],
        "linear_stage": {"intercept": lin[0], "slope": lin[1]},
        "synthetic_point": {"overlap": 1.0, "n": n_at_unity, "sigma": sigma_unity},
        "residual_rms": sqrt(fsum(v * v for v in residuals) / len(residuals)),
        "n_points": len(points),
    }
    return fit, cov


def snl_crossing(fit):
    """Overlap where a fitted curve crosses the SNL (first crossing on [0, 1]),
    None when it does not: the first sign change on 2001 evenly spaced
    overlaps, numpy's linspace grid, interpolated linearly."""
    c0, c1, c2, c3 = fit["cubic_coeffs"]
    for k in range(2001):
        o1 = k * (1.0 / 2000) if k < 2000 else 1.0
        v1 = c0 + o1 * (c1 + o1 * (c2 + o1 * c3)) - 1.0
        # a NaN changes sign against every value, as under np.sign
        if k and not (v0 > 0 < v1 or v0 < 0 > v1 or v0 == 0 == v1):
            return o0 - v0 * (o1 - o0) / (v1 - v0)
        o0, v0 = o1, v1
    return None


def overlap_uncertainty(fit, cov, o, delta_n):
    """Sensitivity delta_n / |dN/dO| at one overlap of a fitted curve (its
    fits.json record and coefficient covariance), with its slope context,
    as the dict {"overlap", "delta_o_est", "slope", "insensitive"}.

    When the fitted slope is below the floor or not statistically resolved,
    the point is flagged insensitive and the figure is evaluated at the
    slope floor so downstream ratios stay finite and comparable.
    """
    c = fit["cubic_coeffs"]
    slope = float(c[1] + 2.0 * c[2] * o + 3.0 * c[3] * o * o)
    slope_sigma = _sigma((0.0, 1.0, 2.0 * o, 3.0 * o * o), cov)
    resolved = abs(slope) >= max(SLOPE_FLOOR, SLOPE_SIGNIFICANCE * slope_sigma)
    effective = abs(slope) if resolved else SLOPE_FLOOR
    return {"overlap": float(o), "delta_o_est": float(delta_n) / effective,
            "slope": slope, "insensitive": not resolved}


def delta_o_table(points, fit, cov):
    """Overlap-uncertainty dicts at every point a curve was fitted to."""
    return [overlap_uncertainty(fit, cov, p["overlap"], p["delta_n"]) for p in points]


def _ratio(num, sigma_num, den, sigma_den):
    """num/den and its error, the two relative errors added in quadrature."""
    ratio = num / den
    sigma = ratio * sqrt((sigma_num / num) ** 2 + (sigma_den / den) ** 2)
    return float(ratio), float(sigma)


def _ratio_of_means(classical, quantum):
    """Ratio of mean classical to mean quantum uncertainty, with its error.

    The error propagates each side's standard error of the mean; a side with
    a single point contributes none.
    """
    return _ratio(*_mean_and_sem(classical), *_mean_and_sem(quantum))


def _mean_and_sem(vals):
    # numpy's pairwise sums set the bits of the enhancement factor
    vals = np.array(vals)
    sem = vals.std(ddof=1) / sqrt(len(vals)) if len(vals) > 1 else 0.0
    return float(vals.mean()), float(sem)


def high_overlap(points):
    """The points (dicts with an "overlap") at O >= ENHANCEMENT_MIN_OVERLAP,
    which the enhancement factor averages; an EstimationError when there are
    none."""
    kept = [p for p in points if p["overlap"] >= ENHANCEMENT_MIN_OVERLAP]
    if not kept:
        raise EstimationError("no overlap points at or above %g" % ENHANCEMENT_MIN_OVERLAP)
    return kept


def enhancement(classical_records, quantum_records):
    """Ratio of mean classical to mean quantum overlap uncertainty, at
    O >= ENHANCEMENT_MIN_OVERLAP, as the dict {"factor", "sigma", "n_points",
    "n_insensitive"}."""
    classical, quantum = high_overlap(classical_records), high_overlap(quantum_records)
    factor, sigma = _ratio_of_means([u["delta_o_est"] for u in classical],
                                    [u["delta_o_est"] for u in quantum])
    return {"factor": factor, "sigma": sigma, "n_points": len(classical) + len(quantum),
            "n_insensitive": sum(u["insensitive"] for u in classical + quantum)}


# ---------------------------------------------------------------------------
# alphabet gun

def _row(letter, technique, overlap, baseline, masked, deviation, sub_snl, reason):
    """One alphabet.csv row as a dict keyed by its column names; baseline,
    masked and deviation are (value, standard error) pairs, and a row that
    gives a reason is an excluded one."""
    (nb, sb), (nm, sm), (d, sigma_d) = baseline, masked, deviation
    return {
        "letter": letter, "technique": technique, "valid": int(not reason),
        "overlap": overlap,
        "n_baseline": nb, "n_baseline_db": 10.0 * log10(nb), "sigma_baseline": sb,
        "n_masked": nm, "n_masked_db": 10.0 * log10(nm), "sigma_masked": sm,
        "deviation": d, "sigma_deviation": sigma_d, "sub_snl": int(sub_snl), "reason": reason,
    }


def alphabet_gun(glyphs, mask, r, cfg):
    """Rank every LO letter of a loaded font by its masked-to-baseline noise
    deviation at squeezing r, with the source, cell size, series length, seed
    and acquisition fields of the run config cfg.

    Runs baseline (no mask) and masked measurements for both techniques for
    each letter; letters whose LO cannot clear the electronic floor are
    excluded from the rankings.  Quantum ranking is by smallest deviation
    with a sub-SNL flag on the masked noise; classical by largest retained
    deviation.  Returns (records, rankings): the alphabet.csv rows in letter
    order, and the ranking.json dict of each technique.
    """
    unmeasured = (nan, nan)
    records = []
    snl_joint = 1.0
    for letter, lo in glyphs.items():
        if not lo_power_check(np.count_nonzero(lo), cfg):
            records += [_row(letter, technique, nan, unmeasured, unmeasured, unmeasured,
                             False, FLOOR_REASON) for technique in TECHNIQUES]
            continue
        o, q = scene.overlaps(lo, mask, cfg.cell_size)
        for technique in TECHNIQUES:
            # the baseline has no mask: unit overlap and root overlap
            nb_true = technique_noise(technique, 1.0, 1.0, r, cfg)
            nm_true = technique_noise(technique, o, q, r, cfg)
            tags = (cfg.seed, "alphabet", letter, technique)
            (nb, sb, _), _ = measure_series(nb_true, cfg, derive_seed(*tags, "baseline"))
            (nm, sm, _), _ = measure_series(nm_true, cfg, derive_seed(*tags, "masked"))
            records.append(_row(
                letter, technique, o, (nb, sb), (nm, sm), _ratio(nm, sm, nb, sb),
                technique == TECH_QUANTUM and nm < snl_joint, "",
            ))
    rankings = {}
    for technique in TECHNIQUES:
        valid = [r for r in records if r["technique"] == technique and r["valid"]]
        if len(valid) < 2:
            raise EstimationError(
                "ranking needs two letters above the electronic floor, %d passed"
                % len(valid)
            )
        reverse = technique == TECH_CLASSICAL
        ordered = sorted(valid, key=lambda r: r["deviation"], reverse=reverse)
        best, runner = ordered[0], ordered[1]
        sep = abs(best["deviation"] - runner["deviation"]) / sqrt(
            best["sigma_deviation"]**2 + runner["sigma_deviation"]**2)
        rankings[technique] = {
            "ranking": [r["letter"] for r in ordered],
            "best": best["letter"],
            "runner_up": runner["letter"],
            "sigma_separation": float(sep),
            "sub_snl_letters": [r["letter"] for r in ordered if r["sub_snl"]],
        }
    return records, rankings
