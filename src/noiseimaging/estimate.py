"""Curve fitting, overlap-uncertainty figures of merit and letter recognition.

The noise-vs-overlap curve is fitted in two stages: a straight line through
the high-overlap points (O > 0.8) is extrapolated to unit overlap, and that
synthetic point joins the data in an unweighted cubic fit.  The estimation
sensitivity at a given overlap is delta_n divided by the magnitude of the
fitted slope; slopes that are too small or statistically unresolved are
flagged insensitive and evaluated at a slope floor instead of silently
diverging.
"""

from dataclasses import dataclass

import numpy as np

from . import scene
from .noise import (
    TECH_CLASSICAL,
    TECH_QUANTUM,
    TECHNIQUES,
    lo_power_check,
    technique_noise,
)
from .traces import measure_series, seeded_config

LINEAR_STAGE_MIN_OVERLAP = 0.8
ENHANCEMENT_MIN_OVERLAP = 0.9
SLOPE_FLOOR = 1e-3
SLOPE_SIGNIFICANCE = 3.0

FLOOR_REASON = "below electronic noise floor"


class EstimationError(ValueError):
    """Raised for degenerate fits or empty estimation subsets."""


@dataclass(frozen=True)
class CurvePoint:
    """One overlap sample of a noise curve.

    n is the mean noise over the repeated series, sigma_n its standard
    error, and delta_n the typical single-measurement standard deviation
    (the "noise on the noise" entering the sensitivity figure of merit).
    """

    overlap: float
    n: float
    sigma_n: float
    delta_n: float


@dataclass(frozen=True)
class NoiseCurve:
    points: tuple
    coeffs: np.ndarray
    coeff_cov: np.ndarray
    linear_coeffs: tuple
    synthetic_point: tuple
    residual_rms: float

    def slope(self, o):
        c = self.coeffs
        return float(c[1] + 2.0 * c[2] * o + 3.0 * c[3] * o * o)

    def slope_sigma(self, o):
        return _sigma(np.array([0.0, 1.0, 2.0 * o, 3.0 * o * o]), self.coeff_cov)

    def snl_crossing(self):
        """Overlap where the fitted curve crosses the SNL (first crossing on [0, 1])."""
        os = np.linspace(0.0, 1.0, 2001)
        c = self.coeffs
        vals = c[0] + os * (c[1] + os * (c[2] + os * c[3])) - 1.0
        sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if len(sign_change) == 0:
            return None
        k = sign_change[0]
        o0, o1 = os[k], os[k + 1]
        v0, v1 = vals[k], vals[k + 1]
        return float(o0 - v0 * (o1 - o0) / (v1 - v0))


def _lstsq_with_cov(design, y, sigmas):
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    gram_inv = np.linalg.pinv(design.T @ design)
    middle = design.T @ (design * np.asarray(sigmas)[:, None] ** 2)
    cov = gram_inv @ middle @ gram_inv
    return coeffs, cov


def _sigma(grad, cov):
    """Standard error of a linear function of fitted coefficients."""
    return float(np.sqrt(max(grad @ cov @ grad, 0.0)))


def fit_noise_curve(points):
    """Two-stage fit: line on O > 0.8 extrapolated to O = 1, then a cubic."""
    pts = sorted(points, key=lambda p: p.overlap)
    if len(pts) < 5:
        raise EstimationError("need at least 5 overlap points, got %d" % len(pts))
    o = np.array([p.overlap for p in pts])
    if np.any(np.diff(o) <= 0):
        raise EstimationError("overlap values must be strictly increasing")
    if np.any((o < 0) | (o > 1)):
        raise EstimationError("overlap values must lie in [0, 1]")
    y = np.array([p.n for p in pts])
    sig = np.array([p.sigma_n for p in pts])

    high = o > LINEAR_STAGE_MIN_OVERLAP
    if np.count_nonzero(high) < 2:
        raise EstimationError(
            "need at least 2 points with overlap > %.1f for the linear stage"
            % LINEAR_STAGE_MIN_OVERLAP
        )
    design_lin = np.column_stack([np.ones(high.sum()), o[high]])
    lin, lin_cov = _lstsq_with_cov(design_lin, y[high], sig[high])
    n_at_unity = float(lin[0] + lin[1])
    sigma_unity = _sigma(np.array([1.0, 1.0]), lin_cov)

    o_aug = np.append(o, 1.0)
    y_aug = np.append(y, n_at_unity)
    sig_aug = np.append(sig, sigma_unity)
    design = np.vander(o_aug, 4, increasing=True)
    coeffs, cov = _lstsq_with_cov(design, y_aug, sig_aug)
    residuals = y_aug - design @ coeffs
    return NoiseCurve(
        points=tuple(pts),
        coeffs=coeffs,
        coeff_cov=cov,
        linear_coeffs=(float(lin[0]), float(lin[1])),
        synthetic_point=(1.0, n_at_unity, sigma_unity),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


@dataclass(frozen=True)
class OverlapUncertainty:
    """Sensitivity delta_n / |dN/dO| at one overlap, with its slope context.

    When the fitted slope is below the floor or not statistically resolved,
    the point is flagged insensitive and the figure is evaluated at the
    slope floor so downstream ratios stay finite and comparable.
    """

    overlap: float
    delta_o: float
    slope: float
    insensitive: bool


def overlap_uncertainty(curve, o, delta_n):
    slope = curve.slope(o)
    resolved = abs(slope) >= max(SLOPE_FLOOR, SLOPE_SIGNIFICANCE * curve.slope_sigma(o))
    effective = abs(slope) if resolved else SLOPE_FLOOR
    return OverlapUncertainty(
        overlap=float(o),
        delta_o=float(delta_n) / effective,
        slope=slope,
        insensitive=not resolved,
    )


def delta_o_table(curve):
    """Overlap-uncertainty records at every measured point of a curve."""
    return [overlap_uncertainty(curve, p.overlap, p.delta_n) for p in curve.points]


@dataclass(frozen=True)
class EnhancementResult:
    factor: float
    sigma: float
    n_points: int
    n_insensitive: int


def _ratio(num, sigma_num, den, sigma_den):
    """num/den and its error, the two relative errors added in quadrature."""
    ratio = num / den
    sigma = ratio * np.sqrt((sigma_num / num) ** 2 + (sigma_den / den) ** 2)
    return float(ratio), float(sigma)


def _ratio_of_means(classical, quantum):
    """Ratio of mean classical to mean quantum uncertainty, with its error.

    The error propagates each side's standard error of the mean; a side with
    a single point contributes none.
    """
    if len(classical) == 0 or len(quantum) == 0:
        raise EstimationError("no overlap points at or above %g" % ENHANCEMENT_MIN_OVERLAP)
    return _ratio(*_mean_and_sem(classical), *_mean_and_sem(quantum))


def _mean_and_sem(vals):
    sem = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return float(vals.mean()), float(sem)


def enhancement(classical_records, quantum_records):
    """Ratio of mean classical to mean quantum overlap uncertainty, at
    O >= ENHANCEMENT_MIN_OVERLAP."""
    classical = [u for u in classical_records if u.overlap >= ENHANCEMENT_MIN_OVERLAP]
    quantum = [u for u in quantum_records if u.overlap >= ENHANCEMENT_MIN_OVERLAP]
    return EnhancementResult(
        *_ratio_of_means(np.array([u.delta_o for u in classical]),
                         np.array([u.delta_o for u in quantum])),
        n_points=len(classical) + len(quantum),
        n_insensitive=sum(u.insensitive for u in classical + quantum),
    )


def angle_enhancement(angles, overlaps, classical_records, quantum_records):
    """(factor, sigma) of the angle estimate's enhancement, via the measured
    O(angle) table of the small-angle branch: angles ascending from alignment,
    overlaps strictly decreasing from 1.  The ratio is unit-free.
    """
    a = np.asarray(angles, dtype=float)
    o = np.asarray(overlaps, dtype=float)
    if a.shape != o.shape or a.ndim != 1 or len(a) < 2:
        raise EstimationError("angle calibration needs matching 1-D tables (>= 2 rows)")
    if np.any(np.diff(a) <= 0) or a[0] < 0:
        raise EstimationError("calibration angles must be >= 0 and strictly increasing")
    if np.any(np.diff(o) >= 0):
        raise EstimationError("calibration must be strictly monotone (overlap decreasing)")
    slopes = np.diff(o) / np.diff(a)
    return _ratio_of_means(_angle_deltas(o, slopes, classical_records),
                           _angle_deltas(o, slopes, quantum_records))


def _angle_deltas(overlaps, slopes, records):
    """Angle uncertainty of each record at O >= ENHANCEMENT_MIN_OVERLAP: its
    delta_o over |dO/d(angle)| of the table segment k with overlaps[k] >= O >
    overlaps[k + 1], the end segments extended past the table.
    """
    kept = [u for u in records if u.overlap >= ENHANCEMENT_MIN_OVERLAP]
    k = np.searchsorted(-overlaps, [-u.overlap for u in kept], side="right") - 1
    k = np.clip(k, 0, len(slopes) - 1)
    return np.array([u.delta_o for u in kept]) / np.abs(slopes[k])


# ---------------------------------------------------------------------------
# alphabet gun

@dataclass(frozen=True)
class DeviationRecord:
    """Masked-to-baseline noise deviation for one LO letter and technique."""

    letter: str
    technique: str
    valid: bool
    overlap: float = np.nan
    n_baseline: float = np.nan
    sigma_baseline: float = np.nan
    n_masked: float = np.nan
    sigma_masked: float = np.nan
    d: float = np.nan
    sigma_d: float = np.nan
    sub_snl: bool = False
    reason: str = ""


@dataclass(frozen=True)
class TechniqueRanking:
    """Letters ordered best first, and how far the best stands from the runner-up."""

    ranking: tuple
    sigma_separation: float
    sub_snl_letters: tuple


def summarize_series(ns, deltas, n_segments):
    """Mean noise, its standard error, and the mean per-trace delta_n of a
    series, from the per-trace arrays that `measure_series` returns.

    Segment means are near-independent, so one trace mean carries a standard
    deviation of about delta_n/sqrt(segments); averaging the series divides
    by sqrt(series count) again.
    """
    sem = deltas.mean() / np.sqrt(n_segments * len(ns))
    return float(ns.mean()), float(sem), float(deltas.mean())


def _measured_noise(n_true, cfg, n_series, master, *tags):
    ns, deltas = measure_series(n_true, seeded_config(cfg, master, *tags), n_series)
    n_mean, sem, _ = summarize_series(ns, deltas, cfg.n_segments)
    return n_mean, sem


def alphabet_gun(mask, params, acq_cfg, cell_size, font_dir=None, n_series=10,
                 power_per_pixel=1.0, master_seed=0):
    """Rank every LO letter by its masked-to-baseline noise deviation.

    Runs baseline (no mask) and masked measurements for both techniques for
    each letter; letters whose LO cannot clear the electronic floor are
    excluded from the rankings.  Quantum ranking is by smallest deviation
    with a sub-SNL flag on the masked noise; classical by largest retained
    deviation.  Returns (records, rankings): the per-letter records in
    letter order, and a TechniqueRanking per technique.
    """
    glyphs = scene.load_font(font_dir)
    records = []
    snl_joint = 1.0
    for letter in scene.LETTERS:
        lo = glyphs[letter]
        if not lo_power_check(lo, params, power_per_pixel):
            for technique in TECHNIQUES:
                records.append(DeviationRecord(
                    letter=letter, technique=technique, valid=False, reason=FLOOR_REASON,
                ))
            continue
        o, q = scene.overlaps(lo, mask, cell_size)
        for technique in TECHNIQUES:
            # the baseline has no mask: unit overlap and root overlap
            nb_true = technique_noise(technique, 1.0, 1.0, params)
            nm_true = technique_noise(technique, o, q, params)
            nb, sb = _measured_noise(
                nb_true, acq_cfg, n_series, master_seed,
                "alphabet", letter, technique, "baseline",
            )
            nm, sm = _measured_noise(
                nm_true, acq_cfg, n_series, master_seed,
                "alphabet", letter, technique, "masked",
            )
            d, sigma_d = _ratio(nm, sm, nb, sb)
            records.append(DeviationRecord(
                letter=letter, technique=technique, valid=True, overlap=o,
                n_baseline=nb, sigma_baseline=sb, n_masked=nm, sigma_masked=sm,
                d=d, sigma_d=sigma_d,
                sub_snl=(technique == TECH_QUANTUM and nm < snl_joint),
            ))
    rankings = {}
    for technique in TECHNIQUES:
        valid = [r for r in records if r.technique == technique and r.valid]
        if len(valid) < 2:
            raise EstimationError(
                "ranking needs two letters above the electronic floor, %d passed"
                % len(valid)
            )
        reverse = technique == TECH_CLASSICAL
        ordered = sorted(valid, key=lambda r: r.d, reverse=reverse)
        best, runner = ordered[0], ordered[1]
        sep = abs(best.d - runner.d) / np.sqrt(best.sigma_d**2 + runner.sigma_d**2)
        rankings[technique] = TechniqueRanking(
            ranking=tuple(r.letter for r in ordered),
            sigma_separation=float(sep),
            sub_snl_letters=tuple(r.letter for r in ordered if r.sub_snl),
        )
    return records, rankings
