"""Curve fitting, overlap-uncertainty figures of merit and letter recognition.

The noise-vs-overlap curve is fitted in two stages: a straight line through
the high-overlap points (O > 0.8) is extrapolated to unit overlap, and that
synthetic point joins the data in an unweighted cubic fit.  The estimation
sensitivity at a given overlap is delta_n divided by the magnitude of the
fitted slope; slopes that are too small or statistically unresolved are
flagged insensitive and evaluated at a slope floor instead of silently
diverging.
"""

from dataclasses import dataclass, field

import numpy as np

from . import scene
from .noise import (
    TECH_CLASSICAL,
    TECH_QUANTUM,
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
    technique: str
    points: tuple
    coeffs: np.ndarray
    coeff_cov: np.ndarray
    linear_coeffs: tuple
    synthetic_point: tuple
    residual_rms: float

    def value(self, o):
        return float(np.polynomial.polynomial.polyval(o, self.coeffs))

    def slope(self, o):
        c = self.coeffs
        return float(c[1] + 2.0 * c[2] * o + 3.0 * c[3] * o * o)

    def slope_sigma(self, o):
        grad = np.array([0.0, 1.0, 2.0 * o, 3.0 * o * o])
        var = float(grad @ self.coeff_cov @ grad)
        return float(np.sqrt(max(var, 0.0)))

    def snl_crossing(self, lo=0.0, hi=1.0, n_grid=2001):
        """Overlap where the fitted curve crosses the SNL (first crossing)."""
        os = np.linspace(lo, hi, n_grid)
        vals = np.polynomial.polynomial.polyval(os, self.coeffs) - 1.0
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


def fit_noise_curve(points, technique=""):
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
    sigma_unity = float(np.sqrt(max(np.array([1.0, 1.0]) @ lin_cov @ np.array([1.0, 1.0]), 0.0)))

    o_aug = np.append(o, 1.0)
    y_aug = np.append(y, n_at_unity)
    sig_aug = np.append(sig, sigma_unity)
    design = np.vander(o_aug, 4, increasing=True)
    coeffs, cov = _lstsq_with_cov(design, y_aug, sig_aug)
    residuals = y_aug - design @ coeffs
    return NoiseCurve(
        technique=technique,
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


def overlap_uncertainty(curve, o, delta_n, slope_floor=SLOPE_FLOOR,
                        significance=SLOPE_SIGNIFICANCE):
    slope = curve.slope(o)
    resolved = abs(slope) >= max(slope_floor, significance * curve.slope_sigma(o))
    effective = abs(slope) if resolved else slope_floor
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


@dataclass(frozen=True)
class EstimationResult:
    """Sensitivity analysis of one classical/quantum curve pair.

    delta_o holds the per-overlap uncertainty records for both techniques;
    the factors compare mean sensitivities over the high-overlap subset.
    """

    delta_o: dict
    enhancement: EnhancementResult
    angle_enhancement: EnhancementResult = None
    angle_note: str = ""


def _ratio_of_means(classical, quantum, n_insensitive, o_min):
    """Ratio of mean classical to mean quantum uncertainty, with its error.

    The error propagates each side's standard error of the mean; a side with
    a single point contributes none.
    """
    if len(classical) == 0 or len(quantum) == 0:
        raise EstimationError("no overlap points at or above %g" % o_min)
    mc, sc = _mean_and_sem(classical)
    mq, sq = _mean_and_sem(quantum)
    factor = mc / mq
    sigma = factor * np.sqrt((sc / mc) ** 2 + (sq / mq) ** 2)
    return EnhancementResult(
        factor=float(factor),
        sigma=float(sigma),
        n_points=len(classical) + len(quantum),
        n_insensitive=n_insensitive,
    )


def _mean_and_sem(vals):
    sem = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return float(vals.mean()), float(sem)


def enhancement(classical_records, quantum_records, o_min=ENHANCEMENT_MIN_OVERLAP):
    """Ratio of mean classical to mean quantum overlap uncertainty, O >= o_min."""
    classical = [u for u in classical_records if u.overlap >= o_min]
    quantum = [u for u in quantum_records if u.overlap >= o_min]
    return _ratio_of_means(
        np.array([u.delta_o for u in classical]),
        np.array([u.delta_o for u in quantum]),
        sum(u.insensitive for u in classical + quantum),
        o_min,
    )


# ---------------------------------------------------------------------------
# angle calibration

@dataclass(frozen=True)
class AngleCalibration:
    """Monotone lookup between LO rotation angle and LO-mask overlap.

    Valid on the small-angle branch: angles ascending from alignment,
    overlaps strictly decreasing from 1.  Units of angle are whatever the
    table uses; enhancement ratios are unit-free.
    """

    angles: np.ndarray
    overlaps: np.ndarray

    def __post_init__(self):
        a = np.array(self.angles, dtype=float)
        o = np.array(self.overlaps, dtype=float)
        if a.shape != o.shape or a.ndim != 1 or len(a) < 2:
            raise EstimationError("angle calibration needs matching 1-D tables (>= 2 rows)")
        if np.any(np.diff(a) <= 0) or a[0] < 0:
            raise EstimationError("calibration angles must be >= 0 and strictly increasing")
        if np.any(np.diff(o) >= 0):
            raise EstimationError("calibration must be strictly monotone (overlap decreasing)")
        a.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "overlaps", o)

    @classmethod
    def from_ideal_bowtie(cls, half_angle, angles):
        angles = np.asarray(angles, dtype=float)
        return cls(angles=angles, overlaps=1.0 - angles / (2.0 * half_angle))

    def _segment(self, delta):
        k = int(np.searchsorted(self.angles, delta, side="right")) - 1
        return min(max(k, 0), len(self.angles) - 2)

    def overlap_at(self, delta):
        return float(np.interp(delta, self.angles, self.overlaps))

    def slope_at(self, delta):
        """dO/d(angle) of the piecewise-linear lookup at this angle."""
        k = self._segment(delta)
        return float(
            (self.overlaps[k + 1] - self.overlaps[k]) / (self.angles[k + 1] - self.angles[k])
        )

    def angle_for(self, overlap):
        return float(np.interp(overlap, self.overlaps[::-1], self.angles[::-1]))


def estimate_sensitivity(classical_curve, quantum_curve, calibration=None,
                         o_min=ENHANCEMENT_MIN_OVERLAP):
    """Per-overlap uncertainty tables and enhancement factors for a curve pair."""
    tables = {
        classical_curve.technique: delta_o_table(classical_curve),
        quantum_curve.technique: delta_o_table(quantum_curve),
    }
    classical_table = tables[classical_curve.technique]
    quantum_table = tables[quantum_curve.technique]
    factor = enhancement(classical_table, quantum_table, o_min)
    angle_factor, note = None, ""
    if calibration is not None:
        try:
            angle_factor = angle_enhancement(calibration, classical_table,
                                             quantum_table, o_min)
        except EstimationError as exc:
            note = str(exc)
    return EstimationResult(delta_o=tables, enhancement=factor,
                            angle_enhancement=angle_factor, angle_note=note)


def angle_enhancement(calibration, classical_records, quantum_records,
                      o_min=ENHANCEMENT_MIN_OVERLAP):
    """Enhancement of the angle estimate, via the O(angle) calibration."""

    def in_angle(records):
        return np.array([
            u.delta_o / abs(calibration.slope_at(calibration.angle_for(u.overlap)))
            for u in records if u.overlap >= o_min
        ])

    return _ratio_of_means(in_angle(classical_records), in_angle(quantum_records), 0, o_min)


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
    technique: str
    ranking: tuple
    best: str
    runner_up: str
    sigma_separation: float
    sub_snl_letters: tuple


@dataclass(frozen=True)
class AlphabetResult:
    records: tuple
    rankings: dict
    excluded: tuple = field(default_factory=tuple)

    def record(self, letter, technique):
        for rec in self.records:
            if rec.letter == letter and rec.technique == technique:
                return rec
        raise KeyError((letter, technique))


def summarize_series(measurements, n_segments):
    """Mean noise, its standard error, and the mean per-trace delta_n.

    Segment means are near-independent, so one trace mean carries a standard
    deviation of about delta_n/sqrt(segments); averaging the series divides
    by sqrt(series count) again.
    """
    ns = np.array([m.n for m in measurements])
    deltas = np.array([m.delta_n for m in measurements])
    sem = deltas.mean() / np.sqrt(n_segments * len(ns))
    return float(ns.mean()), float(sem), float(deltas.mean())


def _measured_noise(n_true, cfg, n_series, technique, master, *tags):
    series = measure_series(
        n_true, seeded_config(cfg, master, *tags), n_series, technique=technique
    )
    n_mean, sem, _ = summarize_series(series, cfg.n_segments)
    return n_mean, sem


def alphabet_gun(mask, params, acq_cfg, grid, font_dir=None, n_series=10,
                 power_per_pixel=1.0, master_seed=0):
    """Rank every LO letter by its masked-to-baseline noise deviation.

    Runs baseline (no mask) and masked measurements for both techniques for
    each letter; letters whose LO cannot clear the electronic floor are
    excluded from the rankings.  Quantum ranking is by smallest deviation
    with a sub-SNL flag on the masked noise; classical by largest retained
    deviation.
    """
    glyphs = scene.load_font(font_dir)
    full = scene.full_bitmap(mask.width, mask.height)
    records = []
    excluded = []
    snl_joint = 1.0
    for letter in scene.LETTERS:
        lo = glyphs[letter]
        if not lo_power_check(lo, params, power_per_pixel):
            excluded.append((letter, FLOOR_REASON))
            for technique in (TECH_CLASSICAL, TECH_QUANTUM):
                records.append(DeviationRecord(
                    letter=letter, technique=technique, valid=False, reason=FLOOR_REASON,
                ))
            continue
        base_decomp = scene.decompose(lo, full, grid)
        masked_decomp = scene.decompose(lo, mask, grid)
        o = masked_decomp.overlap
        for technique in (TECH_CLASSICAL, TECH_QUANTUM):
            nb_true = technique_noise(technique, base_decomp, params)
            nm_true = technique_noise(technique, masked_decomp, params)
            nb, sb = _measured_noise(
                nb_true, acq_cfg, n_series, technique, master_seed,
                "alphabet", letter, technique, "baseline",
            )
            nm, sm = _measured_noise(
                nm_true, acq_cfg, n_series, technique, master_seed,
                "alphabet", letter, technique, "masked",
            )
            d = nm / nb
            sigma_d = d * np.sqrt((sm / nm) ** 2 + (sb / nb) ** 2)
            records.append(DeviationRecord(
                letter=letter, technique=technique, valid=True, overlap=o,
                n_baseline=nb, sigma_baseline=sb, n_masked=nm, sigma_masked=sm,
                d=float(d), sigma_d=float(sigma_d),
                sub_snl=(technique == TECH_QUANTUM and nm < snl_joint),
            ))
    rankings = {}
    for technique in (TECH_CLASSICAL, TECH_QUANTUM):
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
            technique=technique,
            ranking=tuple(r.letter for r in ordered),
            best=best.letter,
            runner_up=runner.letter,
            sigma_separation=float(sep),
            sub_snl_letters=tuple(r.letter for r in ordered if r.sub_snl),
        )
    return AlphabetResult(records=tuple(records), rankings=rankings,
                          excluded=tuple(excluded))
