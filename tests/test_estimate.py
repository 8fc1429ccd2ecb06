import math
from pathlib import Path

import numpy as np
import pytest

from noiseimaging import cli
from noiseimaging.config import RunConfig, load_config
from noiseimaging.estimate import (
    EstimationError,
    _lstsq_with_cov,
    _ratio_of_means,
    alphabet_gun,
    delta_o_table,
    enhancement,
    fit_noise_curve,
    overlap_uncertainty,
    snl_crossing,
)
from noiseimaging.noise import TECH_CLASSICAL, TECH_QUANTUM, TECHNIQUES, calibrate_r, quantum_noise
from noiseimaging.scene import load_font
from noiseimaging.traces import _summary
from estimate_reference import reference_fit


def point(overlap, n, sigma_n, delta_n):
    return {"overlap": overlap, "n": n, "sigma_n": sigma_n, "delta_n": delta_n}


def make_points(os, ns, sigma=1e-3, delta=0.02):
    return [point(o, n, sigma, delta) for o, n in zip(os, ns)]


def table(points):
    """The overlap-uncertainty table of the curve fitted to points."""
    return delta_o_table(points, *fit_noise_curve(points))


def slope_sigma(cov, o):
    """Standard error of a fitted cubic's slope at overlap o."""
    grad = np.array([0.0, 1.0, 2.0 * o, 3.0 * o * o])
    return float(np.sqrt(grad @ np.array(cov) @ grad))


def alphabet_profile(**acquisition):
    """(r, config) of the recognition-contrast calibration: deep pair squeezing
    with lossy arms, detected baseline still at -2.2 dB, and the given
    acquisition fields."""
    t = 0.44
    cfg = RunConfig(t_probe=t, t_conj=t, lock_noise=0.02, electronic_floor=1400.0,
                    **acquisition)
    return calibrate_r(2.2, cfg), cfg


class TestFitNoiseCurve:
    def test_exact_line_reproduced(self):
        os = np.linspace(0.05, 1.0, 12)
        pts = make_points(os, 1.0 + 0.13 * os)
        fit, _ = fit_noise_curve(pts)
        coeffs = fit["cubic_coeffs"]
        assert abs(coeffs[2]) < 1e-9
        assert abs(coeffs[3]) < 1e-9
        assert coeffs[1] == pytest.approx(0.13, abs=1e-9)
        assert fit["residual_rms"] < 1e-9

    def test_synthetic_point_is_linear_stage_at_unity(self):
        rng = np.random.default_rng(0)
        os = np.linspace(0.1, 0.99, 10)
        ns = 1.0 + 0.2 * os + rng.normal(0, 0.002, size=10)
        fit, _ = fit_noise_curve(make_points(os, ns))
        lin = fit["linear_stage"]
        assert fit["synthetic_point"]["n"] == pytest.approx(lin["intercept"] + lin["slope"],
                                                            abs=1e-12)

    def test_requires_five_points(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.5, 0.85, 0.95], [1, 1, 1, 1]))

    def test_requires_two_high_overlap_points(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.3, 0.5, 0.7, 0.85], [1] * 5))

    def test_rejects_duplicate_overlaps(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.5, 0.85, 0.85, 0.95], [1] * 5))

    def test_rejects_unsorted_overlaps(self):
        with pytest.raises(EstimationError, match="strictly increasing"):
            fit_noise_curve(make_points([0.1, 0.5, 0.95, 0.85, 0.9], [1] * 5))

    @pytest.mark.parametrize("os", [
        [0.1, 0.5, 0.85, 0.9, math.nextafter(1.0, 2.0)],
        [-5e-324, 0.5, 0.85, 0.9, 0.95],
    ], ids=["one-ulp-above-1", "below-0"])
    def test_rejects_overlaps_one_step_outside_the_unit_interval(self, os):
        with pytest.raises(EstimationError, match=r"must lie in \[0, 1\]"):
            fit_noise_curve(make_points(os, [1] * 5))

    def test_recovers_simulated_classical_slope(self):
        # full pipeline points at the desk-scale calibration
        from noiseimaging.noise import classical_noise
        from noiseimaging.traces import derive_seed, measure_series

        r = 0.2532843602293450
        cfg = RunConfig()
        pts = []
        for k, o in enumerate(np.linspace(0.0, 1.0, 12)):
            n_true = classical_noise(o, r, cfg)
            (n, sem, delta), _ = measure_series(n_true, cfg.replace(n_series=10),
                                                derive_seed(5, "slope", k))
            pts.append(point(float(o), n, sem, delta))
        fit, cov = fit_noise_curve(pts)
        true_slope = np.cosh(2 * r) - 1
        slope = overlap_uncertainty(fit, cov, 1.0, 0.02)["slope"]
        assert slope == pytest.approx(true_slope, abs=2 * 3 * slope_sigma(cov, 1.0))


U = np.finfo(float).eps / 2
# the fit (normal equations) and its LAPACK reference each err by at most a
# low-order polynomial in the column count times cond(X^T X) u (Higham 2002,
# ch. 20); n^2 = 16 for the cubic's four columns bounds that polynomial
FIT_TOL_FACTOR = 16
DESK = Path(__file__).resolve().parents[1] / "configs" / "desk_sweep.cfg"


def _fit_tol(design):
    """Relative tolerance of a fit on a design: FIT_TOL_FACTOR cond(X^T X) u."""
    design = np.asarray(design, dtype=float)
    return FIT_TOL_FACTOR * np.linalg.cond(design.T @ design) * U


def _assert_fit_matches_reference(points):
    want = reference_fit(points)
    got, cov = fit_noise_curve(points)
    norm = np.linalg.norm

    lin_tol, lin = _fit_tol(want["linear_design"]), want["linear_coeffs"]
    got_lin = (got["linear_stage"]["intercept"], got["linear_stage"]["slope"])
    assert norm(np.subtract(got_lin, lin)) <= lin_tol * norm(lin)
    n_unity, sigma_unity = got["synthetic_point"]["n"], got["synthetic_point"]["sigma"]
    assert n_unity == got_lin[0] + got_lin[1]
    # sigma^2 = g^T cov g with g = (1, 1): off by at most |g|^2 |cov| lin_tol
    d_var = abs(sigma_unity**2 - want["synthetic_point"][2]**2)
    assert d_var <= 2 * lin_tol * norm(want["linear_cov"], 2)

    # the cubic's own error, plus the error the synthetic point x1 carries
    # in: its n moves the coefficients by G^-1 x1 d_n and each residual by at
    # most d_n, and its variance moves the covariance by
    # (G^-1 x1)(G^-1 x1)^T d_var
    x, c = want["design"], want["coeffs"]
    tol = _fit_tol(x)
    d_n = abs(n_unity - want["synthetic_point"][1])
    g1 = norm(np.linalg.solve(x.T @ x, x[-1]))
    assert norm(np.subtract(got["cubic_coeffs"], c)) <= tol * norm(c) + g1 * d_n
    assert norm(np.subtract(cov, want["cov"])) <= tol * norm(want["cov"]) + g1**2 * d_var
    # a residual moves with X times the coefficients' error, and each one
    # rounds relative to y and Xc
    y = np.append([p["n"] for p in points], want["synthetic_point"][1])
    rms_tol = tol * (norm(x, 2) * norm(c) + norm(y)) + d_n
    assert abs(got["residual_rms"] - want["residual_rms"]) <= rms_tol / np.sqrt(len(x))


class TestFitAgainstLapack:
    @pytest.mark.parametrize("seed", [12345, 7, 99])
    def test_desk_sweep_points(self, seed):
        cfg = load_config(DESK).replace(seed=seed)
        readings = cli._angle_readings(cfg, cfg.resolve_r())
        for technique in TECHNIQUES:
            _assert_fit_matches_reference(cli._measure_curve(cfg, readings, technique)[1])

    def test_random_well_conditioned_designs(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_high = int(rng.integers(2, 7))
            # at least two overlaps in (0.8, 1] for the linear stage
            os = np.unique(np.concatenate([rng.uniform(0.0, 0.8, int(rng.integers(3, 11))),
                                           1.0 - rng.uniform(0.0, 0.2, n_high)]))
            coeffs = rng.uniform(-1.0, 1.0, 4)
            sigmas = rng.uniform(1e-4, 1e-2, len(os))
            ns = np.polynomial.polynomial.polyval(os, coeffs) + rng.normal(0.0, sigmas)
            points = [point(o, n, s, 0.02) for o, n, s in zip(os.tolist(), ns.tolist(),
                                                               sigmas.tolist())]
            _assert_fit_matches_reference(points)

    def test_rank_deficient_design_raises(self):
        os = [0.1, 0.3, 0.5, 0.85, 0.95]
        design = [(1.0, o, o) for o in os]
        with pytest.raises(EstimationError, match="rank deficient"):
            _lstsq_with_cov(design, [1.0 + o for o in os], [1e-3] * len(os))


class TestStandardErrors:
    def test_series_sem_divides_by_segments_times_series(self):
        # 460 points in segments of 10: 46 near-independent segment means per
        # trace, and 4 traces, so the series mean's error is the mean delta_n
        # over sqrt(46 * 4)
        ns = np.array([1.0, 1.2, 0.9, 1.1])
        deltas = np.array([0.02, 0.03, 0.025, 0.035])
        cfg = RunConfig(points_per_trace=460, segment_length=10)
        n_mean, sem, delta_mean = _summary(ns, deltas, cfg)
        assert n_mean == pytest.approx(1.05, rel=1e-15)
        assert delta_mean == pytest.approx(0.0275, rel=1e-15)
        assert sem == pytest.approx(0.0275 / math.sqrt(46 * 4), rel=1e-15)

    def test_ratio_of_means_uses_the_sample_standard_deviation(self):
        # means 2 and 1; sample (ddof=1) standard deviations 1 and 0.5, so
        # standard errors 1/sqrt(3) and 0.5/sqrt(3), relative errors of
        # 1/sqrt(12) each, and a ratio error of 2 sqrt(2/12) = 2/sqrt(6)
        factor, sigma = _ratio_of_means(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.5]))
        assert factor == 2.0
        assert sigma == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-12)


def _straight_curve(slope, sigma):
    """(fit, cov) of a curve of constant slope whose slope sigma is sigma everywhere."""
    cov = [[0.0] * 4 for _ in range(4)]
    cov[1][1] = sigma**2
    return {"cubic_coeffs": [1.0, slope, 0.0, 0.0]}, cov


class TestSlopeResolution:
    def test_slope_below_the_significance_is_insensitive(self):
        # 2.5 sigma: above the floor, resolved at 2 sigma, not at 3
        curve = _straight_curve(0.025, 0.01)
        assert slope_sigma(curve[1], 0.95) == pytest.approx(0.01, rel=1e-12)
        u = overlap_uncertainty(*curve, 0.95, 0.02)
        assert u["insensitive"]
        assert u["delta_o_est"] == pytest.approx(0.02 / 1e-3)

    def test_slope_above_the_significance_is_resolved(self):
        u = overlap_uncertainty(*_straight_curve(0.035, 0.01), 0.95, 0.02)
        assert not u["insensitive"]
        assert u["delta_o_est"] == pytest.approx(0.02 / 0.035)


class TestSnlCrossing:
    def test_lands_on_a_known_root(self):
        # N(O) - 1 = (O - r)(s + q (O - r) + t (O - r)^2): slope s = 0.5 and
        # curvature 2q = 2 at the root. Interpolating linearly across a grid
        # cell of width h misses the root by at most h^2 max|N''| / (8 min|N'|)
        # = h^2 / 2 here: 1.25e-7 on the 2001-point grid (h = 5e-4) and
        # 1.25e-5 on a 201-point one, which this root, mid-cell there, nearly
        # reaches. The bound allows twice the first.
        r, s, q, t = 0.40237, 0.5, 1.0, 0.5
        shifted = np.polynomial.polynomial.polymul([-r, 1.0], [s - q * r + t * r * r,
                                                               q - 2 * t * r, t])
        coeffs = shifted + np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(snl_crossing({"cubic_coeffs": coeffs.tolist()}) - r) <= 2.5e-7


class TestOverlapUncertainty:
    def curve(self):
        os = np.linspace(0.0, 1.0, 12)
        return fit_noise_curve(make_points(os, 1.0 + 0.5 * os, sigma=1e-6))

    def test_linear_in_delta_n(self):
        curve = self.curve()
        a = overlap_uncertainty(*curve, 0.9, 0.02)
        b = overlap_uncertainty(*curve, 0.9, 0.04)
        assert b["delta_o_est"] == pytest.approx(2 * a["delta_o_est"], rel=1e-12)
        assert not a["insensitive"]

    def test_flat_curve_flagged_insensitive(self):
        os = np.linspace(0.0, 1.0, 12)
        curve = fit_noise_curve(make_points(os, np.ones(12), sigma=1e-6))
        u = overlap_uncertainty(*curve, 0.95, 0.02)
        assert u["insensitive"]
        # evaluated at the slope floor instead of diverging
        assert u["delta_o_est"] == pytest.approx(0.02 / 1e-3)

    def test_unresolved_slope_flagged(self):
        rng = np.random.default_rng(1)
        os = np.linspace(0.0, 1.0, 16)
        ns = 1.0 + rng.normal(0, 0.002, size=16)
        curve = fit_noise_curve(make_points(os, ns, sigma=0.002))
        flags = [overlap_uncertainty(*curve, o, 0.02)["insensitive"] for o in (0.9, 0.95, 1.0)]
        assert all(flags)


class TestEnhancement:
    def test_identical_inputs_give_unity(self):
        t = table(make_points(np.linspace(0, 1, 12), 1 + 0.3 * np.linspace(0, 1, 12)))
        result = enhancement(t, t)
        assert result["factor"] == 1.0

    def test_counts_insensitive_points_of_both_techniques(self):
        def records(flags):
            return [{"overlap": o, "delta_o_est": 0.01, "slope": 0.5, "insensitive": f}
                    for o, f in zip((0.5, 0.9, 0.95, 1.0), flags)]

        # the point below ENHANCEMENT_MIN_OVERLAP is not averaged, so not counted
        result = enhancement(records([True, False, False, False]),
                             records([True, False, True, False]))
        assert result["n_points"] == 6
        assert result["n_insensitive"] == 1

    def test_empty_subset_rejected(self):
        t = table(
            make_points([0.1, 0.2, 0.3, 0.82, 0.85], 1 + 0.3 * np.array([0.1, 0.2, 0.3, 0.82, 0.85]))
        )
        with pytest.raises(EstimationError):
            enhancement(t, t)

    def test_analytic_ratio_for_clean_curves(self):
        # binary-cell desk calibration: the O >= 0.9 enhancement approaches
        # (Nc/|Nc'|) / (Nq/|Nq'|) evaluated at the subset's mean overlap
        r = 0.2532843602293450
        e, c, c2 = np.exp(-2 * r), np.cosh(2 * r), np.cosh(r) ** 2
        os = np.array([0.0, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0])
        kappa = 0.02
        cl = make_points(os, 1 + (c - 1) * os, sigma=1e-9)
        qu = make_points(os, c2 - (c2 - e) * os, sigma=1e-9)
        cl = [dict(p, delta_n=kappa * p["n"]) for p in cl]
        qu = [dict(p, delta_n=kappa * p["n"]) for p in qu]
        result = enhancement(table(cl), table(qu))
        obar = os[os >= 0.9].mean()
        nc, nq = 1 + (c - 1) * obar, c2 - (c2 - e) * obar
        expected = (nc / (c - 1)) / (nq / (c2 - e))
        assert result["factor"] == pytest.approx(expected, rel=1e-6)

    def test_pipeline_recovers_analytic_delta_o(self):
        # synthetic cubic with known per-point delta_n: the estimated
        # delta_o stays within 10% of delta_n/|N'(O)| on average
        rng = np.random.default_rng(2)
        coeffs = np.array([1.1, -0.5, 0.1, 0.05])
        os = np.linspace(0.0, 1.0, 15)
        truth = np.polynomial.polynomial.polyval(os, coeffs)
        errs = []
        for _ in range(100):
            sigma = 0.004
            ns = truth + rng.normal(0, sigma, size=len(os))
            pts = make_points(os, ns, sigma=sigma, delta=0.04)
            curve = fit_noise_curve(pts)
            for o in (0.3, 0.6, 0.9):
                slope_true = coeffs[1] + 2 * coeffs[2] * o + 3 * coeffs[3] * o**2
                u = overlap_uncertainty(*curve, o, 0.04)
                errs.append(u["delta_o_est"] / (0.04 / abs(slope_true)) - 1.0)
        assert abs(np.mean(errs)) < 0.1

    def test_estimate_sensitivity_bundle(self):
        os = np.linspace(0.0, 1.0, 10)
        kappa = 0.02
        nc, nq = 1 + 0.2 * os, 1.2 - 0.5 * os
        tc = table([point(float(o), float(v), 1e-6, kappa * float(v))
                    for o, v in zip(os, nc)])
        tq = table([point(float(o), float(v), 1e-6, kappa * float(v))
                    for o, v in zip(os, nq)])
        assert len(tc) == len(tq) == 10
        # only O = 1 is at or above 0.9: delta_o is kappa N / |N'| there
        assert enhancement(tc, tq)["factor"] == pytest.approx((1.2 / 0.2) / (0.7 / 0.5),
                                                              rel=1e-9)

    def test_advantage_regime_always_enhances(self):
        # balanced lossless arms with any squeezing and no lock noise keep
        # the high-overlap enhancement above 1
        os = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0])
        kappa = 0.02
        for r in (0.1, 0.3, 0.6, 1.0):
            e, c, c2 = np.exp(-2 * r), np.cosh(2 * r), np.cosh(r) ** 2
            cl = [point(float(o), 1 + (c - 1) * o, 1e-9, kappa * (1 + (c - 1) * o))
                  for o in os]
            qu = [point(float(o), c2 - (c2 - e) * o, 1e-9, kappa * (c2 - (c2 - e) * o))
                  for o in os]
            result = enhancement(table(cl), table(qu))
            assert result["factor"] > 1.0

    def test_common_gain_leaves_enhancement_unchanged(self):
        os = np.linspace(0.0, 1.0, 10)
        cl = make_points(os, 1 + 0.2 * os, delta=0.02)
        qu = make_points(os, 1.2 - 0.5 * os, delta=0.015)
        base = enhancement(table(cl), table(qu))["factor"]
        gain = 3.7
        cl2 = [point(p["overlap"], gain * p["n"], gain * p["sigma_n"], gain * p["delta_n"])
               for p in cl]
        qu2 = [point(p["overlap"], gain * p["n"], gain * p["sigma_n"], gain * p["delta_n"])
               for p in qu]
        scaled = enhancement(table(cl2), table(qu2))["factor"]
        assert scaled == pytest.approx(base, rel=1e-9)


def _assert_json_ready(value, path="result"):
    """Every leaf a float, int, bool or str by exact type, in lists and str-keyed dicts."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, "%s has a %r key" % (path, type(key))
            _assert_json_ready(item, "%s.%s" % (path, key))
    elif type(value) is list:
        for i, item in enumerate(value):
            _assert_json_ready(item, "%s.%d" % (path, i))
    else:
        assert type(value) in (float, int, bool, str), "%s is %r" % (path, type(value))


def test_results_are_json_ready():
    # the CLI writes these as they are; a numpy scalar would fail json.dumps
    from noiseimaging.traces import derive_seed, measure_series

    r, cfg = alphabet_profile(samples_per_point=100, cell_size=8, n_series=2, seed=6)
    points, fits, tables = [], [], []
    for technique, slope in ((TECH_CLASSICAL, 0.2), (TECH_QUANTUM, -0.5)):
        pts = []
        for k, o in enumerate(np.linspace(0.0, 1.0, 8).tolist()):
            summary, _ = measure_series(1.2 + slope * o, cfg.replace(n_series=2),
                                        derive_seed(6, technique, k))
            pts.append(point(o, *summary))
        fit, cov = fit_noise_curve(pts)
        points.append(pts)
        fits.append(fit)
        tables.append(delta_o_table(pts, fit, cov))
    font = load_font()
    records, rankings = alphabet_gun(font, font["Z"], r, cfg)
    for name, result in [("points", points), ("fits", fits),
                         ("delta_o_table", tables),
                         ("enhancement", enhancement(*tables)),
                         ("records", records), ("rankings", rankings)]:
        _assert_json_ready(result, name)


class TestAlphabetGun:
    def test_all_ones_mask_gives_unit_deviation(self):
        r, cfg = alphabet_profile(cell_size=8, n_series=5, seed=3)
        mask = np.ones((64, 64), dtype=bool)
        records, _ = alphabet_gun(load_font(), mask, r, cfg)
        sems = []
        for rec in records:
            if not rec["valid"]:
                continue
            assert rec["deviation"] == pytest.approx(1.0, abs=6 * rec["sigma_deviation"])
            sems.append(rec["sigma_deviation"])
        assert len(sems) == 50  # 25 valid letters x 2 techniques

    def test_z_mask_structure(self):
        r, cfg = alphabet_profile(cell_size=8, n_series=5, seed=4)
        font = load_font()
        records, rankings = alphabet_gun(font, font["Z"], r, cfg)
        q = rankings[TECH_QUANTUM]
        c = rankings[TECH_CLASSICAL]
        assert q["best"] == "Z"
        assert q["sub_snl_letters"] == ["Z"]
        assert c["best"] == "Z"
        assert q["sigma_separation"] > c["sigma_separation"]
        assert sorted({r["letter"] for r in records if not r["valid"]}) == ["I"]

    def test_masked_noise_just_above_the_snl_is_not_sub_snl(self):
        # a mismatched E whose true masked quantum noise is 1.005 SNL: its
        # measured mean, over 3 sigma_masked above 1, must not be flagged
        from scipy.optimize import brentq

        from noiseimaging.scene import overlaps

        _, cfg = alphabet_profile(cell_size=8, n_series=5, seed=7)
        cfg = cfg.replace(lock_noise=0.0)
        font = load_font()
        o, q = overlaps(font["E"], font["Z"], cfg.cell_size)
        r = brentq(lambda r: quantum_noise(o, q, r, cfg) - 1.005, 0.0, 3.0)
        records, rankings = alphabet_gun({"E": font["E"], "Z": font["Z"]}, font["Z"], r, cfg)
        e = next(rec for rec in records
                 if rec["letter"] == "E" and rec["technique"] == TECH_QUANTUM)
        assert 1.0 + 3 * e["sigma_masked"] < e["n_masked"] < 1.01 - 2 * e["sigma_masked"]
        assert e["sub_snl"] == 0
        assert rankings[TECH_QUANTUM]["sub_snl_letters"] == ["Z"]

    def test_all_letters_reported_with_flags(self):
        font = load_font()
        records, _ = alphabet_gun(font, font["Z"],
                                  *alphabet_profile(cell_size=8, n_series=2, seed=5))
        assert len(records) == 52
        invalid = [r for r in records if not r["valid"]]
        assert {r["letter"] for r in invalid} == {"I"}
        assert all(r["reason"] for r in invalid)
