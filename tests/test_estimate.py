import numpy as np
import pytest

from noiseimaging.config import RunConfig
from noiseimaging.estimate import (
    EstimationError,
    _angle_deltas,
    _ratio_of_means,
    alphabet_gun,
    angle_enhancement,
    delta_o_table,
    enhancement,
    fit_noise_curve,
    overlap_uncertainty,
)
from noiseimaging.noise import TECH_CLASSICAL, TECH_QUANTUM, calibrate_r
from noiseimaging.scene import load_font
from estimate_reference import reference_angle_deltas

ALPHA = np.pi / 8


def point(overlap, n, sigma_n, delta_n):
    return {"overlap": overlap, "n": n, "sigma_n": sigma_n, "delta_n": delta_n}


def make_points(os, ns, sigma=1e-3, delta=0.02):
    return [point(o, n, sigma, delta) for o, n in zip(os, ns)]


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
        curve = fit_noise_curve(pts)
        assert abs(curve.coeffs[2]) < 1e-9
        assert abs(curve.coeffs[3]) < 1e-9
        assert curve.coeffs[1] == pytest.approx(0.13, abs=1e-9)
        assert curve.residual_rms < 1e-9

    def test_synthetic_point_is_linear_stage_at_unity(self):
        rng = np.random.default_rng(0)
        os = np.linspace(0.1, 0.99, 10)
        ns = 1.0 + 0.2 * os + rng.normal(0, 0.002, size=10)
        curve = fit_noise_curve(make_points(os, ns))
        intercept, slope = curve.linear_coeffs
        assert curve.synthetic_point[1] == pytest.approx(intercept + slope, abs=1e-12)

    def test_requires_five_points(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.5, 0.85, 0.95], [1, 1, 1, 1]))

    def test_requires_two_high_overlap_points(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.3, 0.5, 0.7, 0.85], [1] * 5))

    def test_rejects_duplicate_overlaps(self):
        with pytest.raises(EstimationError):
            fit_noise_curve(make_points([0.1, 0.5, 0.85, 0.85, 0.95], [1] * 5))

    def test_recovers_simulated_classical_slope(self):
        # full pipeline points at the desk-scale calibration
        from noiseimaging.noise import classical_noise
        from noiseimaging.traces import derive_seed, measure_series
        from noiseimaging.estimate import summarize_series

        r = 0.2532843602293450
        cfg = RunConfig()
        pts = []
        for k, o in enumerate(np.linspace(0.0, 1.0, 12)):
            n_true = classical_noise(o, r, cfg)
            ns, deltas = measure_series(n_true, cfg, 10, derive_seed(5, "slope", k))
            n, sem, delta = summarize_series(ns, deltas, cfg)
            pts.append(point(float(o), n, sem, delta))
        curve = fit_noise_curve(pts)
        true_slope = np.cosh(2 * r) - 1
        assert curve.slope(1.0) == pytest.approx(true_slope, abs=2 * 3 * curve.slope_sigma(1.0))


class TestOverlapUncertainty:
    def curve(self):
        os = np.linspace(0.0, 1.0, 12)
        return fit_noise_curve(make_points(os, 1.0 + 0.5 * os, sigma=1e-6))

    def test_linear_in_delta_n(self):
        curve = self.curve()
        a = overlap_uncertainty(curve, 0.9, 0.02)
        b = overlap_uncertainty(curve, 0.9, 0.04)
        assert b["delta_o_est"] == pytest.approx(2 * a["delta_o_est"], rel=1e-12)
        assert not a["insensitive"]

    def test_flat_curve_flagged_insensitive(self):
        os = np.linspace(0.0, 1.0, 12)
        curve = fit_noise_curve(make_points(os, np.ones(12), sigma=1e-6))
        u = overlap_uncertainty(curve, 0.95, 0.02)
        assert u["insensitive"]
        # evaluated at the slope floor instead of diverging
        assert u["delta_o_est"] == pytest.approx(0.02 / 1e-3)

    def test_unresolved_slope_flagged(self):
        rng = np.random.default_rng(1)
        os = np.linspace(0.0, 1.0, 16)
        ns = 1.0 + rng.normal(0, 0.002, size=16)
        curve = fit_noise_curve(make_points(os, ns, sigma=0.002))
        flags = [overlap_uncertainty(curve, o, 0.02)["insensitive"] for o in (0.9, 0.95, 1.0)]
        assert all(flags)


class TestEnhancement:
    def test_identical_inputs_give_unity(self):
        curve = fit_noise_curve(make_points(np.linspace(0, 1, 12), 1 + 0.3 * np.linspace(0, 1, 12)))
        table = delta_o_table(curve)
        result = enhancement(table, table)
        assert result["factor"] == 1.0

    def test_empty_subset_rejected(self):
        curve = fit_noise_curve(
            make_points([0.1, 0.2, 0.3, 0.82, 0.85], 1 + 0.3 * np.array([0.1, 0.2, 0.3, 0.82, 0.85]))
        )
        table = delta_o_table(curve)
        with pytest.raises(EstimationError):
            enhancement(table, table)

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
        result = enhancement(delta_o_table(fit_noise_curve(cl)),
                             delta_o_table(fit_noise_curve(qu)))
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
                u = overlap_uncertainty(curve, o, 0.04)
                errs.append(u["delta_o_est"] / (0.04 / abs(slope_true)) - 1.0)
        assert abs(np.mean(errs)) < 0.1

    def test_estimate_sensitivity_bundle(self):
        os = np.linspace(0.0, 1.0, 10)
        kappa = 0.02
        nc, nq = 1 + 0.2 * os, 1.2 - 0.5 * os
        cl = fit_noise_curve(
            [point(float(o), float(v), 1e-6, kappa * float(v))
             for o, v in zip(os, nc)])
        qu = fit_noise_curve(
            [point(float(o), float(v), 1e-6, kappa * float(v))
             for o, v in zip(os, nq)])
        angles = np.linspace(0, 2 * ALPHA, 9)
        tc, tq = delta_o_table(cl), delta_o_table(qu)
        assert len(tc) == len(tq) == 10
        assert enhancement(tc, tq)["factor"] == pytest.approx(
            angle_enhancement(angles, 1 - angles / (2 * ALPHA), tc, tq)[0], rel=1e-9)

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
            result = enhancement(delta_o_table(fit_noise_curve(cl)),
                                 delta_o_table(fit_noise_curve(qu)))
            assert result["factor"] > 1.0

    def test_common_gain_leaves_enhancement_unchanged(self):
        os = np.linspace(0.0, 1.0, 10)
        cl = make_points(os, 1 + 0.2 * os, delta=0.02)
        qu = make_points(os, 1.2 - 0.5 * os, delta=0.015)
        base = enhancement(delta_o_table(fit_noise_curve(cl)),
                           delta_o_table(fit_noise_curve(qu)))["factor"]
        gain = 3.7
        cl2 = [point(p["overlap"], gain * p["n"], gain * p["sigma_n"], gain * p["delta_n"])
               for p in cl]
        qu2 = [point(p["overlap"], gain * p["n"], gain * p["sigma_n"], gain * p["delta_n"])
               for p in qu]
        scaled = enhancement(delta_o_table(fit_noise_curve(cl2)),
                             delta_o_table(fit_noise_curve(qu2)))["factor"]
        assert scaled == pytest.approx(base, rel=1e-9)


class TestAngleCalibration:
    def test_ideal_bowtie_equality(self):
        # constant wedge slope cancels in the ratio even with varying delta_n
        angles = np.linspace(0.0, 2 * ALPHA, 20)
        os = np.linspace(0.0, 1.0, 10)
        kappa = 0.03
        nc, nq = 1 + 0.2 * os, 1.2 - 0.5 * os
        cl = [point(o, v, 1e-6, kappa * v) for o, v in zip(os, nc)]
        qu = [point(o, v, 1e-6, kappa * v) for o, v in zip(os, nq)]
        tc = delta_o_table(fit_noise_curve(cl))
        tq = delta_o_table(fit_noise_curve(qu))
        overlap_factor = enhancement(tc, tq)["factor"]
        angle_factor = angle_enhancement(angles, 1 - angles / (2 * ALPHA), tc, tq)[0]
        assert angle_factor == pytest.approx(overlap_factor, rel=1e-9)

    def test_rejects_non_monotone(self):
        with pytest.raises(EstimationError):
            angle_enhancement(np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.7, 0.8]), [], [])

    @staticmethod
    def _random_table(rng):
        n = int(rng.integers(2, 13))
        # a[0] >= 0; every segment at least 0.002 wide in overlap
        angles = rng.uniform(0.0, 0.01) + np.cumsum(rng.uniform(0.01, 0.1, n)) - 0.01
        overlaps = rng.uniform(0.95, 1.0) - np.append(
            0.0, np.cumsum(rng.uniform(0.002, 0.03, n - 1)))
        return angles, overlaps

    @staticmethod
    def _records(rng, overlaps):
        return [{"overlap": float(o), "delta_o_est": float(rng.uniform(0.01, 1.0)),
                 "slope": 0.0, "insensitive": False} for o in overlaps]

    def _assert_matches_reference(self, angles, overlaps, classical, quantum):
        want = [reference_angle_deltas(angles, overlaps, r) for r in (classical, quantum)]
        slopes = np.diff(overlaps) / np.diff(angles)
        got = [_angle_deltas(overlaps, slopes, r) for r in (classical, quantum)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert angle_enhancement(angles, overlaps, classical, quantum) == _ratio_of_means(*want)

    def test_on_table_overlaps_matches_the_reference_bit_for_bit(self):
        # the only overlaps a sweep passes: np.interp returns the knot angle
        rng = np.random.default_rng(11)
        for _ in range(200):
            angles, overlaps = self._random_table(rng)
            self._assert_matches_reference(angles, overlaps,
                                           self._records(rng, overlaps),
                                           self._records(rng, rng.permutation(overlaps)))

    def test_between_knots_and_past_the_ends_matches_the_reference(self):
        # inside a segment, at least 1% of its width (>= 2e-5) from either knot
        rng = np.random.default_rng(12)
        for _ in range(200):
            angles, overlaps = self._random_table(rng)
            inside = overlaps[1:] + rng.uniform(0.01, 0.99, len(angles) - 1) * -np.diff(overlaps)
            past = [rng.uniform(overlaps[0], 1.0), overlaps[-1] - rng.uniform(0.0, 0.01)]
            self._assert_matches_reference(angles, overlaps,
                                           self._records(rng, inside),
                                           self._records(rng, np.append(inside, past)))

    @pytest.mark.parametrize("angles,overlaps", [
        ([0.0, 0.1, 0.2], [1.0, 0.95]),
        ([0.0], [1.0]),
        ([[0.0, 0.1]], [[1.0, 0.95]]),
        ([0.0, 0.2, 0.1], [1.0, 0.95, 0.9]),
        ([-0.1, 0.1, 0.2], [1.0, 0.95, 0.9]),
        ([0.0, 0.1, 0.2], [1.0, 0.9, 0.95]),
    ], ids=["shapes", "one-row", "2-d", "angles-unsorted", "angles-negative",
            "overlaps-rising"])
    def test_bad_tables_raise_like_the_reference(self, angles, overlaps):
        with pytest.raises(EstimationError) as want:
            reference_angle_deltas(angles, overlaps, [])
        with pytest.raises(EstimationError) as got:
            angle_enhancement(angles, overlaps, [], [])
        assert str(got.value) == str(want.value)

    @staticmethod
    def _factors_for_weight_map(w):
        from noiseimaging.scene import bowtie, overlaps

        n = 256
        mask = bowtie(0.0, ALPHA, 120, n, n)
        angles = np.linspace(0.0, 2 * ALPHA, 60)
        os = np.array([overlaps(bowtie(d, ALPHA, 120, n, n), mask, n, w)[0]
                       for d in angles])
        pts_o = np.sort(os)
        kappa = 0.03
        nc, nq = 1 + 0.2 * pts_o, 1.2 - 0.5 * pts_o
        cl = [point(float(o), float(v), 1e-6, kappa * float(v))
              for o, v in zip(pts_o, nc)]
        qu = [point(float(o), float(v), 1e-6, kappa * float(v))
              for o, v in zip(pts_o, nq)]
        tc = delta_o_table(fit_noise_curve(cl))
        tq = delta_o_table(fit_noise_curve(qu))
        return enhancement(tc, tq)["factor"], angle_enhancement(angles, os, tc, tq)[0]

    def test_nonuniform_beam_changes_angle_factor(self):
        # an angular hotspot in the beam profile bends O(angle), so the angle
        # and overlap enhancements separate; a uniform beam keeps them equal
        # to rasterization accuracy
        n = 256
        yy, xx = np.mgrid[0:n, 0:n]
        cx = n / 2 - 0.5
        phi = np.arctan2(yy - cx, xx - cx)
        d1 = np.abs(np.angle(np.exp(1j * (phi - ALPHA))))
        d2 = np.abs(np.angle(np.exp(1j * (phi - ALPHA - np.pi))))
        w = 1 + 8 * np.exp(-((np.minimum(d1, d2) / 0.1) ** 2))

        of_u, af_u = self._factors_for_weight_map(np.ones((n, n)))
        of_h, af_h = self._factors_for_weight_map(w)
        assert abs(af_u - of_u) / of_u < 2e-4
        assert abs(af_h - of_h) / of_h > 1e-3


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
    from noiseimaging.estimate import summarize_series

    r, cfg = alphabet_profile(samples_per_point=100, cell_size=8, n_series=2, seed=6)
    curves = []
    for technique, slope in ((TECH_CLASSICAL, 0.2), (TECH_QUANTUM, -0.5)):
        pts = []
        for k, o in enumerate(np.linspace(0.0, 1.0, 8).tolist()):
            ns, deltas = measure_series(1.2 + slope * o, cfg, 2, derive_seed(6, technique, k))
            pts.append(point(o, *summarize_series(ns, deltas, cfg)))
        curves.append(fit_noise_curve(pts))
    tables = [delta_o_table(curve) for curve in curves]
    font = load_font()
    records, rankings = alphabet_gun(font, font["Z"], r, cfg)
    for name, result in [("points", [curve.points for curve in curves]),
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

    def test_all_letters_reported_with_flags(self):
        font = load_font()
        records, _ = alphabet_gun(font, font["Z"],
                                  *alphabet_profile(cell_size=8, n_series=2, seed=5))
        assert len(records) == 52
        invalid = [r for r in records if not r["valid"]]
        assert {r["letter"] for r in invalid} == {"I"}
        assert all(r["reason"] for r in invalid)
