"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success).  Statistical checks run at fixed seeds; expected values come from
closed forms re-derived in-line or from the sampling oracles, never from
eyeballing the pipeline under test.
"""

import json
import time

import numpy as np
import pytest

from noiseimaging.cli import main
from noiseimaging.config import RunConfig
from noiseimaging.estimate import (
    alphabet_gun,
    delta_o_table,
    enhancement,
    fit_noise_curve,
)
from gaussian_reference import two_mode_squeezed_cov, apply_loss, phase_rotate
from noiseimaging.noise import (
    TECH_CLASSICAL,
    TECH_QUANTUM,
    classical_noise,
    quantum_noise,
)
from noiseimaging.scene import load_font
from noiseimaging.traces import derive_seed, measure_series

from config_files import write_config
from oracles import mc_classical_noise, mc_quantum_noise
from scene_reference import cell_moments

# desk-scale lossless calibration: r solving 20 r log10(e) = 2.2
R_DESK = 2.2 * np.log(10.0) / 20.0

# angles reproducing the default overlap design on an ideal wedge pair
DESK_ANGLES = (0.0, 0.09, 0.18, 0.27, 0.36, 0.45,
               5.4, 7.2, 9.0, 13.5, 20.25, 27.0, 33.75, 39.6, 45.0)


def _finish(num, title, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    line = "ACCEPTANCE %s - criterion %d (%s)" % (status, num, title)
    if detail:
        line += ": " + detail
    print(line)
    assert not failures, "; ".join(failures)


def _desk_config(**overrides):
    base = dict(
        squeezing_db_detected=2.2, t_probe=1.0, t_conj=1.0, lock_noise=0.0,
        grid_size=512, cell_size=1, angles_deg=DESK_ANGLES, seed=20260401,
    )
    base.update(overrides)
    return RunConfig(**base)


def _run_sweep(tmp_path, tag, cfg):
    cfg_path = tmp_path / ("%s.cfg" % tag)
    out = tmp_path / tag
    write_config(cfg, cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    return fits, summary


def test_criterion_1_squeezing_calibration(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "cal"
    cfg_path = tmp_path / "cal.cfg"
    write_config(_desk_config(), cfg_path)
    code = main(["calibrate", "--db", "2.2", "--config", str(cfg_path),
                 "--out", str(out)])
    payload = json.loads((out / "calibration.json").read_text())
    elapsed = time.perf_counter() - started

    failures = []
    if code != 0:
        failures.append("calibrate exited %d" % code)
    if abs(payload["r"] - R_DESK) > 1e-4:
        failures.append("r = %.6f, expected %.6f +/- 1e-4" % (payload["r"], R_DESK))
    measured = payload["measured_db_over_series"]
    if abs(measured + 2.20) > 0.05:
        failures.append("measured %.3f dB, expected -2.20 +/- 0.05" % measured)
    if payload["n_series"] != 10:
        failures.append("expected 10 series, got %d" % payload["n_series"])
    if elapsed >= 10.0:
        failures.append("took %.1f s (limit 10 s)" % elapsed)
    _finish(1, "squeezing calibration", failures,
            "r = %.6f, %.3f dB over 10 series, %.1f s" % (payload["r"], measured, elapsed))


def test_criterion_2_noise_curve_shape(tmp_path):
    started = time.perf_counter()
    fits, summary = _run_sweep(tmp_path, "shape", _desk_config())
    elapsed = time.perf_counter() - started

    failures = []
    rows = summary["techniques"]
    if len(rows["classical"]["points"]) != 15:
        failures.append("expected 15 angles")

    cl = fits["classical"]
    coeffs = cl["cubic_coeffs"]
    sigmas = cl["coeff_sigmas"]
    for k in (2, 3):
        if abs(coeffs[k]) > 3 * sigmas[k]:
            failures.append(
                "classical O^%d coefficient %.4f not consistent with 0 (sigma %.4f)"
                % (k, coeffs[k], sigmas[k])
            )
    n_at_unity = sum(coeffs)
    if abs(n_at_unity - 1.130) > 0.01:
        failures.append("classical fit at O=1 is %.4f, expected 1.130 +/- 0.01" % n_at_unity)

    qc = np.array(fits["quantum"]["cubic_coeffs"])
    grid = np.linspace(0.0, 1.0, 101)
    slopes = qc[1] + 2 * qc[2] * grid + 3 * qc[3] * grid**2
    if not np.all(slopes < 0):
        failures.append("quantum fit is not monotonically decreasing on [0, 1]")

    crossing = summary["snl_crossing_overlap"]
    closed_form = (np.cosh(R_DESK) ** 2 - 1) / (np.cosh(R_DESK) ** 2 - np.exp(-2 * R_DESK))
    if crossing is None or abs(crossing - 0.140) > 0.02:
        failures.append("SNL crossing %s, expected 0.140 +/- 0.02" % crossing)
    if crossing is None or abs(crossing - closed_form) > 0.02:
        failures.append("SNL crossing %s, closed form %.4f" % (crossing, closed_form))
    if elapsed >= 60.0:
        failures.append("took %.1f s (limit 60 s)" % elapsed)
    _finish(2, "noise curve shape", failures,
            "N_cl(1) = %.4f, crossing = %.4f (closed form %.4f), %.1f s"
            % (n_at_unity, crossing, closed_form, elapsed))


def test_criterion_3_enhancement_factor(tmp_path):
    started = time.perf_counter()
    cfg = _desk_config(samples_per_point=4800, n_series=40)
    _, clean = _run_sweep(tmp_path, "enh0", cfg)
    _, locked = _run_sweep(tmp_path, "enh2", _desk_config(
        samples_per_point=4800, n_series=40, lock_noise=0.02))
    elapsed = time.perf_counter() - started

    factor = clean["enhancement"]["factor"]
    factor_locked = locked["enhancement"]["factor"]
    failures = []
    if abs(factor - 6.7) > 0.3:
        failures.append("enhancement %.3f, expected 6.7 +/- 0.3" % factor)
    if not factor_locked < factor:
        failures.append("lock noise did not decrease the factor (%.3f -> %.3f)"
                        % (factor, factor_locked))
    if not factor_locked > 1.0:
        failures.append("lock-noise factor %.3f not above 1" % factor_locked)
    if elapsed >= 120.0:
        failures.append("took %.1f s (limit 120 s)" % elapsed)
    _finish(3, "enhancement factor", failures,
            "%.3f clean, %.3f with lock noise, %.1f s" % (factor, factor_locked, elapsed))


def test_criterion_4_alphabet_gun(tmp_path):
    started = time.perf_counter()
    cfg = RunConfig(
        squeezing_db_detected=2.2, t_probe=0.44, t_conj=0.44, lock_noise=0.02,
        electronic_floor=1400.0, power_per_pixel=1.0, cell_size=8,
        n_series=10, seed=20260402,
    )
    cfg_path = tmp_path / "alphabet.cfg"
    out = tmp_path / "alphabet"
    write_config(cfg, cfg_path)
    code = main(["alphabet", "--mask", "Z", "--config", str(cfg_path),
                 "--out", str(out)])
    payload = json.loads((out / "ranking.json").read_text())
    elapsed = time.perf_counter() - started

    failures = []
    if code != 0:
        failures.append("alphabet exited %d" % code)
    q = payload["rankings"]["quantum"]
    c = payload["rankings"]["classical"]
    if q["best"] != "Z":
        failures.append("quantum ranking selected %r" % q["best"])
    if q["sub_snl_letters"] != ["Z"]:
        failures.append("sub-SNL letters %r, expected only Z" % q["sub_snl_letters"])
    if not q["sigma_separation"] > c["sigma_separation"]:
        failures.append(
            "quantum separation %.1f sigma not above classical %.1f sigma"
            % (q["sigma_separation"], c["sigma_separation"])
        )
    excluded = [e["letter"] for e in payload["excluded"]]
    if excluded != ["I"]:
        failures.append("excluded letters %r, expected ['I']" % excluded)
    if elapsed >= 120.0:
        failures.append("took %.1f s (limit 120 s)" % elapsed)
    _finish(4, "alphabet gun", failures,
            "quantum picks %s at %.0f sigma (classical %.0f sigma), excluded %s, %.1f s"
            % (q["best"], q["sigma_separation"], c["sigma_separation"], excluded, elapsed))


def test_criterion_5_delta_n_scales_with_n():
    levels = np.array([0.6, 1.0, 1.6, 2.5])
    cfg = RunConfig(n_series=1)
    mean_n, mean_delta, sem_delta = [], [], []
    for li, level in enumerate(levels):
        ns, deltas = [], []
        for seed in range(100):
            _, (n, delta) = measure_series(level, cfg, derive_seed(20260403, "scaling", li, seed))
            ns.append(n[0])
            deltas.append(delta[0])
        mean_n.append(np.mean(ns))
        mean_delta.append(np.mean(deltas))
        sem_delta.append(np.std(deltas, ddof=1) / np.sqrt(len(deltas)))
    x, y = np.array(mean_n), np.array(mean_delta)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
    # intercept uncertainty from the per-level scatter of the delta means
    cov = np.linalg.inv(design.T @ design)
    sigma_intercept = np.sqrt(
        cov[0, 0] * np.mean(np.array(sem_delta) ** 2) * len(levels)
    )

    failures = []
    if abs(coef[0]) > 3 * sigma_intercept:
        failures.append("intercept %.5f exceeds 3 sigma (%.5f)" % (coef[0], sigma_intercept))
    if not r2 > 0.95:
        failures.append("R^2 = %.4f, need > 0.95" % r2)
    _finish(5, "delta-n proportional to n", failures,
            "intercept %.5f +/- %.5f, R^2 = %.5f" % (coef[0], sigma_intercept, r2))


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(20260404)
    failures = []
    worst = 0.0
    for draw in range(1000):
        r = rng.uniform(0.0, 1.2)
        t_p, t_c = rng.uniform(0.3, 1.0, size=2)
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        transmissions = rng.uniform(0.0, 1.0, size=k)
        o, q = cell_moments(weights, transmissions)
        source = RunConfig(t_probe=t_p, t_conj=t_c)

        # symplectic positivity along the composition chain
        cov = two_mode_squeezed_cov(r)
        cov = apply_loss(cov, 0, t_p)
        cov = apply_loss(cov, 1, t_c * transmissions[0])
        cov = phase_rotate(cov, 1, rng.uniform(0, 2 * np.pi))
        if cov.symplectic_eigenvalues().min() < 0.5 - 1e-9:
            failures.append("draw %d: symplectic eigenvalue below 1/2" % draw)
            break

        # full Monte Carlo comparison on a subsample of draws; 5-standard-
        # error agreement on every tested draw
        if draw % 25 == 0:
            n_mc = 150_000
            mc_q, se_q = mc_quantum_noise(weights, transmissions, r, t_p, t_c,
                                          0.0, n_mc, rng)
            mc_c, se_c = mc_classical_noise(weights, transmissions, r, t_c,
                                            n_mc, rng)
            dq = abs(quantum_noise(o, q, r, source) - mc_q) / se_q
            dc = abs(classical_noise(o, r, source) - mc_c) / se_c
            worst = max(worst, dq, dc)
            if dq >= 5:
                failures.append("draw %d: quantum off by %.1f SE" % (draw, dq))
            if dc >= 5:
                failures.append("draw %d: classical off by %.1f SE" % (draw, dc))
    _finish(6, "oracle equivalence", failures,
            "1000 draws physical, worst MC deviation %.2f SE" % worst)


def _binary_decomposition(o):
    """(overlap, root overlap) of fully transmitted and fully blocked cells
    mixing to overlap o."""
    return cell_moments(np.array([o, 1.0 - o]), np.array([1.0, 0.0]))


def _pipeline_enhancement(r, source, angles_overlaps, acq, n_series, master, tag):
    acq = acq.replace(n_series=n_series)
    tables = {}
    for technique in (TECH_CLASSICAL, TECH_QUANTUM):
        pts = []
        for k, o in enumerate(angles_overlaps):
            o_cells, q_cells = _binary_decomposition(o)
            if technique == TECH_QUANTUM:
                n_true = quantum_noise(o_cells, q_cells, r, source)
            else:
                n_true = classical_noise(o_cells, r, source)
            (n, sem, delta), _ = measure_series(
                n_true, acq, derive_seed(master, tag, technique, k),
            )
            pts.append({"overlap": float(o), "n": n, "sigma_n": sem, "delta_n": delta})
        pts.sort(key=lambda p: p["overlap"])
        tables[technique] = delta_o_table(pts, *fit_noise_curve(pts))
    return enhancement(tables[TECH_CLASSICAL], tables[TECH_QUANTUM])


DESK_OVERLAPS = (1.0, 0.998, 0.996, 0.994, 0.992, 0.99,
                 0.88, 0.84, 0.8, 0.7, 0.55, 0.4, 0.25, 0.12, 0.002)


def test_criterion_7_unbalanced_loss_degradation():
    # binary-cell pipeline at a deeper squeezing point where the stated
    # imbalance range actually wipes out the advantage
    acq = RunConfig(samples_per_point=4800)
    factors = []
    for t_probe in (1.0, 0.8, 0.6, 0.4, 0.2):
        source = RunConfig(t_probe=t_probe, t_conj=0.96)
        result = _pipeline_enhancement(0.6, source, DESK_OVERLAPS, acq, 20,
                                       20260405, "imbalance-%s" % t_probe)
        factors.append(result["factor"])

    failures = []
    if not all(b < a for a, b in zip(factors, factors[1:])):
        failures.append("enhancement not monotone: %s" % [round(f, 3) for f in factors])
    if not factors[-1] <= 1.0:
        failures.append("advantage not eliminated at t_probe=0.2 (%.3f)" % factors[-1])
    _finish(7, "unbalanced-loss degradation", failures,
            "factors %s" % [round(f, 3) for f in factors])


def test_criterion_8_null_case():
    acq = RunConfig()
    failures = []

    # both curves flat at the SNL
    tables = {}
    for technique in (TECH_CLASSICAL, TECH_QUANTUM):
        pts = []
        for k, o in enumerate(DESK_OVERLAPS):
            o_cells, q_cells = _binary_decomposition(o)
            n_true = (quantum_noise(o_cells, q_cells, 0.0, acq) if technique == TECH_QUANTUM
                      else classical_noise(o_cells, 0.0, acq))
            (n, sem, delta), _ = measure_series(
                n_true, acq.replace(n_series=10), derive_seed(20260406, "null", technique, k),
            )
            if abs(n - 1.0) > 5 * sem:
                failures.append("%s at O=%.3f reads %.4f +/- %.4f" % (technique, o, n, sem))
            pts.append({"overlap": float(o), "n": n, "sigma_n": sem, "delta_n": delta})
        pts.sort(key=lambda p: p["overlap"])
        tables[technique] = delta_o_table(pts, *fit_noise_curve(pts))

    result = enhancement(tables[TECH_CLASSICAL], tables[TECH_QUANTUM])
    if abs(result["factor"] - 1.0) > 0.1:
        failures.append("null enhancement %.3f, expected 1 +/- 0.1" % result["factor"])
    if result["n_insensitive"] == 0:
        failures.append("flat curves were not flagged insensitive")

    # alphabet deviations all consistent with 1
    font = load_font()
    records, _ = alphabet_gun(
        font, font["Z"], 0.0,
        RunConfig(electronic_floor=1400.0, cell_size=8, n_series=5, seed=20260407),
    )
    for rec in records:
        if rec["valid"] and abs(rec["deviation"] - 1.0) > 5 * rec["sigma_deviation"]:
            failures.append("letter %s %s deviation %.4f +/- %.4f"
                            % (rec["letter"], rec["technique"], rec["deviation"],
                               rec["sigma_deviation"]))
    _finish(8, "null case", failures,
            "enhancement %.3f with %d insensitive points"
            % (result["factor"], result["n_insensitive"]))
