"""Batch front end: overlap sweeps, letter recognition and calibration.

Every command reads one config file (defaults apply when none is given),
derives all randomness from the single seed, and writes CSV/JSON artifacts
that are byte-identical across reruns with the same config and seed.
Failures exit nonzero with one machine-readable JSON line on stderr.
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimate, scene
from .config import ConfigError, RunConfig, load_config, save_config, with_overrides
from .estimate import (
    AngleCalibration,
    CurvePoint,
    EstimationError,
    estimate_sensitivity,
    fit_noise_curve,
)
from .noise import (
    NoiseModelError,
    TECH_CLASSICAL,
    TECH_QUANTUM,
    calibrate_r,
    detected_noise_floor,
    quantum_noise,
    technique_noise,
)
from .scene import SceneError, single_cell_decomposition
from .traces import TraceError, measure_series, seeded_config

SWEEP_SCHEMA = "noiseimaging.sweep.v1"
ALPHABET_SCHEMA = "noiseimaging.alphabet.v1"

_TECHNIQUES = (TECH_CLASSICAL, TECH_QUANTUM)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_json(path, payload):
    """Write a JSON object; non-finite floats become null, listed by dotted path
    under a top-level "non_finite" key that appears only when one was replaced."""
    replaced = []
    payload = _finite(payload, "", replaced)
    if replaced:
        payload["non_finite"] = replaced
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="ascii",
    )


def _finite(value, path, replaced):
    """Copy of a JSON value with non-finite floats as None; appends their paths."""
    if isinstance(value, float) and not math.isfinite(value):
        replaced.append(path)
        return None
    prefix = path + "." if path else ""
    if isinstance(value, dict):
        return {key: _finite(v, prefix + str(key), replaced)
                for key, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_finite(v, prefix + str(i), replaced) for i, v in enumerate(value)]
    return value


def _write_csv(path, schema, header, rows):
    lines = ["# schema: %s" % schema, ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = with_overrides(cfg, seed=args.seed, out_dir=args.out)
    cfg.validate()
    return cfg


def _out_dir(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# sweep

def _measure_curve(cfg, params, decomps, technique):
    acq = cfg.acquisition()
    rows, points = [], []
    for k, (angle, decomp) in enumerate(decomps):
        n_true = technique_noise(technique, decomp, params)
        series = measure_series(
            n_true,
            seeded_config(acq, cfg.seed, "sweep", technique, k),
            cfg.n_series,
            technique=technique,
        )
        n_mean, sem, delta_mean = estimate.summarize_series(series, acq.n_segments)
        points.append(CurvePoint(
            overlap=decomp.overlap, n=n_mean, sigma_n=sem, delta_n=delta_mean,
        ))
        for s, m in enumerate(series):
            rows.append((angle, decomp.overlap, technique, s, m.n, m.n_db, m.delta_n))
    return rows, points


def cmd_sweep(cfg):
    params = cfg.twin_beam_params()
    weight = cfg.load_weight_map()
    grid = scene.CoherenceGrid(cell_size=cfg.cell_size)
    alpha = cfg.bowtie_half_angle()
    radius = cfg.bowtie_radius()
    mask = scene.bowtie(0.0, alpha, radius, cfg.grid_size, cfg.grid_size)

    decomps = []
    for angle in cfg.angles_deg:
        lo = scene.bowtie(np.deg2rad(angle), alpha, radius, cfg.grid_size, cfg.grid_size)
        decomps.append((angle, scene.decompose(lo, mask, grid, weight)))

    all_rows, curves = [], {}
    for technique in _TECHNIQUES:
        rows, points = _measure_curve(cfg, params, decomps, technique)
        all_rows.extend(rows)
        curves[technique] = fit_noise_curve(
            sorted(points, key=lambda p: p.overlap), technique=technique
        )

    angles = np.array([a for a, _ in decomps])
    overlaps = np.array([d.overlap for _, d in decomps])
    order = np.argsort(angles)
    try:
        calibration = AngleCalibration(angles=angles[order], overlaps=overlaps[order])
        calibration_note = ""
    except EstimationError as exc:
        calibration, calibration_note = None, str(exc)
    result = estimate_sensitivity(curves[TECH_CLASSICAL], curves[TECH_QUANTUM],
                                  calibration)
    enh = result.enhancement
    angle_enh = result.angle_enhancement
    angle_note = result.angle_note or calibration_note
    tables = result.delta_o

    out = _out_dir(cfg)
    _write_csv(
        out / "sweep.csv", SWEEP_SCHEMA,
        ("angle_deg", "overlap", "technique", "series", "noise_snl", "noise_db",
         "delta_noise_snl"),
        all_rows,
    )
    _write_json(out / "fits.json", {
        technique: _curve_payload(curve) for technique, curve in curves.items()
    })
    summary = {
        "config": cfg.as_dict(),
        "enhancement": {"factor": enh.factor, "sigma": enh.sigma,
                        "n_points": enh.n_points, "n_insensitive": enh.n_insensitive},
        "angle_enhancement": (
            {"factor": angle_enh.factor, "sigma": angle_enh.sigma}
            if angle_enh is not None else {"error": angle_note}
        ),
        "snl_crossing_overlap": curves[TECH_QUANTUM].snl_crossing(),
        "techniques": {},
    }
    for technique, curve in curves.items():
        summary["techniques"][technique] = {
            "points": [
                {"overlap": p.overlap, "n": p.n, "sigma_n": p.sigma_n,
                 "delta_n": p.delta_n} for p in curve.points
            ],
            "delta_o": [
                {"overlap": u.overlap, "delta_o_est": u.delta_o,
                 "slope": u.slope, "insensitive": u.insensitive}
                for u in tables[technique]
            ],
        }
    _write_json(out / "summary.json", summary)
    print("sweep: %d angles x %d series x %d techniques -> %s"
          % (len(cfg.angles_deg), cfg.n_series, len(_TECHNIQUES), out))
    print("enhancement (O >= %.2g): %.3f +/- %.3f"
          % (estimate.ENHANCEMENT_MIN_OVERLAP, enh.factor, enh.sigma))
    return 0


def _curve_payload(curve):
    return {
        "cubic_coeffs": [float(c) for c in curve.coeffs],
        "coeff_sigmas": [float(np.sqrt(max(v, 0.0))) for v in np.diag(curve.coeff_cov)],
        "linear_stage": {"intercept": curve.linear_coeffs[0],
                         "slope": curve.linear_coeffs[1]},
        "synthetic_point": {"overlap": curve.synthetic_point[0],
                            "n": curve.synthetic_point[1],
                            "sigma": curve.synthetic_point[2]},
        "residual_rms": curve.residual_rms,
        "n_points": len(curve.points),
    }


# ---------------------------------------------------------------------------
# alphabet

def cmd_alphabet(cfg, mask_letter):
    params = cfg.twin_beam_params()
    font_dir = cfg.font_dir or None
    mask = scene.glyph(mask_letter, font_dir)
    grid = scene.CoherenceGrid(cell_size=cfg.cell_size)
    result = estimate.alphabet_gun(
        mask, params, cfg.acquisition(), grid, font_dir=font_dir,
        n_series=cfg.n_series, power_per_pixel=cfg.power_per_pixel,
        master_seed=cfg.seed,
    )
    out = _out_dir(cfg)
    rows = []
    for rec in result.records:
        rows.append((
            rec.letter, rec.technique, int(rec.valid), rec.overlap,
            rec.n_baseline, 10.0 * np.log10(rec.n_baseline), rec.sigma_baseline,
            rec.n_masked, 10.0 * np.log10(rec.n_masked), rec.sigma_masked,
            rec.d, rec.sigma_d, int(rec.sub_snl), rec.reason,
        ))
    _write_csv(
        out / "alphabet.csv", ALPHABET_SCHEMA,
        ("letter", "technique", "valid", "overlap",
         "n_baseline", "n_baseline_db", "sigma_baseline",
         "n_masked", "n_masked_db", "sigma_masked",
         "deviation", "sigma_deviation", "sub_snl", "reason"),
        rows,
    )
    payload = {
        "config": cfg.as_dict(),
        "mask_letter": mask_letter,
        "excluded": [{"letter": letter, "reason": reason}
                     for letter, reason in result.excluded],
        "rankings": {},
    }
    for technique, ranking in result.rankings.items():
        payload["rankings"][technique] = {
            "ranking": list(ranking.ranking),
            "best": ranking.best,
            "runner_up": ranking.runner_up,
            "sigma_separation": ranking.sigma_separation,
            "sub_snl_letters": list(ranking.sub_snl_letters),
        }
    _write_json(out / "ranking.json", payload)
    q = result.rankings[TECH_QUANTUM]
    print("alphabet: mask %r, quantum best %r (runner-up %r, %.1f sigma), %d excluded"
          % (mask_letter, q.best, q.runner_up, q.sigma_separation, len(result.excluded)))
    return 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(cfg, db):
    r = calibrate_r(db, cfg.t_probe, cfg.t_conj, cfg.lock_noise)
    calibrated = replace(cfg, r=r, squeezing_db_detected=float(db))
    params = calibrated.twin_beam_params()
    n_true = quantum_noise(single_cell_decomposition(1.0), params)
    acq = seeded_config(cfg.acquisition(), cfg.seed, "calibrate")
    series = measure_series(n_true, acq, cfg.n_series, technique=TECH_QUANTUM)
    n_mean = float(np.mean([m.n for m in series]))
    out = _out_dir(cfg)
    save_config(calibrated, out / "calibrated.cfg")
    floor = detected_noise_floor(params)
    payload = {
        "target_db": float(db),
        "r": r,
        "detected_noise_snl": n_true,
        "detected_db": 10.0 * np.log10(n_true),
        "measured_db_over_series": 10.0 * np.log10(n_mean),
        "n_series": cfg.n_series,
        "loss_bound_db": 10.0 * np.log10(floor) if floor > 0 else None,
        "config": calibrated.as_dict(),
    }
    _write_json(out / "calibration.json", payload)
    print("calibrate: r = %.6f for -%.4g dB detected (measured %.3f dB over %d series)"
          % (r, db, payload["measured_db_over_series"], cfg.n_series))
    return 0


# ---------------------------------------------------------------------------

def _error_line(command, exc):
    field = getattr(exc, "field", None)
    payload = {"error": {"command": command, "message": str(exc)}}
    if field:
        payload["error"]["field"] = field
    return json.dumps(payload, sort_keys=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noiseimaging",
        description="Twin-beam noise imaging simulator: sweeps, letter tests, calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "overlap sweep over the configured bow-tie angles"),
        ("alphabet", "letter-recognition test against a letter-shaped mask"),
        ("calibrate", "solve the squeezing parameter for a detected dB target"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a run config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        if name == "alphabet":
            p.add_argument("--mask", required=True, metavar="LETTER",
                           help="letter shape of the inserted mask")
        if name == "calibrate":
            p.add_argument("--db", type=float, required=True,
                           help="detected squeezing depth in dB below the SNL")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "alphabet":
            return cmd_alphabet(cfg, args.mask.upper())
        return cmd_calibrate(cfg, args.db)
    except (ConfigError, SceneError, NoiseModelError, TraceError,
            EstimationError) as exc:
        print(_error_line(args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
